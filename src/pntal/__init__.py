"""Hybrid positive-negative self-training for snippet-level action localization."""

from .core import (
    ActionInstance,
    ClassDistribution,
    ExperimentConfig,
    LabelPartition,
    VideoRecord,
    make_distribution,
    softmax,
)
from .partition import partition_label_space, select_negatives, select_positives, sort_ascending

__all__ = [
    "ActionInstance",
    "ClassDistribution",
    "ExperimentConfig",
    "LabelPartition",
    "VideoRecord",
    "make_distribution",
    "softmax",
    "partition_label_space",
    "select_negatives",
    "select_positives",
    "sort_ascending",
]

__version__ = "0.1.0"
