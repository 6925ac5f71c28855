"""Hybrid positive-negative self-training for snippet-level action localization."""

from .core import ActionInstance, ExperimentConfig, VideoRecord
from .partition import partition_rows

__all__ = [
    "ActionInstance",
    "ExperimentConfig",
    "VideoRecord",
    "partition_rows",
]

__version__ = "0.1.0"
