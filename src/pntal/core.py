"""Shared domain types: distributions, label partitions, videos, config.

Class ids are 1-based throughout the public API: action classes are 1..C and
the background class is C+1. Probability vectors are plain float64 numpy
arrays of length C+1, where position ``c - 1`` holds the probability of
class ``c``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PROB_SUM_TOL = 1e-9


class Error(Exception):
    """Base for all package-specific errors."""


class EmptyVectorError(Error, ValueError):
    pass


class NegativeEntryError(Error, ValueError):
    pass


class NonFiniteError(Error, ValueError):
    pass


class ZeroMassError(Error, ValueError):
    pass


class BadConfigError(Error, ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


def _as_float_vector(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ClassDistribution:
    """A probability vector over C action classes plus background."""

    probs: np.ndarray
    class_count: int

    def __post_init__(self):
        probs = _as_float_vector(self.probs)
        object.__setattr__(self, "probs", probs)
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if len(probs) != self.class_count + 1:
            raise ValueError(
                f"probs length {len(probs)} != class_count + 1 = {self.class_count + 1}"
            )
        if not np.all(np.isfinite(probs)):
            raise NonFiniteError("distribution entries must be finite")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("distribution entries must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"distribution sums to {probs.sum()!r}, not 1")
        probs.flags.writeable = False

    @property
    def label_count(self) -> int:
        return self.class_count + 1

    @property
    def background_index(self) -> int:
        return self.class_count + 1

    @property
    def target(self) -> int:
        """Argmax class id; ties break toward the lowest class index."""
        return int(np.argmax(self.probs)) + 1

    def prob_of(self, class_idx: int) -> float:
        return float(self.probs[class_idx - 1])


def make_distribution(raw) -> ClassDistribution:
    """Normalize a non-negative vector into a ClassDistribution.

    Rejects empty input, negative or non-finite entries, and all-zero mass.
    """
    arr = _as_float_vector(raw)
    if arr.size == 0:
        raise EmptyVectorError("cannot build a distribution from an empty vector")
    if arr.size < 2:
        raise EmptyVectorError("need at least two entries (one action class plus background)")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("distribution input must be finite")
    if np.any(arr < 0.0):
        raise NegativeEntryError("distribution input must be non-negative")
    total = float(arr.sum())
    if total <= 0.0:
        raise ZeroMassError("distribution input has zero total mass")
    return ClassDistribution(arr / total, class_count=arr.size - 1)


def softmax(logits) -> ClassDistribution:
    """Numerically stable softmax over logits, as a ClassDistribution."""
    arr = _as_float_vector(logits)
    if arr.size < 2:
        raise EmptyVectorError("need at least two logits")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("logits must be finite")
    shifted = arr - arr.max()
    exps = np.exp(shifted)
    return ClassDistribution(exps / exps.sum(), class_count=arr.size - 1)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for a 2-D logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class LabelPartition:
    """Disjoint split of the label space {1..C+1} into four subspaces."""

    target: int
    positives: frozenset
    negatives: frozenset
    ambiguous: frozenset

    def __post_init__(self):
        object.__setattr__(self, "positives", frozenset(self.positives))
        object.__setattr__(self, "negatives", frozenset(self.negatives))
        object.__setattr__(self, "ambiguous", frozenset(self.ambiguous))
        pos, neg, amb = self.positives, self.negatives, self.ambiguous
        if pos & neg or pos & amb or neg & amb:
            raise ValueError("partition subspaces must be pairwise disjoint")
        if self.target in pos or self.target in neg or self.target in amb:
            raise ValueError("target class must not appear in any other subspace")
        union = {self.target} | pos | neg | amb
        n = 1 + len(pos) + len(neg) + len(amb)
        if union != set(range(1, n + 1)):
            raise ValueError(f"partition does not cover {{1..{n}}}: {sorted(union)}")

    @property
    def label_count(self) -> int:
        return 1 + len(self.positives) + len(self.negatives) + len(self.ambiguous)


@dataclass(frozen=True)
class ActionInstance:
    """One action occurrence as an inclusive snippet span."""

    start: int
    end: int
    class_idx: int
    score: float = 1.0

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"instance start {self.start} > end {self.end}")
        if self.class_idx < 1:
            raise ValueError("class_idx must be >= 1")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("score must lie in [0, 1]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


class _SnippetRow(NamedTuple):
    feature: np.ndarray


@dataclass(frozen=True, eq=False)
class VideoRecord:
    """One video: a read-only (N, d) float64 feature array plus its instances.

    Construction copies the features once and validates them: 2-D and finite.
    """

    video_id: str
    features: np.ndarray
    instances: tuple
    labeled: bool

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"video {self.video_id}: features must be 2-D, got shape {features.shape}")
        if not np.all(np.isfinite(features)):
            raise NonFiniteError(f"video {self.video_id}: features must be finite")
        features.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "instances", tuple(self.instances))
        n = len(features)
        ordered = sorted(self.instances, key=lambda inst: inst.start)
        prev_end = -1
        for inst in ordered:
            if inst.start < 0 or inst.end >= n:
                raise ValueError(
                    f"video {self.video_id}: instance ({inst.start},{inst.end}) outside [0,{n})"
                )
            if inst.start <= prev_end:
                raise ValueError(f"video {self.video_id}: overlapping instances")
            prev_end = inst.end

    @property
    def snippet_count(self) -> int:
        return len(self.features)

    @property
    def snippets(self) -> tuple:
        """Row views exposing ``.feature``, built on each access and stored nowhere.

        Kept only for the benchmark's video fingerprint (``perfbench/workloads.py``);
        everything else reads ``features``.
        """
        return tuple(_SnippetRow(row) for row in self.features)


OBJECTIVES = ("hybrid", "target-only", "target-negative", "soft-pseudo", "complementary")

# Refinement/reconstruction branches of the full video model are out of scope
# for this desk-scale artifact; recorded in every run manifest.
SIMPLIFICATIONS = ("refinement-loss-omitted", "feature-reconstruction-loss-omitted")


@dataclass(frozen=True)
class ExperimentConfig:
    """All hyper-parameters of one experiment in a single validated record."""

    class_count: int = 10
    feature_dim: int = 16
    snippets_per_video: int = 100
    train_video_count: int = 200
    test_video_count: int = 150
    labeled_ratio: float = 0.10
    noise_sigma: float = 0.27
    class_separation: float = 0.02
    ambiguous_ratio: float = 0.15
    distractor_ratio: float = 0.15
    positive_confidence_ratio: float = 0.85  # lambda: positive cutoff as a fraction of max(p)
    unlabeled_loss_weight: float = 1.0  # alpha: weight of the unsupervised loss
    sharpen_temperature: float = 9.0  # calibration temperature applied before partitioning
    pretrain_epochs: int = 20
    selftrain_epochs: int = 50
    learning_rate: float = 3e-3
    weight_decay: float = 0.0
    batch_size: int = 256
    hidden_width: int = 64
    feature_window: int = 0
    objective: str = "hybrid"
    normalize_set_losses: bool = False
    refresh_per_step: bool = False
    soft_nms_sigma: float = 0.5
    soft_nms_floor: float = 0.1
    tiou_grid: tuple = (0.3, 0.4, 0.5, 0.6, 0.7)
    classification_thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    mask_thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tiou_grid", tuple(float(x) for x in self.tiou_grid))
        object.__setattr__(
            self, "classification_thresholds", tuple(float(x) for x in self.classification_thresholds)
        )
        object.__setattr__(self, "mask_thresholds", tuple(float(x) for x in self.mask_thresholds))
        self._check()

    def _check(self):
        def positive_int(name, minimum=1):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
                raise BadConfigError(name, f"must be an integer >= {minimum}, got {v!r}")

        def nonneg_int(name):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise BadConfigError(name, f"must be an integer >= 0, got {v!r}")

        def finite(name):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise BadConfigError(name, f"must be a finite number, got {v!r}")
            return float(v)

        for name in ("class_count", "feature_dim", "snippets_per_video",
                     "train_video_count", "test_video_count", "batch_size", "hidden_width"):
            positive_int(name)
        for name in ("pretrain_epochs", "selftrain_epochs", "feature_window"):
            nonneg_int(name)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise BadConfigError("seed", f"must be an integer, got {self.seed!r}")

        if not (0.0 < finite("labeled_ratio") <= 1.0):
            raise BadConfigError("labeled_ratio", "must lie in (0, 1]")
        if not (0.0 < finite("positive_confidence_ratio") <= 1.0):
            raise BadConfigError("positive_confidence_ratio", "must lie in (0, 1]")
        if finite("unlabeled_loss_weight") < 0.0:
            raise BadConfigError("unlabeled_loss_weight", "must be >= 0")
        if finite("noise_sigma") < 0.0:
            raise BadConfigError("noise_sigma", "must be >= 0")
        if not (0.0 < finite("class_separation") <= 1.0):
            raise BadConfigError("class_separation", "must lie in (0, 1]")
        if not (0.0 <= finite("ambiguous_ratio") <= 1.0):
            raise BadConfigError("ambiguous_ratio", "must lie in [0, 1]")
        if not (0.0 <= finite("distractor_ratio") <= 1.0):
            raise BadConfigError("distractor_ratio", "must lie in [0, 1]")
        if finite("sharpen_temperature") <= 0.0:
            raise BadConfigError("sharpen_temperature", "must be > 0")
        if finite("learning_rate") < 0.0:
            raise BadConfigError("learning_rate", "must be >= 0")
        if finite("weight_decay") < 0.0:
            raise BadConfigError("weight_decay", "must be >= 0")
        if finite("soft_nms_sigma") <= 0.0:
            raise BadConfigError("soft_nms_sigma", "must be > 0")
        if not (0.0 <= finite("soft_nms_floor") <= 1.0):
            raise BadConfigError("soft_nms_floor", "must lie in [0, 1]")
        if self.objective not in OBJECTIVES:
            raise BadConfigError("objective", f"must be one of {OBJECTIVES}, got {self.objective!r}")
        for name in ("normalize_set_losses", "refresh_per_step"):
            if not isinstance(getattr(self, name), bool):
                raise BadConfigError(name, "must be a boolean")

        for name in ("tiou_grid", "classification_thresholds", "mask_thresholds"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise BadConfigError(name, "must be non-empty")
            for x in grid:
                if not math.isfinite(x) or not (0.0 <= x <= 1.0):
                    raise BadConfigError(name, f"entries must lie in [0, 1], got {x!r}")

    @property
    def label_count(self) -> int:
        return self.class_count + 1

    @property
    def background_index(self) -> int:
        return self.class_count + 1

    @property
    def model_input_dim(self) -> int:
        """Model input width after optional fixed-window feature concatenation."""
        return self.feature_dim * (2 * self.feature_window + 1)

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def snippet_true_labels(instances, n_snippets: int, background_index: int) -> np.ndarray:
    """Per-snippet class ids implied by instances; background elsewhere."""
    labels = np.full(n_snippets, background_index, dtype=np.int64)
    for inst in instances:
        labels[inst.start : inst.end + 1] = inst.class_idx
    return labels
