"""Shared domain types: action instances, videos, config, the class-axis
kernels and row softmax, the row gather into buffers, the seeded random
streams, and the model's input matrix of a video.

Class ids are 1-based throughout the public API: action classes are 1..C and
the background class is C+1. Class distributions are the rows of plain
float64 numpy arrays of width C+1, where column ``c - 1`` holds the
probability of class ``c``.

Reductions along the class axis (``row_max``, ``row_sum``) make one ufunc
call per column over all rows at once, where numpy runs one short inner loop
per row, and return the bits of ``x.max(axis=1)`` and ``x.sum(axis=1)`` on
the C-ordered rows the package uses:

- A maximum is exact, so any order of ``np.maximum`` calls gives its value.
  (When a row's maximum is zero and the row holds both signs of zero, numpy
  returns the sign its SIMD lane order picks. No caller reads that sign:
  ``exp(x - max)`` is the same for either zero.)
- A sum rounds at each addition, so ``row_sum`` repeats numpy's
  ``pairwise_sum``. A row of fewer than 8 entries is summed in sequence from
  0.0. Up to 128 entries, 8 accumulators take every 8th entry, combine as
  ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the leftover entries follow
  in sequence. A longer row splits at a multiple of 8 near its middle and
  adds its halves' sums. numpy adds the result to an initial 0.0, so a row
  of ``-0.0`` sums to ``+0.0``; ``row_sum`` does the same.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np


class Error(Exception):
    """Base for all package-specific errors."""


class NonFiniteError(Error, ValueError):
    pass


class ShapeMismatchError(Error, ValueError):
    """An array or record whose shape does not fit what the call needs."""


class BadConfigError(Error, ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


def row_max(x: np.ndarray) -> np.ndarray:
    """Each row's maximum of a 2-D array with at least one column, by one
    ``np.maximum`` per column; NaN propagates as in ``x.max(axis=1)``."""
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(out, x[:, j], out=out)
    return out


def _pairwise_columns(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """numpy's pairwise_sum of each row's columns lo..hi-1, as a new array."""
    n = hi - lo
    if n < 8:
        total = np.zeros(len(x))
        for j in range(lo, hi):
            total += x[:, j]
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_columns(x, lo, lo + half)
        total += _pairwise_columns(x, lo + half, hi)
        return total
    blocks = hi - n % 8
    r = [x[:, lo + j] for j in range(8)]  # column views, until a block adds to them
    if blocks > lo + 8:
        r = [np.add(r[j], x[:, lo + 8 + j]) for j in range(8)]
        for i in range(lo + 16, blocks, 8):
            for j in range(8):
                r[j] += x[:, i + j]
    total, right = np.add(r[0], r[1]), np.add(r[2], r[3])
    total += right
    np.add(r[4], r[5], out=right)
    right += np.add(r[6], r[7])
    total += right
    for j in range(blocks, hi):
        total += x[:, j]
    return total


def row_sum(x: np.ndarray) -> np.ndarray:
    """Each row's sum of a 2-D array, in numpy's pairwise order (module
    docstring): the bits of ``x.sum(axis=1)`` for C-ordered rows."""
    total = _pairwise_columns(x, 0, x.shape[1])
    total += 0.0
    return total


def stream_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """The generator of one random stream: ``stream`` tags its use (a
    split, a video set, a batch order) and ``index`` its video or epoch."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def stack_rows(parts, out: np.ndarray) -> np.ndarray:
    """The (array, rows) parts' rows, stacked in part order into ``out``,
    which must hold exactly that many rows. Row indices must lie in
    [0, len(array)): the gather clips them rather than checking."""
    i = 0
    for source, rows in parts:
        # mode="clip" writes straight into out (the default copies first), so
        # out-of-range rows must be caught before: Supervision.stack checks its
        # parts, and the training step's feature gather takes the same rows.
        np.take(source, rows, axis=0, out=out[i : i + len(rows)], mode="clip")
        i += len(rows)
    return out


def softmax_rows(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row-wise stable softmax for a 2-D logit matrix, through the class-axis
    kernels.

    Written into ``out`` when given, which may be ``logits`` itself.
    """
    out = np.subtract(logits, row_max(logits)[:, None], out=out)
    np.exp(out, out=out)
    out /= row_sum(out)[:, None]
    return out


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


def prototype_dimensions(class_count: int) -> int:
    """Feature dimensions the class prototypes span.

    Classes come in confusable pairs: a pair needs 3 dimensions (one shared
    direction plus one of its own per class), a lone last class needs 1.
    """
    return 3 * (class_count // 2) + class_count % 2


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
    batch_size: int = 256
    hidden_width: int = 64
    feature_window: int = 0
    objective: str = "hybrid"
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

        def finite(name):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise BadConfigError(name, f"must be a finite number, got {v!r}")
            return float(v)

        for name in ("class_count", "feature_dim", "snippets_per_video",
                     "train_video_count", "test_video_count", "batch_size", "hidden_width"):
            positive_int(name)
        for name in ("pretrain_epochs", "selftrain_epochs", "feature_window", "seed"):
            positive_int(name, 0)
        needed = prototype_dimensions(self.class_count)
        if self.feature_dim < needed:
            raise BadConfigError(
                "feature_dim", f"{self.class_count} classes need >= {needed}, got {self.feature_dim}"
            )

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
        if finite("soft_nms_sigma") <= 0.0:
            raise BadConfigError("soft_nms_sigma", "must be > 0")
        if not (0.0 <= finite("soft_nms_floor") <= 1.0):
            raise BadConfigError("soft_nms_floor", "must lie in [0, 1]")
        if self.objective not in OBJECTIVES:
            raise BadConfigError("objective", f"must be one of {OBJECTIVES}, got {self.objective!r}")

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
        """Width of video_feature_matrix(video, feature_window)."""
        return self.feature_dim * (2 * self.feature_window + 1)

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def video_feature_matrix(video: VideoRecord, window: int = 0) -> np.ndarray:
    """The model's input rows of a video: its features, optionally
    concatenating a +-window context.

    Window 0 returns the video's read-only array itself, uncopied.
    Out-of-range context positions contribute zero vectors.
    """
    base = video.features
    if window == 0:
        return base
    n = len(base)
    parts = []
    for off in range(-window, window + 1):
        # part for offset o holds base[t + o], zero where t + o is out of range
        shifted = np.zeros_like(base)
        dst = slice(max(0, -off), n - max(0, off))
        src = slice(max(0, off), n - max(0, -off))
        shifted[dst] = base[src]
        parts.append(shifted)
    return np.concatenate(parts, axis=1)


def snippet_true_labels(instances, n_snippets: int, background_index: int) -> np.ndarray:
    """Per-snippet class ids implied by instances; background elsewhere."""
    labels = np.full(n_snippets, background_index, dtype=np.int64)
    for inst in instances:
        labels[inst.start : inst.end + 1] = inst.class_idx
    return labels
