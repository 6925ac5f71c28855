"""Two-phase training: supervised pretraining, then iterative self-training.

Each self-training epoch re-assigns pseudo labels (sharpened prediction ->
label-space partition) with the current model, freezes them, and optimizes
the hybrid loss over paired labeled/unlabeled batch streams. The two streams
use independent RNGs and the unlabeled contribution enters only through the
unsupervised weight, so setting that weight to zero reproduces supervised
training bit for bit.

The objective knob selects what unlabeled snippets learn from:
  hybrid           target CE + positive + negative losses (full partition)
  target-negative  target CE + negative loss (positives demoted to ambiguous)
  target-only      target CE alone
  soft-pseudo      cross-entropy against the full sharpened distribution
  complementary    target CE + negative loss on one random non-target class

Ground-truth snippets always receive target CE and the mask loss; they add
negative loss over all non-target classes under hybrid and target-negative.

The complementary draw (one non-target class per snippet per epoch, as in
NLNL) is a hash of the row's content, so it does not depend on row order. For
a row with target t among K labels, in wrapping uint64 arithmetic:
  salt = SeedSequence([seed, 0xD44, epoch]).generate_state(1, uint64)[0]
  h    = salt; h = mix64(h ^ w) for each uint64 word w of the row's float64
         bytes (little-endian), in order; mix64 is splitmix64's finalizer
  pick = 1 + h % (K - 1); pick + 1 if pick >= t
assign_annotation computes this for every row at once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import losses, model
from .core import (
    Error,
    ExperimentConfig,
    VideoRecord,
    snippet_true_labels,
)
from .partition import partition_rows

_STREAM_PRETRAIN = 0xA11
_STREAM_LABELED = 0xB22
_STREAM_UNLABELED = 0xC33
_STREAM_COMPLEMENT = 0xD44

# Every ExperimentConfig field pretrain reads. Configs that agree on these get
# bit-identical pretrained params from the same labeled videos, so a sweep
# pretrains once per seed for variants that differ only elsewhere (objective,
# lambda). A field pretrain starts to read belongs here.
PRETRAIN_FIELDS = (
    "class_count", "feature_dim", "feature_window", "hidden_width",
    "pretrain_epochs", "learning_rate", "batch_size", "seed",
)


class EmptyLabeledSetError(Error, ValueError):
    pass


class MissingGroundTruthError(Error, KeyError):
    pass


def video_feature_matrix(video: VideoRecord, window: int = 0) -> np.ndarray:
    """The video's features, optionally concatenating a +-window context.

    Window 0 returns the video's read-only array itself, uncopied.
    Out-of-range context positions contribute zero vectors.
    """
    base = video.features
    if window == 0:
        return base
    n, d = base.shape
    parts = []
    for off in range(-window, window + 1):
        # part for offset o holds base[t + o], zero where t + o is out of range
        shifted = np.zeros_like(base)
        dst = slice(max(0, -off), n - max(0, off))
        src = slice(max(0, off), n - max(0, -off))
        shifted[dst] = base[src]
        parts.append(shifted)
    return np.concatenate(parts, axis=1)


@dataclass(eq=False)
class LabeledPool:
    features: np.ndarray  # (N, d_in)
    labels: np.ndarray  # (N,) 1-based class ids
    mask_targets: np.ndarray  # (N,) 0/1 foreground flags

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(eq=False)
class UnlabeledPool:
    features: np.ndarray  # (N, d_in)
    video_ids: tuple
    video_index: np.ndarray  # (N,)
    true_labels: Optional[np.ndarray]  # sealed; metrics only

    @property
    def size(self) -> int:
        return len(self.video_index)


@dataclass(eq=False)
class PseudoAnnotation:
    """Frozen per-epoch pseudo supervision in array form."""

    targets: np.ndarray  # (N,)
    neg_mask: np.ndarray  # (N, K) bool
    pos_mask: np.ndarray  # (N, K) bool
    soft: Optional[np.ndarray]  # (N, K) or None


def build_labeled_pool(videos: Sequence[VideoRecord], config: ExperimentConfig) -> LabeledPool:
    feats, labels, masks = [], [], []
    for video in videos:
        feats.append(video_feature_matrix(video, config.feature_window))
        lab = snippet_true_labels(video.instances, video.snippet_count, config.background_index)
        labels.append(lab)
        masks.append((lab != config.background_index).astype(np.float64))
    if not feats:
        return LabeledPool(
            features=np.zeros((0, config.model_input_dim)),
            labels=np.zeros(0, dtype=np.int64),
            mask_targets=np.zeros(0),
        )
    return LabeledPool(
        features=np.concatenate(feats),
        labels=np.concatenate(labels),
        mask_targets=np.concatenate(masks),
    )


def build_unlabeled_pool(
    videos: Sequence[VideoRecord],
    config: ExperimentConfig,
    sealed_labels: Optional[Mapping[str, np.ndarray]] = None,
) -> UnlabeledPool:
    feats, vindex, truths = [], [], []
    for i, video in enumerate(videos):
        feats.append(video_feature_matrix(video, config.feature_window))
        vindex.append(np.full(video.snippet_count, i, dtype=np.int64))
        if sealed_labels is not None:
            if video.video_id not in sealed_labels:
                raise MissingGroundTruthError(video.video_id)
            truths.append(np.asarray(sealed_labels[video.video_id], dtype=np.int64))
    if not feats:
        return UnlabeledPool(
            features=np.zeros((0, config.model_input_dim)),
            video_ids=(),
            video_index=np.zeros(0, dtype=np.int64),
            true_labels=np.zeros(0, dtype=np.int64) if sealed_labels is not None else None,
        )
    return UnlabeledPool(
        features=np.concatenate(feats),
        video_ids=tuple(v.video_id for v in videos),
        video_index=np.concatenate(vindex),
        true_labels=np.concatenate(truths) if sealed_labels is not None else None,
    )


def sealed_label_map(benchmark, config: ExperimentConfig) -> Dict[str, np.ndarray]:
    """Per-snippet true labels for every unlabeled video, from the sealed channel."""
    out = {}
    for video in benchmark.unlabeled:
        out[video.video_id] = snippet_true_labels(
            benchmark.sealed[video.video_id], video.snippet_count, config.background_index
        )
    return out


def sharpen_rows(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Power sharpening p^(1/T), renormalized row-wise (computed in log space)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if temperature == 1.0:
        return probs.copy()
    with np.errstate(divide="ignore"):
        logs = np.where(probs > 0.0, np.log(np.maximum(probs, 1e-300)), -np.inf)
    scaled = logs / temperature
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    out = np.exp(shifted)
    return out / out.sum(axis=1, keepdims=True)


# splitmix64's finalizer multipliers (Steele, Lea and Flood, OOPSLA 2014).
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _complement_picks(
    features: np.ndarray, seed: int, epoch: int, label_count: int, targets: np.ndarray
) -> np.ndarray:
    """The complementary draw (module docstring) of every row at once."""
    salt = np.random.SeedSequence([seed, _STREAM_COMPLEMENT, epoch]).generate_state(1, np.uint64)[0]
    words = np.ascontiguousarray(features, dtype="<f8").view("<u8")
    h = np.full(len(words), salt, dtype=np.uint64)
    for word in words.T:  # h = mix64(h ^ word), in place; the products wrap mod 2^64
        h ^= word
        h ^= h >> np.uint64(30)
        h *= _MIX_A
        h ^= h >> np.uint64(27)
        h *= _MIX_B
        h ^= h >> np.uint64(31)
    picks = 1 + (h % np.uint64(label_count - 1)).astype(np.int64)
    return picks + (picks >= targets)


def assign_annotation(
    params: model.ModelParams, features: np.ndarray, config: ExperimentConfig, epoch: int = 0
) -> PseudoAnnotation:
    """Pseudo supervision arrays for a feature matrix under the active objective."""
    if features.shape[0] == 0:
        k = config.label_count
        return PseudoAnnotation(
            targets=np.zeros(0, dtype=np.int64),
            neg_mask=np.zeros((0, k), dtype=bool),
            pos_mask=np.zeros((0, k), dtype=bool),
            soft=None,
        )
    probs, _, _ = model.forward_batch(params, features)
    sharpened = sharpen_rows(probs, config.sharpen_temperature)
    targets, neg_mask, pos_mask = partition_rows(sharpened, config.positive_confidence_ratio)

    objective = config.objective
    if objective == "hybrid":
        pass
    elif objective == "target-negative":
        pos_mask = np.zeros_like(pos_mask)
    elif objective == "target-only":
        neg_mask = np.zeros_like(neg_mask)
        pos_mask = np.zeros_like(pos_mask)
    elif objective == "soft-pseudo":
        # Full-distribution CE against the same tempered distribution the
        # partition pipeline produces as its pseudo-label.
        return PseudoAnnotation(
            targets=targets,
            neg_mask=np.zeros_like(neg_mask),
            pos_mask=np.zeros_like(pos_mask),
            soft=sharpened,
        )
    elif objective == "complementary":
        neg_mask = np.zeros_like(neg_mask)
        pos_mask = np.zeros_like(pos_mask)
        picks = _complement_picks(features, config.seed, epoch, config.label_count, targets)
        neg_mask[np.arange(len(picks)), picks - 1] = True
    else:  # pragma: no cover - config validation rejects unknown objectives
        raise ValueError(f"unknown objective {objective!r}")
    return PseudoAnnotation(targets=targets, neg_mask=neg_mask, pos_mask=pos_mask, soft=None)


@dataclass(frozen=True)
class SubspaceStats:
    """Where the hidden true class lands across the four subspaces."""

    target_rate: float
    positive_rate: float
    negative_rate: float
    ambiguous_rate: float
    positive_rate_given_miss: float
    ambiguous_rate_given_miss: float
    negative_rate_given_miss: float
    snippet_count: int

    def rates(self) -> tuple:
        return (self.target_rate, self.positive_rate, self.negative_rate, self.ambiguous_rate)


def subspace_statistics(annotation: PseudoAnnotation, true_labels: np.ndarray) -> SubspaceStats:
    """Where the true class of each annotated row lands in its partition.

    The four rates cover the whole label space, so they sum to one.
    """
    n = len(true_labels)
    rows = np.arange(n)
    hit = true_labels == annotation.targets
    in_neg = annotation.neg_mask[rows, true_labels - 1]
    in_pos = annotation.pos_mask[rows, true_labels - 1]
    in_amb = ~hit & ~in_neg & ~in_pos
    miss = ~hit
    n_miss = int(miss.sum())

    def rate(x, denom):
        return float(x.sum() / denom) if denom else float("nan")

    return SubspaceStats(
        target_rate=rate(hit, n),
        positive_rate=rate(in_pos, n),
        negative_rate=rate(in_neg, n),
        ambiguous_rate=rate(in_amb, n),
        positive_rate_given_miss=rate(in_pos & miss, n_miss),
        ambiguous_rate_given_miss=rate(in_amb & miss, n_miss),
        negative_rate_given_miss=rate(in_neg & miss, n_miss),
        snippet_count=n,
    )


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    phase: str
    learning_rate: float
    loss: losses.LossBreakdown
    pseudo_accuracy: float
    subspace: Optional[SubspaceStats]

    def to_dict(self) -> dict:
        out = {
            "epoch": self.epoch,
            "phase": self.phase,
            "learning_rate": self.learning_rate,
            "loss_target": self.loss.target,
            "loss_positive": self.loss.positive,
            "loss_negative": self.loss.negative,
            "loss_mask": self.loss.mask,
            "loss_total": self.loss.total,
            "pseudo_accuracy": self.pseudo_accuracy,
        }
        if self.subspace is not None:
            out.update(
                subspace_target=self.subspace.target_rate,
                subspace_positive=self.subspace.positive_rate,
                subspace_negative=self.subspace.negative_rate,
                subspace_ambiguous=self.subspace.ambiguous_rate,
            )
        return out


def _epoch_batches(rng, pool_size: int, batch_size: int) -> List[np.ndarray]:
    if pool_size == 0:
        return []
    perm = rng.permutation(pool_size)
    return [perm[i : i + batch_size] for i in range(0, pool_size, batch_size)]


def _mixed_step_arrays(
    labeled_pool: LabeledPool,
    lab_rows: np.ndarray,
    unlabeled_pool: UnlabeledPool,
    uns_rows: np.ndarray,
    ann: Optional[PseudoAnnotation],
    labeled_negative: bool,
    label_count: int,
) -> losses.BatchArrays:
    """One step's supervision: labeled rows first, then unlabeled ones.

    It reads only the pools and the frozen annotation, never the model, so it
    is built before the forward pass; _train_step fills in the predictions.
    """
    n_lab, n_uns = len(lab_rows), len(uns_rows)
    n = n_lab + n_uns
    labeled = np.zeros(n, dtype=bool)
    labeled[:n_lab] = True
    targets = np.zeros(n, dtype=np.int64)
    neg_mask = np.zeros((n, label_count), dtype=bool)
    pos_mask = np.zeros((n, label_count), dtype=bool)
    mask_targets = np.full(n, np.nan)
    soft = None

    if n_lab:
        gt = labeled_pool.labels[lab_rows]
        targets[:n_lab] = gt
        mask_targets[:n_lab] = labeled_pool.mask_targets[lab_rows]
        if labeled_negative:
            neg = np.ones((n_lab, label_count), dtype=bool)
            neg[np.arange(n_lab), gt - 1] = False
            neg_mask[:n_lab] = neg
    if n_uns:
        targets[n_lab:] = ann.targets[uns_rows]
        neg_mask[n_lab:] = ann.neg_mask[uns_rows]
        pos_mask[n_lab:] = ann.pos_mask[uns_rows]
        # Pseudo mask target: the snippet is foreground iff its pseudo target
        # is an action class.
        mask_targets[n_lab:] = (ann.targets[uns_rows] != label_count).astype(np.float64)
        if ann.soft is not None:
            soft = np.full((n, label_count), np.nan)
            soft[n_lab:] = ann.soft[uns_rows]
    return losses.BatchArrays(
        probs=None,
        mask_scores=None,
        labeled=labeled,
        targets=targets,
        neg_mask=neg_mask,
        pos_mask=pos_mask,
        mask_targets=mask_targets,
        soft=soft,
    )


def _gather_features(work: model.Workspace, parts) -> np.ndarray:
    """The (features, rows) parts' rows, stacked in order into work.features."""
    n = 0
    for features, rows in parts:
        # mode="clip" writes straight into the buffer; the rows are slices of
        # a permutation of the pool, so none is out of range.
        np.take(features, rows, axis=0, out=work.features[n : n + len(rows)], mode="clip")
        n += len(rows)
    return work.features[:n]


def _train_step(work: model.Workspace, features, supervision, learning_rate, alpha):
    """Forward, hybrid loss against the fixed supervision, backward, update."""
    probs, scores, _ = model.forward_batch(work.params, features, work)
    arrays = dataclasses.replace(supervision, probs=probs, mask_scores=scores)
    breakdown, grad_logits, grad_mask = losses.batch_terms(arrays, alpha)
    model.backward_batch(work, features, grad_logits, grad_mask)
    model.step(work, learning_rate)
    return breakdown


def _mean_breakdown(parts: List[losses.LossBreakdown]) -> losses.LossBreakdown:
    if not parts:
        return losses.LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    n = len(parts)
    return losses.LossBreakdown(
        target=sum(p.target for p in parts) / n,
        positive=sum(p.positive for p in parts) / n,
        negative=sum(p.negative for p in parts) / n,
        mask=sum(p.mask for p in parts) / n,
        total=sum(p.total for p in parts) / n,
    )


def pretrain_key(config: ExperimentConfig) -> tuple:
    """The values of PRETRAIN_FIELDS: equal keys, equal pretrain output."""
    return tuple(getattr(config, name) for name in PRETRAIN_FIELDS)


def pretrain(labeled_videos: Sequence[VideoRecord], config: ExperimentConfig) -> model.ModelParams:
    """Supervised pretraining: target CE + all-non-target negative loss + mask BCE.

    It reads only the config fields named in PRETRAIN_FIELDS.
    """
    if not labeled_videos:
        raise EmptyLabeledSetError("pretraining needs at least one labeled video")
    pool = build_labeled_pool(labeled_videos, config)
    params = model.init_params(config.model_input_dim, config.hidden_width, config.label_count, config.seed)
    work = model.Workspace(params, rows=min(config.batch_size, pool.size))
    no_rows = np.zeros(0, dtype=np.int64)
    for epoch in range(config.pretrain_epochs):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_PRETRAIN, epoch]))
        for rows in _epoch_batches(rng, pool.size, config.batch_size):
            supervision = _mixed_step_arrays(pool, rows, None, no_rows, None, True, config.label_count)
            features = _gather_features(work, [(pool.features, rows)])
            # Every row is labeled, so no unsupervised weight applies.
            _train_step(work, features, supervision, config.learning_rate, alpha=0.0)
    return work.snapshot()


def self_train_loop(
    params: model.ModelParams,
    labeled_videos: Sequence[VideoRecord],
    unlabeled_videos: Sequence[VideoRecord],
    config: ExperimentConfig,
    sealed_labels: Optional[Mapping[str, np.ndarray]] = None,
) -> Tuple[model.ModelParams, List[EpochMetrics]]:
    """Iterative self-training over the mixed labeled/pseudo-labeled stream.

    It trains a copy of ``params`` and never writes into them, so several
    loops may start from one pretrained model.
    """
    labeled_pool = build_labeled_pool(labeled_videos, config)
    unlabeled_pool = build_unlabeled_pool(unlabeled_videos, config, sealed_labels)
    labeled_negative = config.objective in ("hybrid", "target-negative")
    work = model.Workspace(params)
    metrics: List[EpochMetrics] = []

    for epoch in range(config.selftrain_epochs):
        lr = model.cosine_decay(config.learning_rate, epoch, config.selftrain_epochs)
        # The annotation pass runs with no batch buffers held, so they do not
        # add to its peak memory.
        ann = assign_annotation(work.params, unlabeled_pool.features, config, epoch=epoch)

        pseudo_accuracy = float("nan")
        subspace = None
        if unlabeled_pool.true_labels is not None and unlabeled_pool.size:
            pseudo_accuracy = float((ann.targets == unlabeled_pool.true_labels).mean())
            if ann.soft is None:
                subspace = subspace_statistics(ann, unlabeled_pool.true_labels)

        lab_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_LABELED, epoch]))
        uns_rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_UNLABELED, epoch]))
        lab_batches = _epoch_batches(lab_rng, labeled_pool.size, config.batch_size)
        if unlabeled_pool.size and lab_batches:
            uns_chunks = np.array_split(uns_rng.permutation(unlabeled_pool.size), len(lab_batches))
        else:
            uns_chunks = [np.zeros(0, dtype=np.int64) for _ in lab_batches]

        work.reserve(max((len(l) + len(u) for l, u in zip(lab_batches, uns_chunks)), default=0))
        step_losses = []
        for lab_rows, uns_rows in zip(lab_batches, uns_chunks):
            supervision = _mixed_step_arrays(
                labeled_pool, lab_rows, unlabeled_pool, uns_rows, ann,
                labeled_negative, config.label_count,
            )
            features = _gather_features(
                work, [(labeled_pool.features, lab_rows), (unlabeled_pool.features, uns_rows)]
            )
            step_losses.append(
                _train_step(work, features, supervision, lr, config.unlabeled_loss_weight)
            )
        work.release()

        metrics.append(
            EpochMetrics(
                epoch=epoch,
                phase="selftrain",
                learning_rate=lr,
                loss=_mean_breakdown(step_losses),
                pseudo_accuracy=pseudo_accuracy,
                subspace=subspace,
            )
        )
    return work.snapshot(), metrics


def snippet_accuracy(
    params: model.ModelParams,
    videos: Sequence[VideoRecord],
    config: ExperimentConfig,
) -> float:
    """Fraction of snippets whose argmax prediction matches the true class."""
    correct = 0
    total = 0
    for video in videos:
        truth = snippet_true_labels(video.instances, video.snippet_count, config.background_index)
        probs, _, _ = model.forward_batch(params, video_feature_matrix(video, config.feature_window))
        pred = np.argmax(probs, axis=1) + 1
        correct += int((pred == truth).sum())
        total += video.snippet_count
    return correct / total if total else float("nan")
