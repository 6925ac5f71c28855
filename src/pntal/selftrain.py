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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import losses, model
from .core import (
    ClassDistribution,
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


def sharpen(dist: ClassDistribution, temperature: float) -> ClassDistribution:
    """Concentrate a distribution toward its mode; T=1 is the identity."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if temperature == 1.0:
        return dist
    sharpened = sharpen_rows(dist.probs[None, :], temperature)[0]
    return ClassDistribution(sharpened, class_count=dist.class_count)


def _complement_choice(feature_bytes: bytes, seed: int, epoch: int, label_count: int, target: int) -> int:
    """Deterministic 'random' non-target class keyed by the snippet content."""
    digest = hashlib.blake2b(feature_bytes, digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_COMPLEMENT, epoch, key]))
    pick = int(rng.integers(1, label_count))  # one of the label_count - 1 non-targets
    return pick if pick < target else pick + 1


def assign_annotation(
    params: model.ModelParams,
    features: np.ndarray,
    config: ExperimentConfig,
    epoch: int = 0,
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
        for i in range(features.shape[0]):
            pick = _complement_choice(
                features[i].tobytes(), config.seed, epoch, config.label_count, int(targets[i])
            )
            neg_mask[i, pick - 1] = True
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
    probs: np.ndarray,
    scores: np.ndarray,
    labeled_negative: bool,
    label_count: int,
) -> losses.BatchArrays:
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
        probs=probs,
        mask_scores=scores,
        labeled=labeled,
        targets=targets,
        neg_mask=neg_mask,
        pos_mask=pos_mask,
        mask_targets=mask_targets,
        soft=soft,
    )


def _train_step(params, opt_state, features, arrays_builder, learning_rate, config):
    probs, scores, cache = model.forward_batch(params, features)
    arrays = arrays_builder(probs, scores)
    breakdown, grad_logits, grad_mask = losses.batch_terms(
        arrays, alpha=config.unlabeled_loss_weight, normalize_sets=config.normalize_set_losses
    )
    grads = model.backward_batch(cache, grad_logits, grad_mask)
    params, opt_state = model.step(
        params, grads, opt_state, learning_rate, weight_decay=config.weight_decay
    )
    return params, opt_state, breakdown


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


def pretrain(labeled_videos: Sequence[VideoRecord], config: ExperimentConfig) -> model.ModelParams:
    """Supervised pretraining: target CE + all-non-target negative loss + mask BCE."""
    if not labeled_videos:
        raise EmptyLabeledSetError("pretraining needs at least one labeled video")
    pool = build_labeled_pool(labeled_videos, config)
    params = model.init_params(config.model_input_dim, config.hidden_width, config.label_count, config.seed)
    opt_state = model.init_optimizer(params, config.learning_rate)
    for epoch in range(config.pretrain_epochs):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_PRETRAIN, epoch]))
        for rows in _epoch_batches(rng, pool.size, config.batch_size):
            builder = lambda probs, scores, rows=rows: _mixed_step_arrays(
                pool, rows, None, np.zeros(0, dtype=np.int64), None,
                probs, scores, True, config.label_count,
            )
            params, opt_state, _ = _train_step(
                params, opt_state, pool.features[rows], builder, config.learning_rate, config
            )
    return params


def self_train_loop(
    params: model.ModelParams,
    labeled_videos: Sequence[VideoRecord],
    unlabeled_videos: Sequence[VideoRecord],
    config: ExperimentConfig,
    sealed_labels: Optional[Mapping[str, np.ndarray]] = None,
) -> Tuple[model.ModelParams, List[EpochMetrics]]:
    """Iterative self-training over the mixed labeled/pseudo-labeled stream."""
    labeled_pool = build_labeled_pool(labeled_videos, config)
    unlabeled_pool = build_unlabeled_pool(unlabeled_videos, config, sealed_labels)
    labeled_negative = config.objective in ("hybrid", "target-negative")
    opt_state = model.init_optimizer(params, config.learning_rate)
    metrics: List[EpochMetrics] = []

    for epoch in range(config.selftrain_epochs):
        lr = model.cosine_decay(config.learning_rate, epoch, config.selftrain_epochs)
        ann = assign_annotation(params, unlabeled_pool.features, config, epoch=epoch)

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

        step_losses = []
        for lab_rows, uns_rows in zip(lab_batches, uns_chunks):
            step_ann = ann
            if config.refresh_per_step and len(uns_rows):
                chunk_ann = assign_annotation(
                    params, unlabeled_pool.features[uns_rows], config, epoch=epoch
                )
                step_ann = PseudoAnnotation(
                    targets=_scatter(ann.targets, uns_rows, chunk_ann.targets),
                    neg_mask=_scatter(ann.neg_mask, uns_rows, chunk_ann.neg_mask),
                    pos_mask=_scatter(ann.pos_mask, uns_rows, chunk_ann.pos_mask),
                    soft=_scatter(ann.soft, uns_rows, chunk_ann.soft) if ann.soft is not None else None,
                )
            features = np.concatenate(
                [labeled_pool.features[lab_rows], unlabeled_pool.features[uns_rows]]
            )
            builder = lambda probs, scores, lab_rows=lab_rows, uns_rows=uns_rows, step_ann=step_ann: (
                _mixed_step_arrays(
                    labeled_pool, lab_rows, unlabeled_pool, uns_rows, step_ann,
                    probs, scores, labeled_negative, config.label_count,
                )
            )
            params, opt_state, breakdown = _train_step(
                params, opt_state, features, builder, lr, config
            )
            step_losses.append(breakdown)

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
    return params, metrics


def _scatter(base, rows, values):
    out = base.copy()
    out[rows] = values
    return out


def snippet_accuracy(
    params: model.ModelParams,
    videos: Sequence[VideoRecord],
    config: ExperimentConfig,
    labels_map: Optional[Mapping[str, np.ndarray]] = None,
) -> float:
    """Fraction of snippets whose argmax prediction matches the true class."""
    correct = 0
    total = 0
    for video in videos:
        if labels_map is not None:
            truth = np.asarray(labels_map[video.video_id], dtype=np.int64)
        else:
            truth = snippet_true_labels(video.instances, video.snippet_count, config.background_index)
        probs, _, _ = model.forward_batch(params, video_feature_matrix(video, config.feature_window))
        pred = np.argmax(probs, axis=1) + 1
        correct += int((pred == truth).sum())
        total += video.snippet_count
    return correct / total if total else float("nan")
