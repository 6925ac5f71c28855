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

assign_annotation reaches these through three rules over the partition's
masks: the negatives stay under NEGATIVE_OBJECTIVES (hybrid and
target-negative) and the positives under hybrid alone, the rest are cleared;
complementary then marks its one pick negative, and soft-pseudo carries the
sharpened rows as soft labels. Ground-truth snippets always receive target CE
and the mask loss; under NEGATIVE_OBJECTIVES they add negative loss over all
non-target classes.

Supervision is one type, losses.Supervision, built once per phase for the
labeled pool and once per epoch for the unlabeled pool; each step stacks its
rows from both, in the order its features are gathered.

Labeled and unlabeled snippets share one pool type and one builder,
``build_pool``. Its labels come from a map of video id to action instances:
the labeled videos' own, or a benchmark's sealed map, which only the
per-epoch pseudo-label metrics read.

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

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import losses, model
from .core import (
    Error,
    ExperimentConfig,
    VideoRecord,
    snippet_true_labels,
    softmax_rows,
    stack_rows,
    stream_rng,
)
from .partition import partition_rows

_STREAM_PRETRAIN = 0xA11
_STREAM_LABELED = 0xB22
_STREAM_UNLABELED = 0xC33
_STREAM_COMPLEMENT = 0xD44

# The objectives whose rows keep their negatives: the partition's negatives
# for pseudo-labeled rows, every non-target class for ground-truth rows.
NEGATIVE_OBJECTIVES = ("hybrid", "target-negative")


class EmptyLabeledSetError(Error, ValueError):
    pass


class BadTemperatureError(Error, ValueError):
    pass


class MissingGroundTruthError(Error, KeyError):
    __str__ = Exception.__str__  # the message as given, not KeyError's quoted repr


@dataclass(eq=False)
class Pool:
    """The snippet rows of some videos, stacked in video order."""

    features: np.ndarray  # (N, feature_dim)
    labels: Optional[np.ndarray]  # (N,) 1-based true class ids, None where unknown

    @property
    def size(self) -> int:
        return len(self.features)


def build_pool(
    videos: Sequence[VideoRecord],
    config: ExperimentConfig,
    instances: Optional[Mapping[str, tuple]] = None,
) -> Pool:
    """The videos' model inputs; with per-snippet labels when ``instances``
    maps every video's id to its action instances (a benchmark's sealed map,
    or the labeled videos' own)."""
    if not videos:
        features = np.zeros((0, config.feature_dim))
    else:
        features = np.concatenate([v.features for v in videos])
    if instances is None:
        return Pool(features=features, labels=None)
    labels = [np.zeros(0, dtype=np.int64)]
    for video in videos:
        if video.video_id not in instances:
            raise MissingGroundTruthError(video.video_id)
        labels.append(
            snippet_true_labels(instances[video.video_id], video.snippet_count, config.background_index)
        )
    return Pool(features=features, labels=np.concatenate(labels))


def _labeled_pool(videos: Sequence[VideoRecord], config: ExperimentConfig) -> Pool:
    return build_pool(videos, config, {v.video_id: v.instances for v in videos})


# The names perfbench/ reads from this module and the package does not use:
# an alias of build_pool, and core's video_feature_matrix (see its comment).
from .core import video_feature_matrix

build_unlabeled_pool = build_pool


def _ground_truth(pool: Pool, config: ExperimentConfig, negatives: bool) -> losses.Supervision:
    """A labeled pool's supervision: its true classes, with every non-target
    class negative when ``negatives``."""
    classes = np.arange(1, config.label_count + 1)
    neg_mask = (pool.labels[:, None] != classes) & negatives
    return losses.Supervision(np.ones(len(pool.labels), bool), pool.labels, neg_mask, np.zeros_like(neg_mask))


def sharpen_rows(probs: np.ndarray, temperature: float) -> np.ndarray:
    """Power sharpening p^(1/T), renormalized row-wise: the softmax of log(p) / T."""
    if not temperature > 0:
        raise BadTemperatureError(f"temperature must be > 0, got {temperature!r}")
    if temperature == 1.0:
        return probs.copy()
    # One (N, K) temporary, written in place: log p, and -inf where p is not > 0.
    logs = np.maximum(probs, 1e-300)
    np.log(logs, out=logs)
    np.copyto(logs, -np.inf, where=~(probs > 0.0))
    logs /= temperature
    return softmax_rows(logs, out=logs)


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
) -> losses.Supervision:
    """Pseudo supervision of a feature matrix's rows under the active objective
    (the three rules of the module docstring)."""
    probs, _, _ = model.forward_batch(params, features)
    sharpened = sharpen_rows(probs, config.sharpen_temperature)
    targets, neg_mask, pos_mask = partition_rows(sharpened, config.positive_confidence_ratio)

    objective = config.objective
    if objective not in NEGATIVE_OBJECTIVES:
        neg_mask[:] = False
    if objective != "hybrid":
        pos_mask[:] = False
    soft = None
    if objective == "complementary":
        picks = _complement_picks(features, config.seed, epoch, config.label_count, targets)
        neg_mask[np.arange(len(picks)), picks - 1] = True
    elif objective == "soft-pseudo":
        # Full-distribution CE against the same tempered distribution the
        # partition pipeline produces as its pseudo-label.
        soft = sharpened
    return losses.Supervision(np.zeros(len(targets), bool), targets, neg_mask, pos_mask, soft)


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


def subspace_statistics(annotation: losses.Supervision, true_labels: np.ndarray) -> SubspaceStats:
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
    pseudo_accuracy: Optional[float]  # None when no unlabeled snippet's truth is known
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


def _train_step(work: model.Workspace, parts, learning_rate, alpha):
    """One step over the (features, supervision, rows) parts' rows, stacked in
    part order: forward, hybrid loss against the frozen supervision, backward,
    update. Every batch array lives in the workspace's buffers."""
    n = sum(len(rows) for _, _, rows in parts)
    gathered = work.buffer("features", n, (work.params.input_dim,))
    features = stack_rows([(x, rows) for x, _, rows in parts], gathered)
    supervision = losses.Supervision.stack([(sup, rows) for _, sup, rows in parts], work)
    probs, scores, _ = model.forward_batch(work.params, features, work)
    breakdown, grad_logits, grad_mask = losses.batch_terms(probs, scores, supervision, alpha, work)
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


def pretrain(labeled_videos: Sequence[VideoRecord], config: ExperimentConfig) -> model.ModelParams:
    """Supervised pretraining: target CE + all-non-target negative loss + mask BCE.

    It reads neither the objective nor lambda, so a sweep's variants of one
    seed share one pretrained model.
    """
    if not labeled_videos:
        raise EmptyLabeledSetError("pretraining needs at least one labeled video")
    pool = _labeled_pool(labeled_videos, config)
    truth = _ground_truth(pool, config, negatives=True)
    params = model.init_params(config.feature_dim, config.hidden_width, config.label_count, config.seed)
    work = model.Workspace(params, rows=min(config.batch_size, pool.size))
    for epoch in range(config.pretrain_epochs):
        rng = stream_rng(config.seed, _STREAM_PRETRAIN, epoch)
        for rows in _epoch_batches(rng, pool.size, config.batch_size):
            # Every row is labeled, so no unsupervised weight applies.
            _train_step(work, [(pool.features, truth, rows)], config.learning_rate, alpha=0.0)
    return work.snapshot()


def self_train_loop(
    params: model.ModelParams,
    labeled_videos: Sequence[VideoRecord],
    unlabeled_videos: Sequence[VideoRecord],
    config: ExperimentConfig,
    sealed: Optional[Mapping[str, tuple]] = None,
) -> Tuple[model.ModelParams, List[EpochMetrics]]:
    """Iterative self-training over the mixed labeled/pseudo-labeled stream.

    ``sealed`` (video id -> action instances, a benchmark's sealed map) is
    read only for the per-epoch pseudo-label metrics. The loop trains a copy
    of ``params`` and never writes into them, so several loops may start
    from one pretrained model.
    """
    labeled_pool = _labeled_pool(labeled_videos, config)
    truth = _ground_truth(labeled_pool, config, config.objective in NEGATIVE_OBJECTIVES)
    unlabeled_pool = build_pool(unlabeled_videos, config, sealed)
    work = model.Workspace(params)
    metrics: List[EpochMetrics] = []

    for epoch in range(config.selftrain_epochs):
        lr = model.cosine_decay(config.learning_rate, epoch, config.selftrain_epochs)
        # The annotation pass runs with no batch buffers held, so they do not
        # add to its peak memory.
        ann = assign_annotation(work.params, unlabeled_pool.features, config, epoch=epoch)

        pseudo_accuracy = None
        subspace = None
        if unlabeled_pool.labels is not None and unlabeled_pool.size:
            pseudo_accuracy = float((ann.targets == unlabeled_pool.labels).mean())
            if ann.soft is None:
                subspace = subspace_statistics(ann, unlabeled_pool.labels)

        lab_rng = stream_rng(config.seed, _STREAM_LABELED, epoch)
        uns_rng = stream_rng(config.seed, _STREAM_UNLABELED, epoch)
        lab_batches = _epoch_batches(lab_rng, labeled_pool.size, config.batch_size)
        if unlabeled_pool.size and lab_batches:
            uns_chunks = np.array_split(uns_rng.permutation(unlabeled_pool.size), len(lab_batches))
        else:
            uns_chunks = [np.zeros(0, dtype=np.int64) for _ in lab_batches]

        work.reserve(max((len(l) + len(u) for l, u in zip(lab_batches, uns_chunks)), default=0))
        step_losses = []
        for lab_rows, uns_rows in zip(lab_batches, uns_chunks):
            parts = [(labeled_pool.features, truth, lab_rows), (unlabeled_pool.features, ann, uns_rows)]
            step_losses.append(_train_step(work, parts, lr, config.unlabeled_loss_weight))
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
        probs, _, _ = model.forward_batch(params, video.features)
        pred = np.argmax(probs, axis=1) + 1
        correct += int((pred == truth).sum())
        total += video.snippet_count
    return correct / total if total else float("nan")
