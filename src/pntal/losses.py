"""Hybrid loss family on batch arrays: target CE, negative, positive, mask BCE.

Per row, ``batch_terms`` takes -log p_t (or -sum q_c log p_c against a soft
label), -sum log(1 - p_c) over the negatives and -sum log p_c over the
positives; ``mask_loss`` is the mask head's mean binary cross-entropy. The
target and positive terms are one cross-entropy kernel, -sum_c w_c log p_c,
with w a one-hot row, the soft label, or the positive mask.
Every loss clamps probabilities at 1e-12 before taking logs, so values stay
finite at degenerate predictions. Each operation returns the loss together
with its analytic gradient with respect to the classification logits (or the
mask scores); clamped entries contribute zero gradient so the analytic
gradients agree with finite differences of the clamped losses.

What each row learns from is one ``Supervision``: whether the row is
ground truth, its hard target, its negative and positive masks, its mask-head
target (NaN for none) and, optionally, a soft label. Training builds one for
the labeled pool per phase and one for the unlabeled pool per epoch, then
takes each step's rows from both with ``Supervision.stack``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Error

CLAMP = 1e-12


class LengthMismatchError(Error, ValueError):
    pass


class UnresolvedSupervisionError(Error, ValueError):
    pass


def mask_loss(mask_scores, foreground_targets):
    """Mean binary cross-entropy between mask scores and foreground targets."""
    s = np.asarray(mask_scores, dtype=np.float64)
    t = np.asarray(foreground_targets, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 1:
        raise LengthMismatchError(f"mask scores {s.shape} vs targets {t.shape}")
    if s.size == 0:
        return 0.0, np.zeros(0)
    losses = -(t * np.log(np.maximum(s, CLAMP)) + (1.0 - t) * np.log(np.maximum(1.0 - s, CLAMP)))
    grad = np.zeros_like(s)
    pos_active = s > CLAMP
    neg_active = (1.0 - s) > CLAMP
    grad[pos_active] += -t[pos_active] / s[pos_active]
    grad[neg_active] += (1.0 - t[neg_active]) / (1.0 - s[neg_active])
    grad /= s.size
    return float(losses.mean()), grad


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term batch loss. Components already carry the unsupervised weight,
    so total is exactly their plain sum."""

    target: float
    positive: float
    negative: float
    mask: float
    total: float


def _one_hot(targets: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(targets), k))
    out[np.arange(len(targets)), targets - 1] = 1.0
    return out


@dataclass(eq=False)
class Supervision:
    """Frozen per-row supervision, for a pool or for one step's rows.

    labeled flags ground-truth rows; targets holds 1-based hard target ids;
    neg/pos masks hold subspace membership per row (all-False where unused).
    mask_targets is NaN for rows without mask supervision. soft, when given,
    is an (N, K) matrix of label distributions that replaces the one-hot
    target rows in the target term.
    """

    labeled: np.ndarray  # (N,) bool
    targets: np.ndarray  # (N,) int
    neg_mask: np.ndarray  # (N, K) bool
    pos_mask: np.ndarray  # (N, K) bool
    mask_targets: np.ndarray  # (N,) float
    soft: Optional[np.ndarray] = None  # (N, K) or None

    @classmethod
    def stack(cls, parts) -> "Supervision":
        """The (supervision, rows) parts' rows, stacked in part order.

        The result has a soft label only if some part does; then the rows of
        the parts without one get one-hot rows of their targets.
        """

        def gather(name):
            return np.concatenate([getattr(sup, name)[rows] for sup, rows in parts])

        soft = None
        if any(sup.soft is not None for sup, _ in parts):
            soft = np.concatenate([
                _one_hot(sup.targets[rows], sup.neg_mask.shape[1]) if sup.soft is None else sup.soft[rows]
                for sup, rows in parts
            ])
        return cls(
            labeled=gather("labeled"),
            targets=gather("targets"),
            neg_mask=gather("neg_mask"),
            pos_mask=gather("pos_mask"),
            mask_targets=gather("mask_targets"),
            soft=soft,
        )


def _cross_entropy(p, log_p, w):
    """Each row's -sum_c w_c log p_c and its gradient w.r.t. the row's logits.

    log_p is log(max(p, CLAMP)); weight on a clamped entry adds no gradient.
    """
    w_active = np.where(p > CLAMP, w, 0.0)
    return -(w * log_p).sum(axis=1), w_active.sum(axis=1, keepdims=True) * p - w_active


def batch_terms(probs: np.ndarray, mask_scores: np.ndarray, supervision: Supervision, alpha: float):
    """Loss breakdown plus gradients w.r.t. logits and mask scores.

    Supervised rows average with weight 1/N_labeled, unsupervised rows with
    alpha/N_unsupervised, mask BCE with 1/N_masked; the returned gradients are
    exactly the gradients of breakdown.total.
    """
    p = probs
    n = len(p)
    labeled = supervision.labeled
    n_lab = int(labeled.sum())
    n_uns = n - n_lab
    log_p = np.log(np.maximum(p, CLAMP))

    # Target term: cross-entropy against the soft rows, or one-hot rows.
    target_w = _one_hot(supervision.targets, p.shape[1]) if supervision.soft is None else supervision.soft
    tgt_rows, grad = _cross_entropy(p, log_p, target_w)

    # Negative term: -sum_c m_c log(1 - p_c), clamped entries frozen.
    q = 1.0 - p
    mneg = supervision.neg_mask.astype(np.float64)
    neg_active = q > CLAMP
    neg_rows = -(mneg * np.log(np.maximum(q, CLAMP))).sum(axis=1)
    w = np.where(neg_active, mneg * p / np.where(neg_active, q, 1.0), 0.0)
    grad += w - p * w.sum(axis=1, keepdims=True)

    # Positive term: -sum_c m_c log p_c.
    pos_rows, pos_grad = _cross_entropy(p, log_p, supervision.pos_mask.astype(np.float64))
    grad += pos_grad

    lab_w = 1.0 / n_lab if n_lab else 0.0
    uns_w = alpha / n_uns if n_uns else 0.0
    row_w = np.where(labeled, lab_w, uns_w)
    grad *= row_w[:, None]

    def split(values):
        sup = float(values[labeled].sum()) * lab_w
        uns = float(values[~labeled].sum()) * uns_w
        return sup + uns

    target_comp = split(tgt_rows)
    negative_comp = split(neg_rows)
    positive_comp = split(pos_rows)

    # Mask BCE, averaged separately over ground-truth and pseudo targets; the
    # pseudo part carries the unsupervised weight like every unlabeled term.
    masked = np.isfinite(supervision.mask_targets)
    grad_mask = np.zeros(n)
    mask_comp = 0.0
    for rows_sel, weight in ((masked & labeled, 1.0), (masked & ~labeled, alpha)):
        if rows_sel.any():
            part, g = mask_loss(mask_scores[rows_sel], supervision.mask_targets[rows_sel])
            mask_comp += weight * part
            grad_mask[rows_sel] = weight * g

    total = target_comp + positive_comp + negative_comp + mask_comp
    breakdown = LossBreakdown(
        target=target_comp,
        positive=positive_comp,
        negative=negative_comp,
        mask=mask_comp,
        total=total,
    )
    return breakdown, grad, grad_mask
