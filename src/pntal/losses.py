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


@dataclass(eq=False)
class BatchArrays:
    """Array view of one training batch.

    probs/mask_scores come from the model (a training step builds the rest
    first, with None there, and fills them after its forward pass); labeled
    flags which rows are ground-truth supervised. targets holds 1-based hard target ids; neg/pos
    masks hold subspace membership per row (all-False where unused). soft is
    an optional (N, K) soft-label matrix whose finite rows replace the hard
    target term. mask_targets uses NaN for rows without mask supervision.
    """

    probs: np.ndarray
    mask_scores: np.ndarray
    labeled: np.ndarray
    targets: np.ndarray
    neg_mask: np.ndarray
    pos_mask: np.ndarray
    mask_targets: np.ndarray
    soft: Optional[np.ndarray] = None


def _cross_entropy(p, log_p, w):
    """Each row's -sum_c w_c log p_c and its gradient w.r.t. the row's logits.

    log_p is log(max(p, CLAMP)); weight on a clamped entry adds no gradient.
    """
    w_active = np.where(p > CLAMP, w, 0.0)
    return -(w * log_p).sum(axis=1), w_active.sum(axis=1, keepdims=True) * p - w_active


def batch_terms(arrays: BatchArrays, alpha: float):
    """Loss breakdown plus gradients w.r.t. logits and mask scores.

    Supervised rows average with weight 1/N_labeled, unsupervised rows with
    alpha/N_unsupervised, mask BCE with 1/N_masked; the returned gradients are
    exactly the gradients of breakdown.total.
    """
    p = arrays.probs
    n = len(p)
    labeled = arrays.labeled
    n_lab = int(labeled.sum())
    n_uns = n - n_lab
    log_p = np.log(np.maximum(p, CLAMP))

    # Target term: cross-entropy against a one-hot row, or the soft row.
    target_w = np.zeros_like(p)
    target_w[np.arange(n), arrays.targets - 1] = 1.0
    if arrays.soft is not None:
        soft_rows = np.isfinite(arrays.soft).all(axis=1, keepdims=True)
        target_w = np.where(soft_rows, arrays.soft, target_w)
    tgt_rows, grad = _cross_entropy(p, log_p, target_w)

    # Negative term: -sum_c m_c log(1 - p_c), clamped entries frozen.
    q = 1.0 - p
    mneg = arrays.neg_mask.astype(np.float64)
    neg_active = q > CLAMP
    neg_rows = -(mneg * np.log(np.maximum(q, CLAMP))).sum(axis=1)
    w = np.where(neg_active, mneg * p / np.where(neg_active, q, 1.0), 0.0)
    grad += w - p * w.sum(axis=1, keepdims=True)

    # Positive term: -sum_c m_c log p_c.
    pos_rows, pos_grad = _cross_entropy(p, log_p, arrays.pos_mask.astype(np.float64))
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
    masked = np.isfinite(arrays.mask_targets)
    grad_mask = np.zeros(n)
    mask_comp = 0.0
    for rows_sel, weight in ((masked & labeled, 1.0), (masked & ~labeled, alpha)):
        if rows_sel.any():
            part, g = mask_loss(arrays.mask_scores[rows_sel], arrays.mask_targets[rows_sel])
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
