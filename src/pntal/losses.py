"""Hybrid loss family: target CE, negative loss, positive loss, mask BCE.

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

from .core import ClassDistribution, Error

CLAMP = 1e-12


class LengthMismatchError(Error, ValueError):
    pass


class UnresolvedSupervisionError(Error, ValueError):
    pass


def target_loss(dist: ClassDistribution, target_class: int):
    """Cross-entropy against a hard target class: -log p_target."""
    p = dist.probs
    pt = p[target_class - 1]
    loss = -np.log(max(pt, CLAMP))
    grad = p.copy()
    if pt > CLAMP:
        grad[target_class - 1] -= 1.0
    else:
        grad[:] = 0.0
    return float(loss), grad


def negative_loss(dist: ClassDistribution, negatives):
    """Push probability away from the negative classes: -sum log(1 - p_c)."""
    p = dist.probs
    grad = np.zeros_like(p)
    if not negatives:
        return 0.0, grad
    idx = np.fromiter((c - 1 for c in sorted(negatives)), dtype=np.int64)
    q = 1.0 - p[idx]
    loss = -np.log(np.maximum(q, CLAMP)).sum()
    active = q > CLAMP
    w = np.where(active, p[idx] / np.where(active, q, 1.0), 0.0)
    grad[idx] += w
    grad -= p * w.sum()
    return float(loss), grad


def positive_loss(dist: ClassDistribution, positives):
    """Pull probability toward the positive classes: -sum log p_c."""
    p = dist.probs
    grad = np.zeros_like(p)
    if not positives:
        return 0.0, grad
    idx = np.fromiter((c - 1 for c in sorted(positives)), dtype=np.int64)
    loss = -np.log(np.maximum(p[idx], CLAMP)).sum()
    active = p[idx] > CLAMP
    grad += active.sum() * p
    grad[idx] -= active.astype(np.float64)
    return float(loss), grad


def soft_target_loss(dist: ClassDistribution, soft_label: np.ndarray):
    """Cross-entropy against a full soft label: -sum q_c log p_c."""
    p = dist.probs
    q = np.asarray(soft_label, dtype=np.float64)
    if q.shape != p.shape:
        raise LengthMismatchError("soft label length must match distribution length")
    active = p > CLAMP
    loss = -(q * np.log(np.maximum(p, CLAMP))).sum()
    qa = np.where(active, q, 0.0)
    grad = qa.sum() * p - qa
    return float(loss), grad


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

    probs/mask_scores come from the model; labeled flags which rows are
    ground-truth supervised. targets holds 1-based hard target ids; neg/pos
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


def _membership_scale(mask: np.ndarray, normalize: bool) -> np.ndarray:
    m = mask.astype(np.float64)
    if normalize:
        counts = m.sum(axis=1, keepdims=True)
        m = np.divide(m, counts, out=m, where=counts > 0)
    return m


def batch_terms(arrays: BatchArrays, alpha: float, normalize_sets: bool = False):
    """Loss breakdown plus gradients w.r.t. logits and mask scores.

    Supervised rows average with weight 1/N_labeled, unsupervised rows with
    alpha/N_unsupervised, mask BCE with 1/N_masked; the returned gradients are
    exactly the gradients of breakdown.total.
    """
    p = arrays.probs
    n, k = p.shape
    labeled = arrays.labeled
    n_lab = int(labeled.sum())
    n_uns = n - n_lab
    rows = np.arange(n)

    tgt_rows = np.zeros(n)
    grad = np.zeros_like(p)
    soft_rows = np.zeros(n, dtype=bool)
    if arrays.soft is not None:
        soft_rows = np.isfinite(arrays.soft).all(axis=1)

    hard_rows = ~soft_rows
    if hard_rows.any():
        t0 = arrays.targets[hard_rows] - 1
        pt = p[hard_rows, t0]
        tgt_rows[hard_rows] = -np.log(np.maximum(pt, CLAMP))
        active = pt > CLAMP
        g = p[hard_rows].copy()
        g[np.arange(len(t0)), t0] -= 1.0
        g[~active] = 0.0
        grad[hard_rows] += g
    if soft_rows.any():
        q = arrays.soft[soft_rows]
        ps = p[soft_rows]
        act = ps > CLAMP
        qa = np.where(act, q, 0.0)
        tgt_rows[soft_rows] = -(q * np.log(np.maximum(ps, CLAMP))).sum(axis=1)
        grad[soft_rows] += qa.sum(axis=1, keepdims=True) * ps - qa

    # Negative term: -sum_c m_c log(1 - p_c), clamped entries frozen.
    q = 1.0 - p
    mneg = _membership_scale(arrays.neg_mask, normalize_sets)
    neg_active = q > CLAMP
    neg_rows = -(mneg * np.log(np.maximum(q, CLAMP))).sum(axis=1)
    w = np.where(neg_active, mneg * p / np.where(neg_active, q, 1.0), 0.0)
    grad += w - p * w.sum(axis=1, keepdims=True)

    # Positive term: -sum_c m_c log p_c.
    mpos = _membership_scale(arrays.pos_mask, normalize_sets)
    pos_active = p > CLAMP
    mpa = np.where(pos_active, mpos, 0.0)
    pos_rows = -(mpos * np.log(np.maximum(p, CLAMP))).sum(axis=1)
    grad += mpa.sum(axis=1, keepdims=True) * p - mpa

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
