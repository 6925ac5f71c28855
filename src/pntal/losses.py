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

What each row learns from is one ``Supervision``: whether the row is ground
truth, its hard target, its negative and positive masks and, optionally, a
soft label (``batch_terms`` derives the mask target from the hard target).
Training builds one for the labeled pool per phase and one for the unlabeled
pool per epoch, then takes each step's rows from both with
``Supervision.stack``.

Both take a ``model.Workspace``: ``Supervision.stack`` gathers into its
buffers and ``batch_terms`` writes every temporary and both gradients into
them, so a training step allocates no (rows, K) array; the results hold
until the next call on that workspace. Each class-axis sum is
``core.row_sum``: numpy's own pairwise addition order, one ufunc call per
column, so every loss and gradient keeps the bits of ``.sum(axis=1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Error, row_sum, stack_rows

CLAMP = 1e-12


class LengthMismatchError(Error, ValueError):
    pass


class UnresolvedSupervisionError(Error, ValueError):
    pass


class RowIndexError(Error, IndexError):
    pass


def mask_loss(mask_scores, foreground_targets):
    """Mean binary cross-entropy between mask scores and foreground targets."""
    s = np.asarray(mask_scores, dtype=np.float64)
    t = np.asarray(foreground_targets, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 1:
        raise LengthMismatchError(f"mask scores {s.shape} vs targets {t.shape}")
    if s.size == 0:
        return 0.0, np.zeros(0)
    q = 1.0 - s
    losses = -(t * np.log(np.maximum(s, CLAMP)) + (1.0 - t) * np.log(np.maximum(q, CLAMP)))
    # Each part of the gradient is 0.0 on its clamped entries. Adding the
    # second part everywhere adds 0.0 where only the first applies, as adding
    # into zeros would: -t/s = -0.0 there becomes +0.0.
    grad = np.zeros_like(s)
    np.divide(-t, s, out=grad, where=s > CLAMP)
    part = np.zeros_like(s)
    np.divide(1.0 - t, q, out=part, where=q > CLAMP)
    grad += part
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


def _one_hot(targets: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The one-hot rows of 1-based targets, written into the (N, K) out."""
    return np.equal(targets[:, None], np.arange(1, out.shape[1] + 1), out=out)


@dataclass(eq=False)
class Supervision:
    """Frozen per-row supervision, for a pool or for one step's rows.

    labeled flags ground-truth rows; targets holds 1-based hard target ids;
    neg/pos masks hold subspace membership per row (all-False where unused).
    soft, when given, is an (N, K) matrix of label distributions that
    replaces the one-hot target rows in the target term.
    """

    labeled: np.ndarray  # (N,) bool
    targets: np.ndarray  # (N,) int
    neg_mask: np.ndarray  # (N, K) bool
    pos_mask: np.ndarray  # (N, K) bool
    soft: Optional[np.ndarray] = None  # (N, K) or None

    @classmethod
    def stack(cls, parts, work) -> "Supervision":
        """The (supervision, rows) parts' rows, stacked in part order into
        ``work``'s buffers. Every row index must lie in [0, len(part)).

        The result has a soft label only if some part does; then the rows of
        the parts without one get one-hot rows of their targets.
        """
        for sup, rows in parts:
            # Checked once per part here, because the gather clips.
            if len(rows) and (rows.min() < 0 or rows.max() >= len(sup.labeled)):
                raise RowIndexError(f"row indices must lie in [0, {len(sup.labeled)})")
        n = sum(len(rows) for _, rows in parts)

        def gather(name):
            first = getattr(parts[0][0], name)
            out = work.buffer("supervision." + name, n, first.shape[1:], first.dtype)
            return stack_rows([(getattr(sup, name), rows) for sup, rows in parts], out)

        targets = gather("targets")
        soft = None
        if any(sup.soft is not None for sup, _ in parts):
            soft = work.buffer("supervision.soft", n, (parts[0][0].neg_mask.shape[1],))
            i = 0
            for sup, rows in parts:
                block = soft[i : i + len(rows)]
                if sup.soft is None:
                    _one_hot(targets[i : i + len(rows)], out=block)
                else:
                    stack_rows([(sup.soft, rows)], block)
                i += len(rows)
        return cls(
            labeled=gather("labeled"),
            targets=targets,
            neg_mask=gather("neg_mask"),
            pos_mask=gather("pos_mask"),
            soft=soft,
        )


def _cross_entropy(p, log_p, w, active, scratch, grad):
    """Each row's -sum_c w_c log p_c; its gradient w.r.t. the row's logits
    goes into grad.

    log_p is log(max(p, CLAMP)) and active is 1.0 where p > CLAMP, else 0.0;
    weight on a clamped entry adds no gradient. ``w * active`` equals
    np.where(p > CLAMP, w, 0.0) only because every weight is finite and
    >= 0: w * 1.0 is w, and w * 0.0 is +0.0.
    """
    np.multiply(w, log_p, out=scratch)
    rows = row_sum(scratch)
    np.negative(rows, out=rows)
    w_active = np.multiply(w, active, out=scratch)
    np.multiply(row_sum(w_active)[:, None], p, out=grad)
    grad -= w_active
    return rows


def batch_terms(probs: np.ndarray, mask_scores: np.ndarray, supervision: Supervision, alpha: float, work):
    """Loss breakdown plus gradients w.r.t. logits and mask scores.

    Supervised rows average with weight 1/N_labeled, unsupervised rows with
    alpha/N_unsupervised, and the mask BCE likewise; a row's mask target is 1
    exactly when its hard target is an action class (targets != K, the
    background being class K). The returned gradients are exactly the
    gradients of breakdown.total. Every temporary and both gradients live in
    the workspace's buffers.
    """
    p = probs
    n, k = p.shape
    labeled = supervision.labeled
    n_lab = int(labeled.sum())
    n_uns = n - n_lab
    active, log_p, weights, scratch, grad, other = (
        work.buffer("batch_terms." + name, n, (k,))
        for name in ("active", "log_p", "weights", "scratch", "grad", "other")
    )
    np.greater(p, CLAMP, out=active)
    np.maximum(p, CLAMP, out=log_p)
    np.log(log_p, out=log_p)

    # Target term: cross-entropy against the soft rows, or one-hot rows.
    target_w = supervision.soft
    if target_w is None:
        target_w = _one_hot(supervision.targets, out=weights)
    tgt_rows = _cross_entropy(p, log_p, target_w, active, scratch, grad)

    # Negative term: -sum_c m_c log(1 - p_c), clamped entries frozen. With
    # q = max(1 - p, CLAMP), q > CLAMP exactly where 1 - p > CLAMP, and there
    # q is 1 - p; elsewhere the mask's 0.0 zeroes the weight m p / q, to
    # +0.0 as np.where gave, because m and p are finite and >= 0.
    q = np.subtract(1.0, p, out=other)
    np.maximum(q, CLAMP, out=q)
    mneg = weights
    np.copyto(mneg, supervision.neg_mask)
    np.log(q, out=scratch)
    np.multiply(mneg, scratch, out=scratch)
    neg_rows = row_sum(scratch)
    np.negative(neg_rows, out=neg_rows)
    np.greater(q, CLAMP, out=scratch)
    w = np.multiply(mneg, scratch, out=weights)
    w *= p
    w /= q
    np.multiply(p, row_sum(w)[:, None], out=scratch)
    np.subtract(w, scratch, out=scratch)
    grad += scratch

    # Positive term: -sum_c m_c log p_c.
    np.copyto(weights, supervision.pos_mask)
    pos_rows = _cross_entropy(p, log_p, weights, active, scratch, other)
    grad += other

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

    foreground = supervision.targets != k
    grad_mask = work.buffer("batch_terms.grad_mask", n)
    mask_comp = 0.0
    for rows_sel, weight in ((labeled, 1.0), (~labeled, alpha)):
        part, g = mask_loss(mask_scores[rows_sel], foreground[rows_sel])
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
