"""Adaptive partition of predicted class distributions into four subspaces.

Given a distribution p over {1..C+1}, the target class is the argmax (ties
break toward the lowest class id). The negative classes are the longest
ascending-confidence prefix of the non-target classes whose cumulative
probability stays <= max(p). The positive classes are the remaining
non-target classes with confidence >= ratio * max(p); a class satisfying
both rules (possible for near-uniform distributions) is negative. Everything
else is ambiguous.

Comparisons use <= / >= exactly as stated, with no epsilon slack, and sorting
is stable with ties kept in original class-index order, so the partition is
deterministic across runs and platforms.
"""

from __future__ import annotations

import numpy as np


def partition_rows(probs: np.ndarray, ratio: float):
    """Partition each row of an (N, K) row-stochastic matrix.

    ratio is the positive cutoff as a fraction of max(p), in (0, 1]; the
    caller passes ``ExperimentConfig.positive_confidence_ratio``, which the
    config already restricts to that range. Returns (targets, neg_mask,
    pos_mask): 1-based argmax targets plus boolean (N, K) membership masks.
    The target column is in neither mask, and the masks are disjoint; the
    ambiguous classes are the rest.
    """
    n, k = probs.shape
    rows = np.arange(n)[:, None]
    targets0 = np.argmax(probs, axis=1)
    maxp = probs[np.arange(n), targets0]

    order = np.argsort(probs, kind="stable", axis=1)
    sorted_probs = np.take_along_axis(probs, order, axis=1)
    non_target_sorted = order != targets0[:, None]
    # Cumulative mass of non-target entries in ascending order; zeroing the
    # target entry keeps positions aligned without advancing the sum.
    cum = np.cumsum(np.where(non_target_sorted, sorted_probs, 0.0), axis=1)
    neg_sorted = non_target_sorted & (cum <= maxp[:, None])
    neg_mask = np.zeros_like(neg_sorted)
    neg_mask[rows, order] = neg_sorted

    pos_mask = probs >= (ratio * maxp)[:, None]
    pos_mask[np.arange(n), targets0] = False
    pos_mask &= ~neg_mask
    return targets0 + 1, neg_mask, pos_mask
