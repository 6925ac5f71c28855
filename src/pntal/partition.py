"""Adaptive partition of predicted class distributions into four subspaces.

Given a distribution p over {1..C+1}, the target class is the argmax (ties
break toward the lowest class id). The negative classes are the longest
ascending-confidence prefix of the non-target classes whose cumulative
probability stays <= max(p). The positive classes are the remaining
non-target classes with confidence >= ratio * max(p); a class satisfying
both rules (possible for near-uniform distributions) is negative. Everything
else is ambiguous.

Comparisons use <= / >= exactly as stated, with no epsilon slack, and ties
are kept in class-index order, so the partition is deterministic across runs
and platforms.

``partition_rows`` finds the negatives from each row's sorted values, never
sorting class indices. The K-1 smallest values of a row are its non-target
values in ascending order, so adding them up in that order is the same
sequence of additions as the rule's running mass. Every value is >= 0, so the
running mass never decreases and the negatives are a prefix: their count
``count`` and the last value taken, ``cut``, decide them. They are the
non-target classes with p <= cut, unless the next sorted value equals the
cut (a tie straddling it); then they are the classes with p < cut and the
first of the tied classes by index, up to ``count`` in all.

The prefix argument needs finite values >= 0, so a row holding a negative,
NaN or infinite value raises ``BadDistributionError``; rows need not sum to
one. The positive cutoff ``ratio`` is one scalar for every row or an (N,)
array with one per row.
"""

from __future__ import annotations

import numpy as np

from .core import Error


class BadDistributionError(Error, ValueError):
    """A row to partition holds a negative, NaN or infinite value."""


def partition_rows(probs: np.ndarray, ratio: float | np.ndarray):
    """Partition each row of an (N, K) matrix of class distributions.

    Every value must be finite and >= 0 (rows need not sum to one); otherwise
    BadDistributionError names the first bad row and its value. ratio is the
    positive cutoff as a fraction of max(p), in (0, 1]: a scalar for every
    row, or an (N,) array with one per row. Callers pass
    ``ExperimentConfig.positive_confidence_ratio``, which the config already
    restricts to that range. Returns (targets, neg_mask, pos_mask): 1-based
    argmax targets plus boolean (N, K) membership masks, new C-ordered
    arrays. The target column is in neither mask, and the masks are
    disjoint; the ambiguous classes are the rest.

    The negatives follow the module docstring's sorted-value rule: one sort
    of the values, a running mass over the K-1 smallest, and one comparison
    with the cut; only rows whose tie straddles the cut look at class
    indices.
    """
    n, k = probs.shape
    rows = np.arange(n)
    # Line j holds every row's j-th smallest value.
    ordered = np.ascontiguousarray(np.sort(probs, axis=1).T)
    _check_domain(ordered)
    maxp = ordered[-1]
    targets0 = np.argmax(probs == maxp[:, None], axis=1)

    neg_mask = np.zeros((n, k), dtype=bool)
    if k > 1:  # with one column, the target is the whole row
        # The running mass of the K-1 smallest values, one sorted line at a
        # time; the smallest value alone never exceeds max(p).
        mass = ordered[0].copy()
        count = np.ones(n, dtype=np.intp)
        for line in ordered[1:-1]:
            mass += line
            count += mass <= maxp
        flat = ordered.ravel()
        cut = flat[(count - 1) * n + rows]
        np.less_equal(probs, cut[:, None], out=neg_mask)
        neg_mask[rows, targets0] = False
        straddle = np.flatnonzero((count < k - 1) & (flat[count * n + rows] == cut))
        if len(straddle):
            neg_mask[straddle] = _straddled_negatives(
                probs[straddle], targets0[straddle], cut[straddle], count[straddle]
            )

    pos_mask = np.greater_equal(probs, (ratio * maxp)[:, None], order="C")
    pos_mask[rows, targets0] = False
    pos_mask &= ~neg_mask
    return targets0 + 1, neg_mask, pos_mask


def _check_domain(ordered: np.ndarray) -> None:
    """Raise BadDistributionError unless every sorted line holds finite values
    >= 0: NaN sorts last, so the first and last lines show every bad row."""
    low, high = ordered[0], ordered[-1]
    bad_low = ~(low >= 0.0)
    bad = bad_low | ~np.isfinite(high)
    if bad.any():
        row = int(np.argmax(bad))
        value = float(low[row] if bad_low[row] else high[row])
        raise BadDistributionError(
            f"row {row} is not a distribution: it holds {value!r}, and every value must be finite and >= 0"
        )


def _straddled_negatives(
    probs: np.ndarray, targets0: np.ndarray, cut: np.ndarray, count: np.ndarray
) -> np.ndarray:
    """The negative masks of rows whose tie straddles the cut: the non-target
    classes with p < cut, then tied ones by class index up to ``count``."""
    non_target = np.ones(probs.shape, dtype=bool)
    non_target[np.arange(len(probs)), targets0] = False
    below = non_target & (probs < cut[:, None])
    tied = non_target & (probs == cut[:, None])
    room = count - np.count_nonzero(below, axis=1)
    for j in range(probs.shape[1]):
        take = tied[:, j] & (room > 0)
        below[:, j] |= take
        room -= take
    return below
