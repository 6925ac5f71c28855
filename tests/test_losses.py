import math
import zlib

import numpy as np
import pytest

from pntal.core import ExperimentConfig
from pntal.losses import (
    BatchArrays,
    LengthMismatchError,
    batch_terms,
    mask_loss,
)

from oracles import assert_gradients_close, finite_difference, softmax_list


def _batch(probs, mask_scores, rows, mask_targets=None):
    """BatchArrays with one row per probability vector.

    A row is ("gt", class), ("pseudo", target, negatives, positives) or
    ("soft", soft_label). A ground-truth row takes every non-target class as
    negative, as under the hybrid and target-negative objectives.
    """
    n, k = len(rows), len(probs[0])
    if mask_targets is None:
        mask_targets = [None] * n
    arrays = BatchArrays(
        probs=np.array(probs, dtype=np.float64),
        mask_scores=np.asarray(mask_scores, dtype=np.float64),
        labeled=np.array([row[0] == "gt" for row in rows]),
        targets=np.zeros(n, dtype=np.int64),
        neg_mask=np.zeros((n, k), dtype=bool),
        pos_mask=np.zeros((n, k), dtype=bool),
        mask_targets=np.array([np.nan if t is None else t for t in mask_targets]),
    )
    for i, row in enumerate(rows):
        if row[0] == "gt":
            arrays.targets[i] = row[1]
            arrays.neg_mask[i] = True
            arrays.neg_mask[i, row[1] - 1] = False
        elif row[0] == "pseudo":
            _, target, negatives, positives = row
            arrays.targets[i] = target
            arrays.neg_mask[i, [c - 1 for c in negatives]] = True
            arrays.pos_mask[i, [c - 1 for c in positives]] = True
        else:
            if arrays.soft is None:
                arrays.soft = np.full((n, k), np.nan)
            arrays.soft[i] = row[1]
            arrays.targets[i] = int(np.argmax(row[1])) + 1
    return arrays


def _one_row(probs, target, negatives=(), positives=()):
    """batch_terms on one pseudo-labeled row of weight 1: (breakdown, logit gradient).

    The breakdown's target, negative and positive fields are the row's three
    loss terms; the gradient is that of their sum.
    """
    arrays = _batch([probs], [0.5], [("pseudo", target, set(negatives), set(positives))])
    breakdown, grad, _ = batch_terms(arrays, alpha=1.0)
    return breakdown, grad[0]


def _target_fn(target):
    """-log p_target of the softmax of a logit list, written with math.log."""
    return lambda z: -math.log(max(softmax_list(z)[target - 1], 1e-12))


def _negative_fn(negatives):
    return lambda z: -sum(math.log(max(1.0 - softmax_list(z)[c - 1], 1e-12)) for c in negatives)


def _positive_fn(positives):
    return lambda z: -sum(math.log(max(softmax_list(z)[c - 1], 1e-12)) for c in positives)


class TestTargetLoss:
    def test_hand_value(self):
        breakdown, _ = _one_row([0.5, 0.3, 0.2], 1)
        assert breakdown.target == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_perfect_prediction(self):
        breakdown, _ = _one_row([1.0, 0.0, 0.0], 1)
        assert breakdown.target == 0.0

    def test_uniform(self):
        breakdown, _ = _one_row([1 / 3] * 3, 2)
        assert breakdown.target == pytest.approx(math.log(3.0), abs=1e-9)

    def test_zero_iff_certain(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = rng.random(5) + 1e-3
            probs = raw / raw.sum()
            breakdown, _ = _one_row(probs, 2)
            assert (breakdown.target == 0.0) == (probs[1] == 1.0)
            assert breakdown.target >= 0.0


class TestNegativeLoss:
    def test_hand_value(self):
        breakdown, _ = _one_row([0.4, 0.35, 0.2, 0.05], 1, negatives={4, 3})
        assert breakdown.negative == pytest.approx(-(math.log(0.95) + math.log(0.8)), abs=1e-9)
        assert breakdown.negative == pytest.approx(0.274437, abs=1e-6)

    def test_empty_set(self):
        breakdown, grad = _one_row([0.5, 0.5], 1)
        assert breakdown.negative == 0.0
        assert np.array_equal(grad, [-0.5, 0.5])  # p - e_target: the target term alone

    def test_zero_probability_negatives(self):
        breakdown, _ = _one_row([1.0, 0.0, 0.0], 1, negatives={2, 3})
        assert breakdown.negative == 0.0

    def test_descent_direction(self):
        # A step against the row's gradient moves mass off its negatives.
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.normal(size=6)
            probs = np.array(softmax_list(list(logits)))
            target = int(np.argmax(probs)) + 1
            negatives = {5, 6} - {target}
            _, grad = _one_row(probs, target, negatives=negatives)
            stepped = softmax_list(list(logits - 1e-3 * grad))
            before = sum(probs[c - 1] for c in negatives)
            after = sum(stepped[c - 1] for c in negatives)
            assert after < before


class TestPositiveLoss:
    def test_hand_value(self):
        breakdown, _ = _one_row([0.4, 0.35, 0.2, 0.05], 1, positives={2})
        assert breakdown.positive == pytest.approx(-math.log(0.35), abs=1e-9)
        assert breakdown.positive == pytest.approx(1.049822, abs=1e-6)

    def test_empty_set(self):
        breakdown, grad = _one_row([0.5, 0.5], 1)
        assert breakdown.positive == 0.0
        assert np.array_equal(grad, [-0.5, 0.5])  # p - e_target: the target term alone

    def test_two_positives(self):
        breakdown, _ = _one_row([0.4, 0.3, 0.3], 1, positives={2, 3})
        assert breakdown.positive == pytest.approx(-2.0 * math.log(0.3), abs=1e-9)
        assert breakdown.positive == pytest.approx(2.407946, abs=1e-6)

    def test_minimized_toward_certainty(self):
        losses = []
        for p in (0.2, 0.5, 0.9, 0.99):
            losses.append(_one_row([1.0 - p, p], 1, positives={2})[0].positive)
        assert losses == sorted(losses, reverse=True)


class TestMaskLoss:
    def test_perfect(self):
        loss, _ = mask_loss([1.0, 0.0], [1.0, 0.0])
        assert loss == 0.0

    def test_uninformative(self):
        loss, _ = mask_loss([0.5, 0.5], [1.0, 0.0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-9)

    def test_confident_wrong(self):
        loss, _ = mask_loss([0.9], [0.0])
        assert loss == pytest.approx(-math.log(0.1), abs=1e-9)
        assert loss == pytest.approx(2.302585, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            mask_loss([0.5, 0.5], [1.0])

    def test_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.uniform(0.01, 0.99, size=5)
            targets = rng.integers(0, 2, size=5).astype(float)
            _, grad = mask_loss(scores, targets)
            numeric = finite_difference(lambda s: mask_loss(s, targets)[0], list(scores))
            assert_gradients_close(grad, numeric)


@pytest.mark.parametrize("case", ["target", "negative", "positive", "soft"])
def test_gradients_match_finite_differences(case):
    """batch_terms' logit gradient of one row against finite differences of
    the row's whole loss, written with math.log."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    for _ in range(60):
        k = int(rng.integers(3, 9))
        logits = rng.normal(scale=1.5, size=k)
        probs = softmax_list(list(logits))
        if case == "target":
            target = int(rng.integers(1, k + 1))
            _, grad = _one_row(probs, target)
            fn = _target_fn(target)
        elif case == "soft":
            q = rng.dirichlet(np.ones(k))
            _, grad, _ = batch_terms(_batch([probs], [0.5], [("soft", q)]), alpha=1.0)
            grad = grad[0]
            fn = lambda z: -sum(
                qc * math.log(max(pc, 1e-12)) for qc, pc in zip(q, softmax_list(z))
            )
        else:
            target = probs.index(max(probs)) + 1
            pool = [c for c in range(1, k + 1) if c != target]
            rng.shuffle(pool)
            chosen = set(pool[: rng.integers(1, len(pool) + 1)])
            if case == "negative":
                _, grad = _one_row(probs, target, negatives=chosen)
                set_fn = _negative_fn(chosen)
            else:
                _, grad = _one_row(probs, target, positives=chosen)
                set_fn = _positive_fn(chosen)
            target_fn = _target_fn(target)
            fn = lambda z: target_fn(z) + set_fn(z)
        numeric = finite_difference(fn, list(logits))
        assert_gradients_close(grad, numeric)


def _loss(arrays, config):
    breakdown, _, _ = batch_terms(arrays, alpha=config.unlabeled_loss_weight)
    return breakdown


def _batch_fixture():
    probs = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]
    rows = [("gt", 1), ("pseudo", 2, {1}, {3}), ("pseudo", 3, set(), set())]
    return rows, probs, [1.0, None, None]


class TestCombinedLoss:
    def test_single_labeled_snippet(self):
        config = ExperimentConfig(objective="hybrid")
        breakdown = _loss(_batch([[0.5, 0.3, 0.2]], [0.5], [("gt", 1)]), config)
        assert breakdown.target == pytest.approx(-math.log(0.5), abs=1e-9)
        assert breakdown.negative == pytest.approx(-(math.log(0.7) + math.log(0.8)), abs=1e-9)
        assert breakdown.negative == pytest.approx(0.579818, abs=1e-6)
        assert breakdown.positive == 0.0

    def test_pseudo_with_empty_sets(self):
        config = ExperimentConfig(unlabeled_loss_weight=0.7)
        breakdown = _loss(_batch([[0.5, 0.3, 0.2]], [0.5], [("pseudo", 1, set(), set())]), config)
        assert breakdown.total == pytest.approx(0.7 * -math.log(0.5), abs=1e-12)
        assert breakdown.positive == 0.0
        assert breakdown.negative == 0.0

    def test_alpha_zero_kills_unlabeled(self):
        rows, probs, mask_targets = _batch_fixture()
        config = ExperimentConfig(unlabeled_loss_weight=0.0)
        breakdown = _loss(_batch(probs, [0.5, 0.5, 0.5], rows, mask_targets), config)
        only_labeled = _loss(_batch(probs[:1], [0.5], rows[:1], mask_targets[:1]), config)
        assert breakdown.target == pytest.approx(only_labeled.target, abs=1e-12)
        assert breakdown.positive == 0.0

    def test_total_decomposes(self):
        rows, probs, mask_targets = _batch_fixture()
        config = ExperimentConfig(unlabeled_loss_weight=0.7)
        b = _loss(_batch(probs, [0.6, 0.4, 0.5], rows, mask_targets), config)
        assert b.total == pytest.approx(b.target + b.positive + b.negative + b.mask, abs=1e-12)

    def test_soft_supervision(self):
        q = [0.6, 0.3, 0.1]
        probs = [0.5, 0.3, 0.2]
        config = ExperimentConfig(unlabeled_loss_weight=1.0, objective="soft-pseudo")
        breakdown = _loss(_batch([probs], [0.5], [("soft", q)]), config)
        expected = -sum(qc * math.log(pc) for qc, pc in zip(q, probs))
        assert breakdown.target == pytest.approx(expected, abs=1e-12)


def test_batch_terms_matches_per_snippet_ops():
    rng = np.random.default_rng(9)
    k = 6
    n = 12
    probs = rng.dirichlet(np.ones(k), size=n)
    scores = rng.uniform(0.05, 0.95, size=n)
    labeled = rng.random(n) < 0.5
    targets = rng.integers(1, k + 1, size=n)
    neg_mask = np.zeros((n, k), dtype=bool)
    pos_mask = np.zeros((n, k), dtype=bool)
    mask_targets = np.full(n, np.nan)
    for i in range(n):
        if labeled[i]:
            neg_mask[i] = True
            neg_mask[i, targets[i] - 1] = False
            mask_targets[i] = float(rng.integers(0, 2))
        else:
            others = [c for c in range(1, k + 1) if c != targets[i]]
            rng.shuffle(others)
            for c in others[:2]:
                neg_mask[i, c - 1] = True
            for c in others[2:3]:
                pos_mask[i, c - 1] = True
    alpha = 0.6
    arrays = BatchArrays(
        probs=probs, mask_scores=scores, labeled=labeled, targets=targets,
        neg_mask=neg_mask, pos_mask=pos_mask, mask_targets=mask_targets,
    )
    breakdown, grad, grad_mask = batch_terms(arrays, alpha=alpha)

    n_lab = labeled.sum()
    n_uns = n - n_lab
    expect_target = expect_neg = expect_pos = 0.0
    # Each row's terms by their definitions, with math.log.
    for i, row in enumerate(probs.tolist()):
        w = 1.0 / n_lab if labeled[i] else alpha / n_uns
        expect_target += w * -math.log(row[targets[i] - 1])
        expect_neg += w * -sum(math.log(1.0 - row[c]) for c in np.nonzero(neg_mask[i])[0])
        expect_pos += w * -sum(math.log(row[c]) for c in np.nonzero(pos_mask[i])[0])
    assert breakdown.target == pytest.approx(expect_target, abs=1e-12)
    assert breakdown.negative == pytest.approx(expect_neg, abs=1e-12)
    assert breakdown.positive == pytest.approx(expect_pos, abs=1e-12)

    # gradient of breakdown.total w.r.t. every logit, via finite differences
    def total_from_logits(flat):
        z = np.asarray(flat).reshape(n, k)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        arr = BatchArrays(
            probs=p, mask_scores=scores, labeled=labeled, targets=targets,
            neg_mask=neg_mask, pos_mask=pos_mask, mask_targets=mask_targets,
        )
        return batch_terms(arr, alpha=alpha)[0].total

    logits = np.log(probs)
    arrays2 = BatchArrays(
        probs=np.exp(logits - logits.max(axis=1, keepdims=True))
        / np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True),
        mask_scores=scores, labeled=labeled, targets=targets,
        neg_mask=neg_mask, pos_mask=pos_mask, mask_targets=mask_targets,
    )
    _, grad2, _ = batch_terms(arrays2, alpha=alpha)
    numeric = finite_difference(total_from_logits, list(logits.ravel()), h=1e-6)
    assert_gradients_close(grad2.ravel(), numeric, rel_tol=1e-4, abs_tol=1e-7)
