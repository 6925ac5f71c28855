import math

import numpy as np
import pytest

from pntal.core import (
    ClassDistribution,
    ExperimentConfig,
    make_distribution,
    softmax,
)
from pntal.losses import (
    BatchArrays,
    LengthMismatchError,
    batch_terms,
    mask_loss,
    negative_loss,
    positive_loss,
    soft_target_loss,
    target_loss,
)

from oracles import assert_gradients_close, finite_difference, softmax_list


class TestTargetLoss:
    def test_hand_value(self):
        loss, _ = target_loss(make_distribution([0.5, 0.3, 0.2]), 1)
        assert loss == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_perfect_prediction(self):
        loss, _ = target_loss(make_distribution([1, 0, 0]), 1)
        assert loss == 0.0

    def test_uniform(self):
        loss, _ = target_loss(make_distribution([1, 1, 1]), 2)
        assert loss == pytest.approx(math.log(3.0), abs=1e-9)

    def test_zero_iff_certain(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            dist = make_distribution(rng.random(5) + 1e-3)
            loss, _ = target_loss(dist, 2)
            assert (loss == 0.0) == (dist.probs[1] == 1.0)
            assert loss >= 0.0


class TestNegativeLoss:
    def test_hand_value(self):
        loss, _ = negative_loss(make_distribution([0.4, 0.35, 0.2, 0.05]), {4, 3})
        assert loss == pytest.approx(-(math.log(0.95) + math.log(0.8)), abs=1e-9)
        assert loss == pytest.approx(0.274437, abs=1e-6)

    def test_empty_set(self):
        loss, grad = negative_loss(make_distribution([0.5, 0.5]), set())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_zero_probability_negatives(self):
        loss, _ = negative_loss(make_distribution([1, 0, 0]), {2, 3})
        assert loss == 0.0

    def test_descent_direction(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.normal(size=6)
            dist = softmax(logits)
            negatives = {5, 6}
            _, grad = negative_loss(dist, negatives)
            stepped = softmax(logits - 1e-3 * grad)
            before = sum(dist.probs[c - 1] for c in negatives)
            after = sum(stepped.probs[c - 1] for c in negatives)
            assert after < before


class TestPositiveLoss:
    def test_hand_value(self):
        loss, _ = positive_loss(make_distribution([0.4, 0.35, 0.2, 0.05]), {2})
        assert loss == pytest.approx(-math.log(0.35), abs=1e-9)
        assert loss == pytest.approx(1.049822, abs=1e-6)

    def test_empty_set(self):
        loss, grad = positive_loss(make_distribution([0.5, 0.5]), set())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_two_positives(self):
        loss, _ = positive_loss(make_distribution([0.4, 0.3, 0.3]), {2, 3})
        assert loss == pytest.approx(-2.0 * math.log(0.3), abs=1e-9)
        assert loss == pytest.approx(2.407946, abs=1e-6)

    def test_minimized_toward_certainty(self):
        losses = []
        for p in (0.2, 0.5, 0.9, 0.99):
            dist = make_distribution([1.0 - p, p])
            losses.append(positive_loss(dist, {2})[0])
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
    rng = np.random.default_rng(hash(case) % 2**32)
    for _ in range(60):
        k = int(rng.integers(3, 9))
        logits = rng.normal(scale=1.5, size=k)
        dist = softmax(logits)
        if case == "target":
            target = int(rng.integers(1, k + 1))
            _, grad = target_loss(dist, target)
            fn = lambda z: -math.log(max(softmax_list(z)[target - 1], 1e-12))
        elif case == "negative":
            target = int(np.argmax(dist.probs)) + 1
            pool = [c for c in range(1, k + 1) if c != target]
            rng.shuffle(pool)
            negatives = set(pool[: rng.integers(1, len(pool) + 1)])
            _, grad = negative_loss(dist, negatives)
            fn = lambda z: -sum(
                math.log(max(1.0 - softmax_list(z)[c - 1], 1e-12)) for c in negatives
            )
        elif case == "positive":
            target = int(np.argmax(dist.probs)) + 1
            pool = [c for c in range(1, k + 1) if c != target]
            rng.shuffle(pool)
            positives = set(pool[: rng.integers(1, len(pool) + 1)])
            _, grad = positive_loss(dist, positives)
            fn = lambda z: -sum(
                math.log(max(softmax_list(z)[c - 1], 1e-12)) for c in positives
            )
        else:
            q = rng.dirichlet(np.ones(k))
            _, grad = soft_target_loss(dist, q)
            fn = lambda z: -sum(
                qc * math.log(max(pc, 1e-12)) for qc, pc in zip(q, softmax_list(z))
            )
        numeric = finite_difference(fn, list(logits))
        assert_gradients_close(grad, numeric)


def _batch(dists, mask_scores, rows, mask_targets=None):
    """BatchArrays with one row per distribution.

    A row is ("gt", class), ("pseudo", target, negatives, positives) or
    ("soft", soft_label). A ground-truth row takes every non-target class as
    negative, as under the hybrid and target-negative objectives.
    """
    n, k = len(rows), dists[0].label_count
    if mask_targets is None:
        mask_targets = [None] * n
    arrays = BatchArrays(
        probs=np.stack([d.probs for d in dists]),
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


def _loss(arrays, config):
    breakdown, _, _ = batch_terms(
        arrays, alpha=config.unlabeled_loss_weight, normalize_sets=config.normalize_set_losses
    )
    return breakdown


def _batch_fixture():
    dists = [
        make_distribution([0.5, 0.3, 0.2]),
        make_distribution([0.2, 0.5, 0.3]),
        make_distribution([0.3, 0.3, 0.4]),
    ]
    rows = [("gt", 1), ("pseudo", 2, {1}, {3}), ("pseudo", 3, set(), set())]
    return rows, dists, [1.0, None, None]


class TestCombinedLoss:
    def test_single_labeled_snippet(self):
        dists = [make_distribution([0.5, 0.3, 0.2])]
        config = ExperimentConfig(objective="hybrid")
        breakdown = _loss(_batch(dists, [0.5], [("gt", 1)]), config)
        assert breakdown.target == pytest.approx(-math.log(0.5), abs=1e-9)
        assert breakdown.negative == pytest.approx(-(math.log(0.7) + math.log(0.8)), abs=1e-9)
        assert breakdown.negative == pytest.approx(0.579818, abs=1e-6)
        assert breakdown.positive == 0.0

    def test_pseudo_with_empty_sets(self):
        dists = [make_distribution([0.5, 0.3, 0.2])]
        config = ExperimentConfig(unlabeled_loss_weight=0.7)
        breakdown = _loss(_batch(dists, [0.5], [("pseudo", 1, set(), set())]), config)
        assert breakdown.total == pytest.approx(0.7 * -math.log(0.5), abs=1e-12)
        assert breakdown.positive == 0.0
        assert breakdown.negative == 0.0

    def test_alpha_zero_kills_unlabeled(self):
        rows, dists, mask_targets = _batch_fixture()
        config = ExperimentConfig(unlabeled_loss_weight=0.0)
        breakdown = _loss(_batch(dists, [0.5, 0.5, 0.5], rows, mask_targets), config)
        only_labeled = _loss(_batch(dists[:1], [0.5], rows[:1], mask_targets[:1]), config)
        assert breakdown.target == pytest.approx(only_labeled.target, abs=1e-12)
        assert breakdown.positive == 0.0

    def test_total_decomposes(self):
        rows, dists, mask_targets = _batch_fixture()
        config = ExperimentConfig(unlabeled_loss_weight=0.7)
        b = _loss(_batch(dists, [0.6, 0.4, 0.5], rows, mask_targets), config)
        assert b.total == pytest.approx(b.target + b.positive + b.negative + b.mask, abs=1e-12)

    def test_soft_supervision(self):
        q = np.array([0.6, 0.3, 0.1])
        dist = make_distribution([0.5, 0.3, 0.2])
        config = ExperimentConfig(unlabeled_loss_weight=1.0, objective="soft-pseudo")
        breakdown = _loss(_batch([dist], [0.5], [("soft", q)]), config)
        expected = -(q * np.log(dist.probs)).sum()
        assert breakdown.target == pytest.approx(expected, abs=1e-12)

    def test_set_normalization_flag(self):
        dists = [make_distribution([0.5, 0.3, 0.2])]
        arrays = _batch(dists, [0.5], [("gt", 1)])
        raw = _loss(arrays, ExperimentConfig())
        norm = _loss(arrays, ExperimentConfig(normalize_set_losses=True))
        assert norm.negative == pytest.approx(raw.negative / 2.0, abs=1e-12)


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
    for i in range(n):
        dist = ClassDistribution(probs[i], class_count=k - 1)
        w = 1.0 / n_lab if labeled[i] else alpha / n_uns
        expect_target += w * target_loss(dist, targets[i])[0]
        negs = set(np.nonzero(neg_mask[i])[0] + 1)
        poss = set(np.nonzero(pos_mask[i])[0] + 1)
        expect_neg += w * negative_loss(dist, negs)[0]
        expect_pos += w * positive_loss(dist, poss)[0]
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
