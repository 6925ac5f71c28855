import numpy as np
import pytest

from pntal.core import Error
from pntal.partition import BadDistributionError, partition_rows

from oracles import brute_force_negatives, brute_force_positives


def partition_one(probs, ratio=0.85):
    """partition_rows on one distribution, as (target, negatives, positives, ambiguous).

    Also checks the masks' invariants: the target is in neither mask and the
    masks are disjoint, so the four subspaces cover the label space exactly.
    """
    targets, neg_mask, pos_mask = partition_rows(np.asarray(probs, dtype=np.float64)[None, :], ratio)
    target = int(targets[0])
    negatives = set((np.nonzero(neg_mask[0])[0] + 1).tolist())
    positives = set((np.nonzero(pos_mask[0])[0] + 1).tolist())
    assert target not in negatives and target not in positives
    assert not negatives & positives
    ambiguous = set(range(1, len(probs) + 1)) - {target} - negatives - positives
    return target, negatives, positives, ambiguous


def assert_matches_oracles(probs, ratios):
    """partition_rows on a matrix, one ratio per row, against the brute-force
    oracles row by row."""
    targets, neg_mask, pos_mask = partition_rows(probs, ratios)
    for i, row in enumerate(probs.tolist()):
        negatives = brute_force_negatives(row)
        assert targets[i] == row.index(max(row)) + 1
        assert set((np.nonzero(neg_mask[i])[0] + 1).tolist()) == negatives
        assert set((np.nonzero(pos_mask[i])[0] + 1).tolist()) == brute_force_positives(
            row, negatives, float(ratios[i])
        )


class TestSortAscending:
    """Non-target classes are taken as negatives in ascending, stable order."""

    def test_basic(self):
        assert partition_one([0.5, 0.3, 0.2])[1] == {2, 3}  # 0.2 + 0.3 <= 0.5
        # Descending order would take class 2 first and class 3 next (0.45 <= 0.45).
        assert partition_one([0.45, 0.3, 0.15, 0.1])[1] == {3, 4}

    def test_stable_ties(self):
        assert partition_one([0.25, 0.25, 0.5])[1] == {1, 2}
        # Of two tied classes the lower id comes first; only one fits under 0.4.
        assert partition_one([0.3, 0.3, 0.4])[1] == {1}

    def test_uniform(self):
        target, negatives, _, _ = partition_one([0.25] * 4)
        assert target == 1
        assert negatives == {2}


class TestSelectNegatives:
    def test_hand_case(self):
        assert partition_one([0.4, 0.35, 0.2, 0.05])[1] == {4, 3}

    def test_one_hot(self):
        assert partition_one([1.0, 0.0, 0.0, 0.0])[1] == {2, 3, 4}

    def test_uniform(self):
        assert partition_one([0.25] * 4)[1] == {2}


class TestSelectPositives:
    def test_hand_case(self):
        assert partition_one([0.4, 0.35, 0.2, 0.05], 0.85)[2] == {2}

    def test_one_hot_empty(self):
        assert partition_one([1.0, 0.0, 0.0, 0.0], 0.85)[2] == set()

    def test_five_class(self):
        assert partition_one([0.30, 0.27, 0.18, 0.15, 0.10], 0.85)[2] == {2}


class TestPartitionLabelSpace:
    def test_five_class(self):
        assert partition_one([0.30, 0.27, 0.18, 0.15, 0.10], 0.85) == (1, {5, 4}, {2}, {3})

    def test_all_negative(self):
        assert partition_one([0.5, 0.3, 0.15, 0.05], 0.85) == (1, {4, 3, 2}, set(), set())

    def test_one_hot(self):
        assert partition_one([1.0, 0.0, 0.0], 0.85) == (1, {2, 3}, set(), set())


def random_distribution(rng):
    c = int(rng.integers(2, 51))
    return rng.dirichlet(np.full(c + 1, rng.uniform(0.2, 3.0)))


class TestProperties:
    def test_oracle_equivalence_and_cover(self):
        rng = np.random.default_rng(123)
        for _ in range(2000):
            probs = random_distribution(rng)
            ratio = rng.uniform(0.05, 1.0)
            target, negatives, positives, _ = partition_one(probs, ratio)  # checks the cover
            assert target == int(np.argmax(probs)) + 1
            assert negatives == brute_force_negatives(probs)
            assert positives == brute_force_positives(probs, negatives, ratio)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(9), size=400)
        assert_matches_oracles(probs, np.full(len(probs), 0.85))

    def test_lambda_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            probs = random_distribution(rng)
            lo, hi = sorted(rng.uniform(0.05, 1.0, size=2))
            assert partition_one(probs, hi)[2] <= partition_one(probs, lo)[2]

    def test_confidence_adaptivity(self):
        # For fixed non-target proportions, raising max(p) never shrinks the
        # negative set.
        rng = np.random.default_rng(6)
        for _ in range(300):
            c = int(rng.integers(2, 20))
            proportions = rng.dirichlet(np.ones(c))
            m1, m2 = sorted(rng.uniform(0.05, 0.95, size=2))
            sets = []
            for m in (m1, m2):
                probs = np.concatenate([[m], (1.0 - m) * proportions])
                if probs[0] <= probs[1:].max():
                    sets = None
                    break
                sets.append(partition_one(probs)[1])
            if sets is not None:
                assert sets[0] <= sets[1]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            probs = random_distribution(rng)
            if np.min(np.diff(np.sort(probs))) < 1e-9:
                continue  # ties break by index and are not permutation-equivariant
            perm = rng.permutation(len(probs))  # position i gets old class perm[i]+1
            ratio = rng.uniform(0.3, 1.0)
            base = partition_one(probs, ratio)
            moved = partition_one(probs[perm], ratio)
            new_id = np.empty(len(probs), dtype=int)
            for new_pos, old_pos in enumerate(perm):
                new_id[old_pos] = new_pos + 1
            assert moved[0] == new_id[base[0] - 1]
            for before, after in zip(base[1:], moved[1:]):
                assert after == {int(new_id[c - 1]) for c in before}


class TestTiesAndDegenerateRows:
    """Rows where equal values decide the partition, and rows at the edges of
    the domain, against the oracles."""

    def test_integer_mass_rows(self):
        # Small integer masses tie often, on both sides of the cut.
        rng = np.random.default_rng(11)
        for k in range(2, 13):
            probs = rng.integers(0, 4, size=(300, k)).astype(np.float64)
            probs[probs.sum(axis=1) == 0, 0] = 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            assert_matches_oracles(probs, rng.uniform(0.05, 1.0, size=len(probs)))

    def test_tie_straddling_the_cut(self):
        # Running mass 0.1, 0.2, 0.4, 0.6 against max 0.4: of the two tied 0.2
        # classes only the first fits, and the lower id is taken.
        assert partition_one([0.2, 0.4, 0.1, 0.2, 0.1]) == (2, {3, 5, 1}, set(), {4})
        assert partition_one([0.1, 0.2, 0.2, 0.1, 0.4]) == (5, {1, 4, 2}, set(), {3})
        probs = np.array([[0.2, 0.4, 0.1, 0.2, 0.1], [0.1, 0.2, 0.2, 0.1, 0.4], [0.1, 0.5, 0.1, 0.2, 0.1]])
        assert_matches_oracles(probs, np.full(3, 0.3))

    def test_target_tied_with_non_target_maxima(self):
        # The first of the tied maxima is the target; the others stay non-target.
        assert partition_one([0.1, 0.3, 0.3, 0.3]) == (2, {1}, {3, 4}, set())
        assert partition_one([0.4, 0.2, 0.4]) == (1, {2}, {3}, set())
        probs = np.array([[0.3, 0.1, 0.3, 0.3], [0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.0, 0.5]])
        assert_matches_oracles(probs, np.array([0.85, 0.5, 1.0]))

    def test_uniform_one_hot_and_all_but_one_zero(self):
        for k in range(1, 12):
            uniform = np.full((1, k), 1.0 / k)
            one_hot = np.eye(k)
            lone = 0.37 * np.eye(k)[::-1]  # all but one zero, summing to less than one
            pairs = np.eye(k)
            pairs[:, 0] = 1.0  # two tied ones in every row but the first
            probs = np.vstack([uniform, one_hot, lone, pairs])
            assert_matches_oracles(probs, np.full(len(probs), 0.85))
        assert partition_one([0.0, 0.0, 1.0, 0.0]) == (3, {1, 2, 4}, set(), set())

    def test_zero_rows(self):
        targets, neg_mask, pos_mask = partition_rows(np.zeros((0, 5)), 0.85)
        assert targets.shape == (0,)
        assert neg_mask.shape == pos_mask.shape == (0, 5)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_masks_are_separate_writable_c_arrays(self, order):
        # assign_annotation clears and sets the masks in place, and
        # Supervision.stack gathers rows from them.
        probs = np.asarray(np.random.default_rng(3).dirichlet(np.ones(6), size=40), order=order)
        kept = probs.copy()
        targets, neg_mask, pos_mask = partition_rows(probs, np.full(40, 0.5))
        for mask in (neg_mask, pos_mask):
            assert mask.dtype == bool and mask.flags.c_contiguous and mask.flags.writeable
            assert not np.shares_memory(mask, probs)
        assert not np.shares_memory(neg_mask, pos_mask)
        neg_mask[:] = False
        pos_mask[:] = True
        assert np.array_equal(probs, kept)


class TestDomain:
    """Rows that are not distributions fail fast, naming the first bad row."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_bad_value_raises(self, bad):
        probs = np.full((4, 3), 1.0 / 3)
        probs[2, 1] = bad
        probs[3, 0] = bad
        with pytest.raises(BadDistributionError, match=f"row 2 .*{bad!r}"):
            partition_rows(probs, 0.85)

    def test_error_is_a_package_value_error(self):
        assert issubclass(BadDistributionError, Error)
        assert issubclass(BadDistributionError, ValueError)

    def test_negative_zero_and_unnormalized_rows_are_accepted(self):
        probs = np.array([[-0.0, 0.7, 0.3], [2.0, 1.0, 0.5]])
        assert_matches_oracles(probs, np.array([0.85, 0.85]))
