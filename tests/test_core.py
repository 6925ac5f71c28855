import math

import numpy as np
import pytest

from pntal.core import (
    ActionInstance,
    BadConfigError,
    ExperimentConfig,
    NonFiniteError,
    VideoRecord,
    prototype_dimensions,
    row_max,
    row_sum,
    snippet_true_labels,
    softmax_rows,
)

from oracles import softmax_list


class TestSoftmax:
    """core.softmax_rows against hand values and softmax_list."""

    def test_symmetry(self):
        probs = softmax_rows(np.zeros((1, 3)))
        assert np.allclose(probs, [[1 / 3] * 3])

    def test_stability_under_large_logits(self):
        probs = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)
        assert probs[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        probs = softmax_rows(np.array([[math.log(2.0), 0.0]]))
        assert probs[0, 0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[0, 1] == pytest.approx(1 / 3, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            logits = rng.normal(size=(1, rng.integers(2, 12)))
            shift = rng.uniform(-50, 50)
            a = softmax_rows(logits)
            b = softmax_rows(logits + shift)
            assert np.all(np.abs(a - b) <= 1e-12)
            assert np.all(np.abs(a[0] - softmax_list(logits[0].tolist())) <= 1e-12)

    def test_argmax_consistency(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(200, 6))
        assert np.array_equal(np.argmax(softmax_rows(logits), axis=1), np.argmax(logits, axis=1))


def assert_same_bits(got, want):
    """Equal shapes and, outside NaN, equal bits: the sign of zero included.

    NaN positions must agree; which NaN payload an addition of NaNs returns
    depends on the order of operands that numpy's compiler chose.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _special_rows(rng, rows, k):
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
              1.7e308, -1.7e308, 1.0, -3.5]
    return rng.choice(values, size=(rows, k))


class TestClassAxisKernels:
    """row_max and row_sum against numpy's own reductions, bit for bit. This
    is the guard on numpy's reduction order: if an installed numpy sums in
    another order, these tests fail rather than every artifact changing."""

    def test_widths(self):
        for k in range(1, 301):
            self.check_width(k)

    def check_width(self, k):
        rng = np.random.default_rng(k)
        with np.errstate(all="ignore"):
            cases = [
                rng.normal(size=(7, k)) * 10.0 ** rng.integers(-300, 300, size=(7, k)),
                rng.normal(size=(5, k)) + 1e16,  # every addition rounds
                np.full((2, k), -0.0),
                rng.choice([0.0, -0.0], size=(6, k)),
                _special_rows(rng, 9, k),
                np.zeros((0, k)),
                rng.normal(size=(1, k)),
            ]
            for x in cases:
                assert_same_bits(row_sum(x), x.sum(axis=1))
                assert_same_bits(row_sum(x.copy()), np.sum(x, axis=1))
            for x in cases:
                want = x.max(axis=1)
                got = row_max(x)
                # A row whose maximum is zero and that holds both signs of zero:
                # numpy's SIMD lane order picks the sign, so compare values.
                zero = (want == 0.0) & (x == 0.0).any(axis=1)
                mixed = zero & (np.signbit(x) & (x == 0.0)).any(axis=1) & (~np.signbit(x) & (x == 0.0)).any(axis=1)
                assert_same_bits(got[~mixed], want[~mixed])
                assert np.array_equal(got[mixed], want[mixed])

    def test_signed_zeros(self):
        for k in (1, 7, 8, 11, 129, 300):
            negative = np.full((3, k), -0.0)
            assert np.signbit(row_max(negative)).all()
            assert not np.signbit(row_sum(negative)).any()  # numpy adds the sum to 0.0
            assert_same_bits(row_sum(negative), negative.sum(axis=1))

    def test_softmax_keeps_numpy_reduction_bits(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 11, 16, 17, 130):
            logits = rng.normal(size=(50, k)) * 20.0
            if k > 1:
                logits[::7, 0] = -np.inf  # as sharpen_rows gives for a zero probability
            want = logits - logits.max(axis=1, keepdims=True)
            np.exp(want, out=want)
            want /= want.sum(axis=1, keepdims=True)
            assert_same_bits(softmax_rows(logits), want)
            inplace = logits.copy()
            assert softmax_rows(inplace, out=inplace) is inplace
            assert_same_bits(inplace, want)


class TestSnippetTypes:
    def test_snippet_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(NonFiniteError) as err:
                VideoRecord(video_id="v", features=np.array([[1.0, 2.0], [1.0, bad]]),
                            instances=(), labeled=False)
            assert "v" in str(err.value)

    def test_action_instance_validation(self):
        with pytest.raises(ValueError):
            ActionInstance(start=5, end=4, class_idx=1)
        with pytest.raises(ValueError):
            ActionInstance(start=0, end=4, class_idx=0)
        with pytest.raises(ValueError):
            ActionInstance(start=0, end=4, class_idx=1, score=1.5)

    def test_video_record_validation(self):
        features = np.zeros((10, 3))
        VideoRecord(video_id="v", features=features,
                    instances=(ActionInstance(0, 3, 1), ActionInstance(5, 9, 2)), labeled=True)
        with pytest.raises(ValueError):
            VideoRecord(video_id="v", features=features,
                        instances=(ActionInstance(0, 5, 1), ActionInstance(5, 9, 2)), labeled=True)
        with pytest.raises(ValueError):
            VideoRecord(video_id="v", features=features,
                        instances=(ActionInstance(8, 12, 1),), labeled=True)
        with pytest.raises(ValueError):
            VideoRecord(video_id="v", features=np.zeros(3), instances=(), labeled=False)

    def test_video_record_owns_read_only_copy(self):
        source = np.arange(6, dtype=np.int64).reshape(3, 2)
        video = VideoRecord(video_id="v", features=source, instances=(), labeled=False)
        assert video.features.dtype == np.float64
        assert video.snippet_count == 3
        assert not video.features.flags.writeable
        source[0, 0] = 99
        assert video.features[0, 0] == 0.0
        with pytest.raises(ValueError):
            video.features[0, 0] = 1.0


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.label_count == cfg.class_count + 1
        assert cfg.background_index == cfg.class_count + 1

    def test_bad_field_named(self):
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(labeled_ratio=0.0)
        assert "labeled_ratio" in str(err.value)
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(positive_confidence_ratio=1.5)
        assert "positive_confidence_ratio" in str(err.value)
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(tiou_grid=())
        assert "tiou_grid" in str(err.value)
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(mask_thresholds=(0.5, 1.2))
        assert "mask_thresholds" in str(err.value)
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(objective="nonsense")
        assert "objective" in str(err.value)

    def test_feature_dim_covers_prototypes(self):
        assert [prototype_dimensions(c) for c in (1, 2, 3, 4, 5, 10, 20)] == [1, 3, 4, 6, 7, 15, 30]
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(class_count=20, feature_dim=16)
        assert "feature_dim" in str(err.value)
        with pytest.raises(BadConfigError):
            ExperimentConfig(class_count=5, feature_dim=6)
        assert ExperimentConfig(class_count=5, feature_dim=7).feature_dim == 7
        assert ExperimentConfig(class_count=20, feature_dim=30).feature_dim == 30

    def test_negative_seed_rejected(self):
        with pytest.raises(BadConfigError) as err:
            ExperimentConfig(seed=-1)
        assert "seed" in str(err.value)
        assert ExperimentConfig(seed=0).seed == 0

    def test_window_input_dim(self):
        cfg = ExperimentConfig(feature_window=2)
        assert cfg.model_input_dim == cfg.feature_dim * 5

    def test_replace(self):
        cfg = ExperimentConfig().replace(seed=7)
        assert cfg.seed == 7


def test_snippet_true_labels():
    labels = snippet_true_labels(
        [ActionInstance(2, 4, 3), ActionInstance(7, 8, 1)], 10, background_index=11
    )
    assert list(labels) == [11, 11, 3, 3, 3, 11, 11, 1, 1, 11]
