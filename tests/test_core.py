import math

import numpy as np
import pytest

from pntal.core import (
    ActionInstance,
    BadConfigError,
    EmptyVectorError,
    ExperimentConfig,
    LabelPartition,
    NegativeEntryError,
    NonFiniteError,
    VideoRecord,
    ZeroMassError,
    make_distribution,
    snippet_true_labels,
    softmax,
)


class TestMakeDistribution:
    def test_normalizes(self):
        dist = make_distribution([2, 1, 1])
        assert np.allclose(dist.probs, [0.5, 0.25, 0.25])
        assert dist.class_count == 2

    def test_already_normalized(self):
        dist = make_distribution([1, 0, 0])
        assert np.array_equal(dist.probs, [1.0, 0.0, 0.0])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            make_distribution([0.3, -0.1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyVectorError):
            make_distribution([])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            make_distribution([1.0, float("nan")])
        with pytest.raises(NonFiniteError):
            make_distribution([1.0, float("inf")])

    def test_zero_mass_rejected(self):
        with pytest.raises(ZeroMassError):
            make_distribution([0.0, 0.0, 0.0])

    def test_sum_property_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            size = rng.integers(2, 40)
            raw = rng.random(size) * rng.uniform(0.01, 100)
            dist = make_distribution(raw)
            assert abs(dist.probs.sum() - 1.0) <= 1e-9

    def test_probs_read_only(self):
        dist = make_distribution([1, 1])
        with pytest.raises(ValueError):
            dist.probs[0] = 0.7


class TestSoftmax:
    def test_symmetry(self):
        dist = softmax([0.0, 0.0, 0.0])
        assert np.allclose(dist.probs, [1 / 3] * 3)

    def test_stability_under_large_logits(self):
        dist = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(dist.probs))
        assert dist.probs[0] == pytest.approx(1.0)
        assert dist.probs[1] == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        dist = softmax([math.log(2.0), 0.0])
        assert dist.probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert dist.probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            logits = rng.normal(size=rng.integers(2, 12))
            shift = rng.uniform(-50, 50)
            a = softmax(logits).probs
            b = softmax(logits + shift).probs
            assert np.all(np.abs(a - b) <= 1e-12)

    def test_argmax_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            logits = rng.normal(size=6)
            assert int(np.argmax(softmax(logits).probs)) == int(np.argmax(logits))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax([1.0, float("inf")])


class TestLabelPartition:
    def test_valid(self):
        part = LabelPartition(target=1, positives={2}, negatives={4, 5}, ambiguous={3})
        assert part.label_count == 5

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            LabelPartition(target=1, positives={2}, negatives={2, 3}, ambiguous=set())

    def test_target_in_set_rejected(self):
        with pytest.raises(ValueError):
            LabelPartition(target=2, positives={2}, negatives={3}, ambiguous={1})

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            LabelPartition(target=1, positives={2}, negatives={5}, ambiguous=set())


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
