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
