import dataclasses
import math

import numpy as np
import pytest

from pntal import datagen, model, selftrain
from pntal.core import Error, ExperimentConfig, VideoRecord
from pntal.losses import Supervision, batch_terms
from pntal.selftrain import (
    EmptyLabeledSetError,
    MissingGroundTruthError,
    assign_annotation,
    build_pool,
    pretrain,
    self_train_loop,
    sharpen_rows,
    snippet_accuracy,
    subspace_statistics,
    video_feature_matrix,
)

from oracles import (
    brute_force_negatives,
    brute_force_positives,
    reference_complement_pick,
)


def small_config(**kwargs):
    base = dict(train_video_count=10, test_video_count=3, snippets_per_video=30,
                class_count=4, feature_dim=8, labeled_ratio=0.3, hidden_width=12,
                pretrain_epochs=4, selftrain_epochs=3, batch_size=64, seed=2)
    base.update(kwargs)
    return ExperimentConfig(**base)


def bias_model(probs, input_dim, hidden=4):
    """A model that outputs the given class distribution for any input:
    zero trunk, class bias = log probs."""
    k = len(probs)
    return model.ModelParams(
        trunk_w=np.zeros((input_dim, hidden)),
        trunk_b=np.zeros(hidden),
        class_w=np.zeros((hidden, k)),
        class_b=np.log(np.maximum(np.asarray(probs, dtype=np.float64), 1e-300)),
        mask_w=np.zeros(hidden),
        mask_b=0.0,
    )


def unlabeled_video(video_id, n, d, rng):
    return VideoRecord(video_id=video_id, features=rng.normal(size=(n, d)), instances=(), labeled=False)


def annotate(params, video, cfg):
    return assign_annotation(params, video_feature_matrix(video, cfg.feature_window), cfg)


def chi_square_upper_quantile(df, p):
    """x with P(chi2_df > x) = p, by bisection on the closed-form survival
    function of an even df: exp(-x/2) * sum_{i < df/2} (x/2)^i / i!."""
    assert df % 2 == 0

    def survival(x):
        return math.exp(-x / 2) * sum((x / 2) ** i / math.factorial(i) for i in range(df // 2))

    lo, hi = 0.0, 1000.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if survival(mid) > p else (lo, mid)
    return hi


def row_partition(ann, i):
    """The label-space partition of annotation row i: (target, negatives, positives)."""
    target = int(ann.targets[i])
    negatives = set((np.nonzero(ann.neg_mask[i])[0] + 1).tolist())
    positives = set((np.nonzero(ann.pos_mask[i])[0] + 1).tolist())
    return target, negatives, positives


class TestSharpen:
    def test_identity_temperature(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        assert np.array_equal(sharpen_rows(probs, 1.0), probs)

    def test_hand_value(self):
        out = sharpen_rows(np.array([[0.5, 0.3, 0.2]]), 0.5)
        expected = np.array([[0.25, 0.09, 0.04]]) / 0.38
        assert np.allclose(out, expected, atol=1e-12)

    def test_one_hot_fixed_point(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        for t in (0.25, 0.5, 2.0, 7.0):
            assert np.array_equal(sharpen_rows(probs, t), probs)

    def test_low_temperature_concentrates(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        sharp = sharpen_rows(probs, 0.25)
        assert sharp[0, 0] > probs[0, 0]
        assert int(np.argmax(sharp[0])) == int(np.argmax(probs[0]))

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            sharpen_rows(np.array([[0.5, 0.5]]), 0.0)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_bad_temperature_is_the_package_error(self, temperature):
        with pytest.raises(selftrain.BadTemperatureError, match="temperature") as err:
            sharpen_rows(np.array([[0.5, 0.5]]), temperature)
        assert isinstance(err.value, Error) and isinstance(err.value, ValueError)


class TestPretrain:
    def test_empty_labeled_set(self):
        with pytest.raises(EmptyLabeledSetError):
            pretrain([], small_config())

    def test_zero_epochs_returns_init(self):
        cfg = small_config(pretrain_epochs=0)
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        init = model.init_params(cfg.model_input_dim, cfg.hidden_width, cfg.label_count, cfg.seed)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(params, name)),
                                  np.asarray(getattr(init, name)))

    def test_deterministic(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        a = pretrain(bench.labeled, cfg)
        b = pretrain(bench.labeled, cfg)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name)))

    def test_reads_only_pretrain_fields(self):
        """Changing any config field pretrain does not read, with the labeled
        videos held fixed, leaves the pretrained params bit-identical: the
        condition under which a sweep shares one pretrain among a seed's
        variants (objective, lambda)."""
        pretrain_fields = {
            "class_count", "feature_dim", "feature_window", "hidden_width",
            "pretrain_epochs", "learning_rate", "batch_size", "seed",
        }
        cfg = small_config()
        others = {
            "snippets_per_video": 31, "train_video_count": 11, "test_video_count": 4,
            "labeled_ratio": 0.5, "noise_sigma": 0.1, "class_separation": 0.5,
            "ambiguous_ratio": 0.3, "distractor_ratio": 0.3, "positive_confidence_ratio": 0.6,
            "unlabeled_loss_weight": 0.25, "sharpen_temperature": 2.0, "selftrain_epochs": 7,
            "objective": "complementary", "soft_nms_sigma": 0.9, "soft_nms_floor": 0.3,
            "tiou_grid": (0.5,), "classification_thresholds": (0.5,), "mask_thresholds": (0.5,),
        }
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(others) == fields - pretrain_fields
        bench = datagen.generate_benchmark(cfg)
        want = pretrain(bench.labeled, cfg)
        for name, value in others.items():
            changed = cfg.replace(**{name: value})
            assert getattr(changed, name) != getattr(cfg, name)
            got = pretrain(bench.labeled, changed)
            for field in model.PARAM_FIELDS:
                assert np.asarray(getattr(got, field)).tobytes() == \
                    np.asarray(getattr(want, field)).tobytes(), (name, field)

    def test_separable_toy_reaches_high_accuracy(self):
        cfg = small_config(noise_sigma=0.05, ambiguous_ratio=0.0, distractor_ratio=0.0,
                           class_separation=1.0, pretrain_epochs=60, labeled_ratio=1.0,
                           hidden_width=24, learning_rate=5e-3)
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        assert snippet_accuracy(params, bench.labeled, cfg) >= 0.99


class TestAssignPseudoLabels:
    def test_confident_model_marks_all_non_targets_negative(self):
        cfg = small_config(sharpen_temperature=1.0)
        params = bias_model([0.994, 0.002, 0.002, 0.001, 0.001], cfg.model_input_dim)
        rng = np.random.default_rng(0)
        video = unlabeled_video("u", 5, cfg.feature_dim, rng)
        ann = annotate(params, video, cfg)
        assert ann.soft is None
        for i in range(video.snippet_count):
            assert row_partition(ann, i) == (1, {2, 3, 4, 5}, set())

    def test_matches_partition_label_space(self):
        probs = [0.30, 0.27, 0.18, 0.15, 0.10]
        cfg = small_config(sharpen_temperature=1.0, positive_confidence_ratio=0.85)
        params = bias_model(probs, cfg.model_input_dim)
        rng = np.random.default_rng(1)
        video = unlabeled_video("u", 4, cfg.feature_dim, rng)
        ann = annotate(params, video, cfg)
        negatives = brute_force_negatives(probs)
        expected = (1, negatives, brute_force_positives(probs, negatives, 0.85))
        assert expected == (1, {5, 4}, {2})
        for i in range(video.snippet_count):
            assert row_partition(ann, i) == expected

    def test_identical_snippets_identical_annotations(self):
        for objective in ("hybrid", "complementary"):
            cfg = small_config(objective=objective)
            bench = datagen.generate_benchmark(cfg)
            params = pretrain(bench.labeled, cfg)
            feature = np.full(cfg.feature_dim, 0.25)
            video = VideoRecord(
                video_id="twin", features=np.stack([feature, feature.copy()]),
                instances=(), labeled=False,
            )
            ann = annotate(params, video, cfg)
            assert row_partition(ann, 0) == row_partition(ann, 1)

    def test_objective_modes(self):
        probs = [0.30, 0.27, 0.18, 0.15, 0.10]
        rng = np.random.default_rng(3)
        video = unlabeled_video("u", 3, 8, rng)

        cfg = small_config(sharpen_temperature=1.0, objective="target-only")
        params = bias_model(probs, cfg.model_input_dim)
        assert row_partition(annotate(params, video, cfg), 0) == (1, set(), set())

        cfg = small_config(sharpen_temperature=1.0, objective="target-negative")
        assert row_partition(annotate(params, video, cfg), 0) == (1, {5, 4}, set())

        cfg = small_config(sharpen_temperature=1.0, objective="complementary")
        ann = annotate(params, video, cfg)
        for i in range(video.snippet_count):
            target, negatives, positives = row_partition(ann, i)
            assert target == 1 and positives == set()
            pick = reference_complement_pick(video.features[i], cfg.seed, 0, cfg.label_count, 1)
            assert negatives == {pick}

        cfg = small_config(sharpen_temperature=1.0, objective="soft-pseudo")
        ann = annotate(params, video, cfg)
        assert ann.soft is not None
        assert np.allclose(ann.soft[0], probs, atol=1e-12)

    def test_complementary_contract(self):
        """One negative per row, never the target, no positives; the pick
        depends on the row alone and is uniform over the K - 1 non-targets."""
        cfg = small_config(class_count=5, objective="complementary")
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        features = np.random.default_rng(11).normal(size=(50_000, cfg.model_input_dim))
        ann = assign_annotation(params, features, cfg, epoch=3)
        rows = np.arange(len(features))
        assert np.all(ann.neg_mask.sum(axis=1) == 1)
        assert not ann.neg_mask[rows, ann.targets - 1].any()
        assert not ann.pos_mask.any()
        assert len(np.unique(ann.targets)) > 1

        perm = np.random.default_rng(12).permutation(len(features))
        shuffled = assign_annotation(params, features[perm], cfg, epoch=3)
        assert np.array_equal(shuffled.targets, ann.targets[perm])
        assert np.array_equal(shuffled.neg_mask, ann.neg_mask[perm])

        picks = np.argmax(ann.neg_mask, axis=1) + 1
        slot = picks - 1 - (picks > ann.targets)  # 0..K-2 among the non-targets
        counts = np.bincount(slot, minlength=cfg.label_count - 1)
        assert len(counts) == cfg.label_count - 1
        expected = len(features) / (cfg.label_count - 1)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < chi_square_upper_quantile(cfg.label_count - 2, 1e-6), counts

    def test_inputs_unchanged(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        video = bench.unlabeled[0]
        before = video.features.copy()
        annotate(params, video, cfg)
        assert np.array_equal(video.features, before)
        assert not video.features.flags.writeable
        assert video.instances == () and not video.labeled

    def test_pseudo_target_is_argmax_of_sharpened(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        for source in bench.unlabeled[:3]:
            ann = annotate(params, source, cfg)
            probs, _, _ = model.forward_batch(params, video_feature_matrix(source))
            sharpened = selftrain.sharpen_rows(probs, cfg.sharpen_temperature)
            for i in range(source.snippet_count):
                assert ann.targets[i] == int(np.argmax(sharpened[i])) + 1


class TestComplementPicks:
    """The array draw against the per-row Python-integer rule, bit for bit."""

    @staticmethod
    def assert_matches_reference(features, seed, epoch, label_count, targets):
        got = selftrain._complement_picks(features, seed, epoch, label_count, targets)
        want = [reference_complement_pick(row, seed, epoch, label_count, int(t))
                for row, t in zip(features, targets)]
        assert got.tolist() == want

    @pytest.mark.parametrize("seed, epoch", [(0, 0), (1003, 7), (2**70 + 3, 2**33)])
    @pytest.mark.parametrize("label_count", [2, 3, 11])
    def test_random_rows(self, seed, epoch, label_count):
        rng = np.random.default_rng([seed % 2**32, label_count])
        features = rng.normal(size=(600, 8))
        features[:5, 0] = [0.0, -0.0, 1e-310, -np.finfo(float).max, np.finfo(float).max]
        targets = rng.integers(1, label_count + 1, size=len(features))
        self.assert_matches_reference(features, seed, epoch, label_count, targets)

    def test_signed_zeros(self):
        """0.0 and -0.0 have different bytes, so they are different content."""
        features = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]] * 50)
        features[:, 1] *= np.repeat(np.arange(1, 51), 4)
        targets = np.ones(len(features), dtype=np.int64)
        self.assert_matches_reference(features, 5, 1, 7, targets)
        picks = selftrain._complement_picks(features, 5, 1, 7, targets).reshape(50, 4)
        assert (picks != picks[:, :1]).any()

    def test_non_contiguous_rows(self):
        features = np.random.default_rng(4).normal(size=(300, 7))
        targets = np.random.default_rng(5).integers(1, 12, size=300)
        for view in (features[:, 1:], features[::2, ::3]):
            assert not view.flags.c_contiguous
            self.assert_matches_reference(view, 9, 2, 11, targets[: len(view)])

    def test_windowed_rows(self):
        cfg = small_config(feature_window=1)
        video = unlabeled_video("u", 40, cfg.feature_dim, np.random.default_rng(6))
        features = video_feature_matrix(video, cfg.feature_window)
        assert features.shape[1] == cfg.model_input_dim == 3 * cfg.feature_dim
        targets = np.random.default_rng(7).integers(1, cfg.label_count + 1, size=len(features))
        self.assert_matches_reference(features, cfg.seed, 4, cfg.label_count, targets)


class TestSubspaceStatistics:
    def test_perfect_model(self):
        cfg = small_config(sharpen_temperature=1.0)
        bench = datagen.generate_benchmark(cfg.replace(noise_sigma=0.0, ambiguous_ratio=0.0,
                                                       distractor_ratio=0.0))
        # craft annotations equal to ground truth
        truths = build_pool(bench.unlabeled, cfg, bench.sealed).labels
        neg_mask = np.zeros((len(truths), cfg.label_count), dtype=bool)
        pos_mask = np.zeros((len(truths), cfg.label_count), dtype=bool)
        for i, t in enumerate(truths):
            row = (np.eye(cfg.label_count)[t - 1] + 1e-12).tolist()
            negatives = brute_force_negatives(row)
            neg_mask[i, [c - 1 for c in negatives]] = True
            pos_mask[i, [c - 1 for c in brute_force_positives(row, negatives, 0.85)]] = True
        ann = Supervision(
            labeled=np.zeros(len(truths), dtype=bool), targets=truths, neg_mask=neg_mask,
            pos_mask=pos_mask,
        )
        stats = subspace_statistics(ann, truths)
        assert stats.target_rate == pytest.approx(1.0)
        assert stats.positive_rate == 0.0
        assert stats.negative_rate == 0.0

    def test_uniform_model_counting_oracle(self):
        # Uniform predictions: target = class 1 (tie-break), negatives = {2}
        # (first non-target in sorted order), positives = rest.
        cfg = small_config(sharpen_temperature=1.0)
        bench = datagen.generate_benchmark(cfg)
        pool = build_pool(bench.unlabeled, cfg, bench.sealed)
        params = bias_model([0.2] * 5, cfg.model_input_dim)
        stats = subspace_statistics(assign_annotation(params, pool.features, cfg), pool.labels)
        truths = pool.labels
        assert stats.target_rate == pytest.approx((truths == 1).mean())
        assert stats.negative_rate == pytest.approx((truths == 2).mean())
        assert stats.positive_rate == pytest.approx((truths >= 3).mean())
        assert stats.ambiguous_rate == 0.0

    def test_rates_sum_to_one(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        pool = build_pool(bench.unlabeled, cfg, bench.sealed)
        stats = subspace_statistics(assign_annotation(params, pool.features, cfg), pool.labels)
        rates = (stats.target_rate, stats.positive_rate, stats.negative_rate, stats.ambiguous_rate)
        assert sum(rates) == pytest.approx(1.0, abs=1e-9)

    def test_missing_ground_truth(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        with pytest.raises(MissingGroundTruthError):
            build_pool(bench.unlabeled[:1], cfg, {})


class TestSelfTrainLoop:
    def test_zero_epochs(self):
        cfg = small_config(selftrain_epochs=0)
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        out, metrics = self_train_loop(params, bench.labeled, bench.unlabeled, cfg)
        assert metrics == []
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(out, name)), np.asarray(getattr(params, name)))

    def test_alpha_zero_matches_supervised_only(self):
        cfg = small_config(unlabeled_loss_weight=0.0)
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        with_unlabeled, _ = self_train_loop(params, bench.labeled, bench.unlabeled, cfg)
        without, _ = self_train_loop(params, bench.labeled, [], cfg)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(with_unlabeled, name)),
                                  np.asarray(getattr(without, name)))

    def test_metrics_log_structure(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        _, metrics = self_train_loop(params, bench.labeled, bench.unlabeled, cfg, sealed=bench.sealed)
        assert len(metrics) == cfg.selftrain_epochs
        for epoch, record in enumerate(metrics):
            assert record.epoch == epoch
            assert 0.0 <= record.pseudo_accuracy <= 1.0
            assert record.subspace is not None
            sub = record.subspace
            rates = (sub.target_rate, sub.positive_rate, sub.negative_rate, sub.ambiguous_rate)
            assert sum(rates) == pytest.approx(1.0, abs=1e-9)
            payload = record.to_dict()
            assert payload["loss_total"] == pytest.approx(
                payload["loss_target"] + payload["loss_positive"]
                + payload["loss_negative"] + payload["loss_mask"], abs=1e-9,
            )

    def test_deterministic(self):
        """Two loops from one params object give bit-identical results and
        leave its bytes as they were: a sweep starts several from one pretrain."""
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        before = [np.asarray(getattr(params, name)).tobytes() for name in model.PARAM_FIELDS]
        a, metrics_a = self_train_loop(params, bench.labeled, bench.unlabeled, cfg, sealed=bench.sealed)
        b, metrics_b = self_train_loop(params, bench.labeled, bench.unlabeled, cfg, sealed=bench.sealed)
        for name in model.PARAM_FIELDS:
            assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        assert [m.to_dict() for m in metrics_a] == [m.to_dict() for m in metrics_b]
        assert [np.asarray(getattr(params, name)).tobytes() for name in model.PARAM_FIELDS] == before
        assert not np.array_equal(a.trunk_w, params.trunk_w)

    def test_frozen_annotations_give_identical_loss(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        feats = build_pool(bench.unlabeled[:2], cfg).features
        ann = assign_annotation(params, feats, cfg)
        probs, scores, _ = model.forward_batch(params, feats)
        work = model.Workspace(params, rows=len(feats))
        first = batch_terms(probs, scores, ann, cfg.unlabeled_loss_weight, work)[0]
        second = batch_terms(probs, scores, ann, cfg.unlabeled_loss_weight, work)[0]
        assert first == second


class TestWindowedFeatures:
    def test_window_shapes_and_padding(self):
        rng = np.random.default_rng(4)
        video = unlabeled_video("w", 5, 3, rng)
        base = video_feature_matrix(video, window=0)
        wide = video_feature_matrix(video, window=1)
        assert wide.shape == (5, 9)
        assert np.array_equal(wide[0, :3], np.zeros(3))  # left pad at t=0
        assert np.array_equal(wide[0, 3:6], base[0])
        assert np.array_equal(wide[0, 6:], base[1])
        assert np.array_equal(wide[4, 6:], np.zeros(3))  # right pad at t=n-1

    def test_training_with_window(self):
        cfg = small_config(feature_window=1)
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        assert params.input_dim == cfg.feature_dim * 3
        out, metrics = self_train_loop(params, bench.labeled, bench.unlabeled, cfg)
        assert len(metrics) == cfg.selftrain_epochs
