import numpy as np
import pytest

from pntal import datagen, model, selftrain
from pntal.core import ExperimentConfig, LabelPartition, VideoRecord, make_distribution
from pntal.losses import BatchArrays, batch_terms
from pntal.partition import partition_label_space
from pntal.selftrain import (
    EmptyLabeledSetError,
    MissingGroundTruthError,
    PseudoAnnotation,
    assign_annotation,
    build_unlabeled_pool,
    pretrain,
    sealed_label_map,
    self_train_loop,
    sharpen,
    snippet_accuracy,
    subspace_statistics,
    video_feature_matrix,
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


def row_partition(ann, i):
    """The label-space partition of annotation row i."""
    target = int(ann.targets[i])
    negatives = set((np.nonzero(ann.neg_mask[i])[0] + 1).tolist())
    positives = set((np.nonzero(ann.pos_mask[i])[0] + 1).tolist())
    ambiguous = set(range(1, ann.neg_mask.shape[1] + 1)) - {target} - negatives - positives
    return LabelPartition(target, positives, negatives, ambiguous)


class TestSharpen:
    def test_identity_temperature(self):
        dist = make_distribution([0.5, 0.3, 0.2])
        assert sharpen(dist, 1.0) is dist

    def test_hand_value(self):
        out = sharpen(make_distribution([0.5, 0.3, 0.2]), 0.5)
        expected = np.array([0.25, 0.09, 0.04]) / 0.38
        assert np.allclose(out.probs, expected, atol=1e-12)

    def test_one_hot_fixed_point(self):
        dist = make_distribution([1, 0, 0])
        for t in (0.25, 0.5, 2.0, 7.0):
            assert np.array_equal(sharpen(dist, t).probs, dist.probs)

    def test_low_temperature_concentrates(self):
        dist = make_distribution([0.5, 0.3, 0.2])
        sharp = sharpen(dist, 0.25)
        assert sharp.probs[0] > dist.probs[0]
        assert int(np.argmax(sharp.probs)) == int(np.argmax(dist.probs))

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            sharpen(make_distribution([1, 1]), 0.0)


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
            part = row_partition(ann, i)
            assert part.target == 1
            assert part.negatives == {2, 3, 4, 5}
            assert part.positives == set()

    def test_matches_partition_label_space(self):
        probs = [0.30, 0.27, 0.18, 0.15, 0.10]
        cfg = small_config(sharpen_temperature=1.0, positive_confidence_ratio=0.85)
        params = bias_model(probs, cfg.model_input_dim)
        rng = np.random.default_rng(1)
        video = unlabeled_video("u", 4, cfg.feature_dim, rng)
        ann = annotate(params, video, cfg)
        expected = partition_label_space(make_distribution(probs), 0.85)
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
        part = row_partition(annotate(params, video, cfg), 0)
        assert part.negatives == set() and part.positives == set()

        cfg = small_config(sharpen_temperature=1.0, objective="target-negative")
        part = row_partition(annotate(params, video, cfg), 0)
        assert part.negatives == {5, 4} and part.positives == set()

        cfg = small_config(sharpen_temperature=1.0, objective="complementary")
        part = row_partition(annotate(params, video, cfg), 0)
        assert len(part.negatives) == 1
        assert part.positives == set()
        assert 1 not in part.negatives

        cfg = small_config(sharpen_temperature=1.0, objective="soft-pseudo")
        ann = annotate(params, video, cfg)
        assert ann.soft is not None
        assert np.allclose(ann.soft[0], probs, atol=1e-12)

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


class TestSubspaceStatistics:
    def test_perfect_model(self):
        cfg = small_config(sharpen_temperature=1.0)
        bench = datagen.generate_benchmark(cfg.replace(noise_sigma=0.0, ambiguous_ratio=0.0,
                                                       distractor_ratio=0.0))
        sealed = sealed_label_map(bench, cfg)
        # craft annotations equal to ground truth
        truths = np.concatenate([sealed[v.video_id] for v in bench.unlabeled])
        neg_mask = np.zeros((len(truths), cfg.label_count), dtype=bool)
        pos_mask = np.zeros((len(truths), cfg.label_count), dtype=bool)
        for i, t in enumerate(truths):
            part = partition_label_space(
                make_distribution(np.eye(cfg.label_count)[t - 1] + 1e-12), 0.85
            )
            neg_mask[i, [c - 1 for c in part.negatives]] = True
            pos_mask[i, [c - 1 for c in part.positives]] = True
        ann = PseudoAnnotation(targets=truths, neg_mask=neg_mask, pos_mask=pos_mask, soft=None)
        stats = subspace_statistics(ann, truths)
        assert stats.target_rate == pytest.approx(1.0)
        assert stats.positive_rate == 0.0
        assert stats.negative_rate == 0.0

    def test_uniform_model_counting_oracle(self):
        # Uniform predictions: target = class 1 (tie-break), negatives = {2}
        # (first non-target in sorted order), positives = rest.
        cfg = small_config(sharpen_temperature=1.0)
        bench = datagen.generate_benchmark(cfg)
        pool = build_unlabeled_pool(bench.unlabeled, cfg, sealed_label_map(bench, cfg))
        params = bias_model([0.2] * 5, cfg.model_input_dim)
        stats = subspace_statistics(assign_annotation(params, pool.features, cfg), pool.true_labels)
        truths = pool.true_labels
        assert stats.target_rate == pytest.approx((truths == 1).mean())
        assert stats.negative_rate == pytest.approx((truths == 2).mean())
        assert stats.positive_rate == pytest.approx((truths >= 3).mean())
        assert stats.ambiguous_rate == 0.0

    def test_rates_sum_to_one(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        pool = build_unlabeled_pool(bench.unlabeled, cfg, sealed_label_map(bench, cfg))
        stats = subspace_statistics(assign_annotation(params, pool.features, cfg), pool.true_labels)
        assert sum(stats.rates()) == pytest.approx(1.0, abs=1e-9)

    def test_missing_ground_truth(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        with pytest.raises(MissingGroundTruthError):
            build_unlabeled_pool(bench.unlabeled[:1], cfg, {})


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
        sealed = sealed_label_map(bench, cfg)
        _, metrics = self_train_loop(params, bench.labeled, bench.unlabeled, cfg, sealed_labels=sealed)
        assert len(metrics) == cfg.selftrain_epochs
        for epoch, record in enumerate(metrics):
            assert record.epoch == epoch
            assert 0.0 <= record.pseudo_accuracy <= 1.0
            assert record.subspace is not None
            assert sum(record.subspace.rates()) == pytest.approx(1.0, abs=1e-9)
            payload = record.to_dict()
            assert payload["loss_total"] == pytest.approx(
                payload["loss_target"] + payload["loss_positive"]
                + payload["loss_negative"] + payload["loss_mask"], abs=1e-9,
            )

    def test_deterministic(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        sealed = sealed_label_map(bench, cfg)
        a, metrics_a = self_train_loop(params, bench.labeled, bench.unlabeled, cfg, sealed_labels=sealed)
        b, metrics_b = self_train_loop(params, bench.labeled, bench.unlabeled, cfg, sealed_labels=sealed)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name)))
        assert [m.to_dict() for m in metrics_a] == [m.to_dict() for m in metrics_b]

    def test_refresh_per_step_runs(self):
        cfg = small_config(refresh_per_step=True, selftrain_epochs=2)
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        out, metrics = self_train_loop(params, bench.labeled, bench.unlabeled, cfg)
        assert len(metrics) == 2

    def test_frozen_annotations_give_identical_loss(self):
        cfg = small_config()
        bench = datagen.generate_benchmark(cfg)
        params = pretrain(bench.labeled, cfg)
        feats = build_unlabeled_pool(bench.unlabeled[:2], cfg).features
        ann = assign_annotation(params, feats, cfg)
        probs, scores, _ = model.forward_batch(params, feats)
        arrays = BatchArrays(
            probs=probs, mask_scores=scores, labeled=np.zeros(len(feats), dtype=bool),
            targets=ann.targets, neg_mask=ann.neg_mask, pos_mask=ann.pos_mask,
            mask_targets=np.full(len(feats), np.nan),
        )
        first = batch_terms(arrays, alpha=cfg.unlabeled_loss_weight)[0]
        second = batch_terms(arrays, alpha=cfg.unlabeled_loss_weight)[0]
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
