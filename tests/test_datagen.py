import numpy as np
import pytest

from pntal import datagen, selftrain
from pntal.core import Error, ExperimentConfig, VideoRecord, snippet_true_labels
from pntal.datagen import (
    BadMagicError,
    CorruptRecordError,
    InfeasiblePlacementError,
    ShapeMismatchError,
    VersionMismatchError,
    class_prototypes,
    generate_benchmark,
    load_feature_file,
    place_instances,
    prototype_siblings,
    write_dataset_manifest,
    write_feature_file,
)


def small_config(**kwargs):
    base = dict(train_video_count=12, test_video_count=4, snippets_per_video=40,
                class_count=4, feature_dim=8, seed=3)
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestPrototypes:
    def test_unit_norm_and_pairing(self):
        protos = class_prototypes(10, 16, 0.3, seed=0)
        assert np.allclose(np.linalg.norm(protos, axis=1), 1.0)
        # within-pair cosine = 1 - separation, cross-pair orthogonal
        assert protos[0] @ protos[1] == pytest.approx(0.7, abs=1e-9)
        assert abs(protos[0] @ protos[2]) < 1e-9

    def test_feature_dim_too_small(self):
        with pytest.raises(ValueError):
            class_prototypes(12, 8, 0.3, seed=0)

    def test_siblings_map(self):
        sib = prototype_siblings(5)
        assert sib[1] == [2] and sib[2] == [1]
        assert sib[5] == []


class TestPlacement:
    def test_instances_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(20, 120))
            instances = place_instances(rng, n, class_count=6)
            assert 1 <= len(instances) <= datagen.MAX_INSTANCES
            prev_end = -2
            for inst in sorted(instances, key=lambda i: i.start):
                assert 0 <= inst.start <= inst.end < n
                assert inst.start > prev_end + 1  # at least one background snippet between
                assert 1 <= inst.class_idx <= 6
                prev_end = inst.end

    def test_infeasible(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InfeasiblePlacementError):
            place_instances(rng, 0, class_count=3)


class TestGenerateBenchmark:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_benchmark(cfg)
        b = generate_benchmark(cfg)
        for va, vb in zip(a.labeled + a.unlabeled + a.test, b.labeled + b.unlabeled + b.test):
            assert va.video_id == vb.video_id
            assert va.features.tobytes() == vb.features.tobytes()

    def test_full_labeled_ratio(self):
        bench = generate_benchmark(small_config(labeled_ratio=1.0))
        assert not bench.unlabeled
        assert len(bench.labeled) == 12

    def test_split_sizes(self):
        bench = generate_benchmark(small_config(labeled_ratio=0.25))
        assert len(bench.labeled) == 3
        assert len(bench.unlabeled) == 9
        assert len(bench.test) == 4

    def test_sealed_channel_only_for_unlabeled(self):
        cfg = small_config(labeled_ratio=0.25)
        bench = generate_benchmark(cfg)
        assert set(bench.sealed) == {v.video_id for v in bench.unlabeled}
        for video in bench.unlabeled:
            assert video.instances == ()
            assert not video.labeled
            labels = snippet_true_labels(
                bench.sealed[video.video_id], video.snippet_count, cfg.background_index
            )
            assert len(labels) == video.snippet_count

    def test_noiseless_nearest_prototype(self):
        cfg = small_config(noise_sigma=0.0)
        bench = generate_benchmark(cfg)
        protos = class_prototypes(cfg.class_count, cfg.feature_dim, cfg.class_separation, cfg.seed)
        refs = np.vstack([protos, np.zeros(cfg.feature_dim)])  # background mean last
        correct = total = 0
        for video in list(bench.labeled) + list(bench.test):
            truth = snippet_true_labels(video.instances, video.snippet_count, cfg.background_index)
            d2 = ((video.features[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2)
            pred = np.argmin(d2, axis=1) + 1
            correct += int((pred == truth).sum())
            total += video.snippet_count
        assert correct == total

    def test_class_balance(self):
        cfg = ExperimentConfig(train_video_count=1000, test_video_count=1, labeled_ratio=1.0,
                               snippets_per_video=60, class_count=6, feature_dim=12, seed=5)
        bench = generate_benchmark(cfg)
        counts = np.zeros(6, dtype=int)
        for video in bench.labeled:
            for inst in video.instances:
                counts[inst.class_idx - 1] += 1
        n = counts.sum()
        expected = n / 6
        sigma = np.sqrt(n * (1 / 6) * (5 / 6))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_difficulty_knob(self):
        # Raising noise lowers pretrain accuracy in expectation over seeds.
        def mean_accuracy(noise):
            accs = []
            for seed in range(5):
                cfg = small_config(noise_sigma=noise, seed=seed, pretrain_epochs=10,
                                   hidden_width=16, labeled_ratio=0.5)
                bench = generate_benchmark(cfg)
                params = selftrain.pretrain(bench.labeled, cfg)
                accs.append(selftrain.snippet_accuracy(params, bench.test, cfg))
            return float(np.mean(accs))

        assert mean_accuracy(0.2) > mean_accuracy(0.7) > mean_accuracy(1.6)


class TestFeatureContainer:
    def test_round_trip(self, tmp_path):
        cfg = small_config(labeled_ratio=0.25)
        bench = generate_benchmark(cfg)
        videos = list(bench.labeled) + list(bench.unlabeled)
        path = tmp_path / "features.bin"
        write_feature_file(path, videos, cfg.class_count, cfg.feature_dim)
        loaded = load_feature_file(path)
        assert len(loaded) == len(videos)
        for original, copy in zip(videos, loaded):
            assert copy.video_id == original.video_id
            assert copy.labeled == original.labeled
            assert copy.instances == original.instances
            assert copy.features.tobytes() == original.features.tobytes()
            assert not copy.features.flags.writeable

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(BadMagicError):
            load_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "features.bin"
        write_feature_file(path, bench.labeled[:1], cfg.class_count, cfg.feature_dim)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load_feature_file(path)

    def test_zero_feature_dim_rejected(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "features.bin"
        write_feature_file(path, bench.labeled[:1], cfg.class_count, cfg.feature_dim)
        data = bytearray(path.read_bytes())
        data[12:16] = bytes(4)  # feature_dim field
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError):
            load_feature_file(path)

    def test_truncated_reports_offset(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "features.bin"
        write_feature_file(path, bench.labeled[:1], cfg.class_count, cfg.feature_dim)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(CorruptRecordError) as err:
            load_feature_file(path)
        assert "offset" in str(err.value)

    def test_trailing_bytes_report_count_and_offset(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "features.bin"
        write_feature_file(path, bench.labeled[:1], cfg.class_count, cfg.feature_dim)
        data = path.read_bytes()
        path.write_bytes(data + b"\x00" * 5)
        with pytest.raises(CorruptRecordError, match=f"5 trailing bytes at offset {len(data)}$"):
            load_feature_file(path)

    def test_value_count_mismatch_names_video(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "features.bin"
        write_feature_file(path, bench.labeled[:1], cfg.class_count, cfg.feature_dim)
        data = bytearray(path.read_bytes())
        # value_count sits right before the feature payload; corrupt it
        video = bench.labeled[0]
        payload = video.snippet_count * cfg.feature_dim * 8
        offset = len(data) - payload - 8
        data[offset : offset + 8] = (video.snippet_count * cfg.feature_dim - 1).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeMismatchError) as err:
            load_feature_file(path)
        assert video.video_id in str(err.value)

    def test_repeated_video_id_rejected(self, tmp_path):
        cfg = small_config()
        first, second = generate_benchmark(cfg).test[:2]
        twin = VideoRecord(first.video_id, second.features, second.instances, second.labeled)
        path = tmp_path / "features.bin"
        write_feature_file(path, [first, twin], cfg.class_count, cfg.feature_dim)
        with pytest.raises(CorruptRecordError, match=f"repeats the id '{first.video_id}'"):
            load_feature_file(path)

    def test_manifest_writer(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "manifest.txt"
        write_dataset_manifest(path, bench.labeled)
        text = path.read_text()
        assert bench.labeled[0].video_id in text
        assert "labeled=yes" in text

    def test_non_finite_feature_names_video(self, tmp_path):
        cfg = small_config()
        bench = generate_benchmark(cfg)
        path = tmp_path / "features.bin"
        write_feature_file(path, bench.labeled[:1], cfg.class_count, cfg.feature_dim)
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # last feature value
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptRecordError) as err:
            load_feature_file(path)
        assert bench.labeled[0].video_id in str(err.value)

    def test_corruption_sweep_raises_package_errors(self, tmp_path):
        # Every truncation point and every byte overwritten with 0x00 / 0xFF /
        # 0x80: each variant loads or raises one of the package's errors.
        tiny = ExperimentConfig(train_video_count=8, test_video_count=3, snippets_per_video=30,
                                class_count=4, feature_dim=8, labeled_ratio=1.0, seed=5)
        video = generate_benchmark(tiny).labeled[0]
        path = tmp_path / "features.bin"
        write_feature_file(path, [video], tiny.class_count, tiny.feature_dim)
        data = path.read_bytes()
        variants = [data[:cut] for cut in range(len(data))]
        for i in range(len(data)):
            for value in (0x00, 0xFF, 0x80):
                variants.append(data[:i] + bytes([value]) + data[i + 1 :])
        for variant in variants:
            path.write_bytes(variant)
            try:
                load_feature_file(path)
            except Error:
                pass  # any other exception fails the test
