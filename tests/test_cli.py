import numpy as np
import pytest

from pntal import cli, datagen, localize, model, selftrain
from pntal.core import BadConfigError
from pntal.cli import (
    MissingArtifactError,
    build_id,
    load_config,
    main,
    parse_config_text,
    run_experiment,
)

from oracles import brute_force_negatives, brute_force_positives

TINY = """
train_video_count = 8
test_video_count = 3
snippets_per_video = 30
class_count = 4
feature_dim = 8
labeled_ratio = 0.25
hidden_width = 12
pretrain_epochs = 3
selftrain_epochs = 2
batch_size = 64
seed = 5
"""


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


@pytest.fixture
def generate_calls(monkeypatch):
    """Seeds of every datagen.generate_benchmark call made from here on."""
    calls = []
    real = datagen.generate_benchmark

    def counted(config):
        calls.append(config.seed)
        return real(config)

    monkeypatch.setattr(datagen, "generate_benchmark", counted)
    return calls


class TestConfigParsing:
    def test_round_trip_types(self):
        values = parse_config_text(
            "seed = 3\nlearning_rate = 0.01\nnormalize_set_losses = true\n"
            "tiou_grid = 0.3, 0.5\nobjective = hybrid\n"
        )
        assert values == {
            "seed": 3,
            "learning_rate": 0.01,
            "normalize_set_losses": True,
            "tiou_grid": (0.3, 0.5),
            "objective": "hybrid",
        }

    def test_comments_and_blank_lines(self):
        values = parse_config_text("# a comment\n\nseed = 4  # trailing\n")
        assert values == {"seed": 4}

    def test_unknown_key_rejected(self):
        with pytest.raises(BadConfigError) as err:
            parse_config_text("learning_rte = 0.1\n")
        assert "learning_rte" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(BadConfigError):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(BadConfigError) as err:
            parse_config_text("seed = banana\n")
        assert "seed" in str(err.value)

    def test_missing_config_file(self):
        with pytest.raises(MissingArtifactError):
            load_config("/nonexistent/config.cfg", {})

    def test_overrides_win(self, tiny_config_file):
        config = load_config(tiny_config_file, {"seed": 99})
        assert config.seed == 99
        assert config.class_count == 4


class TestExitCodes:
    def test_bad_flag(self, capsys):
        assert main(["selftrain", "--bogus"]) == 1

    def test_bad_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("labeled_ratio = 0\n")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_artifact(self, tmp_path, capsys, generate_calls):
        missing = str(tmp_path / "missing.txt")
        for command in (
            ["evaluate", "--params", missing],
            ["evaluate", "--detections", missing],
            ["selftrain", "--params", missing],
        ):
            assert main(command + ["--out", str(tmp_path / "o")]) == 2
        assert generate_calls == []  # reported before any dataset is built

    def test_evaluate_needs_source(self, tmp_path, capsys):
        assert main(["evaluate", "--out", str(tmp_path / "o")]) == 1

    def test_sweep_needs_a_seed(self, tmp_path, capsys, generate_calls):
        for command in (
            ["ablate-losses", "--seeds", "0"],
            ["ablate-lambda", "--seeds", "0", "--grid", "0.8"],
            ["compare-baselines", "--seeds", "-1"],
        ):
            assert main(command + ["--out", str(tmp_path / "o")]) == 1
        assert generate_calls == []  # refused before any dataset is built


class TestGenerate:
    def test_artifacts(self, tiny_config_file, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--config", tiny_config_file, "--out", str(out)]) == 0
        assert (out / "features.bin").is_file()
        assert (out / "dataset_manifest.txt").is_file()
        assert (out / "sealed_truth.csv").is_file()
        manifest = (out / "manifest.txt").read_text()
        assert "build_id" in manifest and "seed = 5" in manifest
        assert "simplifications" in manifest
        videos = datagen.load_feature_file(out / "features.bin")
        assert len(videos) == 8 + 3


class TestEvaluate:
    def test_perfect_detector_fixture(self, tiny_config_file, tmp_path):
        config = load_config(tiny_config_file, {})
        bench = datagen.generate_benchmark(config)
        detections = [
            localize.Detection(v.video_id, inst.start, inst.end, inst.class_idx, 1.0)
            for v in bench.test
            for inst in v.instances
        ]
        det_path = tmp_path / "perfect.tsv"
        localize.write_detections(det_path, detections)
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--config", tiny_config_file,
            "--detections", str(det_path), "--out", str(out),
        ]) == 0
        rows = (out / "map.csv").read_text().strip().splitlines()
        assert rows[0] == "tiou,map"
        assert rows[-1].startswith("average,")
        assert float(rows[-1].split(",")[1]) == pytest.approx(1.0)


class TestSelftrainCommand:
    def test_byte_identical_reruns(self, tiny_config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["selftrain", "--config", tiny_config_file, "--out", str(out)]) == 0
        for name in ("metrics.jsonl", "map.csv", "detections.tsv", "checkpoint.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_metrics(self, tiny_config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["selftrain", "--config", tiny_config_file, "--out", str(out_a)]) == 0
        assert main(["selftrain", "--config", tiny_config_file, "--seed", "6",
                     "--out", str(out_b)]) == 0
        assert (out_a / "metrics.jsonl").read_bytes() != (out_b / "metrics.jsonl").read_bytes()

    def test_pretrain_then_selftrain_checkpoint(self, tiny_config_file, tmp_path):
        pre_out = tmp_path / "pre"
        assert main(["pretrain", "--config", tiny_config_file, "--out", str(pre_out)]) == 0
        st_out = tmp_path / "st"
        assert main(["selftrain", "--config", tiny_config_file,
                     "--params", str(pre_out / "checkpoint.txt"), "--out", str(st_out)]) == 0
        # Starting from the same config's pretrain checkpoint is the same run
        # as pretraining in place.
        plain_out = tmp_path / "plain"
        assert main(["selftrain", "--config", tiny_config_file, "--out", str(plain_out)]) == 0
        for name in ("metrics.jsonl", "map.csv", "detections.tsv", "checkpoint.txt"):
            assert (st_out / name).read_bytes() == (plain_out / name).read_bytes()


class TestSweeps:
    def test_ablate_lambda_csv(self, tiny_config_file, tmp_path):
        out = tmp_path / "lam"
        assert main([
            "ablate-lambda", "--config", tiny_config_file, "--out", str(out),
            "--seeds", "1", "--grid", "0.8", "0.85",
        ]) == 0
        rows = (out / "lambda_sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "lambda,seed,average_map"
        assert len(rows) == 1 + 2 * 2  # one seed row + one mean row per value

    def test_ablate_losses_csv(self, tiny_config_file, tmp_path):
        out = tmp_path / "abl"
        assert main([
            "ablate-losses", "--config", tiny_config_file, "--out", str(out), "--seeds", "1",
        ]) == 0
        text = (out / "loss_ablation.csv").read_text()
        for objective in ("target-only", "target-negative", "hybrid"):
            assert objective in text

    def test_compare_baselines_csv(self, tiny_config_file, tmp_path):
        out = tmp_path / "base"
        assert main([
            "compare-baselines", "--config", tiny_config_file, "--out", str(out), "--seeds", "1",
        ]) == 0
        text = (out / "baselines.csv").read_text()
        for objective in ("soft-pseudo", "complementary", "hybrid"):
            assert objective in text

    def test_subspace_audit_csv(self, tiny_config_file, tmp_path):
        out = tmp_path / "sub"
        assert main(["subspace-audit", "--config", tiny_config_file, "--out", str(out)]) == 0
        rows = (out / "subspace.csv").read_text().strip().splitlines()
        labels = [row.split(",")[0] for row in rows[1:]]
        assert labels[:4] == ["target", "positive", "ambiguous", "negative"]
        values = [float(row.split(",")[1]) for row in rows[1:5]]
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("objective", ["hybrid", "complementary"])
    def test_subspace_audit_matches_annotated_videos(self, tiny_config_file, tmp_path, objective):
        out = tmp_path / "sub"
        assert main(["subspace-audit", "--config", tiny_config_file, "--objective", objective,
                     "--out", str(out)]) == 0
        config = load_config(tiny_config_file, {"objective": objective})
        bench = datagen.generate_benchmark(config)
        sealed = selftrain.sealed_label_map(bench, config)
        params = selftrain.pretrain(bench.labeled, config)
        params, _ = selftrain.self_train_loop(
            params, bench.labeled, bench.unlabeled, config, sealed_labels=sealed
        )
        features = np.concatenate([v.features for v in bench.unlabeled])
        truths = [int(t) for v in bench.unlabeled for t in sealed[v.video_id]]
        if objective == "hybrid":
            # The brute-force partition of each sharpened row.
            probs, _, _ = model.forward_batch(params, features)
            sharpened = selftrain.sharpen_rows(probs, config.sharpen_temperature)
            partitions = []
            for row in sharpened.tolist():
                negatives = brute_force_negatives(row)
                positives = brute_force_positives(row, negatives, config.positive_confidence_ratio)
                partitions.append((row.index(max(row)) + 1, negatives, positives))
        else:
            # The one random negative per row that the annotation drew.
            ann = selftrain.assign_annotation(params, features, config)
            partitions = [
                (int(ann.targets[i]), set((np.nonzero(ann.neg_mask[i])[0] + 1).tolist()), set())
                for i in range(len(truths))
            ]
        counts = dict.fromkeys(("target", "positive", "ambiguous", "negative", "miss"), 0)
        given_miss = dict.fromkeys(("positive", "ambiguous", "negative"), 0)
        for truth, (target, negatives, positives) in zip(truths, partitions):
            if truth == target:
                counts["target"] += 1
                continue
            where = ("negative" if truth in negatives
                     else "positive" if truth in positives else "ambiguous")
            counts[where] += 1
            given_miss[where] += 1
            counts["miss"] += 1
        n, n_miss = len(truths), counts["miss"]
        want = [(name, counts[name] / n) for name in ("target", "positive", "ambiguous", "negative")]
        want += [(f"{name}_given_miss", given_miss[name] / n_miss)
                 for name in ("positive", "ambiguous", "negative")]
        want.append(("snippet_count", n))
        rows = (out / "subspace.csv").read_text().strip().splitlines()
        assert rows[1:] == [f"{name},{value!r}" for name, value in want]

    def test_subspace_audit_rejects_soft_pseudo(self, tiny_config_file, tmp_path, capsys,
                                                generate_calls):
        assert main(["subspace-audit", "--config", tiny_config_file, "--objective", "soft-pseudo",
                     "--out", str(tmp_path / "sub")]) == 2
        assert generate_calls == []  # refused before any dataset is built or model trained

    @pytest.mark.parametrize("command,filename,extra,variants", [
        ("ablate-losses", "loss_ablation.csv", [],
         [(o, {"objective": o}) for o in ("target-only", "target-negative", "hybrid")]),
        ("ablate-lambda", "lambda_sweep.csv", ["--grid", "0.8", "0.85"],
         [(lam, {"positive_confidence_ratio": float(lam), "objective": "hybrid"})
          for lam in ("0.8", "0.85")]),
        ("compare-baselines", "baselines.csv", [],
         [(o, {"objective": o}) for o in ("soft-pseudo", "complementary", "hybrid")]),
    ], ids=["ablate-losses", "ablate-lambda", "compare-baselines"])
    def test_sweep_shares_each_seeds_dataset(
        self, tiny_config_file, tmp_path, generate_calls, command, filename, extra, variants
    ):
        out = tmp_path / "sweep"
        assert main([command, "--config", tiny_config_file, "--out", str(out),
                     "--seeds", "2"] + extra) == 0
        assert generate_calls == [5, 6]  # one dataset per seed, not per (variant, seed)
        rows = [row.split(",") for row in (out / filename).read_text().strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [
            [label, seed] for label, _ in variants for seed in ("5", "6", "mean")
        ]
        config = load_config(tiny_config_file, {})
        for i, (_, overrides) in enumerate(variants):
            seed_rows = rows[3 * i : 3 * i + 2]
            for seed, row in zip((5, 6), seed_rows):
                alone = run_experiment(config.replace(seed=seed, **overrides))
                assert float(row[2]) == alone.evaluation.average_map
            mean_row = rows[3 * i + 2]
            assert float(mean_row[2]) == float(np.mean([float(row[2]) for row in seed_rows]))


class TestOutputRoot:
    def test_env_var_root(self, tiny_config_file, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", tiny_config_file]) == 0
        assert (tmp_path / "root" / "generate" / "features.bin").is_file()


def test_build_id_stable():
    assert build_id() == build_id()
    assert len(build_id()) == 12


def test_run_experiment_smoke(tiny_config_file):
    config = load_config(tiny_config_file, {})
    result = run_experiment(config)
    assert 0.0 <= result.evaluation.average_map <= 1.0
    assert len(result.metrics) == config.selftrain_epochs
