import dataclasses
import json

import numpy as np
import pytest

from pntal import cli, datagen, localize, model, selftrain
from pntal.core import BadConfigError, ExperimentConfig, snippet_true_labels
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


def assert_labeled_counts(out, config, seeds=None):
    """The manifest's labeled_instances_class_<c> lines: for each class, the
    labeled instances in each seed's generate_benchmark, counted here."""
    seeds = [config.seed] if seeds is None else seeds
    counts = {c: [] for c in range(1, config.class_count + 1)}
    for seed in seeds:
        labeled = datagen.generate_benchmark(config.replace(seed=seed)).labeled
        for c in counts:
            counts[c].append(sum(inst.class_idx == c for v in labeled for inst in v.instances))
    want = [f"labeled_instances_class_{c} = {' '.join(map(str, n))}" for c, n in counts.items()]
    got = [line for line in (out / "manifest.txt").read_text().splitlines()
           if line.startswith("labeled_instances_class_")]
    assert got == want


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


@pytest.fixture
def pretrain_calls(monkeypatch):
    """Seeds of every selftrain.pretrain call made from here on."""
    calls = []
    real = selftrain.pretrain

    def counted(labeled_videos, config):
        calls.append(config.seed)
        return real(labeled_videos, config)

    monkeypatch.setattr(selftrain, "pretrain", counted)
    return calls


class TestConfigParsing:
    def test_round_trip_types(self):
        values = parse_config_text(
            "seed = 3\nlearning_rate = 0.01\n"
            "tiou_grid = 0.3, 0.5\nobjective = hybrid\n"
        )
        assert values == {
            "seed": 3,
            "learning_rate": 0.01,
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

    def test_malformed_detections(self, tmp_path, capsys, generate_calls):
        good = "v\t0\t4\t1\t0.5\n"
        for i, bad in enumerate(("v\t0\t4\t1\n", "v\t5\t4\t1\t0.5\n", "v\t0\t4\t1\tnan\n",
                                 "v\t0\t99999999999999999999\t1\t0.5\n")):
            path = tmp_path / f"bad{i}.tsv"
            path.write_text(good + bad)
            assert main(["evaluate", "--detections", str(path), "--out", str(tmp_path / "o")]) == 2
            assert f"{path}:2: " in capsys.readouterr().err
        assert generate_calls == []  # reported before any dataset is built

    def test_config_refused_before_any_output(self, tmp_path, capsys, generate_calls):
        narrow = tmp_path / "narrow.cfg"
        narrow.write_text("class_count = 20\nfeature_dim = 16\n")
        windowed = tmp_path / "windowed.cfg"
        windowed.write_text("feature_window = 0\n")
        for i, command in enumerate((
            ["generate", "--config", str(narrow)],
            ["generate", "--config", str(windowed)],
            ["generate", "--seed", "-1"],
            ["selftrain", "--seed", "-1"],
            ["ablate-lambda", "--grid", "0.8", "1.5"],
            ["ablate-lambda", "--grid", "0.8", "0.8"],
            # training flags that no stage of the command would read
            ["generate", "--objective", "hybrid"],
            ["pretrain", "--lambda", "0.8"],
            ["evaluate", "--alpha", "1", "--detections", "x"],
            ["ablate-lambda", "--lambda", "0.8", "--grid", "0.8"],
            ["compare-baselines", "--objective", "hybrid"],
        )):
            out = tmp_path / f"o{i}"
            assert main(command + ["--out", str(out)]) == 1
            assert "configuration error" in capsys.readouterr().err
            assert not out.exists()
        assert generate_calls == []

    def test_config_not_utf8(self, tmp_path, capsys, generate_calls):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("objective = hybrid # caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "o"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and str(bad) in err
        assert not out.exists()
        assert generate_calls == []

    def test_malformed_checkpoint(self, tmp_path, capsys, generate_calls):
        ckpt = tmp_path / "ckpt.txt"
        model.save_params(model.init_params(8, 12, 5, seed=0), ckpt)
        ckpt.write_bytes(ckpt.read_bytes().replace(b"class_w", b"class_\xff"))
        assert main(["evaluate", "--params", str(ckpt), "--out", str(tmp_path / "o")]) == 2
        assert "pntal: error" in capsys.readouterr().err
        assert generate_calls == []  # reported before any dataset is built

    def test_checkpoint_with_junk_tail(self, tmp_path, capsys, generate_calls):
        ckpt = tmp_path / "ckpt.txt"
        model.save_params(model.init_params(8, 12, 5, seed=0), ckpt)
        ckpt.write_text(ckpt.read_text() + "junk\n")
        assert main(["evaluate", "--params", str(ckpt), "--out", str(tmp_path / "o")]) == 2
        assert "content after section mask_b" in capsys.readouterr().err
        assert generate_calls == []

    def test_evaluate_needs_source(self, tmp_path, capsys):
        assert main(["evaluate", "--out", str(tmp_path / "o")]) == 1

    def test_evaluate_sources_exclusive(self, tmp_path, capsys, generate_calls):
        ckpt = tmp_path / "ckpt.txt"
        model.save_params(model.init_params(8, 12, 5, seed=0), ckpt)
        dump = tmp_path / "det.tsv"
        dump.write_text("v\t0\t4\t1\t0.5\n")
        out = tmp_path / "o"
        command = ["evaluate", "--params", str(ckpt), "--detections", str(dump), "--out", str(out)]
        assert main(command) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()
        assert generate_calls == []

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

    def test_labeled_instance_counts(self, tiny_config_file, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--config", tiny_config_file, "--out", str(out)]) == 0
        assert_labeled_counts(out, load_config(tiny_config_file, {}))


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
        localize.write_detections(det_path, localize.detection_table(detections))
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--config", tiny_config_file,
            "--detections", str(det_path), "--out", str(out),
        ]) == 0
        rows = (out / "map.csv").read_text().strip().splitlines()
        assert rows[0] == "tiou,map"
        assert rows[-1].startswith("average,")
        assert float(rows[-1].split(",")[1]) == pytest.approx(1.0)
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"detections = {len(detections)}" in manifest
        classes = sorted({d.class_idx for d in detections})
        for thr in config.tiou_grid:
            for cls in classes:
                assert f"ap_tiou_{thr:g}_class_{cls} = 1.0" in manifest
        assert_labeled_counts(out, config)


class TestSelftrainCommand:
    def test_byte_identical_reruns(self, tiny_config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["selftrain", "--config", tiny_config_file, "--out", str(out)]) == 0
        for name in ("metrics.jsonl", "map.csv", "detections.tsv", "checkpoint.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("labeled_ratio", ["0.25", "1.0"])
    def test_metrics_are_strict_json(self, tiny_config_file, tmp_path, labeled_ratio):
        """Every metrics.jsonl line parses under RFC 8259 (no NaN); with every
        video labeled there is no pseudo-label accuracy to report."""
        out = tmp_path / "st"
        assert main(["selftrain", "--config", tiny_config_file, "--labeled-ratio", labeled_ratio,
                     "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        lines = (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line, parse_constant=refuse) for line in lines]
        assert len(records) == load_config(tiny_config_file, {}).selftrain_epochs
        for record in records:
            if labeled_ratio == "1.0":
                assert record["pseudo_accuracy"] is None
            else:
                assert 0.0 <= record["pseudo_accuracy"] <= 1.0

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
        config = load_config(tiny_config_file, {})
        for out in (pre_out, st_out, plain_out):
            assert_labeled_counts(out, config)

    def test_stage_times_in_manifest(self, tiny_config_file, tmp_path):
        pre_out = tmp_path / "pre"
        assert main(["pretrain", "--config", tiny_config_file, "--out", str(pre_out)]) == 0
        plain_out = tmp_path / "plain"
        assert main(["selftrain", "--config", tiny_config_file, "--out", str(plain_out)]) == 0
        st_out = tmp_path / "st"
        assert main(["selftrain", "--config", tiny_config_file,
                     "--params", str(pre_out / "checkpoint.txt"), "--out", str(st_out)]) == 0
        eval_out, dump_out, audit_out = tmp_path / "ev", tmp_path / "dump", tmp_path / "audit"
        assert main(["evaluate", "--config", tiny_config_file,
                     "--params", str(st_out / "checkpoint.txt"), "--out", str(eval_out)]) == 0
        assert main(["evaluate", "--config", tiny_config_file,
                     "--detections", str(st_out / "detections.tsv"), "--out", str(dump_out)]) == 0
        assert main(["subspace-audit", "--config", tiny_config_file, "--out", str(audit_out)]) == 0
        # Only the stages that ran, in run order: no pretraining under --params
        # and no detection under --detections.
        for out, stages in (
            (pre_out, ["generate", "pretrain"]),
            (plain_out, ["generate", "pretrain", "selftrain", "detect", "score"]),
            (st_out, ["generate", "selftrain", "detect", "score"]),
            (eval_out, ["generate", "detect", "score"]),
            (dump_out, ["generate", "score"]),
            (audit_out, ["generate", "pretrain", "selftrain", "annotate"]),
        ):
            lines = [line.split(" = ") for line in (out / "manifest.txt").read_text().splitlines()
                     if line.startswith("stage_s_")]
            assert [key for key, _ in lines] == [f"stage_s_{name}" for name in stages]
            assert all(float(value) >= 0.0 for _, value in lines)
        # The timings live in the manifest only: the scored artifacts are what
        # the library pipeline writes for the same config.
        result = run_experiment(load_config(tiny_config_file, {}))
        want = tmp_path / "want"
        want.mkdir()
        cli.write_metrics_jsonl(want / "metrics.jsonl", result.metrics)
        cli.write_map_csv(want / "map.csv", result.evaluation)
        localize.write_detections(want / "detections.tsv", result.detections)
        for name in ("metrics.jsonl", "map.csv", "detections.tsv"):
            assert (plain_out / name).read_bytes() == (want / name).read_bytes()

    def test_manifest_config_round_trips(self, tiny_config_file, tmp_path):
        out = tmp_path / "st"
        assert main(["selftrain", "--config", tiny_config_file, "--seed", "6", "--lambda", "0.8",
                     "--objective", "target-negative", "--out", str(out)]) == 0
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        snapshot = [line for line in (out / "manifest.txt").read_text().splitlines()
                    if line.split(" = ", 1)[0] in names]
        assert len(snapshot) == len(names)
        rebuilt = ExperimentConfig(**parse_config_text("\n".join(snapshot)))
        want = load_config(tiny_config_file, {
            "seed": 6, "positive_confidence_ratio": 0.8, "objective": "target-negative",
        })
        assert rebuilt == want


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
        assert_labeled_counts(out, load_config(tiny_config_file, {}))

    @pytest.mark.parametrize("objective", ["hybrid", "complementary"])
    def test_subspace_audit_matches_annotated_videos(self, tiny_config_file, tmp_path, objective):
        out = tmp_path / "sub"
        assert main(["subspace-audit", "--config", tiny_config_file, "--objective", objective,
                     "--out", str(out)]) == 0
        config = load_config(tiny_config_file, {"objective": objective})
        bench = datagen.generate_benchmark(config)
        params = selftrain.pretrain(bench.labeled, config)
        params, _ = selftrain.self_train_loop(
            params, bench.labeled, bench.unlabeled, config, sealed=bench.sealed
        )
        features = np.concatenate([v.features for v in bench.unlabeled])
        truths = [
            int(t)
            for v in bench.unlabeled
            for t in snippet_true_labels(
                bench.sealed[v.video_id], v.snippet_count, config.background_index
            )
        ]
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

    def test_subspace_audit_needs_an_unlabeled_video(self, tiny_config_file, tmp_path, capsys,
                                                     generate_calls, pretrain_calls):
        assert main(["subspace-audit", "--config", tiny_config_file, "--labeled-ratio", "1.0",
                     "--out", str(tmp_path / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pntal: error: labeled_ratio 1.0 ")
        assert "train_video_count 8" in err and "'" not in err
        assert generate_calls == [] and pretrain_calls == []

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
        self, tiny_config_file, tmp_path, generate_calls, pretrain_calls,
        command, filename, extra, variants,
    ):
        out = tmp_path / "sweep"
        assert main([command, "--config", tiny_config_file, "--out", str(out),
                     "--seeds", "2"] + extra) == 0
        assert generate_calls == [5, 6]  # one dataset per seed, not per (variant, seed)
        assert pretrain_calls == [5, 6]  # and one pretrain
        config = load_config(tiny_config_file, {})
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "seeds = 5 6" in manifest
        assert_labeled_counts(out, config, seeds=[5, 6])
        # Stage wall times, one value per seed, in the manifest only.
        stages = [line.split(" = ") for line in manifest if line.startswith("stage_s_")]
        assert [key for key, _ in stages] == ["stage_s_generate", "stage_s_pretrain"] + [
            f"stage_s_{label}_{name}" for label, _ in variants
            for name in ("selftrain", "detect", "score")
        ]
        for _, values in stages:
            assert len(values.split()) == 2
            assert all(float(v) >= 0.0 for v in values.split())
        rows = [row.split(",") for row in (out / filename).read_text().strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [
            [label, seed] for label, _ in variants for seed in ("5", "6", "mean")
        ]
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
