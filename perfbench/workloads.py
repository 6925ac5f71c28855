"""The three workloads: inputs, one timed unit of work, and output checks.

Each workload has a ``setup`` (timed as part of set-up), a ``unit(seed)``
(one timed unit of work, through the program's public functions) and a
``check(seed, output, first)`` that compares the unit's outputs with
computations made here and in ``oracles``; it returns a list of problems
and may add to ``notes``.
Imported only after the worker has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

import oracles
from pntal import cli, datagen, localize, losses, model, selftrain
from pntal.core import ExperimentConfig
from tracing import Point

BENCH_DIR = Path(__file__).resolve().parent
SWEEP_CONFIG = BENCH_DIR / "sweep.conf"
SWEEP_OBJECTIVES = ("soft-pseudo", "complementary", "hybrid")

PARTITION_SAMPLE_ROWS = 400
NEGATIVE_TRUTH_LIMIT = 0.05

# localize: one fixed model is trained during set-up (paper-default data and
# seed, shortened self-training). The served videos are longer than the
# paper's, and --seed picks which SERVE_VIDEOS of a pool of SERVE_POOL videos
# from the model's distribution are served.
MODEL_SEED = 0
CHECKPOINT_SELFTRAIN_EPOCHS = 20
SERVE_POOL = 450
SERVE_VIDEOS = 300
SERVE_SNIPPETS = 200


@dataclass
class UnitOutput:
    test_map: float
    payload: object


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _truth_rows(videos):
    return [(v.video_id, i.start, i.end, i.class_idx) for v in videos for i in v.instances]


def _detection_rows(detections):
    return [(d.video_id, d.start, d.end, d.class_idx, d.score) for d in detections]


def _video_fingerprint(video):
    """Id, feature bytes and instances: equal iff the video round-trips exactly."""
    return (
        video.video_id,
        np.stack([s.feature for s in video.snippets]).tobytes(),
        [(i.start, i.end, i.class_idx) for i in video.instances],
    )


def _check_map(name, detections, videos, grid, library_map) -> List[str]:
    want = oracles.mean_average_precision(
        _detection_rows(detections), _truth_rows(videos), grid
    )
    if not _close(library_map, want):
        return [f"{name}: library mAP {library_map!r} != brute-force oracle {want!r}"]
    return []


class Experiment:
    """One paper-default hybrid experiment through ``cli.run_experiment``."""

    def __init__(self, seed: int, out: Path):
        self.config = ExperimentConfig()
        self.notes = []

    def setup(self) -> None:
        pass

    def unit(self, seed: int) -> UnitOutput:
        # Generating here and passing the benchmark in times the same work as
        # run_experiment(config) alone, and leaves the data for the checks.
        config = self.config.replace(seed=seed)
        bench = datagen.generate_benchmark(config)
        result = cli.run_experiment(config, benchmark=bench)
        return UnitOutput(result.evaluation.average_map, (bench, result))

    def check(self, seed: int, output: UnitOutput, first: bool) -> List[str]:
        bench, result = output.payload
        config = result.config
        problems = _check_map(
            f"experiment seed {seed}", result.detections, bench.test, config.tiou_grid,
            result.evaluation.average_map,
        )

        # Pseudo-labels of the final model: the partition of sampled rows
        # against the brute-force rule, and where the sealed truth lands.
        features = selftrain.build_unlabeled_pool(bench.unlabeled, config).features
        ann = selftrain.assign_annotation(
            result.params, features, config, epoch=config.selftrain_epochs - 1
        )
        probs = model.forward_batch(result.params, features)[0]
        sharpened = selftrain.sharpen_rows(probs, config.sharpen_temperature)
        rng = np.random.default_rng(seed)
        for i in rng.choice(len(features), PARTITION_SAMPLE_ROWS, replace=False):
            if not np.allclose(sharpened[i], oracles.sharpen(probs[i], config.sharpen_temperature), rtol=1e-9, atol=0):
                problems.append(f"experiment seed {seed}: row {i} sharpening differs from p^(1/T)")
            got = (
                int(ann.targets[i]),
                frozenset((np.nonzero(ann.neg_mask[i])[0] + 1).tolist()),
                frozenset((np.nonzero(ann.pos_mask[i])[0] + 1).tolist()),
            )
            want = oracles.partition(sharpened[i], config.positive_confidence_ratio)
            if got != want:
                problems.append(f"experiment seed {seed}: row {i} partition {got} != oracle {want}")

        # The bound applies to classes the labeled split shows the model; the
        # split is not stratified, so on some seeds a class has no labeled
        # instance, is never predicted, and always lands in the negative set.
        seen = {config.class_count + 1} | {i.class_idx for v in bench.labeled for i in v.instances}
        truth = []
        for video in bench.unlabeled:
            labels = [config.class_count + 1] * video.snippet_count
            for inst in bench.sealed[video.video_id]:
                labels[inst.start : inst.end + 1] = [inst.class_idx] * inst.length
            truth.extend(labels)
        truth = np.asarray(truth)
        in_negative = ann.neg_mask[np.arange(len(truth)), truth - 1]
        shown = np.isin(truth, sorted(seen))
        rate = float(in_negative[shown].mean())
        if not rate < NEGATIVE_TRUTH_LIMIT:
            problems.append(
                f"experiment seed {seed}: sealed truth in the negative set for {rate:.2%} of snippets"
            )
        if not shown.all():
            unseen = sorted(set(range(1, config.class_count + 1)) - seen)
            self.notes.append(
                f"seed {seed}: classes {unseen} have no labeled instance; sealed truth in the "
                f"negative set for {float(in_negative.mean()):.2%} of all unlabeled snippets"
            )
        return problems


class Sweep:
    """One compare-baselines cell (one seed x three objectives) through ``cli.main``."""

    def __init__(self, seed: int, out: Path):
        self.out = out
        self.config = None
        self.notes = []

    def setup(self) -> None:
        self.config = cli.load_config(str(SWEEP_CONFIG), {})

    def unit(self, seed: int) -> UnitOutput:
        out = self.out / f"cell-{seed}"
        code = cli.main([
            "compare-baselines", "--config", str(SWEEP_CONFIG), "--seed", str(seed),
            "--seeds", "1", "--out", str(out),
        ])
        if code != 0:
            raise RuntimeError(f"compare-baselines exited with code {code}")
        with open(out / "baselines.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["average_map"]) for r in rows if r["seed"] != "mean"]
        return UnitOutput(math.fsum(values) / len(values) if values else float("nan"), rows)

    def check(self, seed: int, output: UnitOutput, first: bool) -> List[str]:
        problems = []
        rows = output.payload
        for objective in SWEEP_OBJECTIVES:
            seeded = [r for r in rows if r["objective"] == objective and r["seed"] != "mean"]
            means = [r for r in rows if r["objective"] == objective and r["seed"] == "mean"]
            if [r["seed"] for r in seeded] != [str(seed)] or len(means) != 1:
                problems.append(f"sweep seed {seed}: {objective} rows {seeded + means}")
                continue
            values = [float(r["average_map"]) for r in seeded]
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"sweep seed {seed}: {objective} mAP {values} outside [0, 1]")
            want = math.fsum(values) / len(values)
            if not _close(float(means[0]["average_map"]), want):
                problems.append(f"sweep seed {seed}: {objective} mean {means[0]['average_map']} != {want!r}")
        if len(rows) != 2 * len(SWEEP_OBJECTIVES):
            problems.append(f"sweep seed {seed}: {len(rows)} rows in baselines.csv")
        if first:
            problems.extend(self._check_complementary(seed))
        return problems

    def _check_complementary(self, seed: int) -> List[str]:
        config = self.config.replace(seed=seed, objective="complementary")
        bench = datagen.generate_benchmark(config)
        params = selftrain.pretrain(bench.labeled, config)
        features = selftrain.build_unlabeled_pool(bench.unlabeled, config).features
        ann = selftrain.assign_annotation(params, features, config, epoch=0)
        problems = []
        per_row = ann.neg_mask.sum(axis=1)
        if not np.all(per_row == 1):
            problems.append(f"complementary seed {seed}: negatives per row range {per_row.min()}..{per_row.max()}")
        if ann.neg_mask[np.arange(len(features)), ann.targets - 1].any():
            problems.append(f"complementary seed {seed}: a target class is marked negative")
        if ann.pos_mask.any():
            problems.append(f"complementary seed {seed}: positive classes marked")
        return problems


class Localize:
    """Serving path: load the feature container, localize, score."""

    def __init__(self, seed: int, out: Path):
        self.notes = []
        self.seed = seed
        self.out = out
        self.path = out / "features.bin"
        self.reference = None

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        train_config = ExperimentConfig(seed=MODEL_SEED, selftrain_epochs=CHECKPOINT_SELFTRAIN_EPOCHS)
        bench = datagen.generate_benchmark(train_config)
        params = selftrain.pretrain(bench.labeled, train_config)
        params, _ = selftrain.self_train_loop(params, bench.labeled, bench.unlabeled, train_config)
        model.save_params(params, self.out / "checkpoint.txt")
        self.config = train_config.replace(
            train_video_count=1, test_video_count=SERVE_POOL, snippets_per_video=SERVE_SNIPPETS
        )
        self.params = model.load_params(
            self.out / "checkpoint.txt", self.config.model_input_dim, self.config.hidden_width,
            self.config.label_count,
        )
        pool = datagen.generate_benchmark(self.config).test
        picked = np.random.default_rng(self.seed).choice(SERVE_POOL, SERVE_VIDEOS, replace=False)
        videos = [pool[i] for i in sorted(picked)]
        datagen.write_feature_file(self.path, videos, self.config.class_count, self.config.feature_dim)
        self.expected = [_video_fingerprint(v) for v in videos]

    def unit(self, seed: int) -> UnitOutput:
        videos = datagen.load_feature_file(self.path)
        detections = localize.detect_videos(self.params, videos, self.config)
        result = localize.mean_average_precision(
            detections, localize.ground_truth_map(videos), self.config.tiou_grid
        )
        return UnitOutput(result.average_map, (videos, detections, result))

    def check(self, seed: int, output: UnitOutput, first: bool) -> List[str]:
        videos, detections, result = output.payload
        problems = self._check_loaded(videos)
        if self.reference is not None:
            # Every unit repeats the same inputs, so it must repeat the outputs.
            if (_detection_rows(detections), result.average_map) != self.reference:
                problems.append("localize: a repeated unit gave different detections or mAP")
            return problems
        self.reference = (_detection_rows(detections), result.average_map)
        problems += _check_map("localize", detections, videos, self.config.tiou_grid, result.average_map)
        problems += self._check_detections(videos, detections)
        truth = [
            localize.Detection(v.video_id, i.start, i.end, i.class_idx, 1.0)
            for v in videos for i in v.instances
        ]
        perfect = localize.mean_average_precision(
            truth, localize.ground_truth_map(videos), self.config.tiou_grid
        ).average_map
        if perfect != 1.0:
            problems.append(f"localize: ground truth scored as detections gives mAP {perfect!r}")
        return problems

    def _check_loaded(self, videos) -> List[str]:
        if len(videos) != len(self.expected):
            return [f"localize: loaded {len(videos)} videos, wrote {len(self.expected)}"]
        for got, want in zip(videos, self.expected):
            if _video_fingerprint(got) != want:
                return [f"localize: video {got.video_id} does not round-trip bit for bit"]
        return []

    def _check_detections(self, videos, detections) -> List[str]:
        """Kept detections lie inside their video, clear the Soft-NMS floor,
        and never score above the candidate they came from."""
        length = {v.video_id: v.snippet_count for v in videos}
        candidate_score = {}
        for video in videos:
            probs, scores, _ = model.forward_batch(
                self.params, selftrain.video_feature_matrix(video, self.config.feature_window)
            )
            for cand in localize.generate_candidates(
                video.video_id, probs, scores,
                self.config.classification_thresholds, self.config.mask_thresholds,
            ):
                candidate_score[(cand.video_id, cand.start, cand.end, cand.class_idx)] = cand.score
        problems = []
        for d in detections:
            key = (d.video_id, d.start, d.end, d.class_idx)
            if not 0 <= d.start <= d.end < length[d.video_id]:
                problems.append(f"localize: detection {key} outside its video")
            if d.score < self.config.soft_nms_floor:
                problems.append(f"localize: detection {key} score {d.score} below the floor")
            if key not in candidate_score or d.score > candidate_score[key]:
                problems.append(f"localize: detection {key} score {d.score} exceeds its candidate")
            if len(problems) > 10:
                break
        return problems


WORKLOADS = {"experiment": Experiment, "sweep": Sweep, "localize": Localize}


def _rows(arg_index):
    return lambda args, kwargs, result: {"rows": int(args[arg_index].shape[0])}


# Timed in every run: the end-to-end metrics map_eval_s and detect_videos_per_s.
E2E_POINTS = [
    Point(localize, "detect_videos", "localize.detect_videos",
          lambda args, kwargs, result: {"videos": len(args[1])}),
    Point(localize, "mean_average_precision", "localize.mean_average_precision"),
]

# Traced runs only. partition_rows is wrapped where selftrain looks it up.
LAYER_POINTS = E2E_POINTS + [
    Point(datagen, "generate_benchmark", "datagen.generate_benchmark"),
    Point(datagen, "load_feature_file", "datagen.load_feature_file",
          lambda args, kwargs, result: {"bytes": Path(args[0]).stat().st_size}),
    Point(model, "forward_batch", "model.forward_batch", _rows(1)),
    Point(model, "backward_batch", "model.backward_batch"),
    Point(model, "step", "model.step"),
    Point(losses, "batch_terms", "losses.batch_terms"),
    Point(selftrain, "partition_rows", "partition.partition_rows", _rows(0)),
    Point(selftrain, "assign_annotation", "selftrain.assign_annotation", _rows(1)),
    Point(selftrain, "pretrain", "selftrain.pretrain"),
    Point(selftrain, "self_train_loop", "selftrain.self_train_loop"),
    Point(selftrain, "snippet_accuracy", "selftrain.snippet_accuracy"),
    Point(localize, "generate_candidates", "localize.generate_candidates",
          lambda args, kwargs, result: {"candidates": len(result)}),
    Point(localize, "soft_nms", "localize.soft_nms",
          lambda args, kwargs, result: {"in": len(args[0]), "kept": len(result)}),
    Point(cli, "run_experiment", "cli.run_experiment"),
    Point(cli, "main", "cli.main"),
]
