"""Experiment runner: configure, run, and summarize training and ablations.

Every run writes a manifest (config snapshot, seed, build id, wall time; for
runs that build a dataset also each class's labeled instance count, one value
per seed for sweeps; for scored runs also the detection count and per-class
AP; for every command but generate also each stage's wall time) plus metrics
as structured text and plot-ready CSV. Metrics artifacts are byte-identical
across reruns with the same seed; only the manifest carries wall-clock time.
Exit codes: 0 ok, 1 configuration error, 2 runtime error.

Config files are flat key = value text. Keys must be ExperimentConfig field
names; unknown keys are rejected so misspelled hyper-parameters fail loudly.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import datagen, localize, losses, model, selftrain
from .core import (
    OBJECTIVES,
    SIMPLIFICATIONS,
    BadConfigError,
    Error,
    ExperimentConfig,
)

LAMBDA_GRID_DEFAULT = (0.75, 0.80, 0.85, 0.90)
OUTPUT_ROOT_ENV = "PNTAL_OUT"


class MissingArtifactError(Error, FileNotFoundError):
    def __init__(self, path, what: str):
        super().__init__(f"missing {what}: expected file {path}")


class _UsageError(Error, ValueError):
    pass


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

_LIST_FIELDS = {"tiou_grid", "classification_thresholds", "mask_thresholds"}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _LIST_FIELDS:
        parts = [p for p in raw.replace(",", " ").split() if p]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise BadConfigError(key, f"expected a list of numbers, got {raw!r}") from None
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw  # str fields (objective)
    except ValueError:
        raise BadConfigError(key, f"cannot parse {raw!r} as {kind}") from None


def parse_config_text(text: str) -> Dict[str, object]:
    """Parse flat key = value lines; '#' starts a comment."""
    values: Dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise BadConfigError(f"line {line_no}", f"expected key = value, got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise BadConfigError(key, "unknown configuration key")
        if key in values:
            raise BadConfigError(key, "duplicate configuration key")
        values[key] = _parse_value(key, raw)
    return values


def load_config(path: Optional[str], overrides: Dict[str, object]) -> ExperimentConfig:
    values: Dict[str, object] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise MissingArtifactError(p, "config file")
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise BadConfigError(str(p), f"not UTF-8 text (byte {exc.start})") from None
        values.update(parse_config_text(text))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def build_id() -> str:
    """Content hash of the package sources; a git-style build identifier."""
    digest = hashlib.sha256()
    pkg_dir = Path(__file__).parent
    for py in sorted(pkg_dir.glob("*.py")):
        digest.update(py.name.encode())
        digest.update(py.read_bytes())
    return digest.hexdigest()[:12]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def write_manifest(
    out_dir: Path,
    config: ExperimentConfig,
    command: str,
    wall_time: float,
    report: Sequence[Tuple[str, object]] = (),
) -> None:
    """Config snapshot, build id, the run's report lines and wall time."""
    lines = [f"command = {command}", f"build_id = {build_id()}"]
    for key in sorted(config.to_dict()):
        lines.append(f"{key} = {_fmt(getattr(config, key))}")
    lines.append(f"simplifications = {','.join(SIMPLIFICATIONS)}")
    lines.extend(f"{key} = {_fmt(value)}" for key, value in report)
    lines.append(f"wall_time_s = {wall_time:.3f}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_jsonl(path: Path, metrics: Sequence[selftrain.EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m in metrics:
            fh.write(json.dumps(m.to_dict(), sort_keys=True, allow_nan=False) + "\n")


def _labeled_counts(benchmark: datagen.Benchmark, class_count: int) -> List[int]:
    """Labeled instances of each class 1..C in the benchmark's labeled videos."""
    counts = [0] * class_count
    for video in benchmark.labeled:
        for inst in video.instances:
            counts[inst.class_idx - 1] += 1
    return counts


def _labeled_report(*per_dataset: List[int]) -> List[Tuple[str, object]]:
    """Manifest lines: each class's labeled instance count, one value per dataset."""
    return [
        (f"labeled_instances_class_{c}", list(counts))
        for c, counts in enumerate(zip(*per_dataset), start=1)
    ]


def write_map_csv(path: Path, result: localize.EvalResult) -> None:
    rows = [[f"{thr:g}", value] for thr, value in result.per_threshold]
    rows.append(["average", result.average_map])
    write_csv(path, ("tiou", "map"), rows)


# ---------------------------------------------------------------------------
# Experiment driver (shared by CLI commands and the acceptance suite)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ExperimentResult:
    config: ExperimentConfig
    benchmark: datagen.Benchmark
    params: model.ModelParams
    metrics: List[selftrain.EpochMetrics]
    detections: localize.DetectionTable
    evaluation: localize.EvalResult
    stage_s: Dict[str, float]  # wall time of each stage that ran, in run order


@contextmanager
def _stage(stage_s: Dict[str, float], name: str):
    """Add the wall time of the with-block to stage_s[name]."""
    started = time.perf_counter()
    yield
    stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - started


def _generate(config: ExperimentConfig, stage_s: Dict[str, float]) -> datagen.Benchmark:
    with _stage(stage_s, "generate"):
        return datagen.generate_benchmark(config)


def _train(config, benchmark, params, stage_s):
    """Pretrain (unless params are given), then self-train: (params, metrics)."""
    if params is None:
        with _stage(stage_s, "pretrain"):
            params = selftrain.pretrain(benchmark.labeled, config)
    with _stage(stage_s, "selftrain"):
        return selftrain.self_train_loop(
            params, benchmark.labeled, benchmark.unlabeled, config, sealed=benchmark.sealed
        )


def _score(config, benchmark, params, detections, stage_s):
    """Detect with params (unless detections are given), then score them
    against the test videos: (detections, evaluation)."""
    if detections is None:
        with _stage(stage_s, "detect"):
            detections = localize.detect_videos(params, benchmark.test, config)
    with _stage(stage_s, "score"):
        return detections, localize.mean_average_precision(
            detections, localize.ground_truth_map(benchmark.test), config.tiou_grid
        )


def _report(config, benchmark, stage_s, scored=None) -> List[Tuple[str, object]]:
    """A command's manifest lines: each class's labeled instance count; for
    a scored run (detections, evaluation) its detection count and per-class
    AP at each tIoU; then each stage's wall time, in run order."""
    report = _labeled_report(_labeled_counts(benchmark, config.class_count))
    if scored is not None:
        detections, evaluation = scored
        report.append(("detections", len(detections)))
        report.extend((f"ap_tiou_{thr:g}_class_{cls}", ap) for thr, cls, ap in evaluation.per_class)
    return report + [(f"stage_s_{name}", round(seconds, 6)) for name, seconds in stage_s.items()]


def run_experiment(
    config: ExperimentConfig,
    benchmark: Optional[datagen.Benchmark] = None,
    params: Optional[model.ModelParams] = None,
) -> ExperimentResult:
    """Generate data (unless given), pretrain (unless params are given), self-train, evaluate."""
    stage_s: Dict[str, float] = {}
    if benchmark is None:
        benchmark = _generate(config, stage_s)
    params, metrics = _train(config, benchmark, params, stage_s)
    detections, evaluation = _score(config, benchmark, params, None, stage_s)
    return ExperimentResult(
        config=config, benchmark=benchmark, params=params, metrics=metrics,
        detections=detections, evaluation=evaluation, stage_s=stage_s,
    )


def _load_checkpoint(path: str, config: ExperimentConfig) -> model.ModelParams:
    if not Path(path).is_file():
        raise MissingArtifactError(path, "model checkpoint")
    return model.load_params(path, config.model_input_dim, config.hidden_width, config.label_count)


def _sweep(
    config: ExperimentConfig,
    out: Path,
    filename: str,
    column: str,
    variants: Sequence[Tuple[str, Dict[str, object]]],
    seeds: int,
) -> List[Tuple[str, object]]:
    """Run each (label, overrides) variant on consecutive seeds; write a CSV.

    A variant overrides only the self-training stage (objective, lambda), so
    each seed's dataset is generated once and its model pretrained once, and
    every variant of that seed self-trains from that model; self_train_loop
    never writes into it. Each variant's seed rows are followed by its mean
    row. Returns the manifest lines: the seeds, each seed's labeled instance
    counts, and each stage's wall time per seed (stage_s_generate,
    stage_s_pretrain, then stage_s_<variant>_<stage> for the selftrain,
    detect and score stages of each variant).
    """
    seed_list = [config.seed + i for i in range(seeds)]
    maps: List[List[float]] = [[] for _ in variants]
    stage_s: Dict[str, List[float]] = {}  # manifest key -> one wall time per seed
    labeled_counts = []
    for seed in seed_list:
        seed_config = config.replace(seed=seed)
        seed_s: Dict[str, float] = {}
        benchmark = _generate(seed_config, seed_s)
        labeled_counts.append(_labeled_counts(benchmark, config.class_count))
        with _stage(seed_s, "pretrain"):
            params = selftrain.pretrain(benchmark.labeled, seed_config)
        for values, (label, overrides) in zip(maps, variants):
            result = run_experiment(seed_config.replace(**overrides), benchmark, params)
            values.append(result.evaluation.average_map)
            seed_s.update((f"{label}_{name}", seconds) for name, seconds in result.stage_s.items())
        for name, seconds in seed_s.items():
            stage_s.setdefault(f"stage_s_{name}", []).append(seconds)
    rows = []
    for (label, _), values in zip(variants, maps):
        rows.extend([label, seed, value] for seed, value in zip(seed_list, values))
        rows.append([label, "mean", float(np.mean(values))])
    write_csv(out / filename, (column, "seed", "average_map"), rows)
    report = [("seeds", seed_list)] + _labeled_report(*labeled_counts)
    return report + [(key, [round(t, 6) for t in times]) for key, times in stage_s.items()]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_generate(config: ExperimentConfig, out: Path) -> List[Tuple[str, object]]:
    benchmark = datagen.generate_benchmark(config)
    all_videos = list(benchmark.labeled) + list(benchmark.unlabeled) + list(benchmark.test)
    datagen.write_feature_file(out / "features.bin", all_videos, config.class_count, config.feature_dim)
    datagen.write_dataset_manifest(out / "dataset_manifest.txt", all_videos)
    sealed_rows = []
    for vid in sorted(benchmark.sealed):
        for inst in benchmark.sealed[vid]:
            sealed_rows.append([vid, inst.start, inst.end, inst.class_idx])
    write_csv(out / "sealed_truth.csv", ("video_id", "start", "end", "class"), sealed_rows)
    return _report(config, benchmark, {})


def _cmd_pretrain(config: ExperimentConfig, out: Path) -> List[Tuple[str, object]]:
    stage_s: Dict[str, float] = {}
    benchmark = _generate(config, stage_s)
    with _stage(stage_s, "pretrain"):
        params = selftrain.pretrain(benchmark.labeled, config)
    model.save_params(params, out / "checkpoint.txt")
    rows = [
        ["labeled_train_accuracy", selftrain.snippet_accuracy(params, benchmark.labeled, config)],
        ["test_accuracy", selftrain.snippet_accuracy(params, benchmark.test, config)],
    ]
    write_csv(out / "pretrain_metrics.csv", ("metric", "value"), rows)
    return _report(config, benchmark, stage_s)


def _cmd_selftrain(
    config: ExperimentConfig, out: Path, params_path: Optional[str]
) -> List[Tuple[str, object]]:
    params = None if params_path is None else _load_checkpoint(params_path, config)
    result = run_experiment(config, params=params)
    model.save_params(result.params, out / "checkpoint.txt")
    write_metrics_jsonl(out / "metrics.jsonl", result.metrics)
    localize.write_detections(out / "detections.tsv", result.detections)
    write_map_csv(out / "map.csv", result.evaluation)
    return _report(config, result.benchmark, result.stage_s, (result.detections, result.evaluation))


def _cmd_evaluate(
    config: ExperimentConfig, out: Path, params_path, detections_path
) -> List[Tuple[str, object]]:
    params = detections = None
    if detections_path is not None:
        if not Path(detections_path).is_file():
            raise MissingArtifactError(detections_path, "detections file")
        detections = localize.load_detections(detections_path)
    else:
        params = _load_checkpoint(params_path, config)
    stage_s: Dict[str, float] = {}
    benchmark = _generate(config, stage_s)
    detections, evaluation = _score(config, benchmark, params, detections, stage_s)
    if params is not None:
        localize.write_detections(out / "detections.tsv", detections)
    write_map_csv(out / "map.csv", evaluation)
    return _report(config, benchmark, stage_s, (detections, evaluation))


def _cmd_subspace_audit(config: ExperimentConfig, out: Path) -> List[Tuple[str, object]]:
    if config.objective == "soft-pseudo":
        raise losses.UnresolvedSupervisionError(
            f"objective {config.objective} assigns no label-space partition"
        )
    if datagen.labeled_video_count(config) == config.train_video_count:
        raise selftrain.MissingGroundTruthError(
            f"labeled_ratio {config.labeled_ratio} labels all train_video_count "
            f"{config.train_video_count} videos: no unlabeled video to audit"
        )
    stage_s: Dict[str, float] = {}
    benchmark = _generate(config, stage_s)
    params, _ = _train(config, benchmark, None, stage_s)
    with _stage(stage_s, "annotate"):
        pool = selftrain.build_pool(benchmark.unlabeled, config, benchmark.sealed)
        ann = selftrain.assign_annotation(params, pool.features, config)
    stats = selftrain.subspace_statistics(ann, pool.labels)
    rows = [
        ["target", stats.target_rate],
        ["positive", stats.positive_rate],
        ["ambiguous", stats.ambiguous_rate],
        ["negative", stats.negative_rate],
        ["positive_given_miss", stats.positive_rate_given_miss],
        ["ambiguous_given_miss", stats.ambiguous_rate_given_miss],
        ["negative_given_miss", stats.negative_rate_given_miss],
        ["snippet_count", stats.snippet_count],
    ]
    write_csv(out / "subspace.csv", ("subspace", "ground_truth_rate"), rows)
    return _report(config, benchmark, stage_s)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _seed_count(raw: str) -> int:
    """A sweep's --seeds: at least one seed."""
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return count


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, help="base RNG seed")
    sub.add_argument("--out", help="output directory (default: $PNTAL_OUT/<command>)")
    sub.add_argument("--labeled-ratio", type=float, dest="labeled_ratio")
    sub.add_argument(
        "--lambda", type=float, dest="positive_confidence_ratio",
        help="positive-class confidence ratio",
    )
    sub.add_argument(
        "--alpha", type=float, dest="unlabeled_loss_weight", help="unsupervised loss weight"
    )
    sub.add_argument("--objective", choices=list(OBJECTIVES))


def _build_parser() -> _Parser:
    parser = _Parser(prog="pntal", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("generate", "pretrain", "subspace-audit"):
        _add_common(subs.add_parser(name))
    st = subs.add_parser("selftrain")
    _add_common(st)
    st.add_argument("--params", help="pretrained checkpoint to start from")
    ev = subs.add_parser("evaluate")
    _add_common(ev)
    source = ev.add_mutually_exclusive_group(required=True)
    source.add_argument("--params", help="model checkpoint to evaluate")
    source.add_argument("--detections", help="detection dump to evaluate instead of a model")
    for name in ("ablate-losses", "ablate-lambda", "compare-baselines"):
        sweep = subs.add_parser(name)
        _add_common(sweep)
        sweep.add_argument("--seeds", type=_seed_count, default=5, help="number of consecutive seeds")
        if name == "ablate-lambda":
            sweep.add_argument(
                "--grid", type=float, nargs="+", default=list(LAMBDA_GRID_DEFAULT),
                help="lambda values to sweep",
            )
    return parser


# Each sweep command's CSV file name and label column.
_SWEEPS = {
    "ablate-losses": ("loss_ablation.csv", "objective"),
    "ablate-lambda": ("lambda_sweep.csv", "lambda"),
    "compare-baselines": ("baselines.csv", "objective"),
}


def _sweep_variants(args) -> List[Tuple[str, Dict[str, object]]]:
    """The (label, overrides) variants of a sweep command. --grid values that
    share a label would share CSV rows and manifest keys, so they are refused."""
    if args.command == "ablate-losses":
        return [(o, {"objective": o}) for o in ("target-only", "target-negative", "hybrid")]
    if args.command == "compare-baselines":
        return [(o, {"objective": o}) for o in ("soft-pseudo", "complementary", "hybrid")]
    labels = [f"{lam:g}" for lam in args.grid]
    if len(set(labels)) < len(labels):
        raise _UsageError(f"argument --grid: duplicate values in {' '.join(labels)}")
    return [
        (label, {"positive_confidence_ratio": lam, "objective": "hybrid"})
        for label, lam in zip(labels, args.grid)
    ]


def _out_dir(args) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        out = Path(root) / args.command
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            "seed": args.seed,
            "labeled_ratio": args.labeled_ratio,
            "positive_confidence_ratio": args.positive_confidence_ratio,
            "unlabeled_loss_weight": args.unlabeled_loss_weight,
            "objective": args.objective,
        }
        config = load_config(args.config, overrides)
        if args.command in _SWEEPS:
            variants = _sweep_variants(args)
            for _, values in variants:
                config.replace(**values)  # a bad variant is refused before any output
        out = _out_dir(args)
        started = time.perf_counter()
        if args.command == "generate":
            report = _cmd_generate(config, out)
        elif args.command == "pretrain":
            report = _cmd_pretrain(config, out)
        elif args.command == "selftrain":
            report = _cmd_selftrain(config, out, args.params)
        elif args.command == "evaluate":
            report = _cmd_evaluate(config, out, args.params, args.detections)
        elif args.command in _SWEEPS:
            report = _sweep(config, out, *_SWEEPS[args.command], variants, args.seeds)
        elif args.command == "subspace-audit":
            report = _cmd_subspace_audit(config, out)
        write_manifest(out, config, args.command, time.perf_counter() - started, report)
        return 0
    except (_UsageError, BadConfigError) as exc:
        print(f"pntal: configuration error: {exc}", file=sys.stderr)
        return 1
    except (Error, OSError) as exc:
        print(f"pntal: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
