"""Run one workload in this process and print its result as one JSON line.

Started by run.py, which pins BLAS to one thread and passes the monotonic
time at which it launched this process, so set-up is timed from a cold
start: interpreter, imports, oracle self-test and the workload's set-up.

A run is a warm-up unit (checked, then dropped) and a fixed number of timed
units whose seeds follow from --seed. Timed end-to-end values are medians
over the units. With --trace 1 the run times half as many units without
tracing and then as many with every layer traced, and reports per-layer
figures per unit plus the tracing overhead.

The speed of the shared host drifts by tens of percent within minutes, and
a median over units cannot remove a drift that spans the whole run. So a
fixed reference loop, independent of the program but shaped like its work,
is timed right before and right after every unit, and the unit's times are
scaled by REFERENCE_S / (the mean of those two reference times): seconds at
the reference speed. Set-up is scaled by the first reference time, taken
right after it. The raw seconds and reference times are printed beside
them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / "runs" / "perfbench"

# Share of --seconds given to one unit with its checks and reference loops;
# at --seconds 30 a run times 5 units (about 35-45 s per run in all).
UNIT_BUDGET_S = 6.0

# Seconds the reference loop takes at the reference speed (its typical time
# on a 2-core x86-64 host); scaled times are seconds at that speed.
REFERENCE_S = 0.05


def import_program() -> None:
    """Put the checkout's sources first on the path; refuse any other copy."""
    package = SRC / "pntal"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import pntal

    if Path(pntal.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported pntal from {pntal.__file__}, not {package}")


def unit_count(seconds: int) -> int:
    """Odd number of timed units, at least three, filling about ``seconds``."""
    n = max(3, int(seconds / UNIT_BUDGET_S))
    return n if n % 2 else n + 1


def unit_seeds(seed: int, count: int):
    """Warm-up seed and the timed units' seeds; fixed for a given --seed."""
    base = 1000 * seed
    return base, [base + 1 + i for i in range(count)]


def _reference_inputs():
    rng = np.random.default_rng(0)
    small = [rng.standard_normal(shape) for shape in ((256, 16), (16, 64), (64, 11))]
    large = [rng.standard_normal(shape) for shape in ((2500, 16), (16, 64), (64, 11))]
    truth = [(f"v{i % 40}", 10 * (i // 40), 10 * (i // 40) + 6) for i in range(200)]
    detections = [
        (f"v{i % 40}", int(s), int(s) + int(w), float(score))
        for i, (s, w, score) in enumerate(zip(
            rng.integers(0, 50, 1500), rng.integers(0, 12, 1500), rng.random(1500)
        ))
    ]
    return small, large, truth, detections


def reference_seconds(reps: int = 3) -> float:
    """Median time of a fixed loop shaped like the program's work but sharing
    no code with it: many small matrix products (batch steps), fewer
    pool-sized ones with a softmax (annotation passes), and the brute-force
    AP oracle on fixed detections (plain-Python sorting and matching)."""
    (x, w1, w2), (big_x, big_w1, big_w2), truth, detections = _reference_inputs()
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        total = 0.0
        for _ in range(400):
            total += float((np.maximum(x @ w1, 0.0) @ w2).sum())
        for _ in range(15):
            p = np.exp(np.maximum(big_x @ big_w1, 0.0) @ big_w2)
            total += float((p / p.sum(axis=1, keepdims=True)).sum())
        for thr in (0.3, 0.5, 0.7):
            total += oracles.average_precision(detections, truth, thr)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


@dataclass
class Unit:
    uid: int
    seconds: float  # raw wall time
    scale: float  # REFERENCE_S over the reference time around the unit
    output: object


class Run:
    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.next_unit = 0
        self.references = []

    def unit(self, seed: int, first: bool = False, timed: bool = True):
        """Run, time and check one unit; returns a Unit, or None if it raised."""
        self.attempted += 1
        uid = self.next_unit if timed else None
        self.next_unit += timed
        gc.collect()
        self.references.append(reference_seconds())
        self.tracer.unit = uid
        started = time.perf_counter()
        try:
            output = self.workload.unit(seed)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        finally:
            self.tracer.unit = None
        seconds = time.perf_counter() - started
        self.references.append(reference_seconds())
        scale = REFERENCE_S / statistics.fmean(self.references[-2:])
        self.problems += self.workload.check(seed, output, first)
        output.payload = None  # free the unit's data before the next unit
        return Unit(uid, seconds, scale, output)


def end_to_end(tracer, timed, setup_s):
    """Scaled medians over the timed units; ``setup_s`` is already scaled."""
    def span_seconds(unit, name):
        return unit.scale * math.fsum(s.seconds for s in tracer.unit_spans(unit.uid, name))

    def videos_per_s(unit):
        spans = tracer.unit_spans(unit.uid, "localize.detect_videos")
        return sum(s.counts["videos"] for s in spans) / span_seconds(unit, "localize.detect_videos")

    return {
        "setup_s": (setup_s, "s"),
        "unit_s": (statistics.median(u.scale * u.seconds for u in timed), "s"),
        "map_eval_s": (statistics.median(span_seconds(u, "localize.mean_average_precision") for u in timed), "s"),
        "detect_videos_per_s": (statistics.median(videos_per_s(u) for u in timed), "1/s"),
        "test_map": (statistics.fmean(u.output.test_map for u in timed), "mAP"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, timed, plain, setup_units):
    """Per-unit layer figures (raw seconds) from the traced units, plus the
    tracing overhead: traced against untraced median unit time, scaled."""
    units = [u.uid for u in timed]
    n = len(units)
    totals = tracer.layer_totals(units)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    traced_unit_s = statistics.median(u.scale * u.seconds for u in timed)
    plain_unit_s = statistics.median(u.scale * u.seconds for u in plain)
    load_s = get("datagen.load_feature_file", "s")
    soft_in, soft_kept = get("localize.soft_nms", "in"), get("localize.soft_nms", "kept")
    loop_rows = tracer.child_count(units, "selftrain.self_train_loop", "model.forward_batch", "rows")
    setup_gen = tracer.layer_totals(setup_units).get("datagen.generate_benchmark", {}).get("s", 0.0)
    metrics = {
        "datagen.generate_benchmark.s": (get("datagen.generate_benchmark", "s") / n, "s"),
        "datagen.generate_benchmark.setup_s": (setup_gen, "s"),
        "datagen.load_feature_file.s": (load_s / n, "s"),
        "datagen.load_feature_file.mb_per_s": (ratio(get("datagen.load_feature_file", "bytes") / 1e6, load_s), "MB/s"),
        "model.forward_batch.calls": (get("model.forward_batch", "calls") / n, "count"),
        "model.forward_batch.rows": (get("model.forward_batch", "rows") / n, "count"),
        "model.forward_batch.self_s": (get("model.forward_batch", "self_s") / n, "s"),
        "model.backward_batch.self_s": (get("model.backward_batch", "self_s") / n, "s"),
        "model.step.calls": (get("model.step", "calls") / n, "count"),
        "model.step.self_s": (get("model.step", "self_s") / n, "s"),
        "losses.batch_terms.calls": (get("losses.batch_terms", "calls") / n, "count"),
        "losses.batch_terms.self_s": (get("losses.batch_terms", "self_s") / n, "s"),
        "partition.partition_rows.rows": (get("partition.partition_rows", "rows") / n, "count"),
        "partition.partition_rows.self_s": (get("partition.partition_rows", "self_s") / n, "s"),
        "selftrain.assign_annotation.rows": (get("selftrain.assign_annotation", "rows") / n, "count"),
        "selftrain.assign_annotation.self_s": (get("selftrain.assign_annotation", "self_s") / n, "s"),
        "selftrain.pretrain.self_s": (get("selftrain.pretrain", "self_s") / n, "s"),
        "selftrain.self_train_loop.self_s": (get("selftrain.self_train_loop", "self_s") / n, "s"),
        "selftrain.self_train_loop.rows_per_s": (ratio(loop_rows, get("selftrain.self_train_loop", "s")), "1/s"),
        "selftrain.snippet_accuracy.self_s": (get("selftrain.snippet_accuracy", "self_s") / n, "s"),
        "localize.detect_videos.self_s": (get("localize.detect_videos", "self_s") / n, "s"),
        "localize.generate_candidates.candidates": (get("localize.generate_candidates", "candidates") / n, "count"),
        "localize.generate_candidates.self_s": (get("localize.generate_candidates", "self_s") / n, "s"),
        "localize.soft_nms.in": (soft_in / n, "count"),
        "localize.soft_nms.kept": (soft_kept / n, "count"),
        "localize.soft_nms.kept_ratio": (ratio(soft_kept, soft_in), "ratio"),
        "localize.soft_nms.self_s": (get("localize.soft_nms", "self_s") / n, "s"),
        "localize.mean_average_precision.self_s": (get("localize.mean_average_precision", "self_s") / n, "s"),
        "cli.run_experiment.self_s": (get("cli.run_experiment", "self_s") / n, "s"),
        "cli.main.self_s": (get("cli.main", "self_s") / n, "s"),
        "trace.spans": (sum(row["calls"] for row in totals.values()) / n, "count"),
        "trace.unit_s": (traced_unit_s, "s"),
        "trace.overhead_s": (traced_unit_s - plain_unit_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_unit_s - plain_unit_s) / plain_unit_s, "%"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() at launch")
    args = parser.parse_args(argv)

    import_program()
    import workloads
    from tracing import Tracer

    failures = oracles.self_test()
    if failures:
        raise SystemExit("perfbench: oracle self-test failed: " + "; ".join(failures))
    if args.workload not in workloads.WORKLOADS or args.seed < 0 or args.seconds < 1:
        raise SystemExit(f"perfbench: bad arguments {vars(args)}")

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out)
    count = unit_count(args.seconds)
    warm_seed, seeds = unit_seeds(args.seed, count)

    if not args.trace:
        with Tracer(workloads.E2E_POINTS) as tracer:
            workload.setup()
            setup_s = time.monotonic() - args.started
            run = Run(workload, tracer)
            run.unit(warm_seed, timed=False)
            timed = [u for u in (run.unit(s, first=(i == 0)) for i, s in enumerate(seeds)) if u]
        if not timed:
            raise SystemExit("perfbench: every timed unit failed")
        metrics = end_to_end(tracer, timed, setup_s * REFERENCE_S / run.references[0])
        print(f"# raw set-up {setup_s:.4f} s; raw unit seconds "
              + " ".join(f"{u.seconds:.3f}" for u in timed))
        print("# reference seconds " + " ".join(f"{r:.4f}" for r in run.references))
    else:
        seeds = seeds[: count // 2 + 1]
        layers = Tracer(workloads.LAYER_POINTS)
        with layers:
            layers.unit = -1
            workload.setup()
            layers.unit = None
        with Tracer(workloads.E2E_POINTS) as tracer:
            run = Run(workload, tracer)
            run.unit(warm_seed, timed=False)
            plain = [u for u in (run.unit(s, first=(i == 0)) for i, s in enumerate(seeds)) if u]
        with layers:
            run.tracer = layers
            timed = [u for u in (run.unit(s) for s in seeds) if u]
        if not plain or not timed:
            raise SystemExit("perfbench: every timed unit failed")
        metrics = per_layer(layers, timed, plain, [-1])
        layers.write(str(out / "spans.jsonl"))

    width = max(len(name) for name in metrics)
    print(f"# {args.workload}: {len(timed)} timed units, seeds {seeds[0]}..{seeds[-1]}, warm-up seed {warm_seed}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<{width}}  {value:14.6f}  {unit}")
    for note in workload.notes:
        print(f"# note: {note}")
    for problem in run.problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
