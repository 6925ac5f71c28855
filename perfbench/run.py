"""Benchmark entry point: run workloads, each in its own process.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh worker process with BLAS pinned to one thread,
so the load comes from that process alone. The worker prints its figures
and, as its last line, one JSON object; this script passes the output on and
exits with the worker's code. With --workload all it runs every workload in
turn and ends with one JSON object whose metrics are named
<workload>.<metric>. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("experiment", "sweep", "localize")
WORKER_TIMEOUT_S = 170

# One BLAS thread: the model's matrices are tiny (16 x 64, 64 x 11), so extra
# threads add CPU time and contention, not speed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    """Run one worker process; returns (exit code, its stdout lines)."""
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--started", repr(started)],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, lines = run_workload(name, args.seed, args.seconds, args.trace)
        if code != 0 or not lines:
            for line in lines:
                print(line)
            print(f"perfbench: workload {name} failed with exit code {code}", file=sys.stderr)
            return code or 1
        for line in lines[:-1]:
            print(line)
        results[name] = json.loads(lines[-1])

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
