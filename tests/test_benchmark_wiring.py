"""The benchmark's view of the program: what perfbench/ wraps and reads still
exists, and every workload runs one unit through the program and passes its
own checks (the sweep's include the contract check on the complementary draw).

Tier-1 otherwise never imports perfbench/, so renaming or deleting a program
name that the benchmark uses would break only the benchmark. The check runs
in its own interpreter because perfbench/oracles.py and tests/oracles.py
share a module name.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
from pathlib import Path

import numpy as np

import oracles
import pntal
import workloads
from pntal.core import ActionInstance, VideoRecord

root = Path({root!r})
assert Path(oracles.__file__).parent == root / "perfbench", oracles.__file__
assert Path(pntal.__file__).parent == root / "src" / "pntal", pntal.__file__

failures = oracles.self_test()
assert not failures, failures

for point in workloads.LAYER_POINTS:
    assert hasattr(point.module, point.attr), f"{{point.module.__name__}}.{{point.attr}} is gone"

features = np.arange(12.0).reshape(4, 3)
video = VideoRecord("v", features, (ActionInstance(0, 1, 2),), labeled=True)
assert workloads._video_fingerprint(video) == ("v", features.tobytes(), [(0, 1, 2)])

# Each workload's set-up, one unit and its first-unit checks, as a run does them.
for name, workload_cls in workloads.WORKLOADS.items():
    workload = workload_cls(1, Path({out!r}) / name)
    workload.setup()
    output = workload.unit(1)
    problems = workload.check(1, output, True)
    assert not problems, (name, problems)
print("ok")
"""


def test_benchmark_wiring(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(root=str(ROOT), out=str(tmp_path))],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
