"""The benchmark's view of the program: what perfbench/ wraps and reads still
exists, and the sweep workload's contract check on the complementary draw passes.

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

# The sweep workload's contract check on the complementary draw.
sweep = workloads.Sweep(1, Path({out!r}))
sweep.setup()
problems = sweep._check_complementary(1)
assert not problems, problems
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
