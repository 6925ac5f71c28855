"""The benchmark's view of the program: what perfbench/ wraps and reads still
exists, every workload runs one unit through the program and passes its own
checks (the sweep's include the contract check on the complementary draw), and
a traced localize unit counts what the per-layer table reports.

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
import tracing
import workloads
from pntal import localize, model, selftrain
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
assert selftrain.video_feature_matrix(video, 0) is video.features
try:
    selftrain.video_feature_matrix(video, 1)
    raise AssertionError("a feature window of 1 was accepted")
except ValueError:
    pass

# Each workload's set-up, one unit and its first-unit checks, as a run does them.
ready = {{}}
for name, workload_cls in workloads.WORKLOADS.items():
    workload = workload_cls(1, Path({out!r}) / name)
    workload.setup()
    output = workload.unit(1)
    problems = workload.check(1, output, True)
    assert not problems, (name, problems)
    ready[name] = workload

# A traced localize unit: Soft-NMS takes every candidate in one call, as many
# as the one-video generate_candidates gives over the unit's videos, and keeps
# exactly the detections returned.
with tracing.Tracer(workloads.LAYER_POINTS) as tracer:
    tracer.unit = 2
    videos, detections, _ = ready["localize"].unit(2).payload
    tracer.unit = None
totals = tracer.layer_totals([2])
nms = totals["localize.soft_nms"]
params, config = ready["localize"].params, ready["localize"].config
assert config.feature_window == 0 and config.model_input_dim == config.feature_dim
candidates = 0
for video in videos:
    probs, scores, _ = model.forward_batch(params, video.features)
    candidates += len(localize.generate_candidates(
        video.video_id, probs, scores, config.classification_thresholds, config.mask_thresholds
    ))
assert nms["calls"] == totals["localize.detect_videos"]["calls"] == 1, nms
assert nms["in"] == candidates, (nms["in"], candidates)
assert nms["kept"] == len(detections), (nms["kept"], len(detections))
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
