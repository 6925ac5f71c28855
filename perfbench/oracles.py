"""Brute-force oracles the benchmark checks the program's outputs against.

Nothing here imports pntal: each function restates a rule from its
definition, with plain Python loops, so a fast path in the program that
drifts from the rule shows up as a mismatch.

    python3 perfbench/oracles.py      # self-test on hand-computed cases
"""

from __future__ import annotations

import math
import sys


def tiou(a_start: int, a_end: int, b_start: int, b_end: int) -> float:
    """Intersection over union of two inclusive snippet spans."""
    inter = min(a_end, b_end) - max(a_start, b_start) + 1
    if inter <= 0:
        return 0.0
    return inter / ((a_end - a_start + 1) + (b_end - b_start + 1) - inter)


def average_precision(detections, ground_truth, threshold: float) -> float:
    """AP of one class by direct enumeration of the precision-recall points.

    detections: (video_id, start, end, score) tuples; ground_truth:
    (video_id, start, end) tuples. Detections are visited by descending score
    (ties by video, start, end); each one takes the unmatched instance of its
    video with the highest tIoU, and counts as a hit when that tIoU reaches the
    threshold. AP sums, over every rank where recall grows, the recall step
    times the best precision at that rank or any later one.
    """
    if not ground_truth:
        return float("nan")
    by_video = {}
    for vid, start, end in ground_truth:
        by_video.setdefault(vid, []).append([start, end, False])
    hits = []
    for vid, start, end, _ in sorted(detections, key=lambda d: (-d[3], d[0], d[1], d[2])):
        best_iou, best = 0.0, None
        for inst in by_video.get(vid, ()):
            if not inst[2]:
                iou = tiou(start, end, inst[0], inst[1])
                if iou > best_iou:
                    best_iou, best = iou, inst
        hit = best is not None and best_iou >= threshold
        if hit:
            best[2] = True
        hits.append(hit)

    recall, precision = [], []
    tp = 0
    for rank, hit in enumerate(hits, 1):
        tp += hit
        recall.append(tp / len(ground_truth))
        precision.append(tp / rank)
    best_later = precision[:]
    for k in range(len(best_later) - 2, -1, -1):
        best_later[k] = max(best_later[k], best_later[k + 1])
    ap, previous = 0.0, 0.0
    for k, r in enumerate(recall):
        if r > previous:
            ap += (r - previous) * best_later[k]
            previous = r
    return ap


def mean_average_precision(detections, ground_truth, tiou_grid) -> float:
    """Grid-average mAP over the classes that have ground truth.

    detections: (video_id, start, end, class, score); ground_truth:
    (video_id, start, end, class).
    """
    gt_by_class, det_by_class = {}, {}
    for vid, start, end, cls in ground_truth:
        gt_by_class.setdefault(cls, []).append((vid, start, end))
    for vid, start, end, cls, score in detections:
        det_by_class.setdefault(cls, []).append((vid, start, end, score))
    per_threshold = []
    for thr in tiou_grid:
        aps = [
            average_precision(det_by_class.get(cls, []), gts, thr)
            for cls, gts in sorted(gt_by_class.items())
        ]
        per_threshold.append(math.fsum(aps) / len(aps) if aps else 0.0)
    return math.fsum(per_threshold) / len(per_threshold)


def partition(probs, ratio: float):
    """Label-space partition of one distribution: (target, negatives, positives).

    Classes are 1-based. The target is the first maximum. Negatives are the
    longest prefix of the other classes, in ascending probability (ties by
    class index), whose cumulative mass stays <= max p. Positives are the
    remaining other classes with probability >= ratio * max p.
    """
    p = [float(x) for x in probs]
    maxp = max(p)
    target = p.index(maxp)
    others = sorted((c for c in range(len(p)) if c != target), key=lambda c: (p[c], c))
    negatives, mass = set(), 0.0
    for c in others:
        mass += p[c]
        if mass > maxp:
            break
        negatives.add(c + 1)
    positives = {
        c + 1 for c in others if c + 1 not in negatives and p[c] >= ratio * maxp
    }
    return target + 1, frozenset(negatives), frozenset(positives)


def sharpen(probs, temperature: float):
    """p ** (1 / T), renormalized."""
    powered = [float(x) ** (1.0 / temperature) for x in probs]
    total = math.fsum(powered)
    return [x / total for x in powered]


def self_test() -> list:
    """Check the oracles on cases worked out by hand; returns failure messages."""
    failures = []

    def expect(name, got, want):
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            failures.append(f"{name}: got {got!r}, want {want!r}")

    expect("tiou disjoint", tiou(0, 4, 5, 9), 0.0)
    expect("tiou half", tiou(0, 9, 5, 14), 5 / 15)
    # Two instances; ranks hit, miss, hit: recall 1/2, 1/2, 1 and precision
    # 1, 1/2, 2/3, so AP = 1/2 * 1 + 1/2 * 2/3.
    gts = [("v", 0, 9), ("v", 20, 29)]
    dets = [("v", 0, 9, 0.9), ("v", 40, 49, 0.8), ("v", 20, 29, 0.7)]
    expect("ap hand case", average_precision(dets, gts, 0.5), 0.5 + 0.5 * 2 / 3)
    # A duplicate of a matched detection is a false positive.
    expect("ap duplicate", average_precision([("v", 0, 9, 0.9), ("v", 0, 9, 0.8)], gts[:1], 0.5), 1.0)
    expect("ap wrong video", average_precision([("w", 0, 9, 0.9)], gts, 0.5), 0.0)
    expect("ap below threshold", average_precision([("v", 0, 4, 0.9)], gts[:1], 0.6), 0.0)
    truth = [("a", 0, 9, 1), ("a", 15, 30, 2), ("b", 3, 8, 1)]
    perfect = [(vid, s, e, c, 1.0) for vid, s, e, c in truth]
    perfect_map = mean_average_precision(perfect, truth, (0.3, 0.5, 0.7))
    if perfect_map != 1.0:
        failures.append(f"perfect detector: got {perfect_map!r}, want exactly 1.0")
    expect("no detections", mean_average_precision([], truth, (0.5,)), 0.0)

    cases = [
        # probs, ratio, (target, negatives, positives)
        ((0.05, 0.1, 0.15, 0.3, 0.4), 0.7, (5, {1, 2, 3}, {4})),
        ((0.1, 0.2, 0.25, 0.45), 0.85, (4, {1, 2}, set())),
        ((0.3, 0.3, 0.2, 0.2), 0.9, (1, {3}, {2})),  # 0.2 + 0.2 > 0.3
        ((0.0, 1.0, 0.0), 0.5, (2, {1, 3}, set())),
        ((0.25, 0.25, 0.25, 0.25), 1.0, (1, {2}, {3, 4})),
    ]
    for probs, ratio, (target, negs, poss) in cases:
        got = partition(probs, ratio)
        if got != (target, frozenset(negs), frozenset(poss)):
            failures.append(f"partition {probs} ratio {ratio}: got {got}")
    for got, want in zip(sharpen([0.2, 0.8], 0.5), [0.04 / 0.68, 0.64 / 0.68]):
        expect("sharpen", got, want)
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("oracle self-test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)
