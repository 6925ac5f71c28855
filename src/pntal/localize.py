"""Candidate generation, Soft-NMS, and mAP evaluation over tIoU grids.

Detections are inclusive snippet spans with a 1-based action class (never
background). Candidate generation sweeps a grid of classification/mask
threshold pairs: each qualifying seed snippet expands to the maximal
contiguous run of mask-positive snippets containing it, scored by the seed's
class probability times the run's mean mask score. Soft-NMS then decays
overlapping detections per class with a Gaussian kernel.

Three facts keep this path fast and its output byte-identical:

- A candidate's span, class and score do not depend on the classification
  threshold, so only min(classification_thresholds) affects candidates: it
  decides which snippets seed them, and the rest of that grid is inert.
- Run means are summed in numpy's own reduction order, the one
  masks[s:e+1].mean() uses; other summation orders round differently and
  would change written scores in the last digit.
- The Soft-NMS decay uses math.exp, not np.exp. The two differ in the last
  bit on a few percent of inputs, and scores are written in full precision.

Matching for average precision is greedy in descending score order: a
detection matches the not-yet-matched ground-truth instance of the same video
and class with the highest tIoU (the first such instance on ties), provided
that tIoU reaches the threshold. Ground truth is indexed by (class, video),
and each detection's tIoUs are computed once for the whole grid. AP is the
exact area under the precision-recall curve (all-points interpolation); mAP
averages over classes that have at least one ground-truth instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import model
from .core import ActionInstance, Error, ExperimentConfig, VideoRecord


class MalformedDetectionError(Error, ValueError):
    pass


@dataclass(frozen=True)
class Detection:
    video_id: str
    start: int
    end: int
    class_idx: int
    score: float

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ValueError(f"detection span {self.start}..{self.end} needs 0 <= start <= end")
        if self.class_idx < 1:
            raise ValueError("class_idx must be a 1-based action class")


def temporal_iou(a, b) -> float:
    """Intersection over union of two inclusive snippet spans."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = (a.end - a.start + 1) + (b.end - b.start + 1) - inter
    return inter / union


def _run_means(masks: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """masks[s:e+1].mean() for each run, bit for bit.

    Runs of one length are gathered into rows and summed along the row, which
    is the pairwise order numpy uses for a contiguous slice; np.add.reduceat
    and cumulative sums round differently.
    """
    length = end - start + 1
    means = np.empty(len(start))
    for n in set(length.tolist()):
        rows = np.flatnonzero(length == n)
        means[rows] = np.add.reduce(masks[start[rows, None] + np.arange(n)], axis=1) / n
    return means


def generate_candidates(
    video_id: str,
    class_probs: np.ndarray,
    mask_scores: np.ndarray,
    classification_thresholds: Sequence[float],
    mask_thresholds: Sequence[float],
) -> List[Detection]:
    """Threshold-grid candidate generation for one video.

    class_probs is (N, C+1) with background in the last column. Output is
    de-duplicated on (start, end, class) keeping the best score, and sorted by
    a deterministic key, so it does not depend on threshold ordering.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    masks = np.asarray(mask_scores, dtype=np.float64)
    lowest = min((float(t) for t in classification_thresholds), default=None)
    if lowest is None:
        return []
    action = probs[:, :-1]
    best = action.max(axis=1)
    best_class = action.argmax(axis=1) + 1
    seeds = best >= lowest
    # One row per mask threshold; runs are found on all rows at once.
    n = len(masks)
    width = n + 1
    fg = masks >= np.array(sorted(set(float(t) for t in mask_thresholds)))[:, None]
    padded = np.zeros((len(fg), n + 2), dtype=np.int8)
    padded[:, 1:-1] = fg
    edges = np.diff(padded, axis=1).ravel()  # row t, snippet p at t * width + p
    run_start = np.flatnonzero(edges == 1)
    run_end = np.flatnonzero(edges == -1) - 1
    rows, picked = np.nonzero(fg & seeds)
    run = np.searchsorted(run_start, rows * width + picked, side="right") - 1
    start, end = run_start[run] % width, run_end[run] % width
    _, first, run_of = np.unique(start * n + end, return_index=True, return_inverse=True)
    score = best[picked] * _run_means(masks, start[first], end[first])[run_of]
    cls = best_class[picked]
    # Sort by (start, end, class, score) and keep the last, best-scored row per key.
    order = np.lexsort((score, cls, end, start))
    start, end, cls, score = start[order], end[order], cls[order], score[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (start[1:] != start[:-1]) | (end[1:] != end[:-1]) | (cls[1:] != cls[:-1])
    return [
        Detection(video_id, s, e, c, v)
        for s, e, c, v in zip(
            start[last].tolist(), end[last].tolist(), cls[last].tolist(), score[last].tolist()
        )
    ]


def soft_nms(detections: Sequence[Detection], sigma: float, score_floor: float) -> List[Detection]:
    """Gaussian-decay Soft-NMS over one video's detections of one class.

    Repeatedly keeps the highest-scoring remaining detection (score ties break
    by (start, end, class), then input order) and decays every other
    remaining score by exp(-tIoU^2 / sigma); a detection that does not
    overlap the kept one keeps its score exactly. Detections whose score ends
    up below the floor are dropped. Scores never increase.
    """
    dets = sorted(detections, key=lambda d: (d.start, d.end, d.class_idx))
    starts = [d.start for d in dets]
    ends = [d.end for d in dets]
    scores = [d.score for d in dets]
    remaining = list(range(len(dets)))  # ascending, so max() breaks ties by sort order
    kept: List[Detection] = []
    while remaining:
        pick = max(remaining, key=scores.__getitem__)
        score = scores[pick]
        if score < score_floor:
            break
        remaining.remove(pick)
        det = dets[pick]
        if score != det.score:
            det = Detection(det.video_id, det.start, det.end, det.class_idx, score)
        kept.append(det)
        s, e = det.start, det.end
        for i in remaining:
            a, b = starts[i], ends[i]
            inter = (b if b < e else e) - (a if a > s else s) + 1
            if inter > 0:  # else the factor is exactly 1.0
                iou = inter / ((e - s + 1) + (b - a + 1) - inter)
                scores[i] *= math.exp(-(iou * iou) / sigma)
    return kept


def ground_truth_map(videos: Sequence[VideoRecord]) -> Dict[str, tuple]:
    return {v.video_id: v.instances for v in videos}


@dataclass(frozen=True)
class EvalResult:
    per_threshold: tuple  # ((tiou, mAP), ...) in grid order
    average_map: float
    per_class: tuple  # ((tiou, class_idx, AP), ...)
    skipped_classes: tuple  # detection classes with no ground truth

    def map_at(self, tiou: float) -> float:
        for thr, value in self.per_threshold:
            if thr == tiou:
                return value
        raise KeyError(tiou)


def _average_precision(tp: np.ndarray, npos: int) -> float:
    """All-points interpolated area under the precision-recall curve of ranked hits."""
    if not tp.any():
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(tp) + 1)
    recall = cum_tp / npos
    mprec = np.concatenate([[0.0], precision, [0.0]])
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mprec = np.maximum.accumulate(mprec[::-1])[::-1]  # best precision at or beyond each recall
    idx = np.nonzero(mrec[1:] != mrec[:-1])[0] + 1
    return float(np.sum((mrec[idx] - mrec[idx - 1]) * mprec[idx]))


def _class_aps(
    dets: List[Detection],
    gts_by_video: Mapping[str, List[Tuple[int, ActionInstance]]],
    npos: int,
    tiou_grid: Sequence[float],
) -> List[float]:
    """One class's AP at each threshold; dets are in ranking order.

    Each detection's IoUs are computed once, against only its own video's
    instances (numbered 0..npos-1), and reused at every threshold.
    """
    overlaps = []  # (rank, best IoU, [(instance, IoU), ...]) for detections that overlap any
    for rank, det in enumerate(dets):
        pairs = [(j, temporal_iou(det, inst)) for j, inst in gts_by_video.get(det.video_id, ())]
        pairs = [(j, iou) for j, iou in pairs if iou > 0.0]
        if pairs:
            overlaps.append((rank, max(iou for _, iou in pairs), pairs))
    aps = []
    for thr in tiou_grid:
        matched = [False] * npos
        tp = np.zeros(len(dets))
        for rank, top, pairs in overlaps:
            if top < thr:
                continue
            best_iou, best_j = 0.0, -1
            for j, iou in pairs:
                if iou > best_iou and not matched[j]:
                    best_iou, best_j = iou, j
            if best_j >= 0 and best_iou >= thr:
                matched[best_j] = True
                tp[rank] = 1.0
        aps.append(_average_precision(tp, npos))
    return aps


def mean_average_precision(
    detections: Sequence[Detection],
    ground_truth: Mapping[str, Sequence[ActionInstance]],
    tiou_grid: Sequence[float],
) -> EvalResult:
    """mAP per tIoU threshold plus the grid average.

    Result is invariant to detection input order and to strictly monotone
    rescaling of scores. Classes that appear only in detections are reported
    as skipped; classes with ground truth but no detections score zero.
    """
    gt_by_class: Dict[int, Dict[str, List[Tuple[int, ActionInstance]]]] = {}
    npos: Dict[int, int] = {}
    for vid, instances in ground_truth.items():
        for inst in instances:
            j = npos.get(inst.class_idx, 0)
            gt_by_class.setdefault(inst.class_idx, {}).setdefault(vid, []).append((j, inst))
            npos[inst.class_idx] = j + 1
    det_by_class: Dict[int, List[Detection]] = {}
    for det in detections:
        det_by_class.setdefault(det.class_idx, []).append(det)
    for dets in det_by_class.values():
        dets.sort(key=lambda d: (-d.score, d.video_id, d.start, d.end))

    classes = sorted(gt_by_class)
    skipped = tuple(sorted(set(det_by_class) - set(classes)))
    grid = [float(thr) for thr in tiou_grid]
    aps = [_class_aps(det_by_class.get(cls, []), gt_by_class[cls], npos[cls], grid) for cls in classes]
    per_threshold = []
    per_class = []
    for k, thr in enumerate(grid):
        row = [class_aps[k] for class_aps in aps]
        per_class.extend((thr, cls, ap) for cls, ap in zip(classes, row))
        per_threshold.append((thr, float(np.mean(row)) if row else 0.0))
    average = float(np.mean([m for _, m in per_threshold])) if per_threshold else 0.0
    return EvalResult(
        per_threshold=tuple(per_threshold),
        average_map=average,
        per_class=tuple(per_class),
        skipped_classes=skipped,
    )


def detect_videos(
    params: model.ModelParams, videos: Sequence[VideoRecord], config: ExperimentConfig
) -> List[Detection]:
    """Model inference + candidate generation + per-class Soft-NMS."""
    from .selftrain import video_feature_matrix

    detections: List[Detection] = []
    for video in videos:
        probs, scores, _ = model.forward_batch(
            params, video_feature_matrix(video, config.feature_window)
        )
        candidates = generate_candidates(
            video.video_id,
            probs,
            scores,
            config.classification_thresholds,
            config.mask_thresholds,
        )
        by_class: Dict[int, List[Detection]] = {}
        for cand in candidates:
            by_class.setdefault(cand.class_idx, []).append(cand)
        for cls in sorted(by_class):
            detections.extend(soft_nms(by_class[cls], config.soft_nms_sigma, config.soft_nms_floor))
    detections.sort(key=lambda d: (d.video_id, d.class_idx, d.start, d.end, -d.score))
    return detections


def write_detections(path, detections: Sequence[Detection]) -> None:
    """One detection per line: video id, start, end, class, score."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in detections:
            fh.write(f"{d.video_id}\t{d.start}\t{d.end}\t{d.class_idx}\t{d.score!r}\n")


def load_detections(path) -> List[Detection]:
    """Read a write_detections dump; a line that is not a valid detection with
    a finite score raises MalformedDetectionError naming path:line."""
    out = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                parts = raw.decode("utf-8").strip().split("\t")
                if parts == [""]:
                    continue
                if len(parts) != 5:
                    raise ValueError(f"expected 5 fields, got {len(parts)}")
                score = float(parts[4])
                if not math.isfinite(score):
                    raise ValueError(f"score {parts[4]!r} is not finite")
                out.append(Detection(parts[0], int(parts[1]), int(parts[2]), int(parts[3]), score))
            except ValueError as exc:
                raise MalformedDetectionError(f"{path}:{line_no}: {exc}") from None
    return out
