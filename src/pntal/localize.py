"""Candidate generation, Soft-NMS, and mAP evaluation over tIoU grids.

Detections are inclusive snippet spans with a 1-based action class (never
background). They travel as one DetectionTable, one array per column (video,
start, end, class, score), from candidate generation through Soft-NMS, the
final ordering, mAP and the written dump; only iterating a table builds
Detection rows. Candidate generation sweeps a grid of classification/mask
threshold pairs: each qualifying seed snippet expands to the maximal
contiguous run of mask-positive snippets containing it, scored by the seed's
class probability times the run's mean mask score. Soft-NMS then decays
overlapping detections within each (video, class) group with a Gaussian
kernel; one call runs every group at once, in lockstep rounds.

Three facts keep this path fast and its output byte-identical:

- A candidate's span, class and score do not depend on the classification
  threshold, so only min(classification_thresholds) affects candidates: it
  decides which snippets seed them, and the rest of that grid is inert.
- Run means are summed in numpy's own reduction order, the one
  masks[s:e+1].mean() uses; other summation orders round differently and
  would change written scores in the last digit.
- The Soft-NMS decay is exp(-(iou*iou)/sigma), its exponent computed with the
  same IEEE operations as a per-pair loop and its exp taken by math.exp, once
  per distinct exponent in a round (np.unique), then gathered. np.exp differs
  from math.exp in the last bit on a few percent of inputs, and scores are
  written in full precision. Each round keeps every group's best remaining
  row, so each row is multiplied by the same factors, in the same order, as
  in a group-by-group loop.

Matching for average precision is greedy in descending score order: a
detection matches the not-yet-matched ground-truth instance of the same video
and class with the highest tIoU (the first such instance on ties), provided
that tIoU reaches the threshold. One lexsort ranks the detections, each
detection's tIoUs against its own video's instances of its class are computed
once as arrays, and the matching runs in lockstep over (class, video) groups
for the whole grid. AP is the exact area under the precision-recall curve
(all-points interpolation); mAP averages over classes that have at least one
ground-truth instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Union

import numpy as np

from . import model
from .core import ActionInstance, Error, ExperimentConfig, VideoRecord


class MalformedDetectionError(Error, ValueError):
    pass


class DuplicateVideoError(Error, ValueError):
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


_COLUMNS = ("video", "start", "end", "class_idx", "score")


class DetectionTable:
    """Detections as columns: row i is video_ids[video[i]], start[i], end[i],
    class_idx[i], score[i].

    Soft-NMS groups rows by their video code, so two videos that share an id
    stay apart there; ordering and scoring go by the id itself.
    """

    __slots__ = ("video_ids",) + _COLUMNS

    def __init__(self, video_ids, video, start, end, class_idx, score):
        self.video_ids = tuple(video_ids)
        self.video = np.asarray(video, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.class_idx = np.asarray(class_idx, dtype=np.int64)
        self.score = np.asarray(score, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self):
        names = self.video_ids
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        for v, s, e, c, x in zip(*columns):
            yield Detection(names[v], s, e, c, x)

    def take(self, rows: np.ndarray) -> DetectionTable:
        """The given rows, in the given order."""
        return DetectionTable(self.video_ids, *(getattr(self, name)[rows] for name in _COLUMNS))


def detection_table(detections: Union[DetectionTable, Sequence[Detection]]) -> DetectionTable:
    """A table as it is; Detection rows as a table in their order, each video
    id coded by its first appearance."""
    if isinstance(detections, DetectionTable):
        return detections
    rows = list(detections)
    code: Dict[str, int] = {}
    video = [code.setdefault(d.video_id, len(code)) for d in rows]
    return DetectionTable(
        list(code), video, [d.start for d in rows], [d.end for d in rows],
        [d.class_idx for d in rows], [d.score for d in rows],
    )


def _concat(parts: Sequence[DetectionTable]) -> DetectionTable:
    """The parts' rows in order, over all their video ids."""
    if not parts:
        return DetectionTable((), [], [], [], [], [])
    shift = np.cumsum([0] + [len(p.video_ids) for p in parts])
    columns = [np.concatenate([p.video + k for p, k in zip(parts, shift)])]
    columns += [np.concatenate([getattr(p, name) for p in parts]) for name in _COLUMNS[1:]]
    return DetectionTable([name for p in parts for name in p.video_ids], *columns)


def _id_codes(ids: Sequence[str], names: Sequence[str]) -> np.ndarray:
    """Each id's position in names, which are sorted, so codes order as ids do."""
    position = {name: i for i, name in enumerate(names)}
    return np.array([position[i] for i in ids], dtype=np.int64)


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
) -> DetectionTable:
    """Threshold-grid candidate generation for one video.

    class_probs is (N, C+1) with background in the last column. Output is
    de-duplicated on (start, end, class) keeping the best score, and sorted by
    that key, so it does not depend on threshold ordering.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    masks = np.asarray(mask_scores, dtype=np.float64)
    lowest = min((float(t) for t in classification_thresholds), default=None)
    if lowest is None:
        return DetectionTable((video_id,), [], [], [], [], [])
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
    return DetectionTable(
        (video_id,), np.zeros(int(last.sum()), dtype=np.int64),
        start[last], end[last], cls[last], score[last],
    )


def _tiou(s, e, gs, ge):
    """Elementwise tIoU of the inclusive snippet spans [s, e] and [gs, ge];
    0.0 where they do not overlap."""
    inter = np.minimum(e, ge) - np.maximum(s, gs) + 1
    return np.where(inter > 0, inter / ((e - s + 1) + (ge - gs + 1) - inter), 0.0)


def soft_nms(table: DetectionTable, sigma: float, score_floor: float) -> DetectionTable:
    """Gaussian-decay Soft-NMS within every (video, class) group, all groups at once.

    Each round, every live group keeps its highest remaining score (ties go
    to the first row in (start, end) order, then input order), or stops if
    that score is below the floor; the group's other remaining scores are
    multiplied by exp(-tIoU^2 / sigma). A row that does not overlap the kept
    one keeps its score exactly, and scores never increase. The output lists
    the groups in (video, class) order, each group's kept rows in the order
    they were kept.
    """
    if not len(table):
        return table
    order = np.lexsort((table.end, table.start, table.class_idx, table.video))
    video, cls = table.video[order], table.class_idx[order]
    start, end, score = table.start[order], table.end[order], table.score[order]
    group = np.cumsum(np.r_[True, (video[1:] != video[:-1]) | (cls[1:] != cls[:-1])])
    rows = np.arange(len(order))  # remaining rows of live groups, in sorted order
    kept = []
    while rows.size:
        g = group[rows]
        head = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        size = np.diff(np.r_[head, rows.size])
        top = np.maximum.reduceat(score[rows], head)
        ties = np.flatnonzero(score[rows] == np.repeat(top, size))
        pick = ties[np.r_[True, g[ties[1:]] != g[ties[:-1]]]]  # first top row per group
        live = top >= score_floor
        kept.append(rows[pick[live]])
        stay = np.repeat(live, size)
        stay[pick] = False
        ks, ke = np.repeat(start[rows[pick]], size)[stay], np.repeat(end[rows[pick]], size)[stay]
        rows = rows[stay]
        iou = _tiou(ks, ke, start[rows], end[rows])
        hit = iou > 0.0  # else the factor is exactly 1.0
        iou = iou[hit]
        exponent, where = np.unique(-(iou * iou) / sigma, return_inverse=True)
        score[rows[hit]] *= np.array([math.exp(x) for x in exponent.tolist()])[where]
    out = np.concatenate(kept)
    out = out[np.argsort(group[out], kind="stable")]
    return DetectionTable(table.video_ids, video[out], start[out], end[out], cls[out], score[out])


def ground_truth_map(videos: Sequence[VideoRecord]) -> Dict[str, tuple]:
    """video id -> instances; a repeated id raises DuplicateVideoError."""
    truth: Dict[str, tuple] = {}
    for video in videos:
        if video.video_id in truth:
            raise DuplicateVideoError(f"two videos have the id {video.video_id!r}")
        truth[video.video_id] = video.instances
    return truth


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


def _greedy_hits(det: np.ndarray, gt: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """hits[k, i] is 1.0 where ranked detection i matches an instance at grid[k].

    det and gt hold (group, start, end) rows, the group coding (class, video);
    det is in ranking order and gt keeps each group's instances in their order.
    """
    hits = np.zeros((len(grid), len(det)))
    if not len(gt):
        return hits
    order = np.argsort(gt[:, 0], kind="stable")
    keys, first, count = np.unique(gt[order, 0], return_index=True, return_counts=True)
    at = np.minimum(np.searchsorted(keys, det[:, 0]), len(keys) - 1)
    rows = np.flatnonzero(keys[at] == det[:, 0])
    if not rows.size:
        return hits
    # Each detection's tIoUs against its group's instances, zero in padding slots.
    at = at[rows]
    slot = np.arange(count[at].max())
    valid = slot < count[at, None]
    inst = order[first[at, None] + np.where(valid, slot, 0)]
    iou = np.where(valid, _tiou(det[rows, 1, None], det[rows, 2, None], gt[inst, 1], gt[inst, 2]), 0.0)
    touching = iou.max(axis=1) > 0.0
    rows, iou, inst = rows[touching], iou[touching], inst[touching]
    if not rows.size:
        return hits
    # Round r takes the r-th touching detection of every group, in ranking order.
    by_group = np.argsort(det[rows, 0], kind="stable")
    head = np.flatnonzero(np.r_[True, np.diff(det[rows[by_group], 0]) != 0])
    step = np.empty(len(rows), dtype=np.int64)
    step[by_group] = np.arange(len(rows)) - np.repeat(head, np.diff(np.r_[head, len(rows)]))
    by_step = np.argsort(step, kind="stable")
    bounds = np.searchsorted(step[by_step], np.arange(step.max() + 2))
    matched = np.zeros((len(grid), len(gt)), dtype=bool)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        now = by_step[lo:hi]
        free = np.where(matched[:, inst[now]], 0.0, iou[now])  # (threshold, row, slot)
        best = free.argmax(axis=2)  # the first instance on ties
        value = np.take_along_axis(free, best[:, :, None], axis=2)[:, :, 0]
        k, j = np.nonzero((value > 0.0) & (value >= grid[:, None]))
        matched[k, inst[now[j], best[k, j]]] = True
        hits[k, rows[now[j]]] = 1.0
    return hits


def mean_average_precision(
    detections: Union[DetectionTable, Sequence[Detection]],
    ground_truth: Mapping[str, Sequence[ActionInstance]],
    tiou_grid: Sequence[float],
) -> EvalResult:
    """mAP per tIoU threshold plus the grid average.

    Result is invariant to detection input order and to strictly monotone
    rescaling of scores. Classes that appear only in detections are reported
    as skipped; classes with ground truth but no detections score zero.
    """
    table = detection_table(detections)
    names = sorted(set(table.video_ids).union(ground_truth))
    video = _id_codes(table.video_ids, names)[table.video]
    truth = np.array(
        [
            (code, inst.class_idx, inst.start, inst.end)
            for code, instances in zip(_id_codes(ground_truth, names).tolist(), ground_truth.values())
            for inst in instances
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    # Rank by class, then descending score, video id, start, end.
    rank = np.lexsort((table.end, table.start, video, -table.score, table.class_idx))
    cls = table.class_idx[rank]
    # (class, video) group codes, classes numbered densely so codes cannot overflow.
    _, label = np.unique(np.r_[cls, truth[:, 1]], return_inverse=True)
    group = label * len(names) + np.r_[video[rank], truth[:, 0]]
    det = np.stack([group[: len(cls)], table.start[rank], table.end[rank]], axis=1)
    gt = np.stack([group[len(cls) :], truth[:, 2], truth[:, 3]], axis=1)
    grid = [float(thr) for thr in tiou_grid]
    hits = _greedy_hits(det, gt, np.array(grid))

    classes, npos = np.unique(truth[:, 1], return_counts=True)
    lo, hi = np.searchsorted(cls, classes), np.searchsorted(cls, classes, side="right")
    skipped = tuple(sorted(set(cls.tolist()) - set(classes.tolist())))
    per_threshold = []
    per_class = []
    for k, thr in enumerate(grid):
        row = [_average_precision(hits[k, a:b], n) for a, b, n in zip(lo, hi, npos.tolist())]
        per_class.extend((thr, c, ap) for c, ap in zip(classes.tolist(), row))
        per_threshold.append((thr, float(np.mean(row)) if row else 0.0))
    average = float(np.mean([m for _, m in per_threshold])) if per_threshold else 0.0
    return EvalResult(
        per_threshold=tuple(per_threshold),
        average_map=average,
        per_class=tuple(per_class),
        skipped_classes=skipped,
    )


def _video_candidates(
    params: model.ModelParams, video: VideoRecord, config: ExperimentConfig
) -> DetectionTable:
    from .selftrain import video_feature_matrix

    probs, scores, _ = model.forward_batch(
        params, video_feature_matrix(video, config.feature_window)
    )
    return generate_candidates(
        video.video_id, probs, scores, config.classification_thresholds, config.mask_thresholds
    )


def detect_videos(
    params: model.ModelParams, videos: Sequence[VideoRecord], config: ExperimentConfig
) -> DetectionTable:
    """Model inference and candidate generation per video, then one Soft-NMS
    call over every (video, class) group; rows ordered by (video id, class,
    start, end, descending score)."""
    kept = soft_nms(
        _concat([_video_candidates(params, video, config) for video in videos]),
        config.soft_nms_sigma,
        config.soft_nms_floor,
    )
    video = _id_codes(kept.video_ids, sorted(set(kept.video_ids)))[kept.video]
    return kept.take(np.lexsort((-kept.score, kept.end, kept.start, kept.class_idx, video)))


def write_detections(path, table: DetectionTable) -> None:
    """One detection per line: video id, start, end, class, score."""
    names = table.video_ids
    columns = (getattr(table, name).tolist() for name in _COLUMNS)
    with open(path, "w", encoding="utf-8") as fh:
        for v, s, e, c, x in zip(*columns):
            fh.write(f"{names[v]}\t{s}\t{e}\t{c}\t{x!r}\n")


def load_detections(path) -> DetectionTable:
    """Read a write_detections dump; a line that is not a valid detection with
    a finite score raises MalformedDetectionError naming path:line."""
    rows = []
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
                rows.append(Detection(parts[0], int(parts[1]), int(parts[2]), int(parts[3]), score))
            except ValueError as exc:
                raise MalformedDetectionError(f"{path}:{line_no}: {exc}") from None
    return detection_table(rows)
