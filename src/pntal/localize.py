"""Candidate generation, Soft-NMS, and mAP evaluation over tIoU grids.

Detections are inclusive snippet spans with a 1-based action class (never
background). They travel as one DetectionTable, one array per column (video,
start, end, class, score), from candidate generation through Soft-NMS, the
final ordering, mAP and the written dump; only iterating a table builds
Detection rows. Candidate generation sweeps a grid of classification/mask
threshold pairs: each qualifying seed snippet expands to the maximal
contiguous run of mask-positive snippets containing it, scored by the seed's
class probability times the run's mean mask score. detect_videos runs the
model per video and keeps of its output only each snippet's best action
probability, that class and the mask score. It then generates every video's
candidates in one pass per mask threshold over the videos laid end to end,
with a pad slot between them that no threshold admits, so that no run
crosses a video boundary. Soft-NMS then decays overlapping detections within
each (video, class) group with a Gaussian kernel; one call runs every group
at once, in lockstep rounds.

Four facts keep this path fast and its output byte-identical:

- A candidate's span, class and score do not depend on the classification
  threshold, so only the lowest classification threshold affects
  candidates: it decides which snippets seed them, and the rest of that grid
  is inert. A NaN threshold, classification or mask, admits nothing.
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
- Each (span, class) keeps one seed before its run mean multiplies it: the
  highest probability if the mean is non-negative, the lowest if it is
  negative. A correctly rounded product is monotone in each factor, so the
  chosen seed's product is bit for bit the largest of all the seeds'
  products. A span that is also a run at the next lower mask threshold has
  the same seeds there, so each span is scored at the lowest threshold where
  it is a run, and once.

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


_COLUMNS = ("video", "start", "end", "class_idx", "score")


def _first_fault(start, end, class_idx, score, shown):
    """(row, message) of the first row of these object columns that breaks the
    detection rule, or None. The rule: 0 <= start <= end, class_idx >= 1, a
    finite score, integers within int64; ``shown`` is each row's score as its
    message quotes it. Object columns hold Python's ints, so the int64 bounds
    compare exactly."""
    ints = (start, end, class_idx)
    faults = np.column_stack([  # one column per fault, in the order a row reports them
        ~np.isfinite(score.astype(np.float64)), *((col < -2**63) | (col >= 2**63) for col in ints),
        ~((0 <= start) & (start <= end)), class_idx < 1,
    ])
    if not faults.any():
        return None
    i = faults.any(axis=1).argmax()
    return i, (
        f"score {shown[i]!r} is not finite",
        *(f"{name} {col[i]} does not fit in int64" for name, col in zip(_COLUMNS[1:4], ints)),
        f"detection span {start[i]}..{end[i]} needs 0 <= start <= end",
        "class_idx must be a 1-based action class",
    )[faults[i].argmax()]


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
    id coded by its first appearance, checked as load_detections checks a
    dump: the first bad row raises MalformedDetectionError naming its index."""
    if isinstance(detections, DetectionTable):
        return detections
    rows = list(detections)
    code: Dict[str, int] = {}
    video = [code.setdefault(d.video_id, len(code)) for d in rows]
    columns = [np.array([getattr(d, name) for d in rows], dtype=object) for name in _COLUMNS[1:]]
    fault = _first_fault(*columns, shown=columns[3])
    if fault is not None:
        raise MalformedDetectionError("detection {}: {}".format(*fault))
    return DetectionTable(list(code), video, *columns)


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


class _Summaries:
    """Per-snippet summaries of videos laid end to end: the best action
    probability, its 1-based class and the mask score.

    A pad slot comes before each video and after the last. Its mask score is
    NaN, which no threshold admits, so a mask-positive run never crosses from
    one video into the next. Video k fills offsets[k] up to offsets[k+1] - 1.
    """

    __slots__ = ("offsets", "best", "best_class", "masks")

    def __init__(self, lengths: Sequence[int]):
        self.offsets = np.cumsum(np.r_[1, np.add(lengths, 1, dtype=np.int64)])
        size = int(self.offsets[-1])
        self.best = np.full(size, np.nan)
        self.best_class = np.zeros(size, dtype=np.int64)
        self.masks = np.full(size, np.nan)

    def put(self, k: int, probs: np.ndarray, masks: np.ndarray) -> None:
        """Video k's (N, C+1) class probabilities, background last, and N mask scores."""
        at = slice(self.offsets[k], self.offsets[k + 1] - 1)
        best = probs[:, :-1].argmax(axis=1)  # the first NaN, if any, as max() gives NaN
        self.best[at] = probs[np.arange(len(probs)), best]
        self.best_class[at] = best + 1
        self.masks[at] = masks


def _candidates(
    video_ids: Sequence[str],
    videos: _Summaries,
    classification_thresholds: Sequence[float],
    mask_thresholds: Sequence[float],
) -> DetectionTable:
    """Threshold-grid candidates of every video at once, one pass per distinct
    mask threshold; rows in (video, start, end, class) order, one per key."""
    # A NaN threshold admits nothing: no seed's probability is >= NaN.
    lowest = min((t for t in map(float, classification_thresholds) if not math.isnan(t)), default=None)
    levels = np.sort([float(t) for t in set(mask_thresholds)])  # NaN admits nothing, sorts last
    if lowest is None or not len(levels):
        return DetectionTable(video_ids, [], [], [], [], [])
    seeds = videos.best >= lowest
    classes = int(videos.best_class.max())
    below = np.ones(len(seeds), dtype=bool)  # the first level has none below it
    parts = []
    for level in levels:
        fg = videos.masks >= level
        edges = np.diff(fg.view(np.int8))
        run_start = np.flatnonzero(edges == 1) + 1
        run_end = np.flatnonzero(edges == -1)
        # A run that is a run one level below has the same seeds, so the same
        # candidates, there; levels are nested, so each span is new only once.
        new = below[run_start - 1] | below[run_end + 1]
        below = fg
        picked = np.flatnonzero(fg & seeds)
        run = np.searchsorted(run_start, picked, side="right") - 1
        key = run * classes + videos.best_class[picked] - 1
        # The run mean is not known yet: the highest seed probability scores
        # best if it is non-negative, the lowest if it is negative.
        hit = np.zeros(len(run_start) * classes, dtype=bool)
        hit[key] = True
        top, low = np.full(len(hit), -np.inf), np.full(len(hit), np.inf)
        np.maximum.at(top, key, videos.best[picked])
        np.minimum.at(low, key, videos.best[picked])
        found = np.flatnonzero(hit)
        found = found[new[found // classes]]
        run = found // classes
        parts.append((run_start[run], run_end[run], found % classes + 1, top[found], low[found]))
    start, end, cls, top, low = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((cls, end, start))
    start, end, cls, top, low = start[order], end[order], cls[order], top[order], low[order]
    span = np.ones(len(start), dtype=bool)
    span[1:] = (start[1:] != start[:-1]) | (end[1:] != end[:-1])
    mean = _run_means(videos.masks, start[span], end[span])[np.cumsum(span) - 1]
    video = np.searchsorted(videos.offsets, start, side="right") - 1
    at = videos.offsets[video]
    return DetectionTable(
        video_ids, video, start - at, end - at, cls, np.where(mean >= 0.0, top, low) * mean
    )


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
    that key, so it does not depend on threshold ordering. class_probs of
    another shape, or mask_scores that is not N long, raises
    model.ShapeMismatchError, a ValueError.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    masks = np.asarray(mask_scores, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise model.ShapeMismatchError(
            f"class_probs must be (snippets, classes + 1), got shape {probs.shape}"
        )
    if masks.shape != (len(probs),):
        raise model.ShapeMismatchError(
            f"class_probs has {len(probs)} rows but mask_scores has shape {masks.shape}"
        )
    videos = _Summaries([len(probs)])
    videos.put(0, probs, masks)
    return _candidates((video_id,), videos, classification_thresholds, mask_thresholds)


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


def detect_videos(
    params: model.ModelParams, videos: Sequence[VideoRecord], config: ExperimentConfig
) -> DetectionTable:
    """Model inference per video, reduced at once to per-snippet summaries;
    then candidates for every video in one pass and one Soft-NMS call over
    every (video, class) group. Rows are ordered by (video id, class, start,
    end, descending score)."""
    summaries = _Summaries([video.snippet_count for video in videos])
    for k, video in enumerate(videos):
        probs, scores, _ = model.forward_batch(params, video.features)
        summaries.put(k, probs, scores)
    candidates = _candidates(
        [video.video_id for video in videos], summaries,
        config.classification_thresholds, config.mask_thresholds,
    )
    kept = soft_nms(candidates, config.soft_nms_sigma, config.soft_nms_floor)
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
    """A write_detections dump as columns, checked as arrays (_first_fault);
    the first bad line in the file raises MalformedDetectionError naming
    path:line."""
    code: Dict[str, int] = {}
    rows, fault = [], None
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                parts = raw.decode("utf-8").strip().split("\t")
                if parts == [""]:
                    continue
                if len(parts) != 5:
                    raise ValueError(f"expected 5 fields, got {len(parts)}")
                video = code.setdefault(parts[0], len(code))
                rows.append([line_no, video, *map(int, parts[1:4]), float(parts[4]), parts[4]])
            except ValueError as exc:
                fault = f"{line_no}: {exc}"  # no later line can come first
                break
    line_nos, video, start, end, class_idx, score, text = np.array(rows, dtype=object).reshape(-1, 7).T
    bad = _first_fault(start, end, class_idx, score, text)
    if bad is not None:  # a bad row read before a parse fault comes first
        fault = f"{line_nos[bad[0]]}: {bad[1]}"
    if fault is not None:
        raise MalformedDetectionError(f"{path}:{fault}")
    return DetectionTable(list(code), video, start, end, class_idx, score)
