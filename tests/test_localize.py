import math
import re

import numpy as np
import pytest

from pntal import localize, model
from pntal.core import ActionInstance, ExperimentConfig, VideoRecord
from pntal.localize import (
    Detection,
    DetectionTable,
    DuplicateVideoError,
    MalformedDetectionError,
    detect_videos,
    detection_table,
    generate_candidates,
    ground_truth_map,
    load_detections,
    mean_average_precision,
    soft_nms,
    write_detections,
)

from oracles import (
    brute_force_average_precision,
    interval_iou,
    reference_candidates,
    reference_soft_nms,
)


def det(video="v", start=0, end=9, cls=1, score=0.5):
    return Detection(video_id=video, start=start, end=end, class_idx=cls, score=score)


def matches_at(det_span, inst_span, thr):
    """Whether one detection matches one instance at tIoU threshold thr."""
    gt = {"v": (ActionInstance(inst_span[0], inst_span[1], 1),)}
    return dict(mean_average_precision([det("v", *det_span)], gt, [thr]).per_threshold)[thr] == 1.0


class TestTemporalIoU:
    """The tIoU that matching uses, seen through a one-instance mAP."""

    def test_identity(self):
        assert matches_at((0, 9), (0, 9), 1.0)

    def test_disjoint(self):
        assert not matches_at((0, 4), (5, 9), 0.0)

    def test_partial(self):
        assert matches_at((0, 9), (5, 14), 5 / 15)
        assert not matches_at((0, 9), (5, 14), math.nextafter(5 / 15, 1.0))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = tuple(sorted(int(x) for x in rng.integers(0, 50, size=2)))
            b = tuple(sorted(int(x) for x in rng.integers(0, 50, size=2)))
            iou = interval_iou(*a, *b)
            assert iou == interval_iou(*b, *a) and 0.0 <= iou <= 1.0
            for x, y in ((a, b), (b, a)):
                assert matches_at(x, y, iou) == (iou > 0.0)
                assert not matches_at(x, y, math.nextafter(iou, 2.0))


class TestGenerateCandidates:
    def test_hand_trace(self):
        # class 2 peaked on snippets 0-1, mask [0.9, 0.9, 0.1]
        probs = np.array([
            [0.1, 0.8, 0.1],
            [0.15, 0.7, 0.15],
            [0.2, 0.3, 0.5],
        ])
        mask = np.array([0.9, 0.9, 0.1])
        cands = generate_candidates("v", probs, mask, [0.5], [0.5])
        [c] = cands
        assert (c.start, c.end, c.class_idx) == (0, 1, 2)
        assert c.score == pytest.approx(0.8 * 0.9, abs=1e-12)

    def test_no_mask_no_candidates(self):
        probs = np.full((4, 3), 1 / 3)
        cands = generate_candidates("v", probs, np.zeros(4), [0.1], [0.1])
        assert len(cands) == 0

    def test_whole_video_single_candidate(self):
        probs = np.tile(np.array([0.9, 0.05, 0.05]), (6, 1))
        mask = np.full(6, 0.8)
        cands = generate_candidates("v", probs, mask, [0.5], [0.5, 0.7])
        [c] = cands
        assert (c.start, c.end, c.class_idx) == (0, 5, 1)

    def test_threshold_order_invariance(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=30)
        mask = rng.random(30)
        grids = ([0.2, 0.5, 0.8], [0.8, 0.2, 0.5])
        a = generate_candidates("v", probs, mask, grids[0], grids[0])
        b = generate_candidates("v", probs, mask, grids[1], grids[1])
        assert list(a) == list(b)

    def test_background_never_a_candidate_class(self):
        probs = np.tile(np.array([0.05, 0.05, 0.9]), (5, 1))  # background dominant
        mask = np.full(5, 0.9)
        cands = generate_candidates("v", probs, mask, [0.01], [0.5])
        assert all(c.class_idx != 3 for c in cands)

    @pytest.mark.parametrize("probs", [np.full(5, 0.5), np.full((5, 1), 0.5), np.full((5, 2, 2), 0.5)])
    def test_class_probs_need_action_and_background_columns(self, probs):
        with pytest.raises(model.ShapeMismatchError, match="class_probs"):
            generate_candidates("v", probs, np.full(5, 0.9), [0.1], [0.5])

    @pytest.mark.parametrize("n_masks", [1, 4, 6])
    def test_mask_length_must_match_rows(self, n_masks):
        # One mask score would otherwise broadcast over all five snippets.
        probs = np.tile(np.array([0.9, 0.05, 0.05]), (5, 1))
        with pytest.raises(model.ShapeMismatchError, match=rf"5 rows.*\({n_masks},\)"):
            generate_candidates("v", probs, np.full(n_masks, 0.9), [0.1], [0.5])


class TestSoftNms:
    def test_disjoint_unchanged(self):
        dets = [det(start=0, end=4, score=0.9), det(start=10, end=14, score=0.8)]
        out = soft_nms(detection_table(dets), sigma=0.5, score_floor=0.0)
        assert sorted(d.score for d in out) == [0.8, 0.9]

    def test_identical_boxes_decay(self):
        dets = [det(score=0.9), det(score=0.8)]
        out = list(soft_nms(detection_table(dets), sigma=0.5, score_floor=0.0))
        assert out[0].score == pytest.approx(0.9)
        assert out[1].score == pytest.approx(0.8 * math.exp(-2.0), abs=1e-9)
        assert out[1].score == pytest.approx(0.10827, abs=1e-5)

    def test_single_detection(self):
        [kept] = soft_nms(detection_table([det(score=0.4)]), sigma=0.5, score_floor=0.1)
        assert kept.score == 0.4

    def test_never_increases_scores(self):
        rng = np.random.default_rng(2)
        dets = []
        for _ in range(20):
            s, e = sorted(rng.integers(0, 30, size=2))
            dets.append(det(start=s, end=e, score=float(rng.random())))
        out = soft_nms(detection_table(dets), sigma=0.3, score_floor=0.0)
        originals = {(d.start, d.end): d.score for d in dets}
        for d in out:
            assert d.score <= originals[(d.start, d.end)] + 1e-12

    def test_sigma_to_zero_is_hard_nms(self):
        dets = [det(start=0, end=9, score=0.9), det(start=1, end=10, score=0.85),
                det(start=20, end=29, score=0.5)]
        out = soft_nms(detection_table(dets), sigma=1e-9, score_floor=0.01)
        spans = {(d.start, d.end) for d in out}
        assert spans == {(0, 9), (20, 29)}


class TestMeanAveragePrecision:
    def test_perfect_detector(self):
        gt = {"v1": (ActionInstance(0, 9, 1), ActionInstance(20, 29, 2)),
              "v2": (ActionInstance(5, 14, 1),)}
        dets = [det("v1", 0, 9, 1, 0.9), det("v1", 20, 29, 2, 0.8), det("v2", 5, 14, 1, 0.95)]
        result = mean_average_precision(dets, gt, [0.3, 0.5, 0.7])
        assert result.average_map == pytest.approx(1.0)
        for _, value in result.per_threshold:
            assert value == pytest.approx(1.0)

    def test_no_detections(self):
        gt = {"v": (ActionInstance(0, 9, 1),)}
        result = mean_average_precision([], gt, [0.5])
        assert result.average_map == 0.0

    def test_hand_constructed_pr(self):
        # 2 GT for class 1; detections: TP, FP, TP in score order.
        gt = {"v": (ActionInstance(0, 9, 1), ActionInstance(20, 29, 1))}
        dets = [det("v", 0, 9, 1, 0.9), det("v", 40, 49, 1, 0.8), det("v", 20, 29, 1, 0.7)]
        result = mean_average_precision(dets, gt, [0.5])
        # PR points: (1, 0.5), (0.5, 0.5), (2/3, 1.0) -> AP = 0.5*1 + 0.5*(2/3)
        assert dict(result.per_threshold)[0.5] == pytest.approx(5 / 6, abs=1e-9)

    def test_tie_goes_to_first_instance(self):
        # [0, 9] overlaps both instances with tIoU 0.5; the first takes it, so
        # [5, 9] still finds the second and [0, 4] is the false positive.
        gt = {"v": (ActionInstance(0, 4, 1), ActionInstance(5, 9, 1))}
        dets = [det("v", 0, 9, 1, 0.9), det("v", 5, 9, 1, 0.8), det("v", 0, 4, 1, 0.7)]
        assert dict(mean_average_precision(dets, gt, [0.5]).per_threshold)[0.5] == 1.0

    def test_input_order_invariance(self):
        rng = np.random.default_rng(3)
        gt, dets = _random_scene(rng)
        base = mean_average_precision(dets, gt, [0.3, 0.5])
        shuffled = list(dets)
        rng.shuffle(shuffled)
        again = mean_average_precision(shuffled, gt, [0.3, 0.5])
        assert base.per_threshold == again.per_threshold

    def test_monotone_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        gt, dets = _random_scene(rng)
        base = mean_average_precision(dets, gt, [0.4])
        rescaled = [Detection(d.video_id, d.start, d.end, d.class_idx, 0.1 + 0.5 * d.score**3)
                    for d in dets]
        again = mean_average_precision(rescaled, gt, [0.4])
        assert dict(base.per_threshold)[0.4] == pytest.approx(dict(again.per_threshold)[0.4], abs=1e-12)

    def test_skipped_classes_reported(self):
        gt = {"v": (ActionInstance(0, 9, 1),)}
        dets = [det("v", 0, 9, 5, 0.9)]
        result = mean_average_precision(dets, gt, [0.5])
        assert result.skipped_classes == (5,)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            gt, dets = _random_scene(rng)
            thr = float(rng.choice([0.3, 0.5, 0.7]))
            result = mean_average_precision(dets, gt, [thr])
            # oracle, averaged per class over classes with ground truth
            classes = sorted({i.class_idx for insts in gt.values() for i in insts})
            aps = []
            for cls in classes:
                cls_dets = [(d.video_id, d.start, d.end, d.score) for d in dets if d.class_idx == cls]
                cls_gt = [(vid, i.start, i.end) for vid, insts in gt.items()
                          for i in insts if i.class_idx == cls]
                aps.append(brute_force_average_precision(cls_dets, cls_gt, thr))
            expected = float(np.mean(aps)) if aps else 0.0
            assert dict(result.per_threshold)[thr] == pytest.approx(expected, abs=1e-9)


def _random_grid(rng):
    """1-5 thresholds from a coarse set: unsorted, possibly repeated."""
    return [float(t) for t in rng.choice([0.0, 0.1, 0.3, 0.5, 0.5, 0.7, 0.9], size=rng.integers(1, 6))]


def _random_video_outputs(rng, n):
    """Class probabilities (3 actions + background) and a piecewise-constant
    mask whose pieces run up to 400 snippets; coarse values make scores tie."""
    probs = rng.dirichlet(np.full(4, 0.6), size=n)
    pieces = []
    while sum(len(p) for p in pieces) < n:
        level = rng.choice([0.05, 0.2, 0.4, 0.6, 0.8, 0.95])
        piece = np.full(int(rng.integers(1, 401)), level)
        if rng.random() < 0.5:
            piece = piece + rng.uniform(-0.04, 0.04, size=len(piece))
        pieces.append(piece)
    mask = np.concatenate(pieces)[:n]
    if rng.random() < 0.3:
        probs = np.round(probs * 4) / 4
    return probs, mask


class TestAgainstLoopReferences:
    """The library against the plain loop references, with exact equality."""

    def test_candidates_bit_equal(self):
        rng = np.random.default_rng(11)
        long_runs = 0
        for k in range(300):
            n = int(rng.integers(1, 40)) if k % 10 else int(rng.integers(129, 401))
            probs, mask = _random_video_outputs(rng, n)
            cls_grid, mask_grid = _random_grid(rng), _random_grid(rng)
            got = generate_candidates(f"v{k}", probs, mask, cls_grid, mask_grid)
            want = reference_candidates(probs, mask, cls_grid, mask_grid)
            assert [(d.start, d.end, d.class_idx, d.score) for d in got] == want
            assert all(d.video_id == f"v{k}" for d in got)
            long_runs += sum(1 for s, e, _, _ in want if e - s + 1 > 128)
        assert long_runs > 20  # numpy sums more than 128 values in pairwise blocks

    def test_candidates_of_many_videos_bit_equal(self):
        # One call over about 60 videos: 1-snippet videos, runs longer than
        # 128 snippets, tied scores, mask-positive runs that touch across a
        # video boundary, and negative mask scores under a negative threshold,
        # where the best seed of a run is the one with the lowest probability.
        rng = np.random.default_rng(13)
        outputs = []
        for k in range(60):
            n = 1 if k % 7 == 0 else int(rng.integers(129, 401)) if k % 9 == 0 else int(rng.integers(2, 40))
            probs, mask = _random_video_outputs(rng, n)
            if k % 4 == 1:
                mask = mask - 0.7
            outputs.append((probs, mask))
        for k in (10, 11, 12):  # a run ends on the last snippet, the next video's starts on snippet 0
            outputs[k][0][[0, -1]] = [0.97, 0.01, 0.01, 0.01]
            outputs[k][1][[0, -1]] = 0.95
        grids = [(_random_grid(rng), _random_grid(rng)) for _ in range(4)]
        grids += [([0.3, 0.1], [0.5, math.nan, 0.2, -0.5]), ([0.0], [-0.9, -0.3, 0.2])]
        ids = [f"v{k}" for k in range(len(outputs))]
        boundary_runs = negative = long_runs = 0
        for cls_grid, mask_grid in grids:
            videos = localize._Summaries([len(mask) for _, mask in outputs])
            for k, (probs, mask) in enumerate(outputs):
                videos.put(k, probs, mask)
            got = localize._candidates(ids, videos, cls_grid, mask_grid)
            want = []
            for k, (probs, mask) in enumerate(outputs):
                rows = reference_candidates(probs, mask, cls_grid, mask_grid)
                want += [(ids[k],) + row for row in rows]
                boundary_runs += sum(1 for s, e, _, _ in rows if s == 0 or e == len(mask) - 1)
                negative += sum(1 for row in rows if row[3] < 0.0)
                long_runs += sum(1 for s, e, _, _ in rows if e - s + 1 > 128)
            assert got.video_ids == tuple(ids)
            assert [(d.video_id, d.start, d.end, d.class_idx, d.score) for d in got] == want
        assert boundary_runs > 50 and negative > 50 and long_runs > 5

    @pytest.mark.parametrize("cls_grid", [[math.nan, 0.1], [0.1, math.nan], [math.nan], [0.4, math.nan, 0.1]])
    def test_nan_classification_threshold_admits_nothing(self, cls_grid):
        # The candidates are those of the grid without its NaN, in either order.
        rng = np.random.default_rng(17)
        probs, mask = _random_video_outputs(rng, 30)
        mask[:] = np.maximum(mask, 0.6)  # one run over the whole video
        got = generate_candidates("v", probs, mask, cls_grid, [0.5])
        want = reference_candidates(probs, mask, cls_grid, [0.5])
        assert [(d.start, d.end, d.class_idx, d.score) for d in got] == want
        finite = [t for t in cls_grid if not math.isnan(t)]
        assert want == (reference_candidates(probs, mask, finite, [0.5]) if finite else [])
        assert (len(want) > 0) == bool(finite)

    def test_summaries_best_is_the_max_at_the_argmax(self):
        # Each snippet's best action probability and class, NaN rows included:
        # argmax picks the first NaN, and max() of a row with a NaN is NaN.
        rng = np.random.default_rng(19)
        probs = rng.dirichlet(np.ones(5), size=40)
        probs[[3, 7], 2] = math.nan
        probs[7, 0] = math.nan
        probs[9] = [0.3, 0.3, 0.2, 0.1, 0.1]  # a tie goes to the lowest class
        videos = localize._Summaries([40])
        videos.put(0, probs, np.full(40, 0.5))
        at = slice(videos.offsets[0], videos.offsets[1] - 1)
        assert np.array_equal(videos.best[at], probs[:, :-1].max(axis=1), equal_nan=True)
        assert np.array_equal(videos.best_class[at], probs[:, :-1].argmax(axis=1) + 1)
        assert videos.best_class[at][[3, 7, 9]].tolist() == [3, 1, 1]

    def test_soft_nms_bit_equal(self):
        rng = np.random.default_rng(12)
        for k in range(300):
            rows = []
            for _ in range(int(rng.integers(0, 25))):
                s = int(rng.integers(0, 40))
                score = float(rng.choice([0.25, 0.5, 1.0])) if rng.random() < 0.3 else float(rng.random())
                rows.append((s, s + int(rng.integers(0, 12)), int(rng.integers(1, 3)), score))
            rows += rows[: int(rng.integers(0, 3))]  # exact duplicates
            sigma = float(rng.choice([0.05, 0.3, 0.5, 2.0]))
            floor = float(rng.choice([0.0, 1.0, 0.1, rng.random()]))
            got = soft_nms(detection_table([Detection("v", *row) for row in rows]), sigma, floor)
            assert [(d.start, d.end, d.class_idx, d.score) for d in got] == [
                kept for cls in (1, 2)
                for kept in reference_soft_nms([r for r in rows if r[2] == cls], sigma, floor)
            ]


def _random_scene(rng, n_videos=2, max_gt=4, max_det=8):
    gt = {}
    dets = []
    for v in range(n_videos):
        vid = f"v{v}"
        instances = []
        cursor = 0
        for _ in range(rng.integers(1, max_gt + 1)):
            start = cursor + int(rng.integers(0, 6))
            end = start + int(rng.integers(2, 10))
            if end >= 90:
                break
            instances.append(ActionInstance(start, end, int(rng.integers(1, 4))))
            cursor = end + 2
        gt[vid] = tuple(instances)
        for _ in range(rng.integers(0, max_det + 1)):
            s = int(rng.integers(0, 80))
            e = s + int(rng.integers(1, 15))
            dets.append(Detection(vid, s, e, int(rng.integers(1, 4)), float(rng.random())))
    return gt, dets


def _many_video_scene(rng, n_videos):
    """Several class-1 instances per video, detections near them and elsewhere."""
    gt, dets = {}, []
    for v in range(n_videos):
        vid = f"video-{v:03d}"
        instances, cursor = [], 0
        for _ in range(int(rng.integers(2, 6))):
            start = cursor + int(rng.integers(0, 8))
            end = start + int(rng.integers(3, 15))
            instances.append(ActionInstance(start, end, 1 if rng.random() < 0.7 else 2))
            cursor = end + 1
        gt[vid] = tuple(instances)
        for a, b in zip(instances, instances[1:]):  # spans two neighbours, often a tIoU tie
            dets.append(Detection(vid, a.start, b.end, 1, round(float(rng.random()), 2)))
        for inst in instances:
            for _ in range(int(rng.integers(0, 4))):  # competing detections per instance
                s = max(0, inst.start + int(rng.integers(-4, 5)))
                e = max(s, inst.end + int(rng.integers(-4, 5)))
                dets.append(Detection(vid, s, e, int(rng.integers(1, 3)), round(float(rng.random()), 2)))
        for _ in range(int(rng.integers(0, 4))):
            s = int(rng.integers(0, cursor + 10))
            dets.append(Detection(vid, s, s + int(rng.integers(0, 20)), 1, round(float(rng.random()), 2)))
    dets.append(Detection("no-such-video", 0, 9, 1, 0.99))
    return gt, dets


def test_map_over_many_videos_matches_brute_force():
    rng = np.random.default_rng(13)
    grid = [0.3, 0.5, 0.7]
    for _ in range(8):
        gt, dets = _many_video_scene(rng, int(rng.integers(20, 41)))
        result = mean_average_precision(dets, gt, grid)
        want = []
        for thr in grid:
            for cls in (1, 2):
                cls_dets = [(d.video_id, d.start, d.end, d.score) for d in dets if d.class_idx == cls]
                cls_gt = [(vid, i.start, i.end) for vid, insts in gt.items()
                          for i in insts if i.class_idx == cls]
                want.append((thr, cls, brute_force_average_precision(cls_dets, cls_gt, thr)))
        assert [(thr, cls) for thr, cls, _ in result.per_class] == [(thr, cls) for thr, cls, _ in want]
        for (_, _, got), (_, _, expected) in zip(result.per_class, want):
            assert got == pytest.approx(expected, abs=1e-9)
        assert 0.0 < result.average_map < 1.0


def test_load_detections_rejects_malformed_lines(tmp_path):
    good = "v\t0\t4\t1\t0.5\n"
    for bad in ("v\t0\t4\t1\n", "v\t5\t4\t1\t0.5\n", "v\t0\t4\t0\t0.5\n",
                "v\tzero\t4\t1\t0.5\n", "v\t0\t4\t1\tnan\n", "v\t0\t4\t1\t-inf\n",
                "v\t-3\t5\t1\t0.5\n", "v\t0\t99999999999999999999\t1\t0.5\n",
                "v\t-99999999999999999999\t4\t1\t0.5\n", "v\t0\t4\t9223372036854775808\t0.5\n"):
        path = tmp_path / "dets.tsv"
        path.write_text(good + "\n" + bad)
        with pytest.raises(MalformedDetectionError, match=f"{path}:3: "):
            load_detections(path)
    path.write_bytes(good.encode() + b"v\t0\t4\t1\t0.5\xff\n")
    with pytest.raises(MalformedDetectionError, match=":2: "):
        load_detections(path)
    # The first bad line is reported, whether its fault is a range (checked
    # over the columns) or a parse fault; blank lines keep the numbering.
    span, parse = "v\t5\t4\t1\t0.5\n", "v\tzero\t4\t1\t0.5\n"
    for text, where, message in (
        (good + span + good + parse, ":2: ", "detection span 5..4"),
        (good + parse + good + span, ":2: ", "invalid literal"),
        ("\n" + good + "\n\n" + span, ":5: ", "detection span 5..4"),
        ("\n\n" + parse, ":3: ", "invalid literal"),
        (good + "v\t0\t4\t1\t1e999\n", ":2: ", "score '1e999' is not finite"),
        (good + "v\t0\t99999999999999999999\t1\t0.5\n", ":2: ", "end 99999999999999999999 does not fit"),
    ):
        path.write_text(text)
        with pytest.raises(MalformedDetectionError, match=f"{where}{message}"):
            load_detections(path)
    # A list of Detection rows keeps the same rule and names the first bad row's index.
    for rows, message in (
        ([("v", 0, 2**70, 1, 0.5)], "detection 0: end 1180591620717411303424 does not fit in int64"),
        ([("v", 0, 4, 1, 0.5), ("v", -2**63 - 1, 4, 1, 0.5)], "detection 1: start -9223372036854775809"),
        ([("v", 0, 4, 1, 0.5), ("v", 0, 4, 2**63, 0.5)], "detection 1: class_idx 9223372036854775808"),
        ([("v", 0, 4, 1, 0.5), ("v", 0, 4, 1, math.nan)], "detection 1: score nan is not finite"),
        ([("v", 0, 4, 1, -math.inf)], "detection 0: score -inf is not finite"),
        ([("v", 0, 4, 1, 0.5), ("v", 5, 4, 1, 0.5), ("v", 0, 4, 0, 0.5)],
         "detection 1: detection span 5..4 needs 0 <= start <= end"),
        ([("v", -3, 5, 1, 0.5)], "detection 0: detection span -3..5"),
        ([("w", 0, 4, 1, 0.5), ("v", 0, 4, 0, 0.5)], "detection 1: class_idx must be a 1-based action class"),
    ):
        dets = [Detection(*row) for row in rows]
        with pytest.raises(MalformedDetectionError, match=re.escape(message)):
            detection_table(dets)
        with pytest.raises(MalformedDetectionError, match=re.escape(message)):
            mean_average_precision(dets, {}, [0.5])


def test_detection_dump_round_trip(tmp_path):
    dets = [det("video-a", 3, 17, 2, 0.123456789012345), det("video-b", 0, 4, 1, 1.0),
            det("video-a", 5, 5, 3, 0.5)]
    path = tmp_path / "dets.tsv"
    write_detections(path, detection_table(dets))
    loaded = load_detections(path)
    assert list(loaded) == dets


def _soft_nms_rows(video, cls, rng, n, start_range):
    """n rows of one (video, class) group with tied scores and exact duplicates."""
    rows = []
    for _ in range(n):
        s = int(rng.integers(0, start_range))
        score = float(rng.choice([0.25, 0.5, 1.0])) if rng.random() < 0.3 else float(rng.random())
        rows.append((video, s, s + int(rng.integers(0, 12)), cls, score))
    return rows + rows[: int(rng.integers(0, 4))]


def test_soft_nms_many_groups_against_oracle():
    """One call over skewed groups equals the loop oracle run group by group."""
    rng = np.random.default_rng(14)
    rows = _soft_nms_rows("b", 2, rng, 320, 200)  # one big group
    for k in range(40):  # and many small ones, most of them a single row
        n = 1 if k % 4 else int(rng.integers(2, 20))
        rows += _soft_nms_rows(["c", "a", "b"][k % 3], int(rng.integers(1, 6)), rng, n, 40)
    rng.shuffle(rows)
    videos = list(dict.fromkeys(r[0] for r in rows))  # codes follow first appearance
    groups = sorted({(videos.index(r[0]), r[3]) for r in rows})
    assert sum(1 for r in rows if (r[0], r[3]) == ("b", 2)) >= 320
    for sigma in (0.05, 0.5, 2.0):
        for floor in (0.0, 1.0):
            got = soft_nms(detection_table([Detection(*row) for row in rows]), sigma, floor)
            want = []
            for v, cls in groups:
                group = [r[1:] for r in rows if r[0] == videos[v] and r[3] == cls]
                kept = reference_soft_nms([(s, e, c, x) for s, e, c, x in group], sigma, floor)
                want += [(videos[v],) + row for row in kept]
            assert [(d.video_id, d.start, d.end, d.class_idx, d.score) for d in got] == want
            assert floor == 0.0 or all(d.score >= 1.0 for d in got)


def _scene_model():
    """A random model, four videos with ids out of sorted order, and one
    all-zero video whose mask scores all fall below the thresholds."""
    config = ExperimentConfig(class_count=3, feature_dim=6, hidden_width=10, soft_nms_floor=0.05)
    params = model.init_params(config.feature_dim, config.hidden_width, config.label_count, seed=3)
    params = model.ModelParams(
        trunk_w=params.trunk_w * 3.0, trunk_b=np.zeros(config.hidden_width), class_w=params.class_w * 3.0,
        class_b=params.class_b, mask_w=np.abs(params.mask_w) * 2.0, mask_b=-3.0,
    )
    rng = np.random.default_rng(15)
    videos = []
    for vid in ("v-c", "v-a", "v-empty", "v-b"):
        n = int(rng.integers(40, 90))
        features = np.zeros((n, config.feature_dim)) if vid == "v-empty" else rng.normal(size=(n, 6))
        videos.append(VideoRecord(vid, features, (ActionInstance(2, 9, 1), ActionInstance(20, 31, 2)), False))
    return params, videos, config


def test_detect_videos_against_loop_references():
    params, videos, config = _scene_model()
    want = []
    for video in videos:
        probs, scores, _ = model.forward_batch(params, video.features)
        cands = reference_candidates(
            probs, scores, config.classification_thresholds, config.mask_thresholds
        )
        assert (len(cands) == 0) == (video.video_id == "v-empty")
        for cls in sorted({c for _, _, c, _ in cands}):
            kept = reference_soft_nms(
                [row for row in cands if row[2] == cls], config.soft_nms_sigma, config.soft_nms_floor
            )
            want += [(video.video_id,) + row for row in kept]
    want.sort(key=lambda d: (d[0], d[3], d[1], d[2], -d[4]))
    got = detect_videos(params, videos, config)
    assert isinstance(got, DetectionTable)
    assert [(d.video_id, d.start, d.end, d.class_idx, d.score) for d in got] == want
    assert len(want) > 50 and len({d[0] for d in want}) == 3


def test_map_same_for_table_and_shuffled_rows():
    rng = np.random.default_rng(16)
    gt, dets = _many_video_scene(rng, 30)
    table = detection_table(dets)
    rows = list(table)
    assert rows == dets
    rng.shuffle(rows)
    grid = [0.3, 0.5, 0.7]
    result = mean_average_precision(table, gt, grid)
    assert result == mean_average_precision(rows, gt, grid)
    assert 0.0 < result.average_map < 1.0


def test_ground_truth_map_rejects_repeated_ids():
    # Two videos "v": the map would keep only the second one's instances.
    first = VideoRecord("v", np.zeros((10, 2)), (ActionInstance(0, 3, 1),), False)
    second = VideoRecord("v", np.zeros((10, 2)), (ActionInstance(5, 8, 2),), False)
    with pytest.raises(DuplicateVideoError, match="'v'"):
        ground_truth_map([first, second])
    assert ground_truth_map([first]) == {"v": first.instances}
