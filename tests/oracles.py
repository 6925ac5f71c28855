"""Independent brute-force oracles used to cross-check the implementations.

Everything here is written as plainly as possible (python loops, direct
definitions) and must stay independent of the library code paths it checks.
"""

import math
import struct

import numpy as np


def brute_force_negatives(probs):
    """Largest ascending-confidence prefix of non-target classes whose
    cumulative probability stays <= max(p); tests every k directly."""
    probs = list(probs)
    maxp = max(probs)
    target = probs.index(maxp) + 1
    candidates = sorted(
        (c for c in range(1, len(probs) + 1) if c != target),
        key=lambda c: (probs[c - 1], c),
    )
    best_k = 0
    running = 0.0
    for k in range(1, len(candidates) + 1):
        running += probs[candidates[k - 1] - 1]
        if running <= maxp:
            best_k = k
    return set(candidates[:best_k])


def brute_force_positives(probs, negatives, ratio):
    """Scan every class directly against the confidence-ratio rule."""
    probs = list(probs)
    maxp = max(probs)
    target = probs.index(maxp) + 1
    out = set()
    for c in range(1, len(probs) + 1):
        if c == target or c in negatives:
            continue
        if probs[c - 1] >= ratio * maxp:
            out.add(c)
    return out


def interval_iou(a_start, a_end, b_start, b_end):
    inter = min(a_end, b_end) - max(a_start, b_start) + 1
    if inter <= 0:
        return 0.0
    union = (a_end - a_start + 1) + (b_end - b_start + 1) - inter
    return inter / union


def brute_force_average_precision(detections, ground_truth, threshold):
    """Enumerated precision-recall average precision for one class.

    detections: list of (video_id, start, end, score); ground_truth: list of
    (video_id, start, end). Greedy matching in descending score order against
    the best-IoU unmatched instance of the same video; AP is the sum over
    recall increments of the maximum precision at or beyond that recall.
    """
    if not ground_truth:
        return float("nan")
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i][3],) + tuple(detections[i][:3]))
    matched = [False] * len(ground_truth)
    flags = []
    for i in order:
        vid, start, end, _ = detections[i]
        best_iou, best_j = 0.0, -1
        for j, (gvid, gstart, gend) in enumerate(ground_truth):
            if matched[j] or gvid != vid:
                continue
            iou = interval_iou(start, end, gstart, gend)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= threshold:
            matched[best_j] = True
            flags.append(True)
        else:
            flags.append(False)
    precisions = []
    recalls = []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / rank)
        recalls.append(tp / len(ground_truth))
    ap = 0.0
    prev_recall = 0.0
    for i in range(len(flags)):
        if recalls[i] > prev_recall:
            best_prec = max(precisions[i:])
            ap += (recalls[i] - prev_recall) * best_prec
            prev_recall = recalls[i]
    return ap


def reference_candidates(class_probs, mask_scores, classification_thresholds, mask_thresholds):
    """Threshold-grid candidates by direct loops over every threshold pair.

    For each mask threshold, every maximal run of mask-positive snippets is
    found by walking the mask; for each classification threshold, each seed
    snippet (mask-positive, best action probability at or above the
    threshold) proposes its run, scored best probability x run mean. Keeps
    the best score per (start, end, class). class_probs rows hold C action
    classes then background. Returns [(start, end, class, score)] sorted by
    (start, end, class).
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    masks = np.asarray(mask_scores, dtype=np.float64)
    best = {}
    for theta_m in sorted(set(float(t) for t in mask_thresholds)):
        runs = []  # (start, end) per maximal mask-positive run
        i = 0
        while i < len(masks):
            if masks[i] >= theta_m:
                j = i
                while j + 1 < len(masks) and masks[j + 1] >= theta_m:
                    j += 1
                runs.append((i, j))
                i = j + 1
            else:
                i += 1
        for theta_c in sorted(set(float(t) for t in classification_thresholds)):
            for s, e in runs:
                run_mean = float(masks[s : e + 1].mean())
                for i in range(s, e + 1):
                    action = [float(p) for p in probs[i, :-1]]
                    top = max(action)
                    if not top >= theta_c:  # a NaN threshold admits nothing
                        continue
                    key = (s, e, action.index(top) + 1)
                    score = top * run_mean
                    if score > best.get(key, -1.0):
                        best[key] = score
    return sorted(key + (score,) for key, score in best.items())


def reference_soft_nms(detections, sigma, score_floor):
    """Gaussian Soft-NMS by direct rescans.

    detections: [(start, end, class, score)]. Each round keeps the remaining
    detection with the highest score (ties: smallest (start, end, class),
    then input order), stops once that score is below the floor, and
    multiplies every other remaining score by exp(-IoU^2 / sigma). Returns
    the kept detections with their decayed scores, in the order kept.
    """
    remaining = list(detections)
    kept = []
    while remaining:
        best_i = min(
            range(len(remaining)),
            key=lambda i: (-remaining[i][3],) + tuple(remaining[i][:3]),
        )
        start, end, cls, score = remaining.pop(best_i)
        if score < score_floor:
            break
        kept.append((start, end, cls, score))
        decayed = []
        for s, e, c, v in remaining:
            iou = interval_iou(start, end, s, e)
            decayed.append((s, e, c, v * math.exp(-(iou * iou) / sigma)))
        remaining = decayed
    return kept


def finite_difference(fn, x, h=1e-6):
    """Central finite differences of a scalar function over a flat vector."""
    grad = []
    for i in range(len(x)):
        up = list(x)
        dn = list(x)
        up[i] += h
        dn[i] -= h
        grad.append((fn(up) - fn(dn)) / (2.0 * h))
    return grad


def assert_gradients_close(analytic, numeric, rel_tol=1e-5, abs_tol=1e-8):
    for a, n in zip(analytic, numeric):
        if abs(a - n) > abs_tol and abs(a - n) > rel_tol * max(abs(a), abs(n)):
            raise AssertionError(f"gradient mismatch: analytic={a!r} numeric={n!r}")


def softmax_list(logits):
    m = max(logits)
    exps = [math.exp(z - m) for z in logits]
    total = sum(exps)
    return [e / total for e in exps]


def splitmix64_finalizer(h):
    """splitmix64's output mix of a 64-bit integer, in Python ints mod 2**64."""
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) % 2**64
    return h ^ (h >> 31)


def reference_complement_pick(row, seed, epoch, label_count, target):
    """One row's complementary class: starting from the salt, fold each
    little-endian 64-bit word of the row's float64 bytes in with h =
    splitmix64(h ^ word); pick 1 + h % (K - 1), shifted past the target."""
    h = int(np.random.SeedSequence([seed, 0xD44, epoch]).generate_state(1, np.uint64)[0])
    data = struct.pack(f"<{len(row)}d", *row)
    for i in range(0, len(data), 8):
        h = splitmix64_finalizer(h ^ int.from_bytes(data[i : i + 8], "little"))
    pick = 1 + h % (label_count - 1)
    return pick if pick < target else pick + 1


# The snippet model's allocating formulas: every intermediate is a fresh array
# and params/grads/moments are dicts of field name -> array (mask_b a float).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def reference_forward(params, x):
    """(probs, scores, pre_hidden, hidden) of the two-head MLP."""
    z1 = x @ params["trunk_w"] + params["trunk_b"]
    h = np.maximum(z1, 0.0)
    logits = h @ params["class_w"] + params["class_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=1, keepdims=True)
    u = h @ params["mask_w"] + params["mask_b"]
    scores = 1.0 / (1.0 + np.exp(-u))
    return probs, scores, z1, h


def reference_backward(params, x, pre_hidden, hidden, scores, grad_logits, grad_mask):
    """Exact gradients given dLoss/dlogits and dLoss/dscore (post-sigmoid)."""
    gu = grad_mask * scores * (1.0 - scores)
    dh = grad_logits @ params["class_w"].T + gu[:, None] * params["mask_w"][None, :]
    dz1 = dh * (pre_hidden > 0.0)
    return {
        "trunk_w": x.T @ dz1,
        "trunk_b": dz1.sum(axis=0),
        "class_w": hidden.T @ grad_logits,
        "class_b": grad_logits.sum(axis=0),
        "mask_w": hidden.T @ gu,
        "mask_b": float(gu.sum()),
    }


def reference_adam(params, grads, m, v, t, learning_rate):
    """Update number t (1-based) with bias correction; returns new (params, m, v)."""
    new_params, new_m, new_v = {}, {}, {}
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, g in grads.items():
        new_m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
        new_v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * np.square(g)
        update = learning_rate * (new_m[name] / bc1) / (np.sqrt(new_v[name] / bc2) + ADAM_EPS)
        new_params[name] = params[name] - update
    return new_params, new_m, new_v
