"""Synthetic untrimmed-video benchmark with a sealed ground-truth channel.

Each video is a sequence of snippet feature vectors: inside an action
instance the feature is a render of the class prototype plus Gaussian noise,
elsewhere pure noise around zero. Class prototypes are unit vectors arranged
in confusable groups; the separation knob sets the within-group cosine
similarity (cross-group prototypes are orthogonal).

A configurable fraction of action instances is rendered *ambiguously*: the
feature blends toward a sibling prototype from the same group (or shrinks
toward background when the class has no sibling), while the label stays the
true class. This models content that genuinely resembles another class, so
predicted distributions on such snippets split over a few plausible classes
and prediction errors bury the true class among the top-ranked non-targets.
Blend coefficients stay strictly below the midpoint, so with zero noise the
true prototype is still the nearest one.

Unlabeled training videos are stripped of annotations before they are
returned; their ground truth lives only in the benchmark's sealed map, which
evaluation and audit code may read but training code never sees.

Generation derives one RNG per video from (seed, stream, video index), so
output is independent of generation order.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .core import ActionInstance, Error, ExperimentConfig, VideoRecord, prototype_dimensions

MAX_INSTANCES = 5
MIN_DURATION = 8
DURATION_GEOMETRIC_P = 0.12
MAX_DURATION = 35

_STREAM_TRAIN = 1
_STREAM_TEST = 2
_STREAM_SPLIT = 3

MAGIC = b"PNTLFEAT"
CONTAINER_VERSION = 1


class InfeasiblePlacementError(Error, RuntimeError):
    pass


class BadMagicError(Error, ValueError):
    pass


class VersionMismatchError(Error, ValueError):
    pass


class ShapeMismatchError(Error, ValueError):
    pass


class CorruptRecordError(Error, ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Benchmark:
    labeled: tuple
    unlabeled: tuple
    test: tuple
    sealed: dict  # video_id -> tuple[ActionInstance], never exposed to training


PROTOTYPE_GROUP_SIZE = 2

def class_prototypes(class_count: int, feature_dim: int, separation: float, seed: int) -> np.ndarray:
    """One unit prototype per class, arranged in confusable groups.

    Classes come in pairs sharing a common direction; the within-pair cosine
    similarity is 1 - separation, and classes in different pairs are
    orthogonal. Confusable pairs give the benchmark genuinely ambiguous
    snippets whose predicted distributions spread over a couple of classes,
    which is the regime the label-space partition is built for.
    """
    basis = _prototype_basis(class_count, feature_dim, seed)
    groups = _class_groups(class_count)
    shared_weight = np.sqrt(1.0 - separation)
    unique_weight = np.sqrt(separation)
    protos = np.zeros((class_count, feature_dim))
    cursor = 0
    for group in groups:
        if len(group) == 1:
            protos[group[0]] = basis[cursor]
            cursor += 1
            continue
        shared = basis[cursor]
        cursor += 1
        for cls in group:
            protos[cls] = shared_weight * shared + unique_weight * basis[cursor]
            cursor += 1
    return protos


def _class_groups(class_count: int):
    return [
        list(range(start, min(start + PROTOTYPE_GROUP_SIZE, class_count)))
        for start in range(0, class_count, PROTOTYPE_GROUP_SIZE)
    ]


def _prototype_basis(class_count: int, feature_dim: int, seed: int) -> np.ndarray:
    needed = prototype_dimensions(class_count)
    if needed > feature_dim:
        raise ValueError(
            f"feature_dim {feature_dim} too small for {class_count} classes "
            f"(needs >= {needed} dimensions)"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9707]))
    raw = rng.standard_normal((feature_dim, needed))
    basis, _ = np.linalg.qr(raw)
    return basis.T  # rows orthonormal


def place_instances(rng, n_snippets: int, class_count: int) -> List[ActionInstance]:
    """Sample 1-5 non-overlapping instances with geometric-ish durations.

    Consecutive instances keep at least one background snippet between them so
    distinct instances never merge into a single foreground run. Durations
    shrink on retry; if even unit durations cannot fit, placement is
    infeasible.
    """
    count = int(rng.integers(1, MAX_INSTANCES + 1))
    durations = np.minimum(
        MIN_DURATION + rng.geometric(DURATION_GEOMETRIC_P, size=count), MAX_DURATION
    ).astype(np.int64)
    while count >= 1:
        needed = int(durations.sum()) + 2 * (count - 1)
        if needed <= n_snippets:
            break
        if np.all(durations == 1):
            count -= 1
            durations = durations[:count]
        else:
            durations = np.maximum(durations // 2, 1)
    if count < 1 or n_snippets < 1:
        raise InfeasiblePlacementError(
            f"cannot place any instance in {n_snippets} snippets"
        )
    free = n_snippets - int(durations.sum()) - 2 * (count - 1)
    cuts = np.sort(rng.integers(0, free + 1, size=count))
    instances = []
    cursor = -2  # so the first instance may start at snippet 0
    for i in range(count):
        gap = int(cuts[i]) - (int(cuts[i - 1]) if i else 0)
        start = cursor + gap + 2
        end = start + int(durations[i]) - 1
        cursor = end
        cls = int(rng.integers(1, class_count + 1))
        instances.append(ActionInstance(start=start, end=end, class_idx=cls))
    return instances


def prototype_siblings(class_count: int) -> Dict[int, List[int]]:
    """Same-group classes (1-based) for every class id."""
    return {
        cls + 1: [c + 1 for c in group if c != cls]
        for group in _class_groups(class_count)
        for cls in group
    }


SIBLING_BLEND_RANGE = (0.42, 0.50)  # strictly below 0.5: own prototype stays nearest
WEAK_RENDER_RANGE = (0.60, 0.80)  # strictly above 0.5: own prototype beats background
DISTRACTOR_RANGE = (0.25, 0.48)  # strictly below 0.5: background stays nearest


def _video_rng(seed: int, stream: int, index: int):
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def _instance_render(rng, class_idx, siblings, protos, ambiguous_ratio):
    """Rendered base feature for one instance (before per-snippet noise):
    the class prototype, a blend toward a sibling class, or a weak render."""
    proto = protos[class_idx - 1]
    if rng.random() >= ambiguous_ratio:
        return proto
    if siblings and rng.random() < 0.7:
        sibling = protos[int(rng.choice(siblings)) - 1]
        blend = rng.uniform(*SIBLING_BLEND_RANGE)
        return (1.0 - blend) * proto + blend * sibling
    return rng.uniform(*WEAK_RENDER_RANGE) * proto


def _background_gaps(instances, n: int):
    """Maximal background runs around/between instances."""
    gaps = []
    cursor = 0
    for inst in sorted(instances, key=lambda i: i.start):
        if inst.start > cursor:
            gaps.append((cursor, inst.start - 1))
        cursor = inst.end + 1
    if cursor < n:
        gaps.append((cursor, n - 1))
    return gaps


def _make_video(video_id, rng, protos, config, labeled: bool):
    n = config.snippets_per_video
    instances = place_instances(rng, n, config.class_count)
    siblings = prototype_siblings(config.class_count)
    features = config.noise_sigma * rng.standard_normal((n, config.feature_dim))
    for inst in instances:
        base = _instance_render(
            rng, inst.class_idx, siblings[inst.class_idx], protos, config.ambiguous_ratio
        )
        features[inst.start : inst.end + 1] += base
    # Distractor background: some background runs carry a faint action tinge,
    # staying strictly closer to the background mean than to any prototype.
    for start, end in _background_gaps(instances, n):
        if rng.random() < config.distractor_ratio:
            cls = int(rng.integers(1, config.class_count + 1))
            features[start : end + 1] += rng.uniform(*DISTRACTOR_RANGE) * protos[cls - 1]
    record = VideoRecord(
        video_id=video_id,
        features=features,
        instances=tuple(instances) if labeled else (),
        labeled=labeled,
    )
    return record, tuple(instances)


def generate_benchmark(config: ExperimentConfig) -> Benchmark:
    """Build the train/test splits; deterministic under config.seed."""
    protos = class_prototypes(
        config.class_count, config.feature_dim, config.class_separation, config.seed
    )
    split_rng = _video_rng(config.seed, _STREAM_SPLIT, 0)
    order = split_rng.permutation(config.train_video_count)
    n_labeled = max(1, int(round(config.labeled_ratio * config.train_video_count)))
    labeled_ids = set(int(i) for i in order[:n_labeled])

    labeled, unlabeled = [], []
    sealed: Dict[str, tuple] = {}
    for i in range(config.train_video_count):
        is_labeled = i in labeled_ids
        video_id = f"train-{i:04d}"
        record, instances = _make_video(
            video_id, _video_rng(config.seed, _STREAM_TRAIN, i), protos, config, is_labeled
        )
        if is_labeled:
            labeled.append(record)
        else:
            unlabeled.append(record)
            sealed[video_id] = instances
    test = []
    for i in range(config.test_video_count):
        record, _ = _make_video(
            f"test-{i:04d}", _video_rng(config.seed, _STREAM_TEST, i), protos, config, True
        )
        test.append(record)
    return Benchmark(labeled=tuple(labeled), unlabeled=tuple(unlabeled), test=tuple(test), sealed=sealed)


# ---------------------------------------------------------------------------
# Feature container: versioned binary format for externally computed features.
#
#   magic 8s | version u32 | feature_dim u32 | class_count u32 | video_count u32
#   per video:
#     id_len u16 | id utf-8 | n_snippets u32 | labeled u8 | instance_count u32
#     per instance: start u32 | end u32 | class u32 | score f64
#     value_count u64 (= n_snippets * feature_dim) | values f64 little-endian
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<8sIIII")
_VIDEO_HEAD = struct.Struct("<H")
_VIDEO_META = struct.Struct("<IBI")
_INSTANCE = struct.Struct("<IIId")
_VALUE_COUNT = struct.Struct("<Q")


def write_feature_file(path, videos, class_count: int, feature_dim: int) -> None:
    """Serialize VideoRecords into the feature container format."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, CONTAINER_VERSION, feature_dim, class_count, len(videos)))
        for video in videos:
            vid = video.video_id.encode("utf-8")
            fh.write(_VIDEO_HEAD.pack(len(vid)))
            fh.write(vid)
            fh.write(_VIDEO_META.pack(video.snippet_count, 1 if video.labeled else 0, len(video.instances)))
            for inst in video.instances:
                fh.write(_INSTANCE.pack(inst.start, inst.end, inst.class_idx, inst.score))
            if video.features.shape[1] != feature_dim:
                raise ShapeMismatchError(
                    f"video {video.video_id}: features {video.features.shape} != "
                    f"({video.snippet_count}, {feature_dim})"
                )
            flat = np.ascontiguousarray(video.features, dtype="<f8").ravel()
            fh.write(_VALUE_COUNT.pack(flat.size))
            fh.write(flat.tobytes())


class _Reader:
    """Reads a container from its open file one field at a time. Each read is
    checked against the file's size before it is made, so a corrupt count
    fails without a large allocation."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.offset = 0
        self.path = path

    def take(self, n: int, context: str) -> bytes:
        chunk = self.fh.read(n) if self.offset + n <= self.size else b""
        if len(chunk) != n:
            raise CorruptRecordError(
                f"{self.path}: truncated while reading {context} at byte offset {self.offset}"
            )
        self.offset += n
        return chunk

    def unpack(self, spec: struct.Struct, context: str):
        return spec.unpack(self.take(spec.size, context))


def load_feature_file(path) -> List[VideoRecord]:
    """Read a feature container back into VideoRecords, validating invariants.

    Any corruption raises this module's errors (CorruptRecordError names the
    byte offset or the video).
    """
    with open(path, "rb") as fh:
        return _read_videos(_Reader(fh, path), path)


def _read_videos(reader: _Reader, path) -> List[VideoRecord]:
    magic, version, feature_dim, class_count, video_count = reader.unpack(_HEADER, "header")
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}")
    if version != CONTAINER_VERSION:
        raise VersionMismatchError(f"{path}: unsupported container version {version}")
    if feature_dim < 1:
        # Zero-width rows would let any snippet count load from no bytes.
        raise CorruptRecordError(f"{path}: feature dimension {feature_dim} in header")
    videos = []
    seen = set()
    for v in range(video_count):
        (id_len,) = reader.unpack(_VIDEO_HEAD, f"video #{v} id length")
        id_offset = reader.offset
        try:
            video_id = str(reader.take(id_len, f"video #{v} id"), "utf-8")
        except UnicodeDecodeError:
            raise CorruptRecordError(
                f"{path}: video #{v} id is not UTF-8 at byte offset {id_offset}"
            ) from None
        if video_id in seen:
            raise CorruptRecordError(f"{path}: video #{v} repeats the id {video_id!r}")
        seen.add(video_id)
        n_snippets, labeled, instance_count = reader.unpack(_VIDEO_META, f"video {video_id} metadata")
        instances = []
        for j in range(instance_count):
            start, end, cls, score = reader.unpack(_INSTANCE, f"video {video_id} instance #{j}")
            if cls > class_count:
                raise CorruptRecordError(
                    f"{path}: video {video_id} instance #{j} class {cls} exceeds class count {class_count}"
                )
            try:
                instances.append(ActionInstance(start=start, end=end, class_idx=cls, score=score))
            except ValueError as exc:
                raise CorruptRecordError(f"{path}: video {video_id} instance #{j}: {exc}") from exc
        (value_count,) = reader.unpack(_VALUE_COUNT, f"video {video_id} value count")
        if value_count != n_snippets * feature_dim:
            raise ShapeMismatchError(
                f"{path}: video {video_id} has {value_count} feature values, "
                f"expected {n_snippets} x {feature_dim}"
            )
        raw = reader.take(8 * value_count, f"video {video_id} features")
        features = np.frombuffer(raw, dtype="<f8").reshape(n_snippets, feature_dim)
        try:
            videos.append(VideoRecord(video_id, features, tuple(instances), bool(labeled)))
        except ValueError as exc:
            raise CorruptRecordError(f"{path}: {exc}") from exc
    if reader.offset != reader.size:
        raise CorruptRecordError(
            f"{path}: {reader.size - reader.offset} trailing bytes at offset {reader.offset}"
        )
    return videos


def write_dataset_manifest(path, videos) -> None:
    """Human-readable listing: one line per video, then its instances."""
    lines = []
    for video in videos:
        lines.append(
            f"video {video.video_id} snippets={video.snippet_count} "
            f"labeled={'yes' if video.labeled else 'no'} instances={len(video.instances)}"
        )
        for inst in video.instances:
            lines.append(f"  instance start={inst.start} end={inst.end} class={inst.class_idx}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
