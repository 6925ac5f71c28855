"""Small differentiable snippet model and its from-scratch optimizer.

One shared hidden layer feeds a softmax classification head over C+1 classes
and a sigmoid mask head that scores the snippet as foreground. Forward caches
activations; backward produces exact reverse-mode gradients. Updates use an
adaptive-moment rule with bias correction; the fine-tuning schedule applies
cosine decay to the base learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Error, softmax_rows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAM_FIELDS = ("trunk_w", "trunk_b", "class_w", "class_b", "mask_w", "mask_b")

CHECKPOINT_MAGIC = "pntal-checkpoint"
CHECKPOINT_VERSION = 1


class ShapeMismatchError(Error, ValueError):
    pass


class StaleCacheError(Error, RuntimeError):
    pass


class NonFiniteGradientError(Error, RuntimeError):
    pass


class CheckpointFormatError(Error, ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ModelParams:
    trunk_w: np.ndarray  # (d, h)
    trunk_b: np.ndarray  # (h,)
    class_w: np.ndarray  # (h, C+1)
    class_b: np.ndarray  # (C+1,)
    mask_w: np.ndarray  # (h,)
    mask_b: float

    def __post_init__(self):
        d, h = self.trunk_w.shape
        if self.trunk_b.shape != (h,):
            raise ShapeMismatchError("trunk bias shape mismatch")
        if self.class_w.shape[0] != h or self.class_b.shape != (self.class_w.shape[1],):
            raise ShapeMismatchError("classification head shape mismatch")
        if self.mask_w.shape != (h,):
            raise ShapeMismatchError("mask head shape mismatch")
        for name in PARAM_FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")

    @property
    def input_dim(self) -> int:
        return self.trunk_w.shape[0]

    @property
    def hidden_width(self) -> int:
        return self.trunk_w.shape[1]

    @property
    def label_count(self) -> int:
        return self.class_w.shape[1]

    def checksum(self) -> tuple:
        return tuple(float(np.sum(getattr(self, name))) for name in PARAM_FIELDS)


@dataclass(eq=False)
class ParamGrads:
    trunk_w: np.ndarray
    trunk_b: np.ndarray
    class_w: np.ndarray
    class_b: np.ndarray
    mask_w: np.ndarray
    mask_b: float

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(getattr(self, name))) for name in PARAM_FIELDS)

    def scaled(self, factor: float) -> "ParamGrads":
        return ParamGrads(*(getattr(self, n) * factor for n in PARAM_FIELDS))


def _glorot(rng, fan_in, fan_out, shape):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(input_dim: int, hidden_width: int, label_count: int, seed: int) -> ModelParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, seeded."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D17]))
    return ModelParams(
        trunk_w=_glorot(rng, input_dim, hidden_width, (input_dim, hidden_width)),
        trunk_b=np.zeros(hidden_width),
        class_w=_glorot(rng, hidden_width, label_count, (hidden_width, label_count)),
        class_b=np.zeros(label_count),
        mask_w=_glorot(rng, hidden_width, 1, (hidden_width,)),
        mask_b=0.0,
    )


@dataclass(eq=False)
class ForwardCache:
    params: ModelParams
    checksum: tuple
    features: np.ndarray  # (N, d)
    pre_hidden: np.ndarray  # (N, h)
    hidden: np.ndarray  # (N, h)
    probs: np.ndarray  # (N, K)
    mask_scores: np.ndarray  # (N,)


def forward_batch(params: ModelParams, features: np.ndarray):
    """Run the model over an (N, d) feature matrix.

    Returns (probs (N, K), mask_scores (N,), cache).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeMismatchError(
            f"features shape {x.shape} incompatible with input dim {params.input_dim}"
        )
    z1 = x @ params.trunk_w + params.trunk_b
    h = np.maximum(z1, 0.0)
    logits = h @ params.class_w + params.class_b
    probs = softmax_rows(logits)
    u = h @ params.mask_w + params.mask_b
    scores = 1.0 / (1.0 + np.exp(-u))
    cache = ForwardCache(
        params=params,
        checksum=params.checksum(),
        features=x,
        pre_hidden=z1,
        hidden=h,
        probs=probs,
        mask_scores=scores,
    )
    return probs, scores, cache


def backward_batch(cache: ForwardCache, grad_logits: np.ndarray, grad_mask: np.ndarray) -> ParamGrads:
    """Exact gradients of the cached forward pass.

    grad_logits is dLoss/dlogits (N, K); grad_mask is dLoss/dscore (N,),
    taken with respect to the post-sigmoid mask score.
    """
    if cache.params.checksum() != cache.checksum:
        raise StaleCacheError("parameters changed since forward; rerun forward")
    gl = np.asarray(grad_logits, dtype=np.float64)
    gs = np.asarray(grad_mask, dtype=np.float64)
    n = cache.features.shape[0]
    if gl.shape != cache.probs.shape or gs.shape != (n,):
        raise ShapeMismatchError("upstream gradient shapes do not match cache")

    s = cache.mask_scores
    gu = gs * s * (1.0 - s)
    h = cache.hidden
    grads = ParamGrads(
        trunk_w=np.zeros_like(cache.params.trunk_w),
        trunk_b=np.zeros_like(cache.params.trunk_b),
        class_w=h.T @ gl,
        class_b=gl.sum(axis=0),
        mask_w=h.T @ gu,
        mask_b=float(gu.sum()),
    )
    dh = gl @ cache.params.class_w.T + gu[:, None] * cache.params.mask_w[None, :]
    dz1 = dh * (cache.pre_hidden > 0.0)
    grads.trunk_w = cache.features.T @ dz1
    grads.trunk_b = dz1.sum(axis=0)
    return grads


@dataclass(eq=False)
class OptimizerState:
    """Adaptive-moment accumulators plus the base learning rate."""

    m: ParamGrads
    v: ParamGrads
    step_count: int
    base_lr: float


def init_optimizer(params: ModelParams, base_lr: float) -> OptimizerState:
    zeros = lambda: ParamGrads(
        trunk_w=np.zeros_like(params.trunk_w),
        trunk_b=np.zeros_like(params.trunk_b),
        class_w=np.zeros_like(params.class_w),
        class_b=np.zeros_like(params.class_b),
        mask_w=np.zeros_like(params.mask_w),
        mask_b=0.0,
    )
    return OptimizerState(m=zeros(), v=zeros(), step_count=0, base_lr=base_lr)


def step(
    params: ModelParams,
    grads: ParamGrads,
    state: OptimizerState,
    learning_rate: Optional[float] = None,
    weight_decay: float = 0.0,
):
    """One adaptive-moment update with bias correction; returns (params, state).

    weight_decay applies decoupled from the moment estimates (weights shrink
    by lr * weight_decay * w per step); biases are not decayed.
    """
    if not grads.is_finite():
        raise NonFiniteGradientError("aborted update: non-finite gradient")
    lr = state.base_lr if learning_rate is None else learning_rate
    t = state.step_count + 1
    new_params = {}
    new_m = {}
    new_v = {}
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        m = ADAM_BETA1 * getattr(state.m, name) + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * getattr(state.v, name) + (1.0 - ADAM_BETA2) * np.square(g)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if weight_decay and name.endswith("_w"):
            update = update + lr * weight_decay * getattr(params, name)
        new_params[name] = getattr(params, name) - update
        new_m[name] = m
        new_v[name] = v
    new_params["mask_b"] = float(new_params["mask_b"])
    new_m["mask_b"] = float(new_m["mask_b"])
    new_v["mask_b"] = float(new_v["mask_b"])
    return (
        ModelParams(**new_params),
        OptimizerState(m=ParamGrads(**new_m), v=ParamGrads(**new_v), step_count=t, base_lr=state.base_lr),
    )


def cosine_decay(base_lr: float, step_index: int, total_steps: int) -> float:
    """Cosine learning-rate decay from base_lr toward zero."""
    if total_steps <= 1:
        return base_lr
    frac = step_index / (total_steps - 1)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def save_params(params: ModelParams, path) -> None:
    """Versioned flat-text checkpoint: header, then shape + row-major values."""
    lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"]
    for name in PARAM_FIELDS:
        value = getattr(params, name)
        arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
        shape = " ".join(str(s) for s in arr.shape)
        lines.append(f"{name} {shape}")
        lines.append(" ".join(repr(float(x)) for x in arr.ravel()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path, expected_input_dim=None, expected_hidden=None, expected_labels=None) -> ModelParams:
    """Load a checkpoint, validating the header and (optionally) the shapes."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"{path}: not a model checkpoint")
    if lines[0] != f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}":
        raise CheckpointFormatError(f"{path}: unsupported checkpoint version {lines[0]!r}")
    values = {}
    i = 1
    for name in PARAM_FIELDS:
        if i + 1 >= len(lines):
            raise CheckpointFormatError(f"{path}: truncated in section {name}")
        header = lines[i].split()
        if not header or header[0] != name:
            raise CheckpointFormatError(f"{path}: expected section {name}, got {lines[i]!r}")
        try:
            shape = tuple(int(s) for s in header[1:])
            flat = np.array([float(x) for x in lines[i + 1].split()], dtype=np.float64)
        except ValueError as exc:
            raise CheckpointFormatError(f"{path}: bad values in section {name}: {exc}") from None
        if flat.size != int(np.prod(shape)):
            raise CheckpointFormatError(
                f"{path}: section {name} has {flat.size} values for shape {shape}"
            )
        values[name] = flat.reshape(shape)
        i += 2
    values["mask_b"] = float(values["mask_b"][0])
    try:
        params = ModelParams(**values)
    except (ShapeMismatchError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    if expected_input_dim is not None and params.input_dim != expected_input_dim:
        raise ShapeMismatchError(
            f"{path}: checkpoint input dim {params.input_dim} != config {expected_input_dim}"
        )
    if expected_hidden is not None and params.hidden_width != expected_hidden:
        raise ShapeMismatchError(
            f"{path}: checkpoint hidden width {params.hidden_width} != config {expected_hidden}"
        )
    if expected_labels is not None and params.label_count != expected_labels:
        raise ShapeMismatchError(
            f"{path}: checkpoint label count {params.label_count} != config {expected_labels}"
        )
    return params
