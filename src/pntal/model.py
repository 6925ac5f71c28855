"""Small differentiable snippet model and its from-scratch optimizer.

One shared hidden layer feeds a softmax classification head over C+1 classes
and a sigmoid mask head that scores the snippet as foreground. Training runs
in a Workspace: forward and backward write into its named batch buffers,
backward gives exact reverse-mode gradients, and updates use an
adaptive-moment rule with bias correction over its flat parameter vector.
The fine-tuning schedule applies cosine decay to the base learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Error, ShapeMismatchError, softmax_rows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PARAM_FIELDS = ("trunk_w", "trunk_b", "class_w", "class_b", "mask_w", "mask_b")

CHECKPOINT_MAGIC = "pntal-checkpoint"
CHECKPOINT_VERSION = 1


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
    mask_b: float  # a 0-d array view in Workspace.params and Workspace.grads

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


def _views(flat: np.ndarray, shapes) -> dict:
    """Consecutive views of a flat vector, one per (name, shape)."""
    views, offset = {}, 0
    for name, shape in shapes:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


class Workspace:
    """The memory of one training phase, allocated once.

    ``theta``, ``grad``, ``m`` and ``v`` are flat float64 vectors of one
    layout: parameters, gradients and the two adaptive moments. ``params``
    and ``grads`` are ModelParams of views into ``theta`` and ``grad``, so
    ``step`` updates ``params`` in place in one elementwise pass.
    Construction copies the given parameters; they are never written.

    Every batch array of a step is a named buffer of up to ``rows`` rows,
    taken from ``buffer``: the caller's feature gather, the activations and
    backward temporaries of forward_batch and backward_batch, the
    supervision gather and the loss terms. ``reserve`` sizes the table and
    ``release`` frees it between uses.
    """

    def __init__(self, params: ModelParams, rows: int = 0):
        shapes = [(name, np.shape(getattr(params, name))) for name in PARAM_FIELDS]
        size = sum(math.prod(shape) for _, shape in shapes)
        self.theta = np.concatenate([np.ravel(getattr(params, name)) for name in PARAM_FIELDS])
        self.grad = np.zeros(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step_a = np.empty(size)
        self._step_b = np.empty(size)
        self.step_count = 0
        self.params = ModelParams(**_views(self.theta, shapes))
        self.grads = ModelParams(**_views(self.grad, shapes))
        self.reserve(rows)

    def reserve(self, rows: int) -> None:
        """Batch buffers for up to ``rows`` rows, replacing any held before."""
        self.rows = rows
        self.forward_rows = 0
        self._buffers = {}

    def buffer(self, name: str, n: int, tail: tuple = (), dtype=np.float64) -> np.ndarray:
        """The first n rows of the (rows, *tail) buffer ``name``, made on first
        use after ``reserve``."""
        if n > self.rows:
            raise ShapeMismatchError(f"{n} rows exceed the workspace's {self.rows}")
        key = (name, tail, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty((self.rows, *tail), dtype=dtype)
        return buf[:n]

    def release(self) -> None:
        self.reserve(0)

    def snapshot(self) -> ModelParams:
        """A copy of the current parameters that later steps leave alone."""
        fields = {name: getattr(self.params, name).copy() for name in PARAM_FIELDS}
        fields["mask_b"] = float(fields["mask_b"])
        return ModelParams(**fields)


def forward_batch(params: ModelParams, features: np.ndarray, work: Optional[Workspace] = None):
    """Run the model over an (N, d) feature matrix.

    Returns (probs (N, K), mask_scores (N,), hidden (N, h)), the hidden
    activations after the ReLU. Given a workspace (whose ``params`` these
    must be), the results are its "probs", "scores" and "hidden" buffers,
    where backward_batch reads them; otherwise they are new arrays.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeMismatchError(
            f"features shape {x.shape} incompatible with input dim {params.input_dim}"
        )
    n, h, k = x.shape[0], params.hidden_width, params.label_count
    if work is None:
        hidden, probs, scores = np.empty((n, h)), np.empty((n, k)), np.empty(n)
    else:
        hidden = work.buffer("hidden", n, (h,))
        probs, scores = work.buffer("probs", n, (k,)), work.buffer("scores", n)
        work.forward_rows = n
    np.matmul(x, params.trunk_w, out=hidden)
    hidden += params.trunk_b
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(hidden, params.class_w, out=probs)
    probs += params.class_b
    softmax_rows(probs, out=probs)
    np.matmul(hidden, params.mask_w, out=scores)
    scores += params.mask_b
    np.negative(scores, out=scores)
    np.exp(scores, out=scores)
    scores += 1.0
    np.divide(1.0, scores, out=scores)
    return probs, scores, hidden


def backward_batch(
    work: Workspace, features: np.ndarray, grad_logits: np.ndarray, grad_mask: np.ndarray
) -> ModelParams:
    """Exact gradients of the workspace's last forward pass, into work.grads.

    features are that pass's inputs; grad_logits is dLoss/dlogits (N, K) and
    grad_mask is dLoss/dscore (N,), taken with respect to the post-sigmoid
    mask score.
    """
    n = work.forward_rows
    gl = np.asarray(grad_logits, dtype=np.float64)
    gs = np.asarray(grad_mask, dtype=np.float64)
    if features.shape[0] != n or gl.shape != (n, work.params.label_count) or gs.shape != (n,):
        raise ShapeMismatchError("inputs and upstream gradients do not match the forward pass")
    params, grads, width = work.params, work.grads, work.params.hidden_width
    h, s = work.buffer("hidden", n, (width,)), work.buffer("scores", n)
    gu, tmp = work.buffer("grad_u", n), work.buffer("grad_u_tmp", n)
    np.multiply(gs, s, out=gu)
    np.subtract(1.0, s, out=tmp)
    gu *= tmp
    np.matmul(h.T, gl, out=grads.class_w)
    np.sum(gl, axis=0, out=grads.class_b)
    np.matmul(h.T, gu, out=grads.mask_w)
    np.sum(gu, out=grads.mask_b)
    # The ReLU ran in place: hidden > 0 exactly where pre-activation > 0.
    dh, dh_mask = work.buffer("grad_hidden", n, (width,)), work.buffer("grad_hidden_mask", n, (width,))
    active = work.buffer("active", n, (width,), bool)
    np.matmul(gl, params.class_w.T, out=dh)
    np.multiply(gu[:, None], params.mask_w[None, :], out=dh_mask)
    dh += dh_mask
    np.greater(h, 0.0, out=active)
    dh *= active
    np.matmul(features.T, dh, out=grads.trunk_w)
    np.sum(dh, axis=0, out=grads.trunk_b)
    return grads


def step(work: Workspace, learning_rate: float) -> None:
    """One adaptive-moment update of work.params in place, with bias correction.

    The caller owns the schedule and passes each step's learning rate. Every
    parameter, weights and biases alike, moves by
    learning_rate * m_hat / (sqrt(v_hat) + eps); a non-finite gradient aborts
    the update before anything changes.
    """
    if not np.isfinite(work.grad).all():
        raise NonFiniteGradientError("aborted update: non-finite gradient")
    t = work.step_count + 1
    g, m, v, a, b = work.grad, work.m, work.v, work._step_a, work._step_b
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    m += a
    v *= ADAM_BETA2
    np.square(g, out=a)
    a *= 1.0 - ADAM_BETA2
    v += a
    np.divide(m, 1.0 - ADAM_BETA1**t, out=a)
    a *= learning_rate
    np.divide(v, 1.0 - ADAM_BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += ADAM_EPS
    a /= b
    work.theta -= a
    work.step_count = t


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
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
        if any(s < 0 for s in shape) or flat.size != int(np.prod(shape)):
            raise CheckpointFormatError(
                f"{path}: section {name} has {flat.size} values for shape {shape}"
            )
        values[name] = flat.reshape(shape)
        i += 2
    tail = next((j for j in range(i, len(lines)) if lines[j].strip()), None)
    if tail is not None:
        raise CheckpointFormatError(f"{path}: line {tail + 1}: content after section mask_b")
    mask_b = values["mask_b"]
    if mask_b.shape != (1,):
        raise CheckpointFormatError(f"{path}: section mask_b has shape {mask_b.shape}, not (1,)")
    values["mask_b"] = float(mask_b[0])
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
