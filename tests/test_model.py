import math

import numpy as np
import pytest

from pntal import model
from pntal.losses import Supervision, batch_terms
from pntal.model import (
    CheckpointFormatError,
    ModelParams,
    NonFiniteGradientError,
    ShapeMismatchError,
    Workspace,
    backward_batch,
    cosine_decay,
    forward_batch,
    init_params,
    load_params,
    save_params,
    step,
)

from oracles import reference_adam, reference_backward, reference_forward


def zero_params(d=4, h=5, k=3):
    return ModelParams(
        trunk_w=np.zeros((d, h)),
        trunk_b=np.zeros(h),
        class_w=np.zeros((h, k)),
        class_b=np.zeros(k),
        mask_w=np.zeros(h),
        mask_b=0.0,
    )


def gradients(params, x, grad_logits, grad_mask):
    """backward_batch of one forward pass in a fresh workspace."""
    work = Workspace(params, rows=len(x))
    forward_batch(work.params, x, work)
    return backward_batch(work, x, grad_logits, grad_mask)


def as_dict(params):
    return {name: np.array(getattr(params, name)) for name in model.PARAM_FIELDS}


class TestForward:
    def test_zero_weights_uniform(self):
        params = zero_params(k=4)
        probs, scores, _ = forward_batch(params, np.ones((1, 4)))
        assert np.allclose(probs[0], 0.25)
        assert scores[0] == pytest.approx(0.5)

    def test_saturation(self):
        params = zero_params(k=3)
        params = ModelParams(
            trunk_w=params.trunk_w, trunk_b=np.ones(5),
            class_w=params.class_w, class_b=np.array([50.0, 0.0, 0.0]),
            mask_w=params.mask_w, mask_b=0.0,
        )
        probs, _, _ = forward_batch(params, np.zeros((1, 4)))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_golden_determinism(self):
        # Frozen reference values recorded from the seeded initializer.
        params = init_params(4, 6, 3, seed=0)
        x = np.array([0.3, -0.7, 1.1, 0.05])
        probs1, scores1, _ = forward_batch(params, x[None, :])
        probs2, scores2, _ = forward_batch(params, x[None, :])
        assert np.array_equal(probs1, probs2)
        assert scores1[0] == scores2[0]
        golden_probs = [0.2455366544229728, 0.43928543766524514, 0.3151779079117821]
        golden_score = 0.47229895629706037
        assert [float(v) for v in probs1[0]] == golden_probs
        assert float(scores1[0]) == golden_score

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            forward_batch(zero_params(d=4), np.ones((1, 5)))


class TestBackward:
    def test_zero_upstream(self):
        params = init_params(4, 5, 3, seed=1)
        grads = gradients(params, np.ones((1, 4)), np.zeros((1, 3)), np.zeros(1))
        for name in model.PARAM_FIELDS:
            assert np.all(np.asarray(getattr(grads, name)) == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        d, h, k, n = 4, 5, 3, 2
        params = init_params(d, h, k, seed=3)
        x = rng.normal(size=(n, d))
        gl = rng.normal(size=(n, k))
        gs = rng.normal(size=n)

        def scalar(p):
            probs, scores, _ = forward_batch(p, x)
            logits = np.log(probs)  # proportional to true logits up to row shift
            # use the raw pre-softmax path instead: recompute logits directly
            z1 = x @ p.trunk_w + p.trunk_b
            hidden = np.maximum(z1, 0.0)
            logits = hidden @ p.class_w + p.class_b
            return float((logits * gl).sum() + (scores * gs).sum())

        grads = gradients(params, x, gl, gs)
        for name in model.PARAM_FIELDS:
            arr = getattr(params, name)
            g = getattr(grads, name)
            if np.ndim(arr) == 0:
                for delta in (1e-6,):
                    up = {f: getattr(params, f) for f in model.PARAM_FIELDS}
                    dn = dict(up)
                    up[name] = arr + delta
                    dn[name] = arr - delta
                    fd = (scalar(ModelParams(**up)) - scalar(ModelParams(**dn))) / (2 * delta)
                assert abs(fd - g) <= 1e-5 * max(1.0, abs(fd))
                continue
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                a_up = arr.copy()
                a_dn = arr.copy()
                a_up[idx] += 1e-6
                a_dn[idx] -= 1e-6
                up = {f: getattr(params, f) for f in model.PARAM_FIELDS}
                dn = dict(up)
                up[name] = a_up
                dn[name] = a_dn
                fd = (scalar(ModelParams(**up)) - scalar(ModelParams(**dn))) / 2e-6
                assert abs(fd - g[idx]) <= 1e-5 * max(abs(fd), abs(g[idx]), 1e-3)
                it.iternext()

    def test_duplicate_snippet_doubles_gradient(self):
        params = init_params(3, 4, 3, seed=4)
        x = np.array([0.2, -0.4, 0.9])
        gl = np.array([0.3, -0.1, 0.5])
        single = gradients(params, x[None, :], gl[None, :], np.array([0.2]))
        double = gradients(params, np.stack([x, x]), np.stack([gl, gl]), np.array([0.2, 0.2]))
        for name in model.PARAM_FIELDS:
            assert np.array_equal(
                np.asarray(getattr(double, name)), 2.0 * np.asarray(getattr(single, name))
            )

    def test_upstream_shape_must_match_forward(self):
        params = init_params(3, 4, 3, seed=5)
        work = Workspace(params, rows=2)
        x = np.ones((2, 3))
        forward_batch(work.params, x, work)
        with pytest.raises(ShapeMismatchError):
            backward_batch(work, x[:1], np.zeros((1, 3)), np.zeros(1))


class TestWorkspace:
    def test_matches_reference_as_batches_shrink_and_grow(self):
        """Forward, backward and update in the workspace against the
        allocating reference formulas, bit for bit. A full batch, a partial
        last batch, a 1-row batch, then a full batch again: a step that read
        rows left over from a longer batch would differ."""
        rng = np.random.default_rng(8)
        d, h, k, rows = 6, 9, 4, 32
        params = init_params(d, h, k, seed=8)
        work = Workspace(params, rows=rows)
        ref = as_dict(params)
        ref["mask_b"] = params.mask_b
        m = {name: np.zeros_like(value) for name, value in ref.items()}
        v = {name: np.zeros_like(value) for name, value in ref.items()}
        for t, n in enumerate((rows, 13, 1, rows), start=1):
            x = rng.normal(size=(n, d))
            gl = rng.normal(size=(n, k))
            gs = rng.normal(size=n)
            want_probs, want_scores, pre_hidden, hidden = reference_forward(ref, x)
            features = work.buffer("features", n, (d,))
            features[...] = x
            probs, scores, got_hidden = forward_batch(work.params, features, work)
            assert np.array_equal(probs, want_probs)
            assert np.array_equal(scores, want_scores)
            assert np.array_equal(got_hidden, hidden)
            want_grads = reference_backward(ref, x, pre_hidden, hidden, want_scores, gl, gs)
            grads = backward_batch(work, features, gl, gs)
            for name in model.PARAM_FIELDS:
                assert np.array_equal(getattr(grads, name), want_grads[name]), (n, name)
            ref, m, v = reference_adam(ref, want_grads, m, v, t, learning_rate=0.01)
            step(work, learning_rate=0.01)
            assert work.step_count == t
            for name in model.PARAM_FIELDS:
                assert np.array_equal(getattr(work.params, name), ref[name]), (n, name)
                assert np.array_equal(getattr(work.params, name),
                                      np.asarray(getattr(work.snapshot(), name)))

    def test_copies_its_params(self):
        params = init_params(3, 4, 3, seed=6)
        before = as_dict(params)
        work = Workspace(params, rows=1)
        x = np.ones((1, 3))
        forward_batch(work.params, x, work)
        backward_batch(work, x, np.array([[1.0, -2.0, 0.5]]), np.array([0.3]))
        step(work, learning_rate=0.1)
        assert not np.array_equal(work.params.trunk_b, params.trunk_b)
        for name, value in before.items():
            assert np.array_equal(np.asarray(getattr(params, name)), value)

    def test_batch_larger_than_buffers(self):
        work = Workspace(init_params(3, 4, 3, seed=6), rows=2)
        with pytest.raises(ShapeMismatchError):
            forward_batch(work.params, np.ones((3, 3)), work)
        forward_batch(work.params, np.ones((2, 3)), work)
        work.release()
        with pytest.raises(ShapeMismatchError):
            forward_batch(work.params, np.ones((1, 3)), work)

    def test_named_buffers_live_until_reserve(self):
        work = Workspace(init_params(3, 4, 3, seed=6), rows=5)
        a = work.buffer("a", 3, (2,))
        assert a.shape == (3, 2) and a.dtype == np.float64
        assert np.shares_memory(a, work.buffer("a", 5, (2,)))
        assert not np.shares_memory(a, work.buffer("a", 5, (2,), dtype=bool))
        assert not np.shares_memory(a, work.buffer("b", 5, (2,)))
        work.reserve(8)
        assert not np.shares_memory(a, work.buffer("a", 8, (2,)))
        with pytest.raises(ShapeMismatchError):
            work.buffer("a", 9, (2,))
        work.release()
        assert work.buffer("a", 0, (2,)).shape == (0, 2)
        with pytest.raises(ShapeMismatchError):
            work.buffer("a", 1, (2,))


class TestStep:
    def test_zero_gradients_keep_params(self):
        params = init_params(3, 4, 3, seed=6)
        work = Workspace(params, rows=1)
        x = np.ones((1, 3))
        forward_batch(work.params, x, work)
        backward_batch(work, x, np.zeros((1, 3)), np.zeros(1))
        step(work, learning_rate=0.1)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(work.params, name)),
                                  np.asarray(getattr(params, name)))
        assert work.step_count == 1

    def test_zero_learning_rate(self):
        params = init_params(3, 4, 3, seed=7)
        work = Workspace(params, rows=1)
        x = np.ones((1, 3))
        forward_batch(work.params, x, work)
        backward_batch(work, x, np.array([[1.0, -2.0, 0.5]]), np.array([0.3]))
        step(work, learning_rate=0.0)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(work.params, name)),
                                  np.asarray(getattr(params, name)))

    def test_hand_computed_trajectory(self):
        # Single scalar parameter emulated via mask_b; known gradient sequence.
        work = Workspace(zero_params())
        grads_seq = [1.0, -0.5, 2.0]
        value = 0.0
        m = v = 0.0
        lr, b1, b2, eps = 0.1, model.ADAM_BETA1, model.ADAM_BETA2, model.ADAM_EPS
        for t, g in enumerate(grads_seq, start=1):
            work.grad[:] = 0.0
            work.grads.mask_b[()] = g
            step(work, learning_rate=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            value -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            assert float(work.params.mask_b) == pytest.approx(value, abs=1e-15)

    def test_non_finite_gradient_rejected(self):
        work = Workspace(zero_params())
        work.grads.trunk_w[...] = np.nan
        before = (work.theta.copy(), work.m.copy(), work.v.copy())
        with pytest.raises(NonFiniteGradientError):
            step(work, learning_rate=0.1)
        assert work.step_count == 0
        for got, want in zip((work.theta, work.m, work.v), before):
            assert np.array_equal(got, want)


def test_cosine_decay_schedule():
    assert cosine_decay(1.0, 0, 10) == pytest.approx(1.0)
    assert cosine_decay(1.0, 9, 10) == pytest.approx(0.0, abs=1e-12)
    mid = cosine_decay(1.0, 5, 11)
    assert mid == pytest.approx(0.5)
    assert cosine_decay(0.3, 0, 1) == 0.3


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(5, 6, 4, seed=9)
        path = tmp_path / "ckpt.txt"
        save_params(params, path)
        loaded = load_params(path, 5, 6, 4)
        for name in model.PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(loaded, name)),
                                  np.asarray(getattr(params, name)))

    def test_shape_validation(self, tmp_path):
        params = init_params(5, 6, 4, seed=10)
        path = tmp_path / "ckpt.txt"
        save_params(params, path)
        with pytest.raises(ShapeMismatchError, match="input dim 5 != config 7"):
            load_params(path, 7, 6, 4)
        with pytest.raises(ShapeMismatchError, match="hidden width 6 != config 7"):
            load_params(path, 5, 7, 4)
        with pytest.raises(ShapeMismatchError, match="label count 4 != config 7"):
            load_params(path, 5, 6, 7)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(CheckpointFormatError):
            load_params(path, 5, 6, 4)

    def test_truncated(self, tmp_path):
        params = init_params(5, 6, 4, seed=11)
        path = tmp_path / "ckpt.txt"
        save_params(params, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(CheckpointFormatError):
            load_params(path, 5, 6, 4)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_params(init_params(5, 6, 4, seed=11), path)
        path.write_bytes(path.read_bytes().replace(b"trunk_b", b"trunk_\xff"))
        with pytest.raises(CheckpointFormatError, match="UTF-8"):
            load_params(path, 5, 6, 4)

    def test_negative_dimensions(self, tmp_path):
        # Four values and a shape whose product is 4: only the signs are wrong.
        path = tmp_path / "ckpt.txt"
        save_params(init_params(5, 4, 4, seed=11), path)
        text = path.read_text()
        assert "\ntrunk_b 4\n" in text
        path.write_text(text.replace("\ntrunk_b 4\n", "\ntrunk_b -2 -2\n"))
        with pytest.raises(CheckpointFormatError, match="trunk_b"):
            load_params(path, 5, 4, 4)

    def test_content_after_last_section(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_params(init_params(5, 4, 4, seed=11), path)
        load_params(path, 5, 4, 4)  # the file as written loads
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\njunk 1\n")
        with pytest.raises(CheckpointFormatError, match="after section mask_b"):
            load_params(path, 5, 4, 4)

    @pytest.mark.parametrize("header", ["mask_b", "mask_b 1 1"])
    def test_mask_bias_not_one_value(self, tmp_path, header):
        path = tmp_path / "ckpt.txt"
        save_params(init_params(5, 4, 4, seed=11), path)
        text = path.read_text()
        assert "\nmask_b 1\n" in text
        path.write_text(text.replace("\nmask_b 1\n", f"\n{header}\n"))
        with pytest.raises(CheckpointFormatError, match="mask_b"):
            load_params(path, 5, 4, 4)


def test_training_sanity_two_class():
    # 200 optimizer steps on a linearly separable 2-class set -> >= 99%.
    rng = np.random.default_rng(12)
    n, d = 400, 6
    labels = rng.integers(1, 3, size=n)
    centers = np.array([[2.0, 0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0, 0]])
    x = centers[labels - 1] + 0.2 * rng.normal(size=(n, d))
    work = Workspace(init_params(d, 16, 3, seed=13), rows=64)
    for step_idx in range(200):
        rows = rng.integers(0, n, size=64)
        probs, scores, _ = forward_batch(work.params, x[rows], work)
        sup = Supervision(
            labeled=np.ones(len(rows), dtype=bool),
            targets=labels[rows],
            neg_mask=np.zeros((len(rows), 3), dtype=bool),
            pos_mask=np.zeros((len(rows), 3), dtype=bool),
        )
        _, gl, gm = batch_terms(probs, scores, sup, 0.0, work)
        backward_batch(work, x[rows], gl, gm)
        step(work, learning_rate=5e-3)
    probs, _, _ = forward_batch(work.snapshot(), x)
    accuracy = float((np.argmax(probs, axis=1) + 1 == labels).mean())
    assert accuracy >= 0.99
