import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyforge import nn
from keyforge.embedding import EMBED_SEED
from keyforge.nn import (
    AdamState,
    CheckpointShapeError,
    CheckpointVersionError,
    CorruptCheckpointError,
    LayerSpec,
    NetworkParams,
    TrainingError,
    adam_step,
    backward,
    bce_loss,
    contrastive_loss,
    forward,
    init_network,
    load_params,
    save_params,
)


def random_net(activation, rng, dims=(4, 6, 5, 3)):
    specs = [
        LayerSpec(dims[i], dims[i + 1], activation if i < len(dims) - 2 else activation)
        for i in range(len(dims) - 1)
    ]
    params = init_network(specs, int(rng.integers(1 << 30)))
    # shift away from zero pre-activations so relu kinks stay clear of the probe
    for b in params.biases:
        b += rng.normal(0.0, 0.3, size=b.shape)
    return params


def numeric_gradients(params, x, dy, h=1e-5):
    """Central finite differences of L(p) = sum(forward(p, x) * dy)."""

    def loss():
        y, _ = forward(params, x)
        return float(np.sum(y * dy))

    grads = []
    for k in range(len(params.weights)):
        dw = np.zeros_like(params.weights[k])
        for idx in np.ndindex(*dw.shape):
            params.weights[k][idx] += h
            up = loss()
            params.weights[k][idx] -= 2 * h
            down = loss()
            params.weights[k][idx] += h
            dw[idx] = (up - down) / (2 * h)
        db = np.zeros_like(params.biases[k])
        for idx in np.ndindex(*db.shape):
            params.biases[k][idx] += h
            up = loss()
            params.biases[k][idx] -= 2 * h
            down = loss()
            params.biases[k][idx] += h
            db[idx] = (up - down) / (2 * h)
        grads.append((dw, db))
    dx = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        x[idx] += h
        up = loss()
        x[idx] -= 2 * h
        down = loss()
        x[idx] += h
        dx[idx] = (up - down) / (2 * h)
    return grads, dx


def max_relative_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    return worst


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(nn.ACTIVATIONS.index(activation))
    for _ in range(3):
        params = random_net(activation, rng)
        x = rng.normal(size=(2, 4))
        dy = rng.normal(size=(2, 3))
        _, tape = forward(params, x)
        _, analytic = nn.gradient_buffers(params)
        assert backward(params, tape, dy, analytic) is None
        adx = backward(params, tape, dy)
        numeric, ndx = numeric_gradients(params, x.copy(), dy)
        assert max_relative_error(analytic, numeric) < 1e-4
        scale = np.maximum(np.maximum(np.abs(adx), np.abs(ndx)), 1e-6)
        assert np.max(np.abs(adx - ndx) / scale) < 1e-4


def test_init_deterministic_and_shaped():
    specs = [LayerSpec(4, 3, "relu")]
    a = init_network(specs, 5)
    b = init_network(specs, 5)
    assert np.array_equal(a.weights[0], b.weights[0])
    assert a.weights[0].shape == (3, 4)
    assert a.biases[0].shape == (3,)
    assert np.all(a.biases[0] == 0.0)
    bound = math.sqrt(6.0 / 7.0)
    assert np.all(np.abs(a.weights[0]) <= bound)


def test_init_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        init_network([LayerSpec(4, 3, "relu"), LayerSpec(2, 1, "relu")], 0)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(0, 3, "relu")
    with pytest.raises(ValueError):
        LayerSpec(3, 3, "softplus")


def test_forward_identity_network_is_identity():
    params = NetworkParams(
        specs=[LayerSpec(3, 3, "identity")],
        weights=[np.eye(3)],
        biases=[np.zeros(3)],
    )
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = forward(params, x)
    assert np.allclose(y, x)


def test_forward_sigmoid_zero_net_is_half():
    params = NetworkParams(
        specs=[LayerSpec(4, 2, "sigmoid")],
        weights=[np.zeros((2, 4))],
        biases=[np.zeros(2)],
    )
    y, _ = forward(params, np.ones((1, 4)))
    assert np.allclose(y, 0.5)


def test_forward_relu_clips_negative_preactivations():
    params = NetworkParams(
        specs=[LayerSpec(2, 2, "relu")],
        weights=[-np.eye(2)],
        biases=[np.zeros(2)],
    )
    y, _ = forward(params, np.array([[3.0, 5.0]]))
    assert np.all(y == 0.0)


def test_forward_rejects_wrong_input_length():
    params = init_network([LayerSpec(4, 2, "relu")], 0)
    with pytest.raises(ValueError):
        forward(params, np.ones((1, 5)))


@pytest.mark.parametrize("shape", [(4,), (), (1, 1, 4)])
def test_forward_rejects_input_that_is_not_a_batch(shape):
    params = init_network([LayerSpec(4, 2, "relu")], 0)
    with pytest.raises(ValueError, match="expects \\(batch, 4\\)"):
        forward(params, np.ones(shape))


def test_backward_zero_gradient_gives_zero_grads():
    params = init_network([LayerSpec(4, 3, "leaky_relu"), LayerSpec(3, 2, "sigmoid")], 1)
    _, tape = forward(params, np.ones((1, 4)))
    flat, grads = nn.gradient_buffers(params)
    flat.fill(1.0)
    backward(params, tape, np.zeros((1, 2)), grads)
    assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
    dx = backward(params, tape, np.zeros((1, 2)))
    assert np.all(dx == 0)


def test_backward_linear_layer_is_outer_product():
    params = init_network([LayerSpec(3, 2, "identity")], 2)
    x = np.array([[1.0, 2.0, -1.0]])
    dy = np.array([[0.5, -1.5]])
    _, tape = forward(params, x)
    _, grads = nn.gradient_buffers(params)
    backward(params, tape, dy, grads)
    assert np.allclose(grads[0][0], np.outer(dy, x))
    assert np.allclose(grads[0][1], dy[0])


def test_backward_rejects_shape_mismatch():
    params = init_network([LayerSpec(3, 2, "identity")], 2)
    _, tape = forward(params, np.ones((1, 3)))
    _, grads = nn.gradient_buffers(params)
    for bad in (np.ones((1, 3)), np.ones(2)):
        with pytest.raises(ValueError):
            backward(params, tape, bad)
        with pytest.raises(ValueError):
            backward(params, tape, bad, grads)


def test_batched_forward_matches_loop():
    params = init_network([LayerSpec(4, 3, "leaky_relu"), LayerSpec(3, 2, "sigmoid")], 3)
    xs = np.random.default_rng(4).normal(size=(5, 4))
    batched, _ = forward(params, xs)
    for i in range(5):
        single, _ = forward(params, xs[i : i + 1])
        assert np.allclose(batched[i], single[0])


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_bce_half_prediction_is_ln2():
    loss, _ = bce_loss(0.5, 1.0)
    assert abs(float(loss) - math.log(2.0)) < 1e-12


def test_bce_perfect_prediction_is_tiny():
    for t in (0.0, 1.0):
        loss, _ = bce_loss(t, t)
        assert float(loss) <= 1e-6


def test_bce_gradient_sign():
    _, grad = bce_loss(0.3, 1.0)
    assert float(grad) < 0.0
    _, grad = bce_loss(0.3, 0.0)
    assert float(grad) > 0.0


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0]),
)
def test_bce_nonnegative_and_finite(p, t):
    loss, grad = bce_loss(p, t)
    assert float(loss) >= 0.0
    assert np.isfinite(loss) and np.isfinite(grad)


def test_contrastive_same_at_zero_distance():
    loss, grad = contrastive_loss(0.0, True, 1.0)
    assert float(loss) == 0.0 and float(grad) == 0.0


def test_contrastive_different_beyond_margin():
    loss, grad = contrastive_loss(1.5, False, 1.0)
    assert float(loss) == 0.0 and float(grad) == 0.0


def test_contrastive_different_inside_margin():
    loss, grad = contrastive_loss(0.5, False, 1.0)
    assert abs(float(loss) - 0.125) < 1e-12
    assert abs(float(grad) + 0.5) < 1e-12


def test_contrastive_rejects_bad_margin():
    with pytest.raises(ValueError):
        contrastive_loss(0.5, True, 0.0)


@given(st.floats(min_value=0, max_value=10), st.booleans())
def test_contrastive_nonnegative(d, same):
    loss, _ = contrastive_loss(d, same, 1.0)
    assert float(loss) >= 0.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def write_grads(state, grads):
    """Copy per-layer (weight, bias) gradients into the state's gradient buffers."""
    for (dw, db), (gw, gb) in zip(state.grads, grads):
        dw[...] = gw
        db[...] = gb


def layout(weights, biases):
    """The flat layout w0, b0, w1, b1, ... of per-layer arrays."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def test_adam_zero_gradients_leave_params_unchanged():
    params = init_network([LayerSpec(3, 2, "relu")], 7)
    before = params.copy()
    state = AdamState.for_params(params)
    adam_step(params, state)
    assert np.array_equal(params.weights[0], before.weights[0])
    assert np.array_equal(params.biases[0], before.biases[0])
    assert state.step == 1


def test_adam_descends_against_constant_gradient():
    params = init_network([LayerSpec(2, 1, "identity")], 8)
    start = params.weights[0].copy()
    state = AdamState.for_params(params, lr=1e-2)
    write_grads(state, [(np.ones_like(params.weights[0]), np.zeros(1))])
    for _ in range(20):
        adam_step(params, state)
    assert np.all(params.weights[0] < start)
    assert state.step == 20


def test_adam_rejects_non_finite_gradient_naming_layer():
    params = init_network([LayerSpec(2, 2, "relu"), LayerSpec(2, 3, "relu"),
                           LayerSpec(3, 1, "sigmoid")], 9)
    state = AdamState.for_params(params)
    state.grad.fill(1.0)
    adam_step(params, state)
    before = params.copy()
    m, v = state.m.copy(), state.v.copy()
    # (layer, 0 for the weight or 1 for the bias): the first, a middle and the last layer
    for layer, part in ((1, 0), (0, 1), (2, 1)):
        for bad in (np.nan, np.inf):
            state.grad.fill(0.0)
            state.grads[layer][part][0] = bad
            with pytest.raises(TrainingError, match=f"non-finite gradient in layer {layer}"):
                adam_step(params, state)
    # the check runs before any update: every parameter and moment is untouched
    assert state.step == 1
    for k in range(3):
        assert np.array_equal(params.weights[k], before.weights[k])
        assert np.array_equal(params.biases[k], before.biases[k])
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_adam_rejects_state_of_another_network():
    params = init_network([LayerSpec(3, 2, "relu")], 7)
    other = AdamState.for_params(init_network([LayerSpec(3, 3, "relu")], 7))
    before = params.copy()
    with pytest.raises(ValueError, match="Adam state"):
        adam_step(params, other)
    assert other.step == 0
    assert np.array_equal(params.flat, before.flat)


def reference_adam_step(params, gradients, m_w, v_w, m_b, v_b, step, lr, b1, b2, eps):
    """The allocating Adam update that the in-place chunked one must match bit for bit."""
    corr1 = 1.0 - b1**step
    corr2 = 1.0 - b2**step
    for k, (dw, db) in enumerate(gradients):
        m_w[k] = b1 * m_w[k] + (1 - b1) * dw
        v_w[k] = b2 * v_w[k] + (1 - b2) * dw * dw
        m_b[k] = b1 * m_b[k] + (1 - b1) * db
        v_b[k] = b2 * v_b[k] + (1 - b2) * db * db
        params.weights[k] -= lr * (m_w[k] / corr1) / (np.sqrt(v_w[k] / corr2) + eps)
        params.biases[k] -= lr * (m_b[k] / corr1) / (np.sqrt(v_b[k] / corr2) + eps)


@pytest.mark.parametrize("chunk", [None, 1000])
def test_adam_matches_reference_formula_bit_for_bit(monkeypatch, chunk):
    if chunk is not None:  # many chunks with a ragged tail
        monkeypatch.setattr(nn, "ADAM_CHUNK", chunk)
    params = init_network([LayerSpec(300, 130, "leaky_relu"), LayerSpec(130, 7, "sigmoid")], 11)
    assert params.weights[0].size > nn.ADAM_CHUNK
    ref = params.copy()
    state = AdamState.for_params(params, lr=1e-3, beta1=0.5, beta2=0.999)
    m_w = [np.zeros_like(w) for w in ref.weights]
    v_w = [np.zeros_like(w) for w in ref.weights]
    m_b = [np.zeros_like(b) for b in ref.biases]
    v_b = [np.zeros_like(b) for b in ref.biases]
    rng = np.random.default_rng(12)
    for step in range(1, 51):
        scale = 10.0 ** rng.uniform(-6, 2)
        grads = [(scale * rng.standard_normal(w.shape), scale * rng.standard_normal(b.shape))
                 for w, b in zip(ref.weights, ref.biases)]
        write_grads(state, grads)
        adam_step(params, state)
        reference_adam_step(ref, grads, m_w, v_w, m_b, v_b, step, 1e-3, 0.5, 0.999, 1e-8)
    assert state.step == 50
    for k in range(2):
        assert np.array_equal(params.weights[k], ref.weights[k])
        assert np.array_equal(params.biases[k], ref.biases[k])
    assert np.array_equal(state.m, layout(m_w, m_b))
    assert np.array_equal(state.v, layout(v_w, v_b))


def test_adam_updates_non_contiguous_params_like_contiguous():
    params = init_network([LayerSpec(40, 30, "relu")], 13)
    transposed = NetworkParams(specs=params.specs, weights=[np.asfortranarray(params.weights[0])],
                               biases=[params.biases[0].copy()])
    a, b = AdamState.for_params(params), AdamState.for_params(transposed)
    grads = [(np.random.default_rng(14).standard_normal((30, 40)), np.ones(30))]
    write_grads(a, grads)
    write_grads(b, grads)
    for _ in range(3):
        adam_step(params, a)
        adam_step(transposed, b)
    assert np.array_equal(params.weights[0], transposed.weights[0])


def assert_views_into_flat(params):
    assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
    for w, b in zip(params.weights, params.biases):
        assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
    assert np.array_equal(params.flat, layout(params.weights, params.biases))


def test_params_are_views_into_one_flat_buffer(tmp_path):
    specs = [LayerSpec(4, 3, "leaky_relu"), LayerSpec(3, 2, "sigmoid")]
    params = init_network(specs, 19)
    assert_views_into_flat(params)
    save_params(params, tmp_path / "net.json", "verifier", None, 0, {})
    loaded, _ = load_params(tmp_path / "net.json", "verifier", 4, 2)
    assert_views_into_flat(loaded)
    assert np.array_equal(loaded.flat, params.flat)
    assert_views_into_flat(params.copy())
    fortran = NetworkParams(specs=specs, weights=[np.asfortranarray(w) for w in params.weights],
                            biases=params.biases)
    assert_views_into_flat(fortran)
    assert np.array_equal(fortran.flat, params.flat)
    # a write through a view lands in the flat buffer at its place in the layout
    fortran.biases[0][1] = 5.0
    assert fortran.flat[params.weights[0].size + 1] == 5.0
    state = AdamState.for_params(params)
    for (dw, db), w, b in zip(state.grads, params.weights, params.biases):
        assert np.shares_memory(dw, state.grad) and np.shares_memory(db, state.grad)
        assert dw.shape == w.shape and db.shape == b.shape
    assert state.grad.size == state.m.size == state.v.size == params.flat.size
    flat, views = nn.gradient_buffers(params)
    assert np.array_equal(flat, np.zeros_like(params.flat))
    views[1][0][...] = 3.0  # the last layer's weight lies after w0 and b0 in the layout
    assert np.array_equal(np.flatnonzero(flat), params.weights[0].size + 3 + np.arange(6))


def test_params_copy_is_independent():
    params = init_network([LayerSpec(4, 3, "relu"), LayerSpec(3, 2, "relu")], 20)
    before = params.flat.copy()
    copy = params.copy()
    assert not np.shares_memory(copy.flat, params.flat)
    copy.weights[1][...] = 7.0
    copy.biases[0][...] = 7.0
    assert np.array_equal(params.flat, before)
    params.flat[...] = 0.0
    assert np.all(copy.weights[1] == 7.0)


ACTIVATION_GRADS = {
    "relu": lambda z, h: (z > 0).astype(np.float64),
    "leaky_relu": lambda z, h: np.where(z > 0, 1.0, nn.LEAKY_SLOPE),
    "sigmoid": lambda z, h: h * (1.0 - h),
    "identity": lambda z, h: np.ones_like(z),
}


def reference_backward(params, tape, dy):
    """A plain reverse pass over the tape: every weight, bias and input gradient, all allocated."""
    outputs = tape.inputs[1:] + [tape.output]
    g, grads = dy, []
    for k in reversed(range(len(params.specs))):
        dz = g * ACTIVATION_GRADS[params.specs[k].activation](tape.pre_activations[k], outputs[k])
        grads.insert(0, (dz.T @ tape.inputs[k], dz.sum(axis=0)))
        g = dz @ params.weights[k]
    return grads, g


def taped_net(activation, seed):
    rng = np.random.default_rng(seed)
    params = random_net(activation, rng, dims=(6, 9, 7, 4))
    _, tape = forward(params, rng.standard_normal((5, 6)))
    return params, tape, rng.standard_normal((5, 4))


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
def test_backward_into_buffers_overwrites_them_and_returns_none(activation):
    params, tape, dy = taped_net(activation, 17)
    reference, _ = reference_backward(params, tape, dy)
    flat, buffers = nn.gradient_buffers(params)
    flat.fill(np.nan)  # stale contents must be overwritten, not added to
    assert backward(params, tape, dy, buffers) is None
    for (rw, rb), (bw, bb) in zip(reference, buffers):
        assert np.array_equal(rw, bw) and np.array_equal(rb, bb)


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
def test_backward_without_buffers_returns_input_gradient(activation):
    params, tape, dy = taped_net(activation, 18)
    _, reference = reference_backward(params, tape, dy)
    dx = backward(params, tape, dy)
    assert dx.shape == (5, 6)
    assert np.array_equal(dx, reference)


# ---------------------------------------------------------------------------
# helper thread
# ---------------------------------------------------------------------------


@pytest.fixture()
def helper_mode(monkeypatch):
    """helper_mode(mode) forces how a training step uses the helper thread and
    returns a list that collects the function of each job handed to the helper.

    serial: nn.WORKERS is 1, so no job is handed over. helper: each job has
    started on the helper before submit returns, so the caller takes none back.
    stalled: the helper is busy until the test ends, so the caller takes back
    and runs every job.
    """
    release = threading.Event()

    def force(mode):
        monkeypatch.setattr(nn, "WORKERS", 1 if mode == "serial" else 2)
        jobs, pool = [], nn._helper()
        if pool is None:
            return jobs
        submit = type(pool).submit
        if mode == "stalled":
            submit(pool, release.wait, 30)

        def recording_submit(fn, *args, **kwargs):
            jobs.append(fn)
            if mode == "stalled":
                return submit(pool, fn, *args, **kwargs)
            started = threading.Event()

            def run():
                started.set()
                return fn(*args, **kwargs)

            future = submit(pool, run)
            assert started.wait(30)
            return future

        monkeypatch.setattr(pool, "submit", recording_submit)
        return jobs

    yield force
    release.set()


# 102,007 parameters: 4 chunks of 32,768 with a ragged tail; 620 parameters: one chunk
MANY_CHUNKS = [LayerSpec(400, 250, "leaky_relu"), LayerSpec(250, 7, "sigmoid")]
ONE_CHUNK = [LayerSpec(30, 20, "relu")]


def adam_run(specs, steps=3):
    params = init_network(specs, 21)
    state = AdamState.for_params(params, lr=1e-3)
    rng = np.random.default_rng(22)
    for _ in range(steps):
        state.grad[...] = rng.standard_normal(state.grad.size) * 10.0 ** rng.uniform(-6, 2)
        adam_step(params, state)
    return params, state


@pytest.mark.parametrize("specs, helper_jobs", [(MANY_CHUNKS, 3), (ONE_CHUNK, 0)])
def test_adam_gives_the_same_bits_whichever_thread_runs_a_chunk(helper_mode, specs, helper_jobs):
    assert sum(s.in_dim * s.out_dim + s.out_dim for s in specs) % nn.ADAM_CHUNK
    assert helper_mode("serial") == []
    serial, serial_state = adam_run(specs)
    for mode in ("helper", "stalled"):
        jobs = helper_mode(mode)
        threaded, threaded_state = adam_run(specs)
        assert jobs == [nn._adam_chunks] * helper_jobs  # one job per step, or none
        assert np.array_equal(threaded.flat, serial.flat)
        assert np.array_equal(threaded_state.m, serial_state.m)
        assert np.array_equal(threaded_state.v, serial_state.v)
        assert threaded_state.step == serial_state.step == 3


@pytest.mark.parametrize("mode", ["serial", "helper", "stalled"])
def test_adam_non_finite_gradient_on_any_chunk_changes_nothing(helper_mode, mode):
    helper_mode(mode)
    params, state = adam_run(MANY_CHUNKS, steps=1)
    before, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
    for index in (0, nn.ADAM_CHUNK + 5, params.flat.size - 1):  # the first, second and last chunk
        state.grad[index] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient"):
            adam_step(params, state)
        state.grad[index] = 0.0
    assert state.step == 1
    assert np.array_equal(params.flat, before)
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_adam_error_on_the_helper_reaches_the_caller(helper_mode, monkeypatch):
    helper_mode("helper")
    chunks = nn._adam_chunks

    def fail_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper chunk failed")
        chunks(*args)

    monkeypatch.setattr(nn, "_adam_chunks", fail_off_the_main_thread)
    params = init_network(MANY_CHUNKS, 23)
    with pytest.raises(RuntimeError, match="helper chunk failed"):
        adam_step(params, AdamState.for_params(params))


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
@pytest.mark.parametrize("overlap_macs", [1, None])  # every layer above the first, or the default
def test_backward_gives_the_same_bits_whichever_thread_runs_a_product(helper_mode, monkeypatch,
                                                                      activation, overlap_macs):
    if overlap_macs is None:  # default shapes: one product of the three passes the threshold
        rng = np.random.default_rng(24)
        params = init_network([LayerSpec(600, 512, activation), LayerSpec(512, 512, activation),
                               LayerSpec(512, 75, "sigmoid")], 24)
        _, tape = forward(params, rng.standard_normal((32, 600)))
        dy, helper_jobs = rng.standard_normal((32, 75)), 1
    else:
        monkeypatch.setattr(nn, "OVERLAP_MACS", overlap_macs)
        params, tape, dy = taped_net(activation, 25)
        helper_jobs = len(params.specs) - 1
    buffers = []
    for mode in ("serial", "helper", "stalled"):
        jobs = helper_mode(mode)
        flat, grads = nn.gradient_buffers(params)
        flat.fill(np.nan)
        assert backward(params, tape, dy, grads) is None
        assert jobs == ([] if mode == "serial" else [np.matmul] * helper_jobs)
        buffers.append(flat)
    assert np.array_equal(buffers[0], buffers[1]) and np.array_equal(buffers[0], buffers[2])


@pytest.mark.parametrize("mode", ["helper", "stalled"])
def test_backward_error_in_a_helper_job_reaches_the_caller(helper_mode, monkeypatch, mode):
    jobs = helper_mode(mode)
    monkeypatch.setattr(nn, "OVERLAP_MACS", 1)
    params, tape, dy = taped_net("relu", 26)
    flat, grads = nn.gradient_buffers(params)
    flat.fill(np.nan)
    grads[2] = (np.empty((3, 3)), grads[2][1])  # the last layer's product cannot fit
    with pytest.raises(ValueError):
        backward(params, tape, dy, grads)
    assert jobs == [np.matmul, np.matmul]  # layers 2 and 1
    reference, _ = reference_backward(params, tape, dy)
    assert np.array_equal(grads[1][0], reference[1][0])  # the other job still finished


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper(helper_mode):
    helper_mode("helper")
    params, state = adam_run(MANY_CHUNKS, steps=1)  # the parent's helper now exists
    pid = os.fork()
    if pid == 0:  # the parent's helper thread does not exist here
        adam_step(params, state)
        os._exit(0)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_import_starts_no_helper():
    probe = ("import sys, keyforge.cli, keyforge.nn as nn; "
             "print(nn._helper_pool is None, 'concurrent.futures' in sys.modules)")
    src = str(Path(nn.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.split() == ["True", "False"]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = init_network([LayerSpec(4, 3, "leaky_relu"), LayerSpec(3, 2, "sigmoid")], 10)
    path = tmp_path / "net.json"
    save_params(params, path, "generator", 10, 3, {"note": "x"})
    doc = json.loads(path.read_text())
    assert doc["model_kind"] == "generator"
    assert doc["embed_seed"] == EMBED_SEED
    loaded, info = load_params(path, "generator", 4, 2)
    assert info == {"rng_seed": 10, "trained_epochs": 3, "metadata": {"note": "x"}}
    assert loaded.specs == params.specs
    for a, b in zip(loaded.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, params.biases):
        assert np.array_equal(a, b)
    with pytest.raises(CorruptCheckpointError, match="model_kind 'generator' is not a verifier"):
        load_params(path, "verifier", 4, 2)


def saved_doc(tmp_path, params):
    """Save params as a verifier checkpoint; returns its path and its parsed JSON."""
    path = tmp_path / "net.json"
    save_params(params, path, "verifier", None, 0, {})
    return path, json.loads(path.read_text())


def test_checkpoint_truncated_file_is_corrupt(tmp_path):
    params = init_network([LayerSpec(3, 2, "relu")], 11)
    path, _ = saved_doc(tmp_path, params)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_params(path, "verifier", 3, 2)


def test_checkpoint_version_mismatch(tmp_path):
    params = init_network([LayerSpec(3, 2, "relu")], 12)
    path, doc = saved_doc(tmp_path, params)
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError):
        load_params(path, "verifier", 3, 2)


def test_checkpoint_foreign_embed_seed_is_version_error(tmp_path):
    path, doc = saved_doc(tmp_path, init_network([LayerSpec(3, 2, "relu")], 12))
    doc["embed_seed"] = EMBED_SEED + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError,
                       match=re.escape(f"{path}: embedding seed {EMBED_SEED + 1} does not match")):
        load_params(path, "verifier", 3, 2)


def test_checkpoint_shape_mismatch(tmp_path):
    params = init_network([LayerSpec(3, 2, "relu")], 13)
    path, doc = saved_doc(tmp_path, params)
    doc["weights"][0] = [[1.0, 2.0], [3.0, 4.0]]  # 2x2 instead of 2x3
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointShapeError):
        load_params(path, "verifier", 3, 2)
    # each layer matches its own spec, but 3 -> 2 does not feed a 4-wide layer
    first, second = init_network([LayerSpec(3, 2, "relu")], 1), init_network([LayerSpec(4, 4, "relu")], 2)
    unchained = NetworkParams(specs=first.specs + second.specs, weights=first.weights + second.weights,
                              biases=first.biases + second.biases)
    save_params(unchained, path, "verifier", None, 0, {})
    with pytest.raises(CheckpointShapeError, match="2 feeds 4"):
        load_params(path, "verifier", 3, 4)


@pytest.mark.parametrize("in_dim, out_dim", [(2, 2), (4, 2), (3, 1), (3, 3)])
def test_checkpoint_of_other_widths_is_shape_error(tmp_path, in_dim, out_dim):
    path, _ = saved_doc(tmp_path, init_network([LayerSpec(3, 5, "relu"), LayerSpec(5, 2, "relu")], 3))
    with pytest.raises(CheckpointShapeError,
                       match=re.escape(f"{path}: verifier maps 3 -> 2, expected {in_dim} -> {out_dim}")):
        load_params(path, "verifier", in_dim, out_dim)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_checkpoint_non_finite_values_are_corrupt_naming_layer(tmp_path, bad):
    params = init_network([LayerSpec(3, 2, "relu"), LayerSpec(2, 2, "relu")], 14)
    path, doc = saved_doc(tmp_path, params)
    doc["biases"][1][0] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptCheckpointError, match="non-finite values in layer 1"):
        load_params(path, "verifier", 3, 2)


@pytest.mark.parametrize("metadata", [[], "tau", 1.5, None])
def test_checkpoint_metadata_that_is_not_an_object_is_corrupt(tmp_path, metadata):
    path, doc = saved_doc(tmp_path, init_network([LayerSpec(3, 2, "relu")], 15))
    doc["metadata"] = metadata
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptCheckpointError, match=re.escape(f"{path}: metadata is not a JSON")):
        load_params(path, "verifier", 3, 2)


def test_checkpoint_missing_keys_is_corrupt(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(CorruptCheckpointError):
        load_params(path, "verifier", 3, 2)
