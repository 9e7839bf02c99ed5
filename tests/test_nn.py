import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
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


def central_differences(array, loss, h=1e-5):
    """Central finite differences of loss() over each entry of array, perturbed in place and restored."""
    out = np.zeros_like(array)
    for idx in np.ndindex(*array.shape):
        array[idx] += h
        up = loss()
        array[idx] -= 2 * h
        down = loss()
        array[idx] += h
        out[idx] = (up - down) / (2 * h)
    return out


def numeric_gradients(params, loss, h=1e-5):
    """Central finite differences of loss() per layer (weight, bias) of params."""
    return [(central_differences(w, loss, h), central_differences(b, loss, h))
            for w, b in zip(params.weights, params.biases)]


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
        analytic = AdamState.for_params(params, **ADAM).grads
        assert backward(params, tape, dy, analytic) is None
        adx = backward(params, tape, dy)
        probe = x.copy()

        def loss():  # L(p, x) = sum(forward(p, x) * dy)
            y, _ = forward(params, probe)
            return float(np.sum(y * dy))

        numeric, ndx = numeric_gradients(params, loss), central_differences(probe, loss)
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
    single = init_network(specs, 5, np.float32)  # the same float64 draws, rounded once
    assert single.flat.dtype == np.float32 and np.array_equal(single.flat, a.flat.astype(np.float32))


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


@pytest.mark.parametrize("activation", nn.ACTIVATIONS)
def test_forward_leaves_its_input_intact_and_unaliased(activation):
    params = random_net(activation, np.random.default_rng(23))
    x = np.random.default_rng(24).normal(size=(5, 4))
    before = x.copy()
    out, tape = forward(params, x)
    assert np.array_equal(x, before)
    assert out is tape.output
    assert tape.activations[0] is x and len(tape.activations) == len(params.specs) + 1
    assert not any(np.shares_memory(a, x) for a in tape.activations[1:])


@pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
def test_activation_backward_reads_the_pre_activation_mask_from_the_output(activation):
    z = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.inf, np.nan])
    ones = np.ones_like(z)
    dz = nn._activation_backward(activation, ones, nn._activate(activation, z.copy()))
    below = 0.0 if activation == "relu" else nn.LEAKY_SLOPE
    assert np.array_equal(dz, np.where(z > 0, 1.0, below))


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
    state = AdamState.for_params(params, **ADAM)
    state.grad.fill(1.0)
    grads = state.grads
    backward(params, tape, np.zeros((1, 2)), grads)
    assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
    dx = backward(params, tape, np.zeros((1, 2)))
    assert np.all(dx == 0)


def test_backward_linear_layer_is_outer_product():
    params = init_network([LayerSpec(3, 2, "identity")], 2)
    x = np.array([[1.0, 2.0, -1.0]])
    dy = np.array([[0.5, -1.5]])
    _, tape = forward(params, x)
    grads = AdamState.for_params(params, **ADAM).grads
    backward(params, tape, dy, grads)
    assert np.allclose(grads[0][0], np.outer(dy, x))
    assert np.allclose(grads[0][1], dy[0])


def test_backward_rejects_shape_mismatch():
    params = init_network([LayerSpec(3, 2, "identity")], 2)
    _, tape = forward(params, np.ones((1, 3)))
    grads = AdamState.for_params(params, **ADAM).grads
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


def copy_of(params):
    """An equal NetworkParams with its own flat buffer."""
    return NetworkParams(specs=params.specs, weights=params.weights, biases=params.biases)


# Adam's learning rate and betas, which every caller passes: here the GAN's betas
ADAM = {"lr": 2e-4, "beta1": 0.5, "beta2": 0.999}


def layout(weights, biases):
    """The flat layout w0, b0, w1, b1, ... of per-layer arrays."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


def test_adam_zero_gradients_leave_params_unchanged():
    params = init_network([LayerSpec(3, 2, "relu")], 7)
    before = copy_of(params)
    state = AdamState.for_params(params, **ADAM)
    adam_step(params, state)
    assert np.array_equal(params.weights[0], before.weights[0])
    assert np.array_equal(params.biases[0], before.biases[0])
    assert state.step == 1


def test_adam_descends_against_constant_gradient():
    params = init_network([LayerSpec(2, 1, "identity")], 8)
    start = params.weights[0].copy()
    state = AdamState.for_params(params, **dict(ADAM, lr=1e-2))
    write_grads(state, [(np.ones_like(params.weights[0]), np.zeros(1))])
    for _ in range(20):
        adam_step(params, state)
    assert np.all(params.weights[0] < start)
    assert state.step == 20


def test_adam_steps_on_finite_gradient_whose_sum_overflows():
    """A sum past float range is no proof of a bad entry: the step runs, the check is silent.

    Such entries square past float range too, so the update's v = ((1-b2)*g)*g
    warns of its own overflow in multiply; the check's reduce must add nothing.
    """
    params = init_network([LayerSpec(2, 2, "relu"), LayerSpec(2, 1, "identity")], 9)
    state = AdamState.for_params(params, **ADAM)
    state.grad.fill(1e308)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adam_step(params, state)
    assert {str(w.message) for w in caught} == {"overflow encountered in multiply"}
    assert state.step == 1 and np.all(np.isfinite(params.flat))
    state.grad[::2] = -1e308  # inf - inf: the sum is NaN, each entry still finite
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adam_step(params, state)
    assert {str(w.message) for w in caught} == {"overflow encountered in multiply"}
    assert state.step == 2 and np.all(np.isfinite(params.flat))


def test_adam_rejects_non_finite_gradient_naming_layer():
    params = init_network([LayerSpec(2, 2, "relu"), LayerSpec(2, 3, "relu"),
                           LayerSpec(3, 1, "sigmoid")], 9)
    state = AdamState.for_params(params, **ADAM)
    state.grad.fill(1.0)
    adam_step(params, state)
    before = copy_of(params)
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
    other = AdamState.for_params(init_network([LayerSpec(3, 3, "relu")], 7), **ADAM)
    before = copy_of(params)
    with pytest.raises(ValueError, match="Adam state"):
        adam_step(params, other)
    assert other.step == 0
    assert np.array_equal(params.flat, before.flat)


def reference_adam_step(params, gradients, m_w, v_w, m_b, v_b, step, lr, b1, b2, eps, flush=True):
    """The allocating Adam update, in Kingma & Ba's efficient form, that the chunked one must match bit for bit.

    With flush, every nn.ADAM_FLUSH_INTERVAL steps each moment entry below the
    dtype's smallest normal is then set to 0, as adam_step does.
    """
    root_corr2 = math.sqrt(1.0 - b2**step)
    alpha = lr * root_corr2 / (1.0 - b1**step)
    eps_hat = eps * root_corr2
    for k, (dw, db) in enumerate(gradients):
        m_w[k] = b1 * m_w[k] + (1 - b1) * dw
        v_w[k] = b2 * v_w[k] + (1 - b2) * dw * dw
        m_b[k] = b1 * m_b[k] + (1 - b1) * db
        v_b[k] = b2 * v_b[k] + (1 - b2) * db * db
        params.weights[k] -= m_w[k] * alpha / (np.sqrt(v_w[k]) + eps_hat)
        params.biases[k] -= m_b[k] * alpha / (np.sqrt(v_b[k]) + eps_hat)
    if flush and step % nn.ADAM_FLUSH_INTERVAL == 0:
        for moment in m_w + v_w + m_b + v_b:
            moment[np.abs(moment) < np.finfo(moment.dtype).tiny] = 0


def assert_adam_matches_reference(dtype):
    params = init_network([LayerSpec(300, 130, "leaky_relu"), LayerSpec(130, 7, "sigmoid")], 11, dtype)
    assert params.weights[0].size > nn.ADAM_CHUNK
    ref = copy_of(params)
    state = AdamState.for_params(params, lr=1e-3, beta1=0.5, beta2=0.999)
    m_w = [np.zeros_like(w) for w in ref.weights]
    v_w = [np.zeros_like(w) for w in ref.weights]
    m_b = [np.zeros_like(b) for b in ref.biases]
    v_b = [np.zeros_like(b) for b in ref.biases]
    rng = np.random.default_rng(12)
    for step in range(1, 51):
        scale = 10.0 ** rng.uniform(-6, 2)
        grads = [((scale * rng.standard_normal(w.shape)).astype(dtype),
                  (scale * rng.standard_normal(b.shape)).astype(dtype)) for w, b in zip(ref.weights, ref.biases)]
        write_grads(state, grads)
        adam_step(params, state)
        reference_adam_step(ref, grads, m_w, v_w, m_b, v_b, step, 1e-3, 0.5, 0.999, 1e-8)
    assert state.step == 50
    for k in range(2):
        assert np.array_equal(params.weights[k], ref.weights[k])
        assert np.array_equal(params.biases[k], ref.biases[k])
    assert np.array_equal(state.m, layout(m_w, m_b))
    assert np.array_equal(state.v, layout(v_w, v_b))
    assert {a.dtype for a in (params.flat, state.m, state.v, state.scratch)} == {np.dtype(dtype)}


@pytest.mark.parametrize("chunk", [None, 1000])
def test_adam_matches_reference_formula_bit_for_bit(monkeypatch, chunk):
    if chunk is not None:  # many chunks with a ragged tail
        monkeypatch.setattr(nn, "ADAM_CHUNK", chunk)
    assert_adam_matches_reference(np.float64)


def test_float32_adam_matches_reference_formula_bit_for_bit(monkeypatch):
    """Python-float alpha and eps_hat keep every operation in float32, in both forms."""
    monkeypatch.setattr(nn, "ADAM_CHUNK", 1000)
    assert_adam_matches_reference(np.float32)


def subnormal_count(a):
    """The number of entries of a that are nonzero and below its dtype's smallest normal."""
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def test_adam_flushes_stuck_subnormal_moments_and_moves_no_parameter_bit():
    """With beta1 = 0.9 a float32 m that stops getting gradient sticks at a subnormal:
    0.9*m rounds back to m. Gradients down to 1e-20 put some v at subnormals from the
    first step. adam_step zeroes both at each flush step and at no other, and the
    parameters keep the bits of the update that never flushes."""
    params = init_network([LayerSpec(5, 4, "relu"), LayerSpec(4, 3, "identity")], 31, np.float32)
    ref = copy_of(params)
    state = AdamState.for_params(params, lr=1e-3, beta1=0.9, beta2=0.999)
    m_w, v_w = [np.zeros_like(w) for w in ref.weights], [np.zeros_like(w) for w in ref.weights]
    m_b, v_b = [np.zeros_like(b) for b in ref.biases], [np.zeros_like(b) for b in ref.biases]
    rng = np.random.default_rng(32)
    scales = [tuple(10.0 ** rng.uniform(-20, 0, a.shape) for a in (w, b)) for w, b in zip(ref.weights, ref.biases)]
    for step in range(1, 1025):
        if step <= 5:
            grads = [tuple((rng.standard_normal(s.shape) * s).astype(np.float32) for s in pair) for pair in scales]
        else:
            grads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(ref.weights, ref.biases)]
        write_grads(state, grads)
        adam_step(params, state)
        reference_adam_step(ref, grads, m_w, v_w, m_b, v_b, step, 1e-3, 0.9, 0.999, 1e-8, flush=False)
        assert np.array_equal(params.flat, ref.flat), step
        m, v = layout(m_w, m_b), layout(v_w, v_b)
        if step < nn.ADAM_FLUSH_INTERVAL:  # no flush yet: the same moments, subnormals and all
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v), step
        elif step % nn.ADAM_FLUSH_INTERVAL == 0:
            assert subnormal_count(state.m) == subnormal_count(state.v) == 0, step
            # the flushed moments: the unflushed ones with each subnormal set to 0
            assert np.array_equal(state.m, np.where(np.abs(m) < np.finfo(np.float32).tiny, 0, m)), step
            assert np.array_equal(state.v, np.where(np.abs(v) < np.finfo(np.float32).tiny, 0, v)), step
    # by the last flush step every entry of the unflushed m is stuck at a subnormal, and some of v
    assert subnormal_count(layout(m_w, m_b)) == params.flat.size
    assert subnormal_count(layout(v_w, v_b)) > 0
    assert state.step == 1024 and state.m.dtype == np.float32


def test_adam_updates_non_contiguous_params_like_contiguous():
    params = init_network([LayerSpec(40, 30, "relu")], 13)
    transposed = NetworkParams(specs=params.specs, weights=[np.asfortranarray(params.weights[0])],
                               biases=[params.biases[0].copy()])
    a, b = AdamState.for_params(params, **ADAM), AdamState.for_params(transposed, **ADAM)
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
    assert_views_into_flat(copy_of(params))
    fortran = NetworkParams(specs=specs, weights=[np.asfortranarray(w) for w in params.weights],
                            biases=params.biases)
    assert_views_into_flat(fortran)
    assert np.array_equal(fortran.flat, params.flat)
    # a write through a view lands in the flat buffer at its place in the layout
    fortran.biases[0][1] = 5.0
    assert fortran.flat[params.weights[0].size + 1] == 5.0
    state = AdamState.for_params(params, **ADAM)
    for (dw, db), w, b in zip(state.grads, params.weights, params.biases):
        assert np.shares_memory(dw, state.grad) and np.shares_memory(db, state.grad)
        assert dw.shape == w.shape and db.shape == b.shape
    assert state.grad.size == state.m.size == state.v.size == params.flat.size
    assert np.array_equal(state.grad, np.zeros_like(params.flat))
    state.grads[1][0][...] = 3.0  # the last layer's weight lies after w0 and b0 in the layout
    assert np.array_equal(np.flatnonzero(state.grad), params.weights[0].size + 3 + np.arange(6))


ACTIVATION_GRADS = {
    "relu": lambda z, h: (z > 0).astype(np.float64),
    "leaky_relu": lambda z, h: np.where(z > 0, 1.0, nn.LEAKY_SLOPE),
    "sigmoid": lambda z, h: h * (1.0 - h),
    "identity": lambda z, h: np.ones_like(z),
}


def reference_backward(params, tape, dy):
    """A plain reverse pass over the tape: every weight, bias and input gradient, all allocated.

    Each pre-activation is recomputed from the params, so the reference reads
    only the layer inputs and outputs from the tape.
    """
    acts = tape.activations
    g, grads = dy, []
    for k in reversed(range(len(params.specs))):
        z = acts[k] @ params.weights[k].T + params.biases[k]
        dz = g * ACTIVATION_GRADS[params.specs[k].activation](z, acts[k + 1])
        grads.insert(0, (dz.T @ acts[k], dz.sum(axis=0)))
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
    state = AdamState.for_params(params, **ADAM)
    state.grad.fill(np.nan)  # stale contents must be overwritten, not added to
    buffers = state.grads
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
# chunked Adam on the calling thread
# ---------------------------------------------------------------------------


# 102,007 parameters: 4 chunks of 32,768 with a ragged tail
MANY_CHUNKS = [LayerSpec(400, 250, "leaky_relu"), LayerSpec(250, 7, "sigmoid")]


def adam_run(specs, steps=3):
    params = init_network(specs, 21)
    state = AdamState.for_params(params, **dict(ADAM, lr=1e-3))
    rng = np.random.default_rng(22)
    for _ in range(steps):
        state.grad[...] = rng.standard_normal(state.grad.size) * 10.0 ** rng.uniform(-6, 2)
        adam_step(params, state)
    return params, state


def run_on(mode, fn):
    """Run fn() from the calling context that mode names and return its result.

    serial: on the test's own thread. helper: on a second thread, as a program
    that trains off its main thread would; an error comes back to the test.
    stalled: on the test's thread while another thread stays blocked until fn
    returns, so a step that waited on any other thread would not finish.
    """
    if mode == "helper":
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(fn).result(timeout=60)
    release = threading.Event()
    blocked = threading.Thread(target=release.wait, daemon=True)
    if mode == "stalled":
        blocked.start()
    try:
        return fn()
    finally:
        release.set()
        if mode == "stalled":
            blocked.join()


@pytest.mark.parametrize("mode", ["serial", "helper", "stalled"])
def test_adam_non_finite_gradient_on_any_chunk_changes_nothing(mode):
    params, state = adam_run(MANY_CHUNKS, steps=1)
    before, m, v = params.flat.copy(), state.m.copy(), state.v.copy()

    def reject_each_chunk():
        for index in (0, nn.ADAM_CHUNK + 5, params.flat.size - 1):  # the first, second and last chunk
            state.grad[index] = np.nan
            with pytest.raises(TrainingError, match="non-finite gradient"):
                adam_step(params, state)
            state.grad[index] = 0.0

    run_on(mode, reject_each_chunk)
    assert state.step == 1
    assert np.array_equal(params.flat, before)
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_training_step_starts_no_thread():
    """A fresh process, so that no earlier test's step has already started a thread."""
    probe = textwrap.dedent(f"""
        import threading
        import numpy as np
        from keyforge.nn import AdamState, LayerSpec, adam_step, backward, forward, init_network
        threads = threading.active_count()
        params = init_network({MANY_CHUNKS!r}, 21)
        state = AdamState.for_params(params, lr=1e-3, beta1=0.5, beta2=0.999)
        rng = np.random.default_rng(24)
        _, tape = forward(params, rng.standard_normal((32, 400)))
        assert backward(params, tape, rng.standard_normal((32, 7)), state.grads) is None
        adam_step(params, state)
        print(threads, threading.active_count())
    """)
    src = str(Path(nn.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True)
    before, after = done.stdout.split()
    assert after == before


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


@pytest.mark.parametrize("bad", [1e300, 0.1])
def test_checkpoint_values_the_dtype_does_not_hold_are_corrupt_naming_layer(tmp_path, bad):
    """1e300 overflows float32 and 0.1 rounds in it: either is corrupt in a float32 network, with no warning."""
    path, doc = saved_doc(tmp_path, init_network([LayerSpec(3, 2, "relu"), LayerSpec(2, 2, "relu")], 14, np.float32))
    loaded, _ = load_params(path, "verifier", 3, 2, np.float32)
    assert loaded.flat.dtype == np.float32
    doc["weights"][1][0][1] = bad
    path.write_text(json.dumps(doc))
    assert load_params(path, "verifier", 3, 2)[0].weights[1][0, 1] == bad  # float64 holds either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptCheckpointError,
                           match=re.escape(f"{path}: layer 1 holds values that float32 does not")):
            load_params(path, "verifier", 3, 2, np.float32)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_save_params_writes_no_non_finite_number(tmp_path, bad):
    params = init_network([LayerSpec(3, 2, "relu"), LayerSpec(2, 2, "relu")], 16)
    path = tmp_path / "net.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_params(params, path, "verifier", None, 0, {"tau": bad})
    params.weights[1][0, 1] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_params(params, path, "verifier", None, 0, {})
    assert not path.exists()

