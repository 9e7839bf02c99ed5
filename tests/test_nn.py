import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyforge import nn
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
    rng = np.random.default_rng(hash(activation) % (1 << 32))
    for _ in range(3):
        params = random_net(activation, rng)
        x = rng.normal(size=4)
        dy = rng.normal(size=3)
        _, tape = forward(params, x)
        analytic, adx = backward(params, tape, dy)
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
    x = np.array([1.0, -2.0, 0.5])
    y, _ = forward(params, x)
    assert np.allclose(y, x)


def test_forward_sigmoid_zero_net_is_half():
    params = NetworkParams(
        specs=[LayerSpec(4, 2, "sigmoid")],
        weights=[np.zeros((2, 4))],
        biases=[np.zeros(2)],
    )
    y, _ = forward(params, np.ones(4))
    assert np.allclose(y, 0.5)


def test_forward_relu_clips_negative_preactivations():
    params = NetworkParams(
        specs=[LayerSpec(2, 2, "relu")],
        weights=[-np.eye(2)],
        biases=[np.zeros(2)],
    )
    y, _ = forward(params, np.array([3.0, 5.0]))
    assert np.all(y == 0.0)


def test_forward_rejects_wrong_input_length():
    params = init_network([LayerSpec(4, 2, "relu")], 0)
    with pytest.raises(ValueError):
        forward(params, np.ones(5))


def test_backward_zero_gradient_gives_zero_grads():
    params = init_network([LayerSpec(4, 3, "tanh"), LayerSpec(3, 2, "sigmoid")], 1)
    _, tape = forward(params, np.ones(4))
    grads, dx = backward(params, tape, np.zeros(2))
    assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
    assert np.all(dx == 0)


def test_backward_linear_layer_is_outer_product():
    params = init_network([LayerSpec(3, 2, "identity")], 2)
    x = np.array([1.0, 2.0, -1.0])
    dy = np.array([0.5, -1.5])
    _, tape = forward(params, x)
    grads, _ = backward(params, tape, dy)
    assert np.allclose(grads[0][0], np.outer(dy, x))
    assert np.allclose(grads[0][1], dy)


def test_backward_rejects_shape_mismatch():
    params = init_network([LayerSpec(3, 2, "identity")], 2)
    _, tape = forward(params, np.ones(3))
    with pytest.raises(ValueError):
        backward(params, tape, np.ones(3))


def test_batched_forward_matches_loop():
    params = init_network([LayerSpec(4, 3, "leaky_relu"), LayerSpec(3, 2, "sigmoid")], 3)
    xs = np.random.default_rng(4).normal(size=(5, 4))
    batched, _ = forward(params, xs)
    for i in range(5):
        single, _ = forward(params, xs[i])
        assert np.allclose(batched[i], single)


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


def zero_grads_like(params):
    return [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(params.weights, params.biases)]


def test_adam_zero_gradients_leave_params_unchanged():
    params = init_network([LayerSpec(3, 2, "relu")], 7)
    before = params.copy()
    state = AdamState.for_params(params)
    adam_step(params, zero_grads_like(params), state)
    assert np.array_equal(params.weights[0], before.weights[0])
    assert np.array_equal(params.biases[0], before.biases[0])
    assert state.step == 1


def test_adam_descends_against_constant_gradient():
    params = init_network([LayerSpec(2, 1, "identity")], 8)
    start = params.weights[0].copy()
    state = AdamState.for_params(params, lr=1e-2)
    grad = np.ones_like(params.weights[0])
    for _ in range(20):
        adam_step(params, [(grad, np.zeros(1))], state)
    assert np.all(params.weights[0] < start)
    assert state.step == 20


def test_adam_rejects_non_finite_gradient_naming_layer():
    params = init_network([LayerSpec(2, 2, "relu"), LayerSpec(2, 1, "sigmoid")], 9)
    state = AdamState.for_params(params)
    adam_step(params, [(np.ones_like(w), np.ones_like(b))
                       for w, b in zip(params.weights, params.biases)], state)
    before = params.copy()
    moments = [a.copy() for a in state.m_w + state.v_w + state.m_b + state.v_b]
    for bad in (np.nan, np.inf):
        grads = zero_grads_like(params)
        grads[1] = (np.full_like(grads[1][0], bad), grads[1][1])
        with pytest.raises(TrainingError, match="layer 1"):
            adam_step(params, grads, state)
    # the check runs before any update: layer 0 and every moment are untouched
    assert state.step == 1
    for k in range(2):
        assert np.array_equal(params.weights[k], before.weights[k])
        assert np.array_equal(params.biases[k], before.biases[k])
    for old, new in zip(moments, state.m_w + state.v_w + state.m_b + state.v_b):
        assert np.array_equal(old, new)


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
        adam_step(params, grads, state)
        reference_adam_step(ref, grads, m_w, v_w, m_b, v_b, step, 1e-3, 0.5, 0.999, 1e-8)
    assert state.step == 50
    for k in range(2):
        assert np.array_equal(params.weights[k], ref.weights[k])
        assert np.array_equal(params.biases[k], ref.biases[k])
        assert np.array_equal(state.m_w[k], m_w[k]) and np.array_equal(state.v_w[k], v_w[k])
        assert np.array_equal(state.m_b[k], m_b[k]) and np.array_equal(state.v_b[k], v_b[k])


def test_adam_updates_non_contiguous_params_like_contiguous():
    params = init_network([LayerSpec(40, 30, "relu")], 13)
    transposed = NetworkParams(specs=params.specs, weights=[np.asfortranarray(params.weights[0])],
                               biases=[params.biases[0].copy()])
    a, b = AdamState.for_params(params), AdamState.for_params(transposed)
    grads = [(np.random.default_rng(14).standard_normal((30, 40)), np.ones(30))]
    for _ in range(3):
        adam_step(params, grads, a)
        adam_step(transposed, grads, b)
    assert np.array_equal(params.weights[0], transposed.weights[0])


def test_backward_into_buffers_matches_allocating_call():
    rng = np.random.default_rng(17)
    params = random_net("leaky_relu", rng, dims=(6, 9, 7, 4))
    _, tape = forward(params, rng.standard_normal((5, 6)))
    dy = rng.standard_normal((5, 4))
    fresh, dx = backward(params, tape, dy)
    buffers = AdamState.for_params(params).grads
    for dw, db in buffers:  # stale contents must be overwritten, not added to
        dw.fill(np.nan)
        db.fill(np.nan)
    into, dx_into = backward(params, tape, dy, grad_out=buffers)
    assert np.array_equal(dx, dx_into)
    for (fw, fb), (iw, ib), (bw, bb) in zip(fresh, into, buffers):
        assert iw is bw and ib is bb
        assert np.array_equal(fw, iw) and np.array_equal(fb, ib)


def test_backward_skips_input_gradient_on_request():
    rng = np.random.default_rng(18)
    params = random_net("tanh", rng)
    _, tape = forward(params, rng.standard_normal((3, 4)))
    dy = rng.standard_normal((3, 3))
    full, _ = backward(params, tape, dy)
    skipped, dx = backward(params, tape, dy, input_grad=False)
    assert dx is None
    for (fw, fb), (sw, sb) in zip(full, skipped):
        assert np.array_equal(fw, sw) and np.array_equal(fb, sb)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = init_network([LayerSpec(4, 3, "leaky_relu"), LayerSpec(3, 2, "sigmoid")], 10)
    path = tmp_path / "net.json"
    save_params(params, path, "generator", embed_seed=0x5EED, rng_seed=10,
                trained_epochs=3, metadata={"note": "x"})
    loaded, info = load_params(path)
    assert info["model_kind"] == "generator"
    assert info["embed_seed"] == 0x5EED
    assert info["rng_seed"] == 10
    assert info["trained_epochs"] == 3
    assert info["metadata"] == {"note": "x"}
    assert loaded.specs == params.specs
    for a, b in zip(loaded.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.biases, params.biases):
        assert np.array_equal(a, b)


def test_checkpoint_truncated_file_is_corrupt(tmp_path):
    params = init_network([LayerSpec(3, 2, "relu")], 11)
    path = tmp_path / "net.json"
    save_params(params, path, "verifier", embed_seed=1)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(CorruptCheckpointError):
        load_params(path)


def test_checkpoint_version_mismatch(tmp_path):
    params = init_network([LayerSpec(3, 2, "relu")], 12)
    path = tmp_path / "net.json"
    save_params(params, path, "verifier", embed_seed=1)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError):
        load_params(path)


def test_checkpoint_shape_mismatch(tmp_path):
    params = init_network([LayerSpec(3, 2, "relu")], 13)
    path = tmp_path / "net.json"
    save_params(params, path, "verifier", embed_seed=1)
    doc = json.loads(path.read_text())
    doc["weights"][0] = [[1.0, 2.0], [3.0, 4.0]]  # 2x2 instead of 2x3
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointShapeError):
        load_params(path)
    # each layer matches its own spec, but 3 -> 2 does not feed a 4-wide layer
    first, second = init_network([LayerSpec(3, 2, "relu")], 1), init_network([LayerSpec(4, 4, "relu")], 2)
    unchained = NetworkParams(specs=first.specs + second.specs, weights=first.weights + second.weights,
                              biases=first.biases + second.biases)
    save_params(unchained, path, "verifier", embed_seed=1)
    with pytest.raises(CheckpointShapeError, match="2 feeds 4"):
        load_params(path)


def test_checkpoint_missing_keys_is_corrupt(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"format_version": 1}))
    with pytest.raises(CorruptCheckpointError):
        load_params(path)
