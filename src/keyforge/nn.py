"""Minimal dense-network engine shared by generator, discriminator, and verifier.

Plain numpy forward/backward over a fixed affine+activation stack. The
backward pass is exact reverse-mode differentiation of the forward map and is
pinned by a finite-difference gradient check in the test suite. Training is
single-owner single-threaded; frozen parameters are safe to share.

Gradient buffers belong to the training state: `AdamState.grads` holds one
weight and one bias gradient array per layer, and a `backward` pass given them
as `grad_out` overwrites them. A caller that keeps gradients across two passes
must copy them or pass separate buffers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "tanh", "identity")
LEAKY_SLOPE = 0.2

CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CorruptCheckpointError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


class TrainingError(RuntimeError):
    """A training step produced unusable (non-finite) numbers."""


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class NetworkParams:
    specs: list[LayerSpec]
    weights: list[np.ndarray]  # per layer, shape (out_dim, in_dim)
    biases: list[np.ndarray]  # per layer, shape (out_dim,)

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            specs=list(self.specs),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass
class ForwardTape:
    """Cached per-layer inputs and pre-activations from one forward pass."""

    inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    output: np.ndarray  # 2-D (batch, out_dim)
    squeeze: bool


def _check_chain(specs: list[LayerSpec]) -> None:
    """Raise ValueError unless there is a layer and each output width feeds the next input."""
    if not specs:
        raise ValueError("need at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.out_dim != b.in_dim:
            raise ValueError(f"layer dim mismatch: {a.out_dim} feeds {b.in_dim}")


def init_network(specs: list[LayerSpec], seed) -> NetworkParams:
    """Glorot-uniform weights, zero biases, deterministic for a given seed."""
    _check_chain(specs)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        scale = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        weights.append(rng.uniform(-scale, scale, size=(spec.out_dim, spec.in_dim)))
        biases.append(np.zeros(spec.out_dim))
    return NetworkParams(specs=list(specs), weights=weights, biases=biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "leaky_relu":
        # equals np.where(z > 0, z, LEAKY_SLOPE * z) for 0 <= slope <= 1, at a tenth of the cost
        return np.maximum(z, LEAKY_SLOPE * z)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    return z  # identity


def _activation_grad(name: str, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "leaky_relu":
        # equals np.where(z > 0, 1.0, LEAKY_SLOPE) for 0 <= slope <= 1, at a tenth of the cost
        return np.maximum(z > 0, LEAKY_SLOPE)
    if name == "sigmoid":
        return h * (1.0 - h)
    if name == "tanh":
        return 1.0 - h * h
    return np.ones_like(z)


def forward(params: NetworkParams, x) -> tuple[np.ndarray, ForwardTape]:
    """Run the network on a vector or (batch, in_dim) matrix.

    Returns the output in the same arity as the input plus a tape sufficient
    for backward().
    """
    a = np.asarray(x, dtype=np.float64)
    squeeze = a.ndim == 1
    a = np.atleast_2d(a)
    if a.shape[1] != params.in_dim:
        raise ValueError(f"input has {a.shape[1]} features, network expects {params.in_dim}")
    inputs, pres = [], []
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        inputs.append(a)
        z = a @ w.T
        z += b
        pres.append(z)
        a = _activate(spec.activation, z)
    tape = ForwardTape(inputs=inputs, pre_activations=pres, output=a, squeeze=squeeze)
    return (a[0] if squeeze else a), tape


def backward(
    params: NetworkParams,
    tape: ForwardTape,
    output_gradient,
    grad_out: list[tuple[np.ndarray, np.ndarray]] | None = None,
    input_grad: bool = True,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray | None]:
    """Reverse-mode gradients of the forward map.

    output_gradient holds dLoss/dOutput per sample; weight and bias gradients
    come back summed over the batch, the input gradient per sample. With
    grad_out, the weight and bias gradients are written into those
    per-layer arrays and returned; otherwise fresh arrays are allocated. With
    input_grad=False the layer-0 input gradient is not computed and None comes
    back in its place.
    """
    g = np.asarray(output_gradient, dtype=np.float64)
    g = np.atleast_2d(g)
    if g.shape != tape.output.shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {tape.output.shape}")
    n_layers = len(params.specs)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * n_layers  # type: ignore[list-item]
    for k in range(n_layers - 1, -1, -1):
        z = tape.pre_activations[k]
        h = tape.inputs[k + 1] if k + 1 < n_layers else tape.output
        dz = g * _activation_grad(params.specs[k].activation, z, h)
        if grad_out is None:
            dw = dz.T @ tape.inputs[k]
            db = dz.sum(axis=0)
        else:
            dw, db = grad_out[k]
            np.matmul(dz.T, tape.inputs[k], out=dw)
            dz.sum(axis=0, out=db)
        grads[k] = (dw, db)
        if k > 0 or input_grad:
            g = dz @ params.weights[k]
    if not input_grad:
        return grads, None
    return grads, (g[0] if tape.squeeze else g)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def bce_loss(prediction, target):
    """Binary cross-entropy on probabilities, clamped away from {0, 1}.

    Returns (loss, dLoss/dPrediction); both are elementwise for array inputs.
    """
    p = np.clip(np.asarray(prediction, dtype=np.float64), 1e-7, 1.0 - 1e-7)
    t = np.asarray(target, dtype=np.float64)
    loss = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    grad = (p - t) / (p * (1.0 - p))
    return loss, grad


def contrastive_loss(distance, same_user, margin: float):
    """Same-user pairs pay d^2/2; different-user pairs pay max(0, margin-d)^2/2."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    d = np.asarray(distance, dtype=np.float64)
    same = np.asarray(same_user, dtype=bool)
    slack = np.maximum(margin - d, 0.0)
    loss = np.where(same, 0.5 * d * d, 0.5 * slack * slack)
    grad = np.where(same, d, -slack)
    return loss, grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Elements per Adam chunk: one chunk of param, gradient, m, v and the two
# scratch rows (6 x 256 KiB) stays in a 2 MiB L2 through all 14 passes of the
# update. On the 609k-parameter generator (one BLAS thread, 2 MiB L2 per core)
# a step took 9.0 ms at 4,096 elements, 6.1 ms at 16,384, 5.2 ms at 32,768 and
# 6.4 ms unchunked; smaller chunks pay numpy's per-call overhead more often.
ADAM_CHUNK = 32768


@dataclass
class AdamState:
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)
    # per-layer (weight, bias) gradient buffers for backward(..., grad_out=...)
    grads: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, ADAM_CHUNK)))

    @classmethod
    def for_params(cls, params: NetworkParams, lr: float = 2e-4, beta1: float = 0.5,
                   beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        # np.zeros, not zeros_like: C order whatever the parameters' layout, so
        # the chunked update can work on flat views of m and v
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon,
            m_w=[np.zeros(w.shape) for w in params.weights],
            v_w=[np.zeros(w.shape) for w in params.weights],
            m_b=[np.zeros(b.shape) for b in params.biases],
            v_b=[np.zeros(b.shape) for b in params.biases],
            grads=[(np.zeros(w.shape), np.zeros(b.shape))
                   for w, b in zip(params.weights, params.biases)],
        )


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 scalars: tuple[float, ...], scratch: np.ndarray) -> None:
    """Update one array's m, v and parameters in place, ADAM_CHUNK elements at a time.

    Every operation is elementwise and keeps the association order of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/corr1)) / (sqrt(v/corr2) + eps), so chunking moves no bit.
    """
    b1, one_minus_b1, b2, one_minus_b2, lr, eps, corr1, corr2 = scalars
    target = p if p.flags.c_contiguous else np.ascontiguousarray(p)
    flat_p, flat_g = target.reshape(-1), np.ascontiguousarray(g).reshape(-1)
    flat_m, flat_v = m.reshape(-1), v.reshape(-1)
    for start in range(0, flat_p.size, ADAM_CHUNK):
        end = min(start + ADAM_CHUNK, flat_p.size)
        pc, gc, mc, vc = flat_p[start:end], flat_g[start:end], flat_m[start:end], flat_v[start:end]
        s1, s2 = scratch[0, : end - start], scratch[1, : end - start]
        np.multiply(mc, b1, out=mc)
        np.multiply(gc, one_minus_b1, out=s1)
        np.add(mc, s1, out=mc)
        np.multiply(vc, b2, out=vc)
        np.multiply(gc, one_minus_b2, out=s1)
        np.multiply(s1, gc, out=s1)
        np.add(vc, s1, out=vc)
        np.divide(vc, corr2, out=s1)
        np.sqrt(s1, out=s1)
        np.add(s1, eps, out=s1)
        np.divide(mc, corr1, out=s2)
        np.multiply(s2, lr, out=s2)
        np.divide(s2, s1, out=s2)
        np.subtract(pc, s2, out=pc)
    if target is not p:
        p[...] = target


def adam_step(
    params: NetworkParams,
    gradients: list[tuple[np.ndarray, np.ndarray]],
    state: AdamState,
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update, in place; returns the mutated objects.

    Every gradient is checked before any parameter or moment changes.
    """
    if len(gradients) != len(params.weights):
        raise ValueError("gradient list does not match network depth")
    for k, (dw, db) in enumerate(gradients):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise TrainingError(f"non-finite gradient in layer {k}")
        if dw.shape != params.weights[k].shape or db.shape != params.biases[k].shape:
            raise ValueError(f"gradient shape mismatch in layer {k}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    scalars = (b1, 1 - b1, b2, 1 - b2, state.lr, state.epsilon, 1.0 - b1**t, 1.0 - b2**t)
    for k, (dw, db) in enumerate(gradients):
        _adam_update(params.weights[k], dw, state.m_w[k], state.v_w[k], scalars, state.scratch)
        _adam_update(params.biases[k], db, state.m_b[k], state.v_b[k], scalars, state.scratch)
    return params, state


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_params(
    params: NetworkParams,
    path: str | Path,
    model_kind: str,
    embed_seed: int,
    rng_seed: int | None = None,
    trained_epochs: int = 0,
    metadata: dict | None = None,
) -> None:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_kind": model_kind,
        "layer_specs": [
            {"in_dim": s.in_dim, "out_dim": s.out_dim, "activation": s.activation}
            for s in params.specs
        ],
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "embed_seed": embed_seed,
        "rng_seed": rng_seed,
        "trained_epochs": trained_epochs,
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_params(path: str | Path) -> tuple[NetworkParams, dict]:
    """Load a checkpoint; returns (params, info) where info carries the metadata.

    Raises CorruptCheckpointError for unreadable files, CheckpointVersionError
    for a foreign format_version, CheckpointShapeError when arrays disagree
    with their layer specs or the layers do not chain.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptCheckpointError(f"{path}: expected a JSON object")
    required = (
        "format_version", "model_kind", "layer_specs", "weights", "biases", "embed_seed",
    )
    missing = [k for k in required if k not in doc]
    if missing:
        raise CorruptCheckpointError(f"{path}: missing keys {missing}")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format_version {doc['format_version']!r}, expected {CHECKPOINT_VERSION}"
        )
    try:
        specs = [
            LayerSpec(in_dim=s["in_dim"], out_dim=s["out_dim"], activation=s["activation"])
            for s in doc["layer_specs"]
        ]
        weights = [np.array(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed layer data: {exc}") from None
    try:
        _check_chain(specs)
    except ValueError as exc:
        raise CheckpointShapeError(f"{path}: {exc}") from None
    if len(weights) != len(specs) or len(biases) != len(specs):
        raise CheckpointShapeError(f"{path}: {len(weights)} weight blocks for {len(specs)} layers")
    for k, (spec, w, b) in enumerate(zip(specs, weights, biases)):
        if w.shape != (spec.out_dim, spec.in_dim) or b.shape != (spec.out_dim,):
            raise CheckpointShapeError(
                f"{path}: layer {k} arrays {w.shape}/{b.shape} do not match "
                f"spec {spec.out_dim}x{spec.in_dim}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise CorruptCheckpointError(f"{path}: non-finite values in layer {k}")
    info = {
        "model_kind": doc["model_kind"],
        "embed_seed": doc["embed_seed"],
        "rng_seed": doc.get("rng_seed"),
        "trained_epochs": doc.get("trained_epochs", 0),
        "metadata": doc.get("metadata", {}),
    }
    return NetworkParams(specs=specs, weights=weights, biases=biases), info
