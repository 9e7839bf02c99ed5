"""Minimal dense-network engine shared by generator, discriminator, and verifier.

Plain numpy forward/backward over a fixed affine+activation stack. The
backward pass is exact reverse-mode differentiation of the forward map and is
pinned by a finite-difference gradient check in the test suite. A network
and its training state have one owner, which calls forward, backward and
adam_step from one thread; frozen parameters are safe to share.

Each network's parameters live in one C-contiguous buffer, `NetworkParams.flat`,
laid out w0, b0, w1, b1, ...; `weights` and `biases` are per-layer views into
it. Its dtype is the network's: `forward`, `backward` and `adam_step` compute
in it, casting their input once at entry. `AdamState` keeps m, v and the
gradient `grad` in the same layout and dtype, and `AdamState.grads` are the
per-layer (weight, bias) views into `grad`, so one Adam update and one
finiteness check cover a network.
An `AdamState` takes lr and betas from the caller's config; epsilon is `ADAM_EPSILON`.
`adam_step` is Kingma & Ba's efficient form: the bias corrections fold into
one step size alpha per call, and epsilon is added as `ADAM_EPSILON*sqrt(1-beta2**t)`.

`forward` activates each layer's freshly computed pre-activation in place, and
its `ForwardTape` holds only the activations: the input, then each layer's
output. `backward` reads each activation's derivative from the layer's output.

Inputs are 2-D (batch, in_dim) arrays. `backward` runs in one of two modes:
given per-layer gradient buffers, it overwrites them with the weight and bias
gradients and computes no input gradient; given none, it computes no weight
gradient and returns the input gradient. The buffers belong to the training
state (`AdamState.grads`): a loss over two inputs, such as a Siamese pair,
runs one forward and one backward of the two stacked into one batch, so one
set of buffers holds the summed gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embedding import EMBED_SEED

ACTIVATIONS = ("relu", "leaky_relu", "sigmoid", "identity")
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


def _layer_views(flat: np.ndarray, weights, biases) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views into flat shaped like weights and biases, laid out w0, b0, w1, b1, ..."""
    views, start = [], 0
    for a in (a for pair in zip(weights, biases) for a in pair):
        views.append(flat[start : start + a.size].reshape(a.shape))
        start += a.size
    return views[0::2], views[1::2]


def _non_finite_layer(layers) -> int | None:
    """Index of the first (weight, bias) pair holding a NaN or an inf, else None."""
    return next((k for k, (w, b) in enumerate(layers)
                 if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b)))), None)


@dataclass
class NetworkParams:
    specs: list[LayerSpec]
    weights: list[np.ndarray]  # per layer, shape (out_dim, in_dim), a view into flat
    biases: list[np.ndarray]  # per layer, shape (out_dim,), a view into flat
    flat: np.ndarray = field(init=False, repr=False)  # the given arrays, copied in once, in their dtype

    def __post_init__(self):
        self.flat = np.empty(sum(w.size + b.size for w, b in zip(self.weights, self.biases)),
                             np.result_type(*self.weights, *self.biases))
        weights, biases = _layer_views(self.flat, self.weights, self.biases)
        for view, a in zip(weights + biases, self.weights + self.biases):
            view[...] = a
        self.weights, self.biases = weights, biases

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim


@dataclass
class ForwardTape:
    """The activations of one forward pass: the input, then each layer's output."""

    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:  # 2-D (batch, out_dim)
        return self.activations[-1]


def _check_chain(specs: list[LayerSpec]) -> None:
    """Raise ValueError unless there is a layer and each output width feeds the next input."""
    if not specs:
        raise ValueError("need at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.out_dim != b.in_dim:
            raise ValueError(f"layer dim mismatch: {a.out_dim} feeds {b.in_dim}")


def init_network(specs: list[LayerSpec], seed, dtype=np.float64) -> NetworkParams:
    """Glorot-uniform weights, zero biases, deterministic for a given seed; float64 draws rounded to dtype."""
    _check_chain(specs)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        scale = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        weights.append(rng.uniform(-scale, scale, size=(spec.out_dim, spec.in_dim)).astype(dtype, copy=False))
        biases.append(np.zeros(spec.out_dim, dtype))
    return NetworkParams(specs=list(specs), weights=weights, biases=biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    pos = z >= 0
    z[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    z[~pos] = ez / (1.0 + ez)
    return z


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z, written over z and returned."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "leaky_relu":
        # equals np.where(z > 0, z, LEAKY_SLOPE * z) for 0 <= slope <= 1, at a tenth of the cost
        return np.maximum(z, LEAKY_SLOPE * z, out=z)
    if name == "sigmoid":
        return _sigmoid(z)
    return z  # identity


def _activation_backward(name: str, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """dLoss/dz from g = dLoss/dh, read from the output h (relu, leaky_relu: h > 0 exactly where z > 0)."""
    if name == "relu":
        return g * (h > 0)  # the bool mask multiplies as 0.0 / 1.0
    if name == "leaky_relu":
        # equals np.where(h > 0, 1.0, LEAKY_SLOPE) for 0 <= slope <= 1, at a tenth of the cost, in h's dtype
        return g * np.maximum(h > 0, h.dtype.type(LEAKY_SLOPE))
    if name == "sigmoid":
        return g * (h * (1.0 - h))
    return g  # identity


def forward(params: NetworkParams, x) -> tuple[np.ndarray, ForwardTape]:
    """Run the network on a (batch, in_dim) matrix; returns the output and a tape for backward()."""
    a = np.asarray(x, dtype=params.flat.dtype)
    if a.ndim != 2 or a.shape[1] != params.in_dim:
        raise ValueError(f"input shape {a.shape}, network expects (batch, {params.in_dim})")
    activations = [a]
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        z = a @ w.T  # a fresh array, so activating it in place leaves x and the tape intact
        z += b
        a = _activate(spec.activation, z)
        activations.append(a)
    return a, ForwardTape(activations)


def backward(
    params: NetworkParams,
    tape: ForwardTape,
    output_gradient,
    grads: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray | None:
    """Reverse-mode gradients of the forward map.

    output_gradient holds dLoss/dOutput per sample, shaped like the output.
    With grads, the per-layer (weight, bias) buffers are overwritten with the
    gradients summed over the batch, and None comes back: the input gradient
    is not computed. Without grads, no weight gradient is computed and the
    per-sample input gradient comes back.
    """
    g = np.asarray(output_gradient, dtype=params.flat.dtype)
    if g.shape != tape.output.shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {tape.output.shape}")
    for k in range(len(params.specs) - 1, -1, -1):
        dz = _activation_backward(params.specs[k].activation, g, tape.activations[k + 1])
        if grads is not None:
            np.matmul(dz.T, tape.activations[k], out=grads[k][0])
            dz.sum(axis=0, out=grads[k][1])
            if k == 0:
                return None
        g = dz @ params.weights[k]
    return g


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


# Elements per Adam chunk: one chunk of param, gradient, m, v and the two scratch rows
# (6 x 256 KiB in float64, 6 x 128 KiB in float32) stays in a 2 MiB L2 through all 12
# passes of the update. On the 609k-parameter generator in float64 (one BLAS thread) a
# step took 9.0 ms at 4,096 elements, 6.1 ms at 16,384, 5.2 ms at 32,768 and 6.4 ms
# unchunked; smaller chunks pay numpy's per-call overhead more often. Not retuned for float32.
ADAM_CHUNK = 32768
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    # moments, gradient and scratch in NetworkParams.flat's dtype, laid out like it; grads views grad per layer
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grads: list[tuple[np.ndarray, np.ndarray]]
    scratch: np.ndarray  # (2, ADAM_CHUNK)
    lr: float
    beta1: float
    beta2: float
    step: int = 0

    @classmethod
    def for_params(cls, params: NetworkParams, lr: float, beta1: float, beta2: float) -> "AdamState":
        grad = np.zeros_like(params.flat)
        grads = list(zip(*_layer_views(grad, params.weights, params.biases)))
        return cls(m=np.zeros_like(grad), v=np.zeros_like(grad), grad=grad, grads=grads,
                   scratch=np.empty((2, ADAM_CHUNK), grad.dtype), lr=lr, beta1=beta1, beta2=beta2)


def _adam_chunks(p, g, m, v, scratch, b1, b2, alpha, eps_hat) -> None:
    """Update p, m and v in place, ADAM_CHUNK elements at a time."""
    one_minus_b1, one_minus_b2 = 1 - b1, 1 - b2
    for start in range(0, p.size, ADAM_CHUNK):
        end = min(start + ADAM_CHUNK, p.size)
        pc, gc, mc, vc = p[start:end], g[start:end], m[start:end], v[start:end]
        s1, s2 = scratch[0, : end - start], scratch[1, : end - start]
        np.multiply(mc, b1, out=mc)
        np.multiply(gc, one_minus_b1, out=s1)
        np.add(mc, s1, out=mc)
        np.multiply(vc, b2, out=vc)
        np.multiply(gc, one_minus_b2, out=s1)
        np.multiply(s1, gc, out=s1)
        np.add(vc, s1, out=vc)
        np.sqrt(vc, out=s1)
        np.add(s1, eps_hat, out=s1)
        np.multiply(mc, alpha, out=s2)
        np.divide(s2, s1, out=s2)
        np.subtract(pc, s2, out=pc)


def adam_step(params: NetworkParams, state: AdamState) -> None:
    """One bias-corrected Adam update of params from state.grad, in place.

    The gradient is checked before any parameter or moment changes. This is
    Kingma & Ba's efficient form (arXiv 1412.6980, end of section 2): alpha =
    lr*sqrt(1-b2**t)/(1-b1**t) and eps_hat = eps*sqrt(1-b2**t) are computed once,
    then m, v and the parameters are updated ADAM_CHUNK elements at a time, each
    operation elementwise in the order m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g
    and p -= (m*alpha) / (sqrt(v) + eps_hat), so chunking moves no bit.
    """
    p, g, m, v = params.flat, state.grad, state.m, state.v
    if not p.size == g.size == m.size == v.size:
        raise ValueError(f"Adam state holds {g.size} values for a network of {p.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(g)  # finite only if every entry is
    if not np.isfinite(total) and not np.all(np.isfinite(g)):
        raise TrainingError(f"non-finite gradient in layer {_non_finite_layer(state.grads)}")
    state.step += 1
    b1, b2, t = state.beta1, state.beta2, state.step
    root_corr2 = math.sqrt(1.0 - b2**t)
    alpha, eps_hat = state.lr * root_corr2 / (1.0 - b1**t), ADAM_EPSILON * root_corr2
    _adam_chunks(p, g, m, v, state.scratch, b1, b2, alpha, eps_hat)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_params(
    params: NetworkParams,
    path: str | Path,
    model_kind: str,
    rng_seed: int | None,
    trained_epochs: int,
    metadata: dict,
) -> None:
    """Write params as a JSON checkpoint stamped with this build's EMBED_SEED."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model_kind": model_kind,
        "layer_specs": [
            {"in_dim": s.in_dim, "out_dim": s.out_dim, "activation": s.activation}
            for s in params.specs
        ],
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "embed_seed": EMBED_SEED,
        "rng_seed": rng_seed,
        "trained_epochs": trained_epochs,
        "metadata": metadata,
    }
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    del doc  # free the tolist() floats before the text is encoded
    Path(path).write_text(text, encoding="utf-8")


def load_params(path: str | Path, model_kind: str, in_dim: int, out_dim: int,
                dtype=np.float64) -> tuple[NetworkParams, dict]:
    """Load a model_kind checkpoint that must map in_dim -> out_dim; returns (params, info) in dtype.

    info holds rng_seed, trained_epochs and metadata. Each failure names the file:
    CorruptCheckpointError for an unreadable file, a missing key, another model
    kind, malformed layer data, non-finite values, values dtype does not hold
    exactly (a float64 file for a float32 network) or metadata that is not an object;
    CheckpointVersionError for a foreign format_version or embedding seed;
    CheckpointShapeError for arrays that disagree with their layer specs, layers
    that do not chain, or a network that does not map in_dim -> out_dim.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an integer past 4,300 digits
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
    if doc["embed_seed"] != EMBED_SEED:
        raise CheckpointVersionError(
            f"{path}: embedding seed {doc['embed_seed']} does not match this build ({EMBED_SEED})"
        )
    if doc["model_kind"] != model_kind:
        raise CorruptCheckpointError(f"{path}: model_kind {doc['model_kind']!r} is not a {model_kind}")
    try:
        specs = [
            LayerSpec(in_dim=s["in_dim"], out_dim=s["out_dim"], activation=s["activation"])
            for s in doc["layer_specs"]
        ]
        weights = [np.array(w, dtype=np.float64) for w in doc["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise CorruptCheckpointError(f"{path}: malformed layer data: {exc}") from None
    try:
        _check_chain(specs)
    except ValueError as exc:
        raise CheckpointShapeError(f"{path}: {exc}") from None
    if (specs[0].in_dim, specs[-1].out_dim) != (in_dim, out_dim):
        raise CheckpointShapeError(
            f"{path}: {model_kind} maps {specs[0].in_dim} -> {specs[-1].out_dim}, "
            f"expected {in_dim} -> {out_dim}"
        )
    if len(weights) != len(specs) or len(biases) != len(specs):
        raise CheckpointShapeError(f"{path}: {len(weights)} weight blocks for {len(specs)} layers")
    for k, (spec, w, b) in enumerate(zip(specs, weights, biases)):
        if w.shape != (spec.out_dim, spec.in_dim) or b.shape != (spec.out_dim,):
            raise CheckpointShapeError(
                f"{path}: layer {k} arrays {w.shape}/{b.shape} do not match "
                f"spec {spec.out_dim}x{spec.in_dim}"
            )
    if (bad := _non_finite_layer(zip(weights, biases))) is not None:
        raise CorruptCheckpointError(f"{path}: non-finite values in layer {bad}")
    with np.errstate(over="ignore"):  # past dtype's range a value casts to inf, which differs from it
        cast = [(w.astype(dtype, copy=False), b.astype(dtype, copy=False)) for w, b in zip(weights, biases)]
    for k, (w, b) in enumerate(zip(weights, biases)):
        if not (np.array_equal(w, cast[k][0]) and np.array_equal(b, cast[k][1])):
            raise CorruptCheckpointError(f"{path}: layer {k} holds values that {np.dtype(dtype)} does not")
    info = {
        "rng_seed": doc.get("rng_seed"),
        "trained_epochs": doc.get("trained_epochs", 0),
        "metadata": doc.get("metadata", {}),
    }
    if not isinstance(info["metadata"], dict):
        raise CorruptCheckpointError(f"{path}: metadata is not a JSON object")
    return NetworkParams(specs=specs, weights=[w for w, _ in cast], biases=[b for _, b in cast]), info
