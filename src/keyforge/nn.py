"""Minimal dense-network engine shared by generator, discriminator, and verifier.

Plain numpy forward/backward over a fixed affine+activation stack. The
backward pass is exact reverse-mode differentiation of the forward map and is
pinned by a finite-difference gradient check in the test suite. A network
and its training state have one owner, which calls forward, backward and
adam_step from one thread; frozen parameters are safe to share.

Each network's parameters live in one C-contiguous float64 buffer,
`NetworkParams.flat`, laid out w0, b0, w1, b1, ...; `weights` and `biases` are
per-layer views into it. `AdamState` keeps m, v and the gradient `grad` in
the same layout, and `AdamState.grads` are the per-layer (weight, bias) views
into `grad`, so one Adam update and one finiteness check cover a network.

Inputs are 2-D (batch, in_dim) arrays. `backward` runs in one of two modes:
given per-layer gradient buffers, it overwrites them with the weight and bias
gradients and computes no input gradient; given none, it computes no weight
gradient and returns the input gradient. The buffers belong to the training
state (`AdamState.grads`, or a second set from `gradient_buffers`), so a
caller that keeps gradients across two passes passes separate buffers.

When the process may run on two or more CPUs, a training step uses one helper
thread, started on first use. adam_step shares its ADAM_CHUNK chunks with it,
and buffer-mode backward gives it each large weight-gradient product while the
caller goes on down the input-gradient chain. Each element and each product
is computed by the same numpy call in the same order on either thread, so the
bits do not depend on which thread does what. The helper runs numpy calls
only. Every call takes back the work the helper has not begun, and waits for
the rest, before it returns. On one CPU no helper exists and all of the work
runs on the caller.
"""

from __future__ import annotations

import json
import os
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


# ---------------------------------------------------------------------------
# Helper thread
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads that share a training step: the caller, plus one helper when the
# process may run on two or more CPUs.
WORKERS = min(2, _usable_cpus())

_helper_pool = None  # a one-thread executor, created on first use


def _helper():
    """The helper thread's executor, or None when WORKERS is 1."""
    global _helper_pool
    if WORKERS < 2:
        return None
    if _helper_pool is None:
        from concurrent.futures import ThreadPoolExecutor  # ~8 ms, so not at import

        _helper_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="keyforge-nn")
    return _helper_pool


def _forget_helper() -> None:
    """A forked child has no helper thread, so it starts its own on first use."""
    global _helper_pool
    _helper_pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _submit(helper, fn, *args, **kwargs) -> tuple:
    """Hand fn(*args, **kwargs) to the helper as a job for _finish."""
    return helper.submit(fn, *args, **kwargs), fn, args, kwargs


def _finish(jobs: list) -> None:
    """Run on the caller each job the helper has not begun; wait for the others.

    Then raises the first error of any job. A helper that waits for a CPU so
    costs the caller at most the job it is running.
    """
    errors = []
    for future, fn, args, kwargs in jobs:
        if future.cancel():
            try:
                fn(*args, **kwargs)
            except Exception as exc:
                errors.append(exc)
        elif (exc := future.exception()) is not None:
            errors.append(exc)
    if errors:
        raise errors[0]


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
    flat: np.ndarray = field(init=False, repr=False)  # the given arrays, copied in once

    def __post_init__(self):
        self.flat = np.empty(sum(w.size + b.size for w, b in zip(self.weights, self.biases)))
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

    def copy(self) -> "NetworkParams":
        return NetworkParams(specs=list(self.specs), weights=self.weights, biases=self.biases)


@dataclass
class ForwardTape:
    """Cached per-layer inputs and pre-activations from one forward pass."""

    inputs: list[np.ndarray]
    pre_activations: list[np.ndarray]
    output: np.ndarray  # 2-D (batch, out_dim)


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
    return z  # identity


def _activation_grad(name: str, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "leaky_relu":
        # equals np.where(z > 0, 1.0, LEAKY_SLOPE) for 0 <= slope <= 1, at a tenth of the cost
        return np.maximum(z > 0, LEAKY_SLOPE)
    if name == "sigmoid":
        return h * (1.0 - h)
    return np.ones_like(z)


def forward(params: NetworkParams, x) -> tuple[np.ndarray, ForwardTape]:
    """Run the network on a (batch, in_dim) matrix; returns the output and a tape for backward()."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != params.in_dim:
        raise ValueError(f"input shape {a.shape}, network expects (batch, {params.in_dim})")
    inputs, pres = [], []
    for spec, w, b in zip(params.specs, params.weights, params.biases):
        inputs.append(a)
        z = a @ w.T
        z += b
        pres.append(z)
        a = _activate(spec.activation, z)
    return a, ForwardTape(inputs=inputs, pre_activations=pres, output=a)


# Multiply-adds (rows x out x in) from which buffer-mode backward moves a
# weight-gradient product to the helper thread. Medians of 8 interleaved rounds,
# one BLAS thread, 2-core host: generator backward at 32 rows took 2.10 ms
# serial and 1.36 ms with its 8.4M-MAC product overlapped; the discriminator's
# at 64 rows (2.1M) 0.48 -> 0.44 ms. Overlapping the verifier's 0.5M-MAC product
# at 64 rows took 0.155 ms against 0.112 serial: the hand-off costs more than
# the product.
OVERLAP_MACS = 1 << 21


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

    With grads and a helper thread, the weight-gradient product of each layer
    above the first with at least OVERLAP_MACS multiply-adds goes to the
    helper while the caller goes on down the chain. Before backward returns
    or raises, the caller computes each such product that the helper has not
    begun and waits for the others.
    """
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != tape.output.shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {tape.output.shape}")
    n_layers = len(params.specs)
    helper = _helper() if grads is not None else None
    jobs = []
    try:
        for k in range(n_layers - 1, -1, -1):
            z = tape.pre_activations[k]
            h = tape.inputs[k + 1] if k + 1 < n_layers else tape.output
            dz = g * _activation_grad(params.specs[k].activation, z, h)
            if grads is not None:
                w_grad = grads[k][0]
                if helper is not None and k > 0 and len(dz) * w_grad.size >= OVERLAP_MACS:
                    jobs.append(_submit(helper, np.matmul, dz.T, tape.inputs[k], out=w_grad))
                else:
                    np.matmul(dz.T, tape.inputs[k], out=w_grad)
                dz.sum(axis=0, out=grads[k][1])
                if k == 0:
                    return None
            g = dz @ params.weights[k]
        return g
    finally:
        _finish(jobs)


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


def gradient_buffers(params: NetworkParams) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """A zeroed buffer laid out like params.flat, and its per-layer (weight, bias) views."""
    flat = np.zeros(params.flat.size)
    return flat, list(zip(*_layer_views(flat, params.weights, params.biases)))


# Elements per Adam chunk: one chunk of param, gradient, m, v and the two
# scratch rows (6 x 256 KiB) stays in a 2 MiB L2 through all 14 passes of the
# update. On the 609k-parameter generator (one BLAS thread, 2 MiB L2 per core)
# a step took 9.0 ms at 4,096 elements, 6.1 ms at 16,384, 5.2 ms at 32,768 and
# 6.4 ms unchunked; smaller chunks pay numpy's per-call overhead more often.
ADAM_CHUNK = 32768


@dataclass
class AdamState:
    # moments and gradient laid out like NetworkParams.flat; grads views grad per layer
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grads: list[tuple[np.ndarray, np.ndarray]]
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    # two rows per thread: the caller's and the helper's
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 2, ADAM_CHUNK)))

    @classmethod
    def for_params(cls, params: NetworkParams, lr: float = 2e-4, beta1: float = 0.5,
                   beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        grad, grads = gradient_buffers(params)
        return cls(m=np.zeros_like(grad), v=np.zeros_like(grad), grad=grad, grads=grads,
                   lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)


def _adam_chunks(p, g, m, v, starts, scratch, b1, b2, lr, eps, corr1, corr2) -> None:
    """Update p, m and v in place over the ADAM_CHUNK chunks that begin at starts.

    starts may be an iterator that another thread draws from at the same time.
    """
    one_minus_b1, one_minus_b2 = 1 - b1, 1 - b2
    for start in starts:
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
        np.divide(vc, corr2, out=s1)
        np.sqrt(s1, out=s1)
        np.add(s1, eps, out=s1)
        np.divide(mc, corr1, out=s2)
        np.multiply(s2, lr, out=s2)
        np.divide(s2, s1, out=s2)
        np.subtract(pc, s2, out=pc)


def adam_step(params: NetworkParams, state: AdamState) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update of params from state.grad, in place; returns both.

    The gradient is checked before any parameter or moment changes. m, v and
    the parameters are updated ADAM_CHUNK elements at a time, each operation
    elementwise in the order m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/corr1)) / (sqrt(v/corr2) + eps), so neither chunking nor the
    thread a chunk runs on moves a bit. With a helper thread and two or more
    chunks, the caller and the helper each take the next chunk not yet taken,
    each with its own scratch rows, until none is left.
    """
    p, g, m, v = params.flat, state.grad, state.m, state.v
    if not p.size == g.size == m.size == v.size:
        raise ValueError(f"Adam state holds {g.size} values for a network of {p.size}")
    if not np.all(np.isfinite(g)):
        raise TrainingError(f"non-finite gradient in layer {_non_finite_layer(state.grads)}")
    state.step += 1
    t = state.step
    coefs = (state.beta1, state.beta2, state.lr, state.epsilon,
             1.0 - state.beta1**t, 1.0 - state.beta2**t)
    shared = iter(range(0, p.size, ADAM_CHUNK))  # each next() runs under the GIL
    helper = _helper() if p.size > ADAM_CHUNK else None
    jobs = [] if helper is None else [
        _submit(helper, _adam_chunks, p, g, m, v, shared, state.scratch[1], *coefs)]
    try:
        _adam_chunks(p, g, m, v, shared, state.scratch[0], *coefs)
    finally:
        _finish(jobs)
    return params, state


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
    text = json.dumps(doc, sort_keys=True)
    del doc  # free the tolist() floats before the text is encoded
    Path(path).write_text(text, encoding="utf-8")


def load_params(path: str | Path, model_kind: str, in_dim: int, out_dim: int) -> tuple[NetworkParams, dict]:
    """Load a model_kind checkpoint that must map in_dim -> out_dim; returns (params, info).

    info holds rng_seed, trained_epochs and metadata. Each failure names the file:
    CorruptCheckpointError for an unreadable file, a missing key, another model
    kind, malformed layer data, non-finite values or metadata that is not an object;
    CheckpointVersionError for a foreign format_version or embedding seed;
    CheckpointShapeError for arrays that disagree with their layer specs, layers
    that do not chain, or a network that does not map in_dim -> out_dim.
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
    except (KeyError, TypeError, ValueError) as exc:
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
    info = {
        "rng_seed": doc.get("rng_seed"),
        "trained_epochs": doc.get("trained_epochs", 0),
        "metadata": doc.get("metadata", {}),
    }
    if not isinstance(info["metadata"], dict):
        raise CorruptCheckpointError(f"{path}: metadata is not a JSON object")
    return NetworkParams(specs=specs, weights=weights, biases=biases), info
