"""Siamese keystroke authenticator over 15-character sequences.

A single dense embedding network maps a flattened 15x5 matrix to a 64-d code;
two sequences are compared by the Euclidean distance between their codes under
a contrastive loss. The deployed decision is a threshold on that distance,
calibrated to the equal-error-rate point on validation pairs.

Unlike the word-level generator training, verifier sequences are cut from raw
sentences: spaces and cross-word latencies stay in.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Corpus,
    N_FEATURES,
    WORD_LEN,
    extract_features,
    normalize,
    slice_windows,
)
from . import nn
from .nn import AdamState, LayerSpec, NetworkParams

SAME_USER = "same_user"
DIFFERENT_USER = "different_user"

SEQ_DIM = WORD_LEN * N_FEATURES  # 75
EMBED_OUT_DIM = 64


@dataclass
class VerifierConfig:
    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    margin: float = 1.0
    hidden: int = 128
    train_pairs: int = 4000
    calibration_pairs: int = 1000
    test_pairs: int = 1000


def embedding_specs(hidden: int = 128) -> list[LayerSpec]:
    return [
        LayerSpec(SEQ_DIM, hidden, "relu"),
        LayerSpec(hidden, EMBED_OUT_DIM, "identity"),
    ]


@dataclass
class VerifierBundle:
    network: NetworkParams
    margin: float = 1.0
    tau: float | None = None
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SequencePair:
    """Two normalized (15, 5) sequences and whether they come from one user."""

    a: np.ndarray
    b: np.ndarray
    label: str  # SAME_USER or DIFFERENT_USER


def sequences_from_corpus(corpus: Corpus) -> dict[str, list[np.ndarray]]:
    """Cut every sentence into non-overlapping normalized (15, 5) windows per user.

    Features are extracted over the whole sentence, so space keys and
    cross-word latencies are present. Trailing remainders are dropped; users
    whose sentences all fall short contribute nothing.
    """
    out: dict[str, list[np.ndarray]] = {}
    total = 0
    for user in corpus.users:
        seqs = []
        for sentence in user.sentences:
            if sentence:
                seqs.extend(slice_windows(normalize(extract_features(sentence)), WORD_LEN))
        if seqs:
            out[user.user_id] = seqs
            total += len(seqs)
    if total == 0:
        raise ValueError("corpus yields no 15-row sequences")
    return out


def _embed(bundle: VerifierBundle, matrices: np.ndarray) -> np.ndarray:
    out, _ = nn.forward(bundle.network, matrices.reshape(-1, SEQ_DIM))
    return out


def pair_distances(bundle: VerifierBundle, pairs: list[SequencePair]) -> np.ndarray:
    """Euclidean distance between the embedded sequences of each pair."""
    a = np.stack([p.a for p in pairs])
    b = np.stack([p.b for p in pairs])
    return np.linalg.norm(_embed(bundle, a) - _embed(bundle, b), axis=1)


def make_pairs(
    sequences_by_user: dict[str, list[np.ndarray]],
    n_pairs: int,
    rng: np.random.Generator,
) -> list[SequencePair]:
    """Sample a balanced 1:1 genuine/impostor pair set."""
    users = sorted(sequences_by_user)
    multi = [u for u in users if len(sequences_by_user[u]) >= 2]
    if len(users) < 2 or not multi:
        raise ValueError("need >= 2 users and one user with >= 2 sequences to build pairs")
    pairs = []
    for k in range(n_pairs):
        if k % 2 == 0:
            uid = multi[rng.integers(len(multi))]
            i, j = rng.choice(len(sequences_by_user[uid]), size=2, replace=False)
            pairs.append(SequencePair(sequences_by_user[uid][i], sequences_by_user[uid][j], SAME_USER))
        else:
            ui, uj = rng.choice(len(users), size=2, replace=False)
            a = sequences_by_user[users[ui]]
            b = sequences_by_user[users[uj]]
            pairs.append(
                SequencePair(
                    a[rng.integers(len(a))], b[rng.integers(len(b))], DIFFERENT_USER
                )
            )
    return pairs


def train_verifier(
    pairs: list[SequencePair], config: VerifierConfig, seed: int
) -> VerifierBundle:
    """Minimize contrastive loss over the pair set with Adam; deterministic per seed."""
    labels = {p.label for p in pairs}
    if labels != {SAME_USER, DIFFERENT_USER}:
        raise ValueError(f"pair set must contain both labels, got {sorted(labels)}")
    net = nn.init_network(embedding_specs(config.hidden), seed)
    bundle = VerifierBundle(network=net, margin=config.margin)
    state = AdamState.for_params(net, lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    grad_b, grads_b = nn.gradient_buffers(net)  # pass b's gradients, summed into state.grad
    rng = np.random.default_rng(seed)

    a_all = np.stack([p.a.reshape(-1) for p in pairs])
    b_all = np.stack([p.b.reshape(-1) for p in pairs])
    same_all = np.array([p.label == SAME_USER for p in pairs])

    loss_curve = []
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            ea, tape_a = nn.forward(net, a_all[idx])
            eb, tape_b = nn.forward(net, b_all[idx])
            diff = ea - eb
            d = np.linalg.norm(diff, axis=1)
            losses, dldd = nn.contrastive_loss(d, same_all[idx], config.margin)
            epoch_loss += float(losses.sum())
            # unit direction of d wrt ea; zero where d == 0 (valid subgradient)
            safe = np.where(d > 0, d, 1.0)
            direction = diff / safe[:, None]
            ga = (dldd / len(idx))[:, None] * direction
            nn.backward(net, tape_a, ga, state.grads)
            nn.backward(net, tape_b, -ga, grads_b)
            state.grad += grad_b
            nn.adam_step(net, state)
        loss_curve.append(epoch_loss / len(pairs))
    bundle.metadata["loss_curve"] = loss_curve
    bundle.metadata["train_seed"] = seed
    bundle.metadata["epochs"] = config.epochs
    return bundle


def calibrate_threshold(bundle: VerifierBundle, validation_pairs: list[SequencePair]) -> float:
    """Pick the distance threshold minimizing |FAR - FRR|, ties to the smaller value."""
    labels = {p.label for p in validation_pairs}
    if labels != {SAME_USER, DIFFERENT_USER}:
        raise ValueError("calibration needs both genuine and impostor pairs")
    d = pair_distances(bundle, validation_pairs)
    genuine = np.array([p.label == SAME_USER for p in validation_pairs])
    gen_d = d[genuine]
    imp_d = d[~genuine]

    best_tau = 0.0
    best_gap = None
    best_far = best_frr = 0.0
    for tau in np.unique(np.concatenate([[0.0], d])):
        far = float(np.count_nonzero(imp_d <= tau)) / imp_d.size
        frr = float(np.count_nonzero(gen_d > tau)) / gen_d.size
        gap = abs(far - frr)
        if best_gap is None or gap < best_gap:
            best_gap, best_tau, best_far, best_frr = gap, float(tau), far, frr
    bundle.tau = best_tau
    bundle.metadata["eer"] = 0.5 * (best_far + best_frr)
    bundle.metadata["far"] = best_far
    bundle.metadata["frr"] = best_frr
    return best_tau


def pair_accuracy(bundle: VerifierBundle, pairs: list[SequencePair]) -> float:
    """Fraction of pairs whose threshold decision matches the label."""
    if bundle.tau is None:
        raise ValueError("verifier bundle is not calibrated (tau unset)")
    d = pair_distances(bundle, pairs)
    genuine = np.array([p.label == SAME_USER for p in pairs])
    decisions = d <= bundle.tau
    return float(np.count_nonzero(decisions == genuine)) / len(pairs)


def save_verifier(bundle: VerifierBundle, path: str | Path) -> None:
    meta = dict(bundle.metadata)
    meta["tau"] = bundle.tau
    meta["margin"] = bundle.margin
    nn.save_params(bundle.network, path, "verifier", bundle.metadata.get("train_seed"),
                   bundle.metadata.get("epochs", 0), meta)


def load_verifier(path: str | Path) -> VerifierBundle:
    net, info = nn.load_params(path, "verifier", SEQ_DIM, EMBED_OUT_DIM)
    meta = dict(info["metadata"])
    tau = meta.pop("tau", None)
    # bool is no number here; a JSON integer beyond float range would overflow in a comparison
    if not (type(tau) in (int, float) and 0 <= tau <= sys.float_info.max):
        raise nn.CorruptCheckpointError(f"{path}: tau {tau!r} is not a finite number >= 0")
    margin = meta.pop("margin", 1.0)
    return VerifierBundle(network=net, margin=margin, tau=float(tau), metadata=meta)
