"""Siamese keystroke authenticator over 15-character sequences.

A single dense embedding network maps a flattened 15x5 matrix to a 64-d code;
two sequences are compared by the Euclidean distance between their codes under
a contrastive loss. The deployed decision is a threshold on that distance,
calibrated to the equal-error-rate point on validation pairs.

Unlike the word-level generator training, verifier sequences are cut from raw
sentences: spaces and cross-word latencies stay in. A pair set is one PairSet:
the two sides as (n, 15, 5) arrays and a bool "same user" array.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .data import (
    Corpus,
    N_FEATURES,
    WORD_LEN,
    UserLog,
    extract_features,
    normalize,
    slice_windows,
)
from . import nn
from .nn import AdamState, LayerSpec, NetworkParams

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


class NonFiniteDistanceError(ValueError):
    """The verifier network maps some sequence to a NaN or infinite distance."""


@dataclass(frozen=True)
class PairSet:
    """n pairs of normalized (15, 5) sequences and whether each pair comes from one user."""

    a: np.ndarray  # (n, 15, 5)
    b: np.ndarray  # (n, 15, 5)
    same: np.ndarray  # (n,) bool

    def __len__(self) -> int:
        return len(self.same)

    def __getitem__(self, index) -> PairSet:
        """The pairs picked by a slice or a bool mask."""
        return PairSet(self.a[index], self.b[index], self.same[index])


def sequences_from_corpus(corpus: Corpus) -> dict[str, list[np.ndarray]]:
    """Cut every sentence into non-overlapping normalized (15, 5) windows per user.

    Windows are cut from whole-sentence features, so space keys and
    cross-word latencies are present. Trailing remainders are dropped; users
    whose sentences all fall short contribute nothing. This is windows_at
    over every window of every user.
    """
    counts = {user.user_id: window_count(user) for user in corpus.users}
    picks = [(user_id, k) for user_id, count in counts.items() for k in range(count)]
    if not picks:
        raise ValueError("corpus yields no 15-row sequences")
    windows = windows_at(corpus, picks)
    out: dict[str, list[np.ndarray]] = {}
    start = 0
    for user_id, count in counts.items():
        if count:
            out[user_id] = windows[start : start + count]
            start += count
    return out


def _window_ends(user: UserLog) -> list[int]:
    """Running window count after each sentence; a k-key sentence gives k // 15 windows."""
    return list(accumulate(len(sentence) // WORD_LEN for sentence in user.sentences))


def window_count(user: UserLog) -> int:
    """How many windows sequences_from_corpus cuts from one user's sentences."""
    ends = _window_ends(user)
    return ends[-1] if ends else 0


def windows_at(corpus: Corpus, picks: Iterable[tuple[str, int]]) -> list[np.ndarray]:
    """Window k of user u for each (u, k) pick, in pick order, without featurizing the corpus.

    Only sentences that hold a picked window are featurized, each once per
    call however often it is picked, and only up to the key after its last
    picked window: every feature cell is an elementwise function of one key
    and the next, so a prefix yields the same bits in the rows it shares
    with the whole sentence.
    """
    users = {user.user_id: user for user in corpus.users}
    ends: dict[str, list[int]] = {}
    located = []  # (user, sentence index, window index within the sentence) per pick
    last: dict[tuple[str, int], int] = {}  # (user, sentence index) -> its last picked window
    for user_id, k in picks:
        if user_id not in ends:
            ends[user_id] = _window_ends(users[user_id])
        user_ends = ends[user_id]
        n_windows = user_ends[-1] if user_ends else 0
        if not 0 <= k < n_windows:
            raise IndexError(f"user {user_id!r} has {n_windows} windows, no window {k}")
        i = bisect_right(user_ends, k)
        j = k - (user_ends[i - 1] if i else 0)
        located.append((user_id, i, j))
        last[user_id, i] = max(j, last.get((user_id, i), 0))
    cut = {
        (user_id, i): slice_windows(normalize(extract_features(
            users[user_id].sentences[i][: (j + 1) * WORD_LEN + 1])), WORD_LEN)
        for (user_id, i), j in last.items()
    }
    return [cut[user_id, i][j] for user_id, i, j in located]


def _embed(bundle: VerifierBundle, matrices: np.ndarray) -> np.ndarray:
    out, _ = nn.forward(bundle.network, matrices.reshape(-1, SEQ_DIM))
    return out


def pair_distances(bundle: VerifierBundle, pairs: PairSet) -> np.ndarray:
    """Euclidean distance between the embedded sequences of each pair.

    Raises NonFiniteDistanceError when a distance is NaN or infinite, as
    overflowing weights give; the overflow itself stays silent.
    """
    with np.errstate(all="ignore"):
        d = np.linalg.norm(_embed(bundle, pairs.a) - _embed(bundle, pairs.b), axis=1)
    if not np.isfinite(d).all():
        bad = np.flatnonzero(~np.isfinite(d))
        raise NonFiniteDistanceError(
            f"verifier gives {bad.size} non-finite distances of {d.size}, first at pair {bad[0]}")
    return d


def make_pairs(
    sequences_by_user: dict[str, list[np.ndarray]],
    n_pairs: int,
    rng: np.random.Generator,
) -> PairSet:
    """Sample a balanced 1:1 genuine/impostor pair set, genuine pairs at even indices."""
    users = sorted(sequences_by_user)
    multi = [u for u in users if len(sequences_by_user[u]) >= 2]
    if len(users) < 2 or not multi:
        raise ValueError("need >= 2 users and one user with >= 2 sequences to build pairs")
    a, b = [], []
    for k in range(n_pairs):
        if k % 2 == 0:
            seqs = sequences_by_user[multi[rng.integers(len(multi))]]
            i, j = rng.choice(len(seqs), size=2, replace=False)
            a.append(seqs[i])
            b.append(seqs[j])
        else:
            ui, uj = rng.choice(len(users), size=2, replace=False)
            seqs_a = sequences_by_user[users[ui]]
            seqs_b = sequences_by_user[users[uj]]
            a.append(seqs_a[rng.integers(len(seqs_a))])
            b.append(seqs_b[rng.integers(len(seqs_b))])
    return PairSet(np.stack(a), np.stack(b), np.arange(n_pairs) % 2 == 0)


def train_verifier(pairs: PairSet, config: VerifierConfig, seed: int) -> VerifierBundle:
    """Minimize contrastive loss over the pair set with Adam; deterministic per seed."""
    if pairs.same.all() or not pairs.same.any():
        raise ValueError("training needs both genuine and impostor pairs")
    net = nn.init_network(embedding_specs(config.hidden), seed)
    bundle = VerifierBundle(network=net, margin=config.margin)
    state = AdamState.for_params(net, lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    grad_b, grads_b = nn.gradient_buffers(net)  # pass b's gradients, summed into state.grad
    rng = np.random.default_rng(seed)

    a_all = pairs.a.reshape(len(pairs), SEQ_DIM)
    b_all = pairs.b.reshape(len(pairs), SEQ_DIM)

    loss_curve = []
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            ea, tape_a = nn.forward(net, a_all[idx])
            eb, tape_b = nn.forward(net, b_all[idx])
            diff = ea - eb
            d = np.sqrt(np.add.reduce(diff * diff, axis=1))  # np.linalg.norm's own sum for real input
            losses, dldd = nn.contrastive_loss(d, pairs.same[idx], config.margin)
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


def calibrate_threshold(bundle: VerifierBundle, validation_pairs: PairSet) -> float:
    """Pick the distance threshold minimizing |FAR - FRR|, ties to the smaller value."""
    if validation_pairs.same.all() or not validation_pairs.same.any():
        raise ValueError("calibration needs both genuine and impostor pairs")
    d = pair_distances(bundle, validation_pairs)
    taus = np.unique(np.concatenate([[0.0], d]))
    imp_d = np.sort(d[~validation_pairs.same])
    gen_d = np.sort(d[validation_pairs.same])
    # at each candidate tau: FAR counts impostor distances <= tau, FRR genuine distances > tau
    far = np.searchsorted(imp_d, taus, side="right") / imp_d.size
    frr = (gen_d.size - np.searchsorted(gen_d, taus, side="right")) / gen_d.size
    best = int(np.argmin(np.abs(far - frr)))  # argmin keeps the first, so the smallest tau
    best_far, best_frr = float(far[best]), float(frr[best])
    bundle.tau = float(taus[best])
    bundle.metadata["eer"] = 0.5 * (best_far + best_frr)
    bundle.metadata["far"] = best_far
    bundle.metadata["frr"] = best_frr
    return bundle.tau


def pair_accuracy(bundle: VerifierBundle, pairs: PairSet) -> float:
    """Fraction of pairs whose threshold decision matches pairs.same."""
    if bundle.tau is None:
        raise ValueError("verifier bundle is not calibrated (tau unset)")
    decisions = pair_distances(bundle, pairs) <= bundle.tau
    return float(np.count_nonzero(decisions == pairs.same)) / len(pairs)


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
