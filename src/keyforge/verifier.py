"""Siamese keystroke authenticator over 15-character sequences.

A single dense embedding network maps a flattened 15x5 matrix to a 64-d code;
two sequences are compared by the Euclidean distance between their codes under
a contrastive loss. The deployed decision is a threshold on that distance,
calibrated to the equal-error-rate point on validation pairs.

Unlike the word-level generator training, verifier sequences are cut from raw
sentences: spaces and cross-word latencies stay in. A window set is one
(n, 15, 5) array; a pair set is one PairSet of two such arrays and a bool one.

The network computes in VERIFIER_DTYPE (float32), so its codes and distances
are float32; the contrastive loss is summed in float64, and a distance meets
tau in float64. A training step embeds a batch's a and b sides in one stacked
forward pass and runs one backward pass of their code gradients.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
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
    stack_sentences,
)
from . import nn
from .nn import AdamState, LayerSpec, NetworkParams, TrainingError

SEQ_DIM = WORD_LEN * N_FEATURES  # 75
EMBED_OUT_DIM = 64
VERIFIER_DTYPE = np.float32


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


def embedding_specs(hidden: int) -> list[LayerSpec]:
    return [
        LayerSpec(SEQ_DIM, hidden, "relu"),
        LayerSpec(hidden, EMBED_OUT_DIM, "identity"),
    ]


@dataclass
class VerifierBundle:
    network: NetworkParams
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


def sequences_from_corpus(corpus: Corpus) -> dict[str, np.ndarray]:
    """Cut every sentence into non-overlapping normalized (15, 5) windows per user.

    Windows are cut from whole-sentence features, so space keys and
    cross-word latencies are present. Trailing remainders are dropped; users
    whose sentences all fall short contribute nothing. This is windows_at
    over every window of every user, with the picks built as arrays rather
    than as one (user, k) tuple per window, cut into one slice per user.
    """
    users = list({user.user_id: user for user in corpus.users}.values())
    counts = np.array([window_count(user) for user in users], dtype=np.int64)
    if not counts.any():
        raise ValueError("corpus yields no 15-row sequences")
    firsts = np.cumsum(counts) - counts
    user = np.repeat(np.arange(len(users)), counts)
    windows = _windows(users, user, np.arange(user.size) - firsts[user])
    return {u.user_id: windows[first : first + count]
            for u, first, count in zip(users, firsts.tolist(), counts.tolist()) if count}


def window_count(user: UserLog) -> int:
    """How many windows sequences_from_corpus cuts from one user's sentences: k keys give k // 15."""
    return sum(len(sentence) // WORD_LEN for sentence in user.sentences)


def windows_at(corpus: Corpus, picks: Iterable[tuple[str, int]]) -> np.ndarray:
    """Window k of user u for each (u, k) pick, as one (n, 15, 5) array, without featurizing the corpus.

    The sentences that hold a picked window are stacked, each once however
    often it is picked and only up to the key after its last picked window,
    and featurized in one extract_features call that ends every sentence
    with a terminal row. Every feature cell is an elementwise function of
    one key and the next within a sentence, so a prefix yields the same bits
    in the rows it shares with the whole sentence, and no window spans two
    sentences. A window picked twice gives two equal rows.
    """
    picks = list(picks)
    if not picks:
        return np.empty((0, WORD_LEN, N_FEATURES))
    users = {user.user_id: user for user in corpus.users}
    # the picked users in order of first pick
    picked = {user_id: n for n, user_id in enumerate(dict.fromkeys(user_id for user_id, _ in picks))}
    user = np.fromiter((picked[user_id] for user_id, _ in picks), np.int64, len(picks))
    k = np.fromiter((k for _, k in picks), np.int64, len(picks))
    return _windows([users[user_id] for user_id in picked], user, k)


def _windows(users: list[UserLog], user: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Window k[i] of users[user[i]] for each i, in order: the body of windows_at."""
    # all the users' sentences end to end
    sentences = [sentence for u in users for sentence in u.sentences]
    n_sentences = np.array([len(u.sentences) for u in users], dtype=np.int64)
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    before = np.concatenate(([0], np.cumsum(lengths // WORD_LEN)))  # windows before each sentence
    user_first = np.cumsum(n_sentences) - n_sentences  # each user's first sentence
    first_window = before[user_first]
    n_windows = before[user_first + n_sentences] - first_window

    bad = np.flatnonzero((k < 0) | (k >= n_windows[user]))
    if bad.size:
        i = bad[0]
        raise IndexError(f"user {users[user[i]].user_id!r} has {n_windows[user[i]]} windows, no window {k[i]}")

    # each distinct picked window, numbered across the sentences above, and where it sits
    windows, inverse = np.unique(first_window[user] + k, return_inverse=True)
    sentence = np.searchsorted(before, windows, side="right") - 1
    j = windows - before[sentence]  # the window's index within its sentence
    # windows come sorted, so each sentence's last one is its last picked window
    last = np.flatnonzero(np.append(sentence[1:] != sentence[:-1], True))
    held = sentence[last]
    # each held sentence only up to the key after its last picked window
    stacked, stops = stack_sentences([sentences[i] for i in held.tolist()], (j[last] + 1) * WORD_LEN + 1)
    rows = normalize(extract_features(stacked, stops))
    starts = (np.cumsum(stops) - stops)[np.searchsorted(held, sentence)] + j * WORD_LEN
    return slice_windows(rows[(starts[inverse][:, None] + np.arange(WORD_LEN)).ravel()])


def embed(bundle: VerifierBundle, matrices: np.ndarray) -> np.ndarray:
    """The code of each (15, 5) sequence, one row each, from one forward pass."""
    out, _ = nn.forward(bundle.network, matrices.reshape(-1, SEQ_DIM))
    return out


def pair_distances(bundle: VerifierBundle, pairs: PairSet) -> np.ndarray:
    """Euclidean distance between the embedded sequences of each pair.

    Raises NonFiniteDistanceError when a distance is NaN or infinite, as
    overflowing weights give; the overflow itself stays silent.
    """
    with np.errstate(all="ignore"):
        d = code_distances(embed(bundle, pairs.a) - embed(bundle, pairs.b))
    return require_finite(d)


def code_distances(diff: np.ndarray) -> np.ndarray:
    """The Euclidean length of each code difference along the last axis: the one statement of the pair distance.

    The sum is np.linalg.norm's own for real input, so the bits equal norm's.
    """
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def require_finite(d: np.ndarray) -> np.ndarray:
    """d itself, or NonFiniteDistanceError naming how many distances are NaN or infinite and the first."""
    if not np.isfinite(d).all():
        bad = np.flatnonzero(~np.isfinite(d))
        raise NonFiniteDistanceError(
            f"verifier gives {bad.size} non-finite distances of {d.size}, first at pair {bad[0]}")
    return d


def make_pairs(
    sequences_by_user: dict[str, np.ndarray],
    n_pairs: int,
    rng: np.random.Generator,
) -> PairSet:
    """Sample a balanced 1:1 genuine/impostor pair set, genuine pairs at even indices.

    A genuine pair is a uniform user among those with >= 2 sequences and a
    uniform ordered pair of two of its distinct sequences; an impostor pair
    is a uniform ordered pair of distinct users and a uniform sequence of
    each. Every pair is drawn in a few array draws over the users' sequences
    stacked in sorted-user order, and each side is one gather.
    """
    users = sorted(sequences_by_user)
    counts = np.array([len(sequences_by_user[u]) for u in users], dtype=np.int64)
    if not counts.all():
        raise ValueError(f"user {users[int(np.argmin(counts))]!r} has no sequences to pair")
    multi = np.flatnonzero(counts >= 2)
    if len(users) < 2 or not multi.size:
        raise ValueError("need >= 2 users and one user with >= 2 sequences to build pairs")
    windows = np.concatenate([sequences_by_user[u] for u in users])
    firsts = np.cumsum(counts) - counts
    a = np.empty(n_pairs, dtype=np.int64)
    b = np.empty(n_pairs, dtype=np.int64)

    user = multi[rng.integers(multi.size, size=(n_pairs + 1) // 2)]
    i = rng.integers(counts[user])
    j = rng.integers(counts[user] - 1)
    j += j >= i  # skip i: a uniform j != i
    a[0::2], b[0::2] = firsts[user] + i, firsts[user] + j

    user_a = rng.integers(len(users), size=n_pairs // 2)
    user_b = rng.integers(len(users) - 1, size=n_pairs // 2)
    user_b += user_b >= user_a
    a[1::2] = firsts[user_a] + rng.integers(counts[user_a])
    b[1::2] = firsts[user_b] + rng.integers(counts[user_b])
    return PairSet(windows[a], windows[b], np.arange(n_pairs) % 2 == 0)


def train_verifier(pairs: PairSet, config: VerifierConfig, seed: int) -> VerifierBundle:
    """Minimize contrastive loss over the pair set with Adam; deterministic per seed."""
    if pairs.same.all() or not pairs.same.any():
        raise ValueError("training needs both genuine and impostor pairs")
    net = nn.init_network(embedding_specs(config.hidden), seed, VERIFIER_DTYPE)
    bundle = VerifierBundle(network=net)
    state = AdamState.for_params(net, lr=config.lr, beta1=config.beta1, beta2=config.beta2)
    rng = np.random.default_rng(seed)

    # both sides of every pair, cast once: row [0, i] is pair i's a, row [1, i] its b
    sides = np.stack((pairs.a, pairs.b), dtype=net.flat.dtype).reshape(2, len(pairs), SEQ_DIM)

    loss_curve = []
    with np.errstate(all="ignore"):  # overflow stays silent; the finite checks raise TrainingError
        for _ in range(config.epochs):
            order = rng.permutation(len(pairs))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                idx = order[start : start + config.batch_size]
                n = len(idx)
                # one pass over the stacked batch [a; b]
                e, tape = nn.forward(net, np.take(sides, idx, axis=1).reshape(2 * n, SEQ_DIM))
                diff = e[:n] - e[n:]
                d = code_distances(diff)
                losses, dldd = nn.contrastive_loss(d, pairs.same[idx], config.margin)
                epoch_loss += float(losses.sum())
                # unit direction of d wrt a's code; zero where d == 0 (valid subgradient)
                safe = np.where(d > 0, d, 1.0)
                direction = diff / safe[:, None]
                ga = (dldd / n)[:, None] * direction  # float64; backward casts it once
                nn.backward(net, tape, np.concatenate((ga, -ga)), state.grads)
                nn.adam_step(net, state)
            if not np.isfinite(epoch_loss):
                raise TrainingError(f"non-finite verifier loss in epoch {len(loss_curve)}: {epoch_loss}")
            loss_curve.append(epoch_loss / len(pairs))
    bundle.metadata.update(loss_curve=loss_curve, margin=config.margin, train_seed=seed, epochs=config.epochs)
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
    decisions = pair_distances(bundle, pairs) <= np.float64(bundle.tau)  # as evaluation compares
    return float(np.count_nonzero(decisions == pairs.same)) / len(pairs)


def save_verifier(bundle: VerifierBundle, path: str | Path) -> None:
    meta = dict(bundle.metadata)
    meta["tau"] = bundle.tau
    nn.save_params(bundle.network, path, "verifier", bundle.metadata.get("train_seed"),
                   bundle.metadata.get("epochs", 0), meta)


def load_verifier(path: str | Path) -> VerifierBundle:
    net, info = nn.load_params(path, "verifier", SEQ_DIM, EMBED_OUT_DIM, VERIFIER_DTYPE)
    meta = dict(info["metadata"])
    tau = meta.pop("tau", None)
    # bool is no number here; a JSON integer beyond float range would overflow in a comparison
    if not (type(tau) in (int, float) and 0 <= tau <= sys.float_info.max):
        raise nn.CorruptCheckpointError(f"{path}: tau {tau!r} is not a finite number >= 0")
    try:  # a NaN or Infinity literal here would reach the report's metadata
        json.dumps(meta, allow_nan=False)
    except ValueError:
        raise nn.CorruptCheckpointError(f"{path}: non-finite number in the metadata") from None
    return VerifierBundle(network=net, tau=float(tau), metadata=meta)
