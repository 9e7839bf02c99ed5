import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from keyforge import nn, verifier
from keyforge.data import (
    COL_KEYCODE,
    Corpus,
    KeyEvent,
    SPACE_KEYCODE,
    UserLog,
    extract_features,
    normalize,
    slice_windows,
    synth_corpus,
)
from keyforge.embedding import EMBED_SEED
from keyforge.nn import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointVersionError,
    CorruptCheckpointError,
    LayerSpec,
)
from keyforge.verifier import (
    PairSet,
    VerifierBundle,
    VerifierConfig,
    calibrate_threshold,
    make_pairs,
    pair_accuracy,
    pair_distances,
    sequences_from_corpus,
    train_verifier,
)
from test_nn import copy_of, max_relative_error, numeric_gradients


def fixed_sequence(value):
    return np.full((15, 5), value, dtype=float)


def pair_set(pairs, same):
    """A PairSet from (a, b) tuples and one same-user flag, or one flag per pair."""
    a, b = zip(*pairs)
    return PairSet(np.stack(a), np.stack(b), np.broadcast_to(same, len(pairs)))


def distances(bundle, *pairs):
    """pair_distances over (a, b) tuples; the same-user flag plays no part in a distance."""
    return pair_distances(bundle, pair_set(pairs, True))


@pytest.fixture(scope="module")
def sequence_sets(small_corpus):
    return sequences_from_corpus(small_corpus)


@pytest.fixture(scope="module")
def trained(sequence_sets):
    rng = np.random.default_rng(21)
    pairs = make_pairs(sequence_sets, 600, rng)
    cfg = VerifierConfig(epochs=30, batch_size=32, train_pairs=400,
                         calibration_pairs=100, test_pairs=100)
    bundle = train_verifier(pairs[:400], cfg, 21)
    calibrate_threshold(bundle, pairs[400:500])
    return bundle, pairs


# ---------------------------------------------------------------------------
# sequence slicing
# ---------------------------------------------------------------------------


def test_sentence_windows_drop_remainder():
    events = [KeyEvent(97, i * 150.0, i * 150.0 + 70.0) for i in range(31)]
    corpus = Corpus(users=[UserLog(user_id="a", sentences=[events]),
                           UserLog(user_id="b", sentences=[events])])
    seqs = sequences_from_corpus(corpus)
    assert len(seqs["a"]) == 2
    assert all(s.shape == (15, 5) for s in seqs["a"])


def test_short_user_contributes_nothing():
    short = [KeyEvent(97, i * 150.0, i * 150.0 + 70.0) for i in range(10)]
    full = [KeyEvent(97, i * 150.0, i * 150.0 + 70.0) for i in range(20)]
    corpus = Corpus(users=[UserLog(user_id="tiny", sentences=[short]),
                           UserLog(user_id="ok", sentences=[full])])
    seqs = sequences_from_corpus(corpus)
    assert "tiny" not in seqs
    assert "ok" in seqs


def test_empty_yield_is_an_error():
    short = [KeyEvent(97, i * 150.0, i * 150.0 + 70.0) for i in range(5)]
    corpus = Corpus(users=[UserLog(user_id="tiny", sentences=[short])])
    with pytest.raises(ValueError):
        sequences_from_corpus(corpus)


def test_sequences_include_space_keys(small_corpus):
    seqs = sequences_from_corpus(small_corpus)
    space_cell = SPACE_KEYCODE / 255.0
    found = any(
        np.any(np.isclose(s[:, COL_KEYCODE], space_cell))
        for user_seqs in seqs.values()
        for s in user_seqs
    )
    assert found


# the key counts around one and two windows, where slicing could go off by one
SENTENCE_KEYS = (0, 14, 15, 16, 29, 30, 31)
LATENCY_MS = st.sampled_from([0.0, -0.0, 5000.0]) | st.floats(0.0, 8000.0)


@st.composite
def sentences(draw):
    n = draw(st.sampled_from(SENTENCE_KEYS))
    keys = draw(st.lists(st.tuples(st.sampled_from([SPACE_KEYCODE, 97, 122]), LATENCY_MS, LATENCY_MS),
                         min_size=n, max_size=n))
    events, press = [], 0.0
    for keycode, gap, hold in keys:  # a hold longer than the next gap is a rollover
        press += gap
        events.append(KeyEvent(keycode, press, press + hold))
    return events


@given(users=st.lists(st.lists(sentences(), max_size=3), min_size=1, max_size=4), data=st.data())
def test_windows_at_matches_full_featurization(users, data):
    corpus = Corpus(users=[UserLog(f"u{i}", user) for i, user in enumerate(users)])
    counts = {user.user_id: verifier.window_count(user) for user in corpus.users}
    if not any(counts.values()):
        with pytest.raises(ValueError):
            sequences_from_corpus(corpus)
        return
    full = sequences_from_corpus(corpus)
    # reference: each sentence featurized alone, whole, and cut into windows
    expected = {user.user_id: [window.tobytes() for events in user.sentences if events
                               for window in slice_windows(normalize(extract_features(events, [len(events)])))]
                for user in corpus.users}
    assert {user_id: [w.tobytes() for w in windows] for user_id, windows in full.items()} == {
        user_id: windows for user_id, windows in expected.items() if windows}
    assert counts == {user_id: len(full.get(user_id, [])) for user_id in counts}
    every = [(user_id, k) for user_id, count in counts.items() for k in range(count)]
    picks = data.draw(st.lists(st.sampled_from(every), max_size=12))
    windows = verifier.windows_at(corpus, picks)
    assert windows.shape == (len(picks), 15, 5)
    assert [w.tobytes() for w in windows] == [full[u][k].tobytes() for u, k in picks]


def test_windows_at_with_a_repeated_pick_returns_equal_rows():
    events = [KeyEvent(97 + i % 3, i * 150.0, i * 150.0 + 70.0 + i) for i in range(46)]
    corpus = Corpus(users=[UserLog("u0", [events, events[:20]]), UserLog("u1", [events])])
    picks = [("u0", 2), ("u1", 0), ("u0", 2), ("u0", 3), ("u1", 0), ("u0", 2)]
    windows = verifier.windows_at(corpus, picks)
    assert windows.shape == (6, 15, 5)
    assert windows[0].tobytes() == windows[2].tobytes() == windows[5].tobytes()
    assert windows[1].tobytes() == windows[4].tobytes()
    assert windows[0].tobytes() != windows[3].tobytes()
    full = sequences_from_corpus(corpus)
    assert [w.tobytes() for w in windows] == [full[u][k].tobytes() for u, k in picks]


def test_windows_at_featurizes_each_picked_sentence_once(monkeypatch):
    def sentence(n_keys):
        return [KeyEvent(97, i * 150.0, i * 150.0 + 70.0) for i in range(n_keys)]

    # u0's windows: 0-1 in sentence 0, none in sentence 1, 2 in sentence 2
    corpus = Corpus(users=[UserLog("u0", [sentence(31), sentence(14), sentence(16)])])
    featurized = []

    def counting(events, lengths=None):
        featurized.append((len(events), list(lengths)))
        return extract_features(events, lengths)

    monkeypatch.setattr(verifier, "extract_features", counting)
    windows = verifier.windows_at(corpus, [("u0", 2), ("u0", 0), ("u0", 2), ("u0", 0)])
    # one call over both picked sentences; sentence 0 only up to the key after window 0,
    # whose last row needs it
    assert featurized == [(32, [16, 16])]
    assert windows.shape == (4, 15, 5)
    assert windows[0].tobytes() == windows[2].tobytes() and windows[1].tobytes() == windows[3].tobytes()
    featurized.clear()
    verifier.windows_at(corpus, [("u0", 0), ("u0", 1)])
    assert featurized == [(31, [31])]
    with pytest.raises(IndexError, match="user 'u0' has 3 windows, no window 3"):
        verifier.windows_at(corpus, [("u0", 3)])
    with pytest.raises(IndexError, match="user 'u0' has 3 windows, no window -1"):
        verifier.windows_at(corpus, [("u0", 0), ("u0", -1)])
    featurized.clear()
    assert verifier.windows_at(corpus, []).shape == (0, 15, 5) and featurized == []
    # every window of the corpus: one call over the two sentences that hold one
    assert len(sequences_from_corpus(corpus)["u0"]) == 3 and featurized == [(47, [31, 16])]


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_reflexive_and_symmetric(trained):
    bundle, pairs = trained
    a, b = pairs.a[0], pairs.b[0]
    d_aa, d_ab, d_ba = distances(bundle, (a, a), (a, b), (b, a))
    assert d_aa == 0.0
    assert np.isclose(d_ab, d_ba)


def test_distance_triangle_inequality(trained):
    bundle, pairs = trained
    rng = np.random.default_rng(3)
    samples = pairs.a[:30]
    for _ in range(50):
        x, y, z = (samples[i] for i in rng.choice(len(samples), 3, replace=False))
        d_xz, d_xy, d_yz = distances(bundle, (x, z), (x, y), (y, z))
        assert d_xz <= d_xy + d_yz + 1e-9


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_training_separates_users(trained, sequence_sets):
    bundle, pairs = trained
    heldout = pairs[500:]
    d = verifier.pair_distances(bundle, heldout)
    assert d[heldout.same].mean() < d[~heldout.same].mean()


def test_training_loss_decreases(trained):
    bundle, _ = trained
    curve = bundle.metadata["loss_curve"]
    assert curve[-1] < curve[0]


def test_training_is_deterministic(sequence_sets):
    rng = np.random.default_rng(5)
    pairs = make_pairs(sequence_sets, 60, rng)
    cfg = VerifierConfig(epochs=3, batch_size=16)
    b1 = train_verifier(pairs, cfg, 9)
    b2 = train_verifier(pairs, cfg, 9)
    for w1, w2 in zip(b1.network.weights, b2.network.weights):
        assert np.array_equal(w1, w2)


def test_training_rejects_single_class(sequence_sets):
    rng = np.random.default_rng(5)
    pairs = make_pairs(sequence_sets, 60, rng)
    pairs = pairs[pairs.same]
    assert len(pairs) == 30 and pairs.same.all()
    with pytest.raises(ValueError):
        train_verifier(pairs, VerifierConfig(epochs=1), 0)


def test_loss_curve_is_the_mean_pair_loss_of_each_epoch(sequence_sets):
    """At lr 0 the network never moves, so every epoch's entry is the mean contrastive loss over all pairs."""
    pairs = make_pairs(sequence_sets, 60, np.random.default_rng(6))
    bundle = train_verifier(pairs, VerifierConfig(epochs=2, batch_size=16, hidden=8, lr=0.0), 6)
    d = pair_distances(bundle, pairs)
    expected = float(nn.contrastive_loss(d, pairs.same, 1.0)[0].mean())
    assert bundle.metadata["loss_curve"] == pytest.approx([expected, expected], rel=1e-12)


def test_train_verifier_computes_in_float32(sequence_sets, monkeypatch):
    """The network, every training forward's activations, every dLoss/dz and embed's codes are
    float32. A float64 dLoss/dz would make every matmul of the backward mixed."""
    forward, activation_backward, seen = nn.forward, nn._activation_backward, []

    def recording_forward(params, x):
        out, tape = forward(params, x)
        seen.extend((params.flat.dtype, a.dtype) for a in tape.activations)
        return out, tape

    def recording_activation_backward(name, g, h):
        dz = activation_backward(name, g, h)
        seen.append((h.dtype, dz.dtype))
        return dz

    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "_activation_backward", recording_activation_backward)
    pairs = make_pairs(sequence_sets, 40, np.random.default_rng(3))
    bundle = train_verifier(pairs, VerifierConfig(epochs=1, batch_size=16, hidden=8), 3)
    f32 = np.dtype(np.float32)
    assert verifier.VERIFIER_DTYPE == f32 and set(seen) == {(f32, f32)}
    assert bundle.network.flat.dtype == f32 and verifier.embed(bundle, pairs.a).dtype == f32


def test_verifier_step_gradient_matches_finite_differences_of_the_mean_contrastive_loss(sequence_sets,
                                                                                         monkeypatch):
    """The gradient of train_verifier's first step is that of its batch's mean contrastive loss.

    One batch holds all 8 pairs. The network sees them as one stacked (16, 75)
    input, each pair's a in row i and its b in row 8 + i, and one backward
    fills state.grad. With VERIFIER_DTYPE patched to float64 the same nn code
    runs, and central differences are exact enough. Pair 0's b is its a, so
    its distance is 0 and its gradient the zero subgradient. The margin is the
    median impostor distance at init, so some impostor pairs pay slack and
    some do not. The loss below embeds a and b in two separate passes.
    """
    monkeypatch.setattr(verifier, "VERIFIER_DTYPE", np.float64)
    drawn = make_pairs(sequence_sets, 8, np.random.default_rng(31))
    pairs = PairSet(drawn.a, np.concatenate([drawn.a[:1], drawn.b[1:]]), drawn.same)
    init = nn.init_network(verifier.embedding_specs(8), 31)
    rows_a, rows_b = (x.reshape(len(x), verifier.SEQ_DIM) for x in (pairs.a, pairs.b))
    d_init = np.linalg.norm(nn.forward(init, rows_a)[0] - nn.forward(init, rows_b)[0], axis=1)
    margin = float(np.median(d_init[~pairs.same]))
    assert (d_init[~pairs.same] < margin).any() and (d_init[~pairs.same] > margin).any()
    forward, adam_step, calls = nn.forward, nn.adam_step, []

    def recording_forward(params, x):
        calls.append(np.array(x))
        return forward(params, x)

    def recording_adam_step(params, state):
        calls.append((copy_of(params), [(w.copy(), b.copy()) for w, b in state.grads]))
        adam_step(params, state)

    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    train_verifier(pairs, VerifierConfig(epochs=1, batch_size=8, hidden=8, margin=margin), 31)
    stacked, (params, grads) = calls[:2]
    assert len(calls) == 2 and stacked.shape == (16, verifier.SEQ_DIM)
    assert np.array_equal(params.flat, init.flat)
    order = [next(i for i in range(8) if np.array_equal(stacked[k], rows_a[i])
                  and np.array_equal(stacked[8 + k], rows_b[i])) for k in range(8)]
    assert sorted(order) == list(range(8))
    same = pairs.same[order]

    def loss():
        d = np.linalg.norm(forward(params, stacked[:8])[0] - forward(params, stacked[8:])[0], axis=1)
        slack = np.maximum(margin - d, 0.0)
        return float(np.mean(np.where(same, 0.5 * d * d, 0.5 * slack * slack)))

    assert max_relative_error(grads, numeric_gradients(params, loss)) < 1e-4


def test_make_pairs_is_balanced(sequence_sets, rng):
    pairs = make_pairs(sequence_sets, 100, rng)
    assert len(pairs) == 100
    assert pairs.a.shape == pairs.b.shape == (100, 15, 5)
    assert pairs.same.dtype == bool and np.count_nonzero(pairs.same) == 50
    owner = {s.tobytes(): user for user, seqs in sequence_sets.items() for s in seqs}
    assert len(owner) == sum(len(seqs) for seqs in sequence_sets.values())  # values identify owners
    for a, b, same in zip(pairs.a, pairs.b, pairs.same):
        assert (owner[a.tobytes()] == owner[b.tobytes()]) == same


def test_pair_set_slices_and_masks_every_array(sequence_sets, rng):
    pairs = make_pairs(sequence_sets, 10, rng)
    for index in (slice(2, 7), pairs.same):
        picked = pairs[index]
        assert isinstance(picked, PairSet)
        assert len(picked) == len(pairs.same[index])
        assert np.array_equal(picked.a, pairs.a[index])
        assert np.array_equal(picked.b, pairs.b[index])
        assert np.array_equal(picked.same, pairs.same[index])


def labelled_windows(counts):
    """Windows for users u0, u1, ... with counts[u] windows each; window k of user u is all 1000 u + k."""
    return {f"u{u}": np.broadcast_to((1000.0 * u + np.arange(count))[:, None, None], (count, 15, 5)).copy()
            for u, count in enumerate(counts)}


def labels(windows):
    """The (user, k) that labelled_windows wrote into each window, after checking it is one label throughout."""
    first = windows[:, 0, 0]
    assert (windows == first[:, None, None]).all()
    return [divmod(int(label), 1000) for label in first]


@given(counts=st.lists(st.integers(1, 6), min_size=2, max_size=6), n_pairs=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_make_pairs_draws_genuine_pairs_of_one_user_and_impostor_pairs_of_two(counts, n_pairs, seed):
    assume(max(counts) >= 2)
    sequences = labelled_windows(counts)
    pairs = make_pairs(sequences, n_pairs, np.random.default_rng(seed))
    assert len(pairs) == n_pairs and pairs.a.shape == pairs.b.shape == (n_pairs, 15, 5)
    assert np.array_equal(pairs.same, np.arange(n_pairs) % 2 == 0)
    for (user_a, k_a), (user_b, k_b), same in zip(labels(pairs.a), labels(pairs.b), pairs.same):
        # every window is a row of the input
        assert k_a < counts[user_a] and k_b < counts[user_b]
        if same:
            assert user_a == user_b and k_a != k_b
        else:
            assert user_a != user_b
    again = make_pairs(sequences, n_pairs, np.random.default_rng(seed))
    for got, want in ((again.a, pairs.a), (again.b, pairs.b), (again.same, pairs.same)):
        assert np.array_equal(got, want)


def test_make_pairs_draws_each_pair_uniformly():
    """Every genuine (user, i, j) with i != j and every ordered impostor (user, user') within 15% of uniform."""
    counts = (2, 3, 5)
    pairs = make_pairs(labelled_windows(counts), 30_000, np.random.default_rng(0))
    drawn = list(zip(labels(pairs.a), labels(pairs.b)))
    genuine = Counter((user, i, j) for (user, i), (_, j) in drawn[0::2])
    impostor = Counter((user_a, user_b) for (user_a, _), (user_b, _) in drawn[1::2])
    # a uniform user of the three, then a uniform ordered pair of its distinct windows
    want_genuine = {(user, i, j): 15_000 / len(counts) / (count * (count - 1))
                    for user, count in enumerate(counts) for i in range(count) for j in range(count) if i != j}
    want_impostor = {(a, b): 15_000 / 6 for a in range(3) for b in range(3) if a != b}
    for got, want in ((genuine, want_genuine), (impostor, want_impostor)):
        assert set(got) == set(want)
        for key, expected in want.items():
            assert abs(got[key] - expected) <= 0.15 * expected, key


def test_make_pairs_names_a_user_without_windows_before_any_draw():
    sequences = {**labelled_windows((3, 2)), "empty": np.empty((0, 15, 5))}
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="user 'empty' has no sequences"):
        make_pairs(sequences, 10, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("counts", [(5,), (1, 1, 1)], ids=["one-user", "no-user-with-two"])
def test_make_pairs_needs_two_users_and_one_with_two_windows(counts):
    with pytest.raises(ValueError, match=re.escape("need >= 2 users and one user with >= 2 sequences")):
        make_pairs(labelled_windows(counts), 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# calibration and decisions
# ---------------------------------------------------------------------------


def identity_bundle():
    """Embedding = first 64 input cells, so distances are directly controllable."""
    w = np.zeros((64, 75))
    w[:, :64] = np.eye(64)
    net = verifier.NetworkParams(
        specs=[verifier.LayerSpec(75, 64, "identity")], weights=[w], biases=[np.zeros(64)]
    )
    return VerifierBundle(network=net)


def test_calibrate_perfect_separation_hits_zero_error():
    bundle = identity_bundle()
    genuine = (fixed_sequence(0.0), fixed_sequence(0.01))
    impostor = (fixed_sequence(0.0), fixed_sequence(0.5))
    pairs = pair_set([genuine] * 5 + [impostor] * 5, [True] * 5 + [False] * 5)
    tau = calibrate_threshold(bundle, pairs)
    assert bundle.metadata["far"] == 0.0
    assert bundle.metadata["frr"] == 0.0
    assert bundle.metadata["eer"] == 0.0
    d_gen, d_imp = distances(bundle, genuine, impostor)
    assert d_gen <= tau < d_imp


def test_calibrate_identical_distributions_gives_chance_eer():
    bundle = identity_bundle()
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(100):
        a, b = fixed_sequence(rng.uniform()), fixed_sequence(rng.uniform())
        pairs += [(a, b), (a, b)]
    calibrate_threshold(bundle, pair_set(pairs, [True, False] * 100))
    assert abs(bundle.metadata["eer"] - 0.5) < 0.02


@pytest.mark.parametrize("same", [True, False], ids=["genuine-only", "impostor-only"])
def test_calibrate_rejects_a_one_class_set(same):
    bundle = identity_bundle()
    pairs = pair_set([(fixed_sequence(0.0), fixed_sequence(v)) for v in (0.1, 0.2, 0.3)], same)
    with pytest.raises(ValueError, match="calibration needs both genuine and impostor pairs"):
        calibrate_threshold(bundle, pairs)
    assert bundle.tau is None and bundle.metadata == {}


def calibrate_reference(d, same):
    """The per-threshold loop calibrate_threshold replaced: (tau, far, frr)."""
    gen_d, imp_d = d[same], d[~same]
    best_tau, best_gap, best_far, best_frr = 0.0, None, 0.0, 0.0
    for tau in np.unique(np.concatenate([[0.0], d])):
        far = float(np.count_nonzero(imp_d <= tau)) / imp_d.size
        frr = float(np.count_nonzero(gen_d > tau)) / gen_d.size
        gap = abs(far - frr)
        if best_gap is None or gap < best_gap:
            best_gap, best_tau, best_far, best_frr = gap, float(tau), far, frr
    return best_tau, best_far, best_frr


# a few repeated values make duplicate distances and tied gaps likely
CELL = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0)


@given(cells=st.lists(st.tuples(CELL, st.booleans()), min_size=2, max_size=40))
@example(cells=[(0.5, True), (0.5, False), (0.5, True), (0.5, False), (0.5, False)])
@example(cells=[(0.0, True), (0.0, False)])
@example(cells=[(0.1, True), (0.25, False), (0.25, True), (0.1, False)])
def test_calibrate_matches_per_threshold_loop(cells):
    same = np.array([flag for _, flag in cells])
    assume(same.any() and not same.all())
    bundle = identity_bundle()
    pairs = pair_set([(fixed_sequence(0.0), fixed_sequence(value)) for value, _ in cells], same)
    tau = calibrate_threshold(bundle, pairs)
    ref_tau, ref_far, ref_frr = calibrate_reference(pair_distances(bundle, pairs), same)
    meta = bundle.metadata
    assert [x.hex() for x in (tau, meta["far"], meta["frr"], meta["eer"])] == [
        x.hex() for x in (ref_tau, ref_far, ref_frr, 0.5 * (ref_far + ref_frr))]


def test_calibrate_is_reproducible(trained):
    bundle, pairs = trained
    t1 = calibrate_threshold(bundle, pairs[400:500])
    t2 = calibrate_threshold(bundle, pairs[400:500])
    assert t1 == t2


def test_verify_reflexive_symmetric_monotone(trained):
    bundle, pairs = trained
    a, b = pairs.a[0], pairs.b[0]
    # a sequence paired with itself is accepted whatever its same-user flag says
    assert pair_accuracy(bundle, pair_set([(a, a)], True)) == 1.0
    assert pair_accuracy(bundle, pair_set([(a, a)], False)) == 0.0
    assert pair_accuracy(bundle, pair_set([(a, b)], True)) == pair_accuracy(
        bundle, pair_set([(b, a)], True))
    # the decision is distance <= tau: accepted pairs are exactly those within tau
    d = pair_distances(bundle, pairs[:50])
    assert pair_accuracy(bundle, pairs[:50]) == np.mean((d <= bundle.tau) == pairs[:50].same)


def test_pair_accuracy_meets_a_tau_past_float32_range_without_warning(sequence_sets):
    """The float32 distances meet tau in float64, so tau 1e300 accepts every pair: accuracy is the genuine share."""
    bundle = small_verifier()
    bundle.tau = 1e300
    assert pair_accuracy(bundle, make_pairs(sequence_sets, 10, np.random.default_rng(0))) == 0.5


def test_verify_requires_calibration(sequence_sets):
    rng = np.random.default_rng(5)
    pairs = make_pairs(sequence_sets, 60, rng)
    bundle = train_verifier(pairs, VerifierConfig(epochs=1), 0)
    with pytest.raises(ValueError):
        pair_accuracy(bundle, pairs)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_verifier_checkpoint_round_trip(tmp_path, trained):
    bundle, pairs = trained
    path = tmp_path / "verifier.json"
    verifier.save_verifier(bundle, path)
    loaded = verifier.load_verifier(path)
    assert loaded.tau == bundle.tau
    assert loaded.metadata["margin"] == bundle.metadata["margin"] == 1.0
    assert loaded.metadata["eer"] == bundle.metadata["eer"]
    # float32 values written as the float64 numbers they equal read back bit for bit
    assert loaded.network.flat.dtype == bundle.network.flat.dtype == verifier.VERIFIER_DTYPE
    assert loaded.network.flat.tobytes() == bundle.network.flat.tobytes()
    assert np.array_equal(pair_distances(loaded, pairs[:20]), pair_distances(bundle, pairs[:20]))
    assert pair_accuracy(loaded, pairs) == pair_accuracy(bundle, pairs)


def small_verifier(specs=None):
    """An untrained verifier over the given layer specs (default 75 -> 4 -> 64) with tau 0.5.

    It is built in VERIFIER_DTYPE, as train_verifier builds it: a float64 file does not load.
    """
    net = nn.init_network(specs or verifier.embedding_specs(4), 0, verifier.VERIFIER_DTYPE)
    return VerifierBundle(network=net, tau=0.5, metadata={"train_seed": 0, "epochs": 0})


@pytest.mark.parametrize("specs, message", [
    ([LayerSpec(74, 4, "relu"), LayerSpec(4, 64, "identity")],
     "verifier maps 74 -> 64, expected 75 -> 64"),
    ([LayerSpec(75, 4, "relu"), LayerSpec(4, 63, "identity")],
     "verifier maps 75 -> 63, expected 75 -> 64"),
], ids=["74-inputs", "63-outputs"])
def test_load_verifier_rejects_other_widths(tmp_path, specs, message):
    path = tmp_path / "verifier.json"
    verifier.save_verifier(small_verifier(specs=specs), path)
    with pytest.raises(CheckpointShapeError, match=re.escape(f"{path}: {message}")):
        verifier.load_verifier(path)


def edited_checkpoint(path, edit):
    """Save a small verifier to path, then rewrite its JSON through edit(doc)."""
    verifier.save_verifier(small_verifier(), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def test_load_verifier_rejects_foreign_kind_and_embed_seed(tmp_path):
    path = edited_checkpoint(tmp_path / "v.json", lambda doc: doc.update(embed_seed=123))
    with pytest.raises(CheckpointVersionError, match=re.escape(f"{path}: embedding seed 123")):
        verifier.load_verifier(path)
    path = edited_checkpoint(tmp_path / "v.json", lambda doc: doc.update(model_kind="generator"))
    with pytest.raises(CorruptCheckpointError,
                       match=re.escape(f"{path}: model_kind 'generator' is not a verifier")):
        verifier.load_verifier(path)


@pytest.mark.parametrize("tau", [None, "0.5", float("nan"), float("inf"), -0.1, True, [0.5], 10**400],
                         ids=["null", "string", "nan", "inf", "negative", "bool", "list",
                              "beyond-float"])
def test_load_verifier_rejects_tau_that_is_not_a_finite_non_negative_number(tmp_path, tau):
    path = edited_checkpoint(tmp_path / "v.json", lambda doc: doc["metadata"].update(tau=tau))
    with pytest.raises(CorruptCheckpointError, match=re.escape(f"{path}: tau {tau!r} is not a finite")):
        verifier.load_verifier(path)


@pytest.mark.parametrize("tau", [0, 0.0, 2, 0.75])
def test_load_verifier_accepts_any_finite_non_negative_tau(tmp_path, tau):
    path = edited_checkpoint(tmp_path / "v.json", lambda doc: doc["metadata"].update(tau=tau))
    loaded = verifier.load_verifier(path)
    assert loaded.tau == tau and type(loaded.tau) is float


ANY_JSON = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
WIDTHS = st.one_of(st.sampled_from([4, 63, 64, 74, 75]), ANY_JSON)
# where each field sits in a checkpoint's JSON, and the values drawn for it
EDITS = {
    ("model_kind",): st.one_of(st.sampled_from(["verifier", "generator"]), ANY_JSON),
    ("embed_seed",): st.one_of(st.sampled_from([EMBED_SEED, float(EMBED_SEED)]), ANY_JSON),
    ("layer_specs", 0, "in_dim"): WIDTHS,
    ("layer_specs", 0, "out_dim"): WIDTHS,
    ("layer_specs", 1, "in_dim"): WIDTHS,
    ("layer_specs", 1, "out_dim"): WIDTHS,
    ("metadata", "tau"): st.one_of(st.floats(min_value=0.0), ANY_JSON),
}
EDIT = st.sampled_from(list(EDITS)).flatmap(lambda field: st.tuples(st.just(field), EDITS[field]))


@given(edits=st.lists(EDIT, max_size=3))
def test_edited_checkpoint_loads_and_runs_or_raises_checkpoint_error(tmp_path_factory, edits):
    def edit(doc):
        for (*parents, key), value in edits:
            node = doc
            for parent in parents:
                node = node[parent]
            node[key] = value

    path = edited_checkpoint(tmp_path_factory.getbasetemp() / "edited.json", edit)
    try:
        loaded = verifier.load_verifier(path)
    except CheckpointError:
        return
    codes, _ = nn.forward(loaded.network, np.zeros((3, verifier.SEQ_DIM)))
    assert codes.shape == (3, verifier.EMBED_OUT_DIM)
    assert math.isfinite(loaded.tau) and loaded.tau >= 0
    # the verifier's own decision: its float32 distances against tau, which may lie past float32's range
    x = np.zeros((3, 15, 5))
    assert pair_accuracy(loaded, PairSet(x, x[::-1], np.ones(3, bool))) == 1.0


# sha256 of the default-shape verifier's weights (75->128->64, batch 64) after 3
# epochs (189 steps) on the default corpus's 4,000 training pairs. OpenBLAS takes
# other small-matrix paths at these shapes than at TINY_CONFIG's, and the float bits
# depend on the BLAS thread count, so the run pins one thread in a fresh
# interpreter.
DEFAULT_SHAPE_VERIFIER_SHA256 = "527a89641267cbc299abcea8925905215fe8ac8d58af2d2361baefb1074fec2a"
# The same after 15 epochs (945 steps). From step ~625 some zero-gradient entries'
# first moments sit at float32 subnormals, so this pins the weights through Adam's
# flushes of subnormal moments (nn.ADAM_FLUSH_INTERVAL), which must move no bit.
DEFAULT_SHAPE_VERIFIER_15_EPOCHS_SHA256 = "0f7f495867e32d468f1d1ea8fd2ae232c855cab51f29379d01914781687d3026"

_DEFAULT_SHAPE_SCRIPT = """
import hashlib
import sys
from dataclasses import replace
import numpy as np
from keyforge import verifier
from keyforge.config import RunConfig
from keyforge.pipeline import build_corpus

cfg = RunConfig()
sequences = verifier.sequences_from_corpus(build_corpus(cfg))
pairs = verifier.make_pairs(sequences, cfg.verifier.train_pairs, np.random.default_rng(9))
bundle = verifier.train_verifier(pairs, replace(cfg.verifier, epochs=int(sys.argv[1])), 9)
h = hashlib.sha256()
for array in bundle.network.weights + bundle.network.biases:
    h.update(array.tobytes())
print(len(pairs), cfg.verifier.batch_size, *(spec.out_dim for spec in bundle.network.specs), h.hexdigest())
"""


def default_shape_verifier_run(epochs: int) -> list[str]:
    """The default-shape script's output fields after epochs, from a fresh interpreter at one BLAS thread."""
    src = str(Path(verifier.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", _DEFAULT_SHAPE_SCRIPT, str(epochs)], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_default_shape_verifier_weights_are_pinned():
    assert default_shape_verifier_run(3) == ["4000", "64", "128", "64", DEFAULT_SHAPE_VERIFIER_SHA256]


def test_default_shape_verifier_weights_past_the_subnormal_onset_are_pinned():
    assert default_shape_verifier_run(15) == ["4000", "64", "128", "64", DEFAULT_SHAPE_VERIFIER_15_EPOCHS_SHA256]
