import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from keyforge import evaluation, pipeline
from keyforge.attack import ATTACKER_ID
from keyforge.config import RunConfig
from keyforge.data import WORD_LEN, Corpus, UserLog, synth_corpus
from keyforge.evaluation import (
    build_test_pairs,
    render_table,
    report_to_dict,
    run_tests,
    sample_other_sequences,
)
from keyforge.nn import LayerSpec, NetworkParams
from keyforge.verifier import NonFiniteDistanceError, VerifierBundle, sequences_from_corpus, window_count

N = 20  # sequences per set


# ---------------------------------------------------------------------------
# pair building
# ---------------------------------------------------------------------------


def seq(value):
    m = np.zeros((15, 5))
    m[:, 0] = value
    return m


def seq_set(value, n=N):
    return [seq(value + 1e-6 * i) for i in range(n)]


def test_build_test_pairs_cross_product():
    real = seq_set(0.0)
    fake = seq_set(0.01)
    fake_b = seq_set(0.02)
    others = seq_set(0.5)
    sets = {1: (real, fake), 2: (fake, fake_b), 3: (fake, others)}
    for test_id, expected_same in ((1, True), (2, True), (3, False)):
        pairs = build_test_pairs(test_id, real, fake, fake_b, others, N)
        assert len(pairs) == 400
        assert pairs.left.shape == pairs.right.shape == (N, 15, 5)
        assert pairs.same is expected_same
        left, right = sets[test_id]
        for i in range(N):
            for j in range(N):  # pair i * N + j is (pairs.left[i], pairs.right[j])
                assert np.array_equal(pairs.left[i], left[i])
                assert np.array_equal(pairs.right[j], right[j])


def test_build_test_pairs_validates_sizes():
    real = seq_set(0.0)
    fake = seq_set(0.01)
    with pytest.raises(ValueError, match="real_others"):
        build_test_pairs(3, real, fake, fake, seq_set(0.5, n=19), N)
    # test 1 does not reference fake_b, so a wrong-size fake_b is fine there
    pairs = build_test_pairs(1, real, fake, seq_set(0.02, n=3), seq_set(0.5, n=7), N)
    assert len(pairs) == 400
    with pytest.raises(ValueError):
        build_test_pairs(4, real, fake, fake, seq_set(0.5), N)


def test_sample_other_sequences_excludes_target(rng):
    counts = {"alice": 5, "bob": 5, "carol": 5}
    drawn = sample_other_sequences(counts, "alice", 40, rng)
    assert len(drawn) == 40
    assert {user for user, _ in drawn} == {"bob", "carol"}
    assert all(0 <= k < 5 for _, k in drawn)


def test_sample_other_sequences_requires_other_users(rng):
    with pytest.raises(ValueError):
        sample_other_sequences({"alice": 3, "bob": 0}, "alice", 5, rng)


# (user, window) picks of the eval seed, recorded when sampling still drew
# from the fully featurized sequence set: the eval seed must keep scoring the
# same windows. u3 has no window, so it must never be drawn.
PINNED_PICKS = [
    ("u4", 5), ("u1", 4), ("u2", 4), ("u4", 2), ("u5", 0), ("u2", 3), ("u4", 2), ("u1", 0),
    ("u1", 0), ("u1", 5), ("u1", 3), ("u5", 1), ("u2", 3), ("u2", 7), ("u1", 5), ("u5", 6),
    ("u1", 2), ("u4", 3), ("u4", 4), ("u4", 0),
]


def corpus_with_windowless_u3():
    corpus = synth_corpus(6, 6, 11)
    corpus.users = [UserLog("u3", [sentence[:WORD_LEN - 1] for sentence in user.sentences])
                    if user.user_id == "u3" else user for user in corpus.users]
    return corpus


def test_sample_other_sequences_picks_are_pinned():
    counts = {user.user_id: window_count(user) for user in corpus_with_windowless_u3().users}
    assert counts == {"u0": 8, "u1": 6, "u2": 8, "u3": 0, "u4": 7, "u5": 8}
    assert sample_other_sequences(counts, "u0", 20, np.random.default_rng(5)) == PINNED_PICKS


def test_evaluate_attack_scores_the_windows_of_the_full_sequence_set(monkeypatch):
    """Reference: featurize everything, then draw arrays the way sampling did before picks."""
    corpus = corpus_with_windowless_u3()
    attacker = Corpus(users=[UserLog(ATTACKER_ID, corpus.get("u1").sentences)])
    cfg = RunConfig()
    cfg.eval.n_sequences = n = 5
    seen = {}
    monkeypatch.setattr(pipeline, "run_tests", lambda bundle, pairs, metadata: seen.update(pairs))
    pipeline.evaluate_attack(identity_bundle(1.0), corpus, "u0", {"ordered": (attacker, attacker)},
                             cfg, {})

    seqs = sequences_from_corpus(corpus)
    rng = np.random.default_rng(cfg.seeds.resolved().eval)
    others = sorted(u for u in seqs if u != "u0")
    real_others = []
    for _ in range(n):
        user_seqs = seqs[others[rng.integers(len(others))]]
        real_others.append(user_seqs[rng.integers(len(user_seqs))])
    fake = sequences_from_corpus(attacker)[ATTACKER_ID][:n]
    for test_id in (1, 2, 3):
        expected = build_test_pairs(test_id, seqs["u0"][:n], fake, fake, real_others, n)
        got = seen["ordered"][test_id]
        assert got.left.tobytes() == expected.left.tobytes()
        assert got.right.tobytes() == expected.right.tobytes()
        assert got.same is expected.same


# ---------------------------------------------------------------------------
# running tests against a verifier
# ---------------------------------------------------------------------------


def identity_bundle(tau):
    w = np.zeros((64, 75))
    w[:, :64] = np.eye(64)
    net = NetworkParams(specs=[LayerSpec(75, 64, "identity")], weights=[w], biases=[np.zeros(64)])
    return VerifierBundle(network=net, tau=tau)


def oracle_pairs():
    """Sets whose cell distances make every expected decision correct at tau=1."""
    real = seq_set(0.00)
    fake = seq_set(0.01)
    fake_b = seq_set(0.02)
    others = seq_set(5.0)
    return {
        test_id: build_test_pairs(test_id, real, fake, fake_b, others, N)
        for test_id in (1, 2, 3)
    }


def mixed_pairs():
    """Sets that give each test some wrong decisions at tau=1: 22, 10 and 20 of 400.

    identity_bundle's distance between seq(a) and seq(b) is sqrt(13) * |a - b|, so at
    tau=1 a pair is accepted iff the values are within 0.277. Test 1 rejects real 0.0
    against fake 0.3 and 0.4 (2 x 11 pairs), test 2 fake 0.4 against fake_b 0.05
    (2 x 5), and test 3 accepts fake against others 0.2 (20 x 1).
    """
    real = seq_set(0.0, 2) + seq_set(0.2, 18)
    fake = seq_set(0.1, 9) + seq_set(0.3, 9) + seq_set(0.4, 2)
    fake_b = seq_set(0.2, 15) + seq_set(0.05, 5)
    others = seq_set(0.2, 1) + seq_set(5.0, 19)
    return {test_id: build_test_pairs(test_id, real, fake, fake_b, others, N) for test_id in (1, 2, 3)}


def test_run_tests_oracle_verifier_scores_one():
    bundle = identity_bundle(tau=1.0)
    report = run_tests(bundle, {"ordered": oracle_pairs()}, {"seed": 1})
    for test_id in (1, 2, 3):
        assert report.results["ordered"][f"test{test_id}"]["accuracy"] == 1.0
    assert report.metadata == {"seed": 1}


def test_run_tests_coin_flip_verifier_is_near_chance():
    rng = np.random.default_rng(11)
    # 13 of the first 64 flattened cells carry the random value; the median of
    # |U - U'| for independent uniforms is 1 - sqrt(1/2), making decisions 50/50
    bundle = identity_bundle(tau=float(np.sqrt(13) * (1.0 - math.sqrt(0.5))))

    def noisy_set():
        return [seq(rng.uniform(0.0, 1.0)) for _ in range(N)]

    pairs = {
        test_id: build_test_pairs(test_id, noisy_set(), noisy_set(), noisy_set(), noisy_set(), N)
        for test_id in (1, 2, 3)
    }
    report = run_tests(bundle, {"ordered": pairs})
    for test_id in (1, 2, 3):
        acc = report.results["ordered"][f"test{test_id}"]["accuracy"]
        assert 0.35 < acc < 0.65  # 400 draws, ~4 sigma around 0.5


def test_run_tests_accuracy_matches_hand_counter():
    bundle = identity_bundle(tau=1.0)
    pairs = mixed_pairs()
    report = run_tests(bundle, {"ordered": pairs})
    hands = []
    for test_id, test_pairs in pairs.items():
        hand = 0
        for a in test_pairs.left:
            for b in test_pairs.right:
                d = np.linalg.norm((a - b).reshape(-1)[:64])
                hand += (d <= 1.0) == test_pairs.same
        assert report.results["ordered"][f"test{test_id}"]["accuracy"] == hand / 400
        hands.append(hand)
    assert hands == [378, 390, 380]


def test_table_one_resolution_is_representable():
    """400 cross-product pairs make three-decimal accuracies like 0.945 exact, in the report and the table."""
    report = run_tests(identity_bundle(tau=1.0), {"ordered": mixed_pairs()})
    accuracies = [report.results["ordered"][f"test{test_id}"]["accuracy"] for test_id in (1, 2, 3)]
    assert accuracies == [0.945, 0.975, 0.95]
    row = next(line for line in render_table(report).splitlines() if line.startswith("ordered"))
    assert row.split()[1:] == ["0.945", "0.975", "0.950"]


def test_confusion_accumulation_sides():
    bundle = identity_bundle(tau=1.0)
    report = run_tests(bundle, {"ordered": oracle_pairs()})
    c1 = report.results["ordered"]["test1"]["confusion"]
    assert (c1["tp"], c1["fn"]) == (400, 0)
    assert (c1["fp"], c1["tn"]) == (0, 0)
    c3 = report.results["ordered"]["test3"]["confusion"]
    assert (c3["tn"], c3["fp"]) == (400, 0)
    assert (c3["tp"], c3["fn"]) == (0, 0)


def test_test_entry_meets_tau_in_float64():
    """A float32 distance meets tau as the float64 number it equals: float32 0.1 lies above tau 0.1,
    and a tau past float32's range accepts every distance with no overflow warning."""
    d = np.array([0.1, 0.5], dtype=np.float32)
    assert evaluation._test_entry(1, d, 0.1, True)["same_user_rate"] == 0.0
    assert evaluation._test_entry(1, d, 3.5e38, True)["same_user_rate"] == 1.0


def test_report_rendering_and_dict():
    bundle = identity_bundle(tau=1.0)
    pairs = oracle_pairs()
    report = run_tests(
        bundle,
        {"ordered": pairs, "random": pairs},
        {"seeds": {"eval": 3}, "tau": 1.0, "checkpoints": {"verifier": "abc"}},
    )
    doc = report_to_dict(report)
    assert set(doc["conditions"]) == {"ordered", "random"}
    assert set(doc["conditions"]["ordered"]) == {"test1", "test2", "test3"}
    t1 = doc["conditions"]["ordered"]["test1"]
    assert set(t1) == {
        "name", "expected_decision", "n_pairs", "same_user_rate", "accuracy", "confusion",
        "attack_acceptance_rate",
    }
    assert t1["attack_acceptance_rate"] == t1["same_user_rate"] == 1.0
    t3 = doc["conditions"]["ordered"]["test3"]
    assert set(t3) == {"name", "expected_decision", "n_pairs", "same_user_rate", "accuracy", "confusion"}
    assert (t3["same_user_rate"], t3["accuracy"]) == (0.0, 1.0)
    assert (t1["expected_decision"], t3["expected_decision"]) == ("same_user", "different_user")
    assert doc["format_version"] == 1
    assert doc["metadata"]["seeds"] == {"eval": 3}
    table = render_table(report)
    lines = table.splitlines()
    assert "test 1" in lines[0] and "test 2" in lines[0] and "test 3" in lines[0]
    assert any(line.startswith("ordered") for line in lines)
    assert any(line.startswith("random") for line in lines)
    assert lines[-3:] == ["test 1 attack acceptance per condition (same_user_rate):",
                          "  ordered: 1.000", "  random: 1.000"]


def test_run_tests_requires_calibrated_bundle():
    bundle = identity_bundle(tau=None)
    with pytest.raises(ValueError):
        run_tests(bundle, {"ordered": oracle_pairs()})


def norm_by_pair(left, right):
    """Pair i * len(right) + j's distance from one np.linalg.norm call, over identity_bundle's codes.

    The codes are the first 64 cells, which the identity layer gives exactly;
    axis=1 picks norm's sum of squares, the one pair_distances takes.
    """
    return np.array([np.linalg.norm((a.reshape(-1)[:64] - b.reshape(-1)[:64])[None], axis=1)[0]
                     for a in left for b in right])


# six sets of one size: real, others, and a fake a and b for each of two conditions
sequence_sets = st.integers(1, 5).flatmap(lambda n: st.tuples(*[
    arrays(np.float64, (n, 15, 5), elements=st.floats(0.0, 1.0), fill=st.sampled_from([0.0, 0.5, 1.0]))
    for _ in range(6)]))


@given(sets=sequence_sets, n_conditions=st.integers(1, 2), data=st.data())
def test_run_tests_entries_match_a_pair_by_pair_norm(sets, n_conditions, data):
    real, others, *fakes = sets
    n = len(real)
    pairs = {condition: {test_id: build_test_pairs(test_id, real, fakes[2 * k], fakes[2 * k + 1], others, n)
                         for test_id in (1, 2, 3)}
             for k, condition in enumerate(("ordered", "random")[:n_conditions])}
    reference = {(condition, test_id): norm_by_pair(p.left, p.right)
                 for condition, tests in pairs.items() for test_id, p in tests.items()}
    # a tau that some distance equals exactly, or any tau
    tau = data.draw(st.sampled_from(sorted(np.concatenate(list(reference.values())).tolist()))
                    | st.floats(0.0, 10.0))
    report = run_tests(identity_bundle(tau), pairs)
    for (condition, test_id), d in reference.items():
        accepted = int(np.count_nonzero(d <= tau))
        confusion = ({"tp": accepted, "tn": 0, "fp": 0, "fn": n * n - accepted} if test_id != 3
                     else {"tp": 0, "tn": n * n - accepted, "fp": accepted, "fn": 0})
        entry = report.results[condition][f"test{test_id}"]
        assert entry["n_pairs"] == n * n
        assert entry["confusion"] == confusion
        assert entry["same_user_rate"] == accepted / (n * n)
        # the share given the expected decision, divided as such: 1 - 3/9 != 6/9
        assert entry["accuracy"] == (accepted if test_id != 3 else n * n - accepted) / (n * n)


def test_run_tests_non_finite_code_is_named_by_count_and_first_pair():
    """One infinite cell makes that window's whole code NaN (inf * 0 in the product): its n pairs fail."""
    fake = np.array(seq_set(0.01))
    fake[2, 0, 0] = np.inf
    pairs = {test_id: build_test_pairs(test_id, np.asarray(seq_set(0.0)), fake, np.asarray(seq_set(0.02)),
                                       np.asarray(seq_set(5.0)), N) for test_id in (1, 2, 3)}
    with pytest.raises(NonFiniteDistanceError,
                       match=r"^verifier gives 20 non-finite distances of 400, first at pair 2$"):
        run_tests(identity_bundle(tau=1.0), {"ordered": pairs})


# run_tests' distances against pair_distances over the same pairs as n² rows
# (the left set repeated, the right tiled), at the default verifier shapes and
# two conditions as run-all scores them. Both take their bits from BLAS, whose
# results can depend on the batch shape, so the run pins one thread in a
# fresh interpreter.
_REPEAT_TILE_SCRIPT = """
import numpy as np
from keyforge import evaluation, nn, verifier

distances = []
cross_distances = evaluation._cross_distances

def recorded(left, right):
    distances.append(cross_distances(left, right))
    return distances[-1]

evaluation._cross_distances = recorded
rng = np.random.default_rng(5)
net = nn.init_network(verifier.embedding_specs(verifier.VerifierConfig().hidden), 5)
bundle = verifier.VerifierBundle(net, tau=1.0)
for n in (15, 20, 30):
    real, others = rng.random((2, n, 15, 5))
    pairs = {}
    for condition in ("ordered", "random"):
        fake_a, fake_b = rng.random((2, n, 15, 5))
        pairs[condition] = {test_id: evaluation.build_test_pairs(test_id, real, fake_a, fake_b, others, n)
                            for test_id in (1, 2, 3)}
    distances.clear()
    evaluation.run_tests(bundle, pairs)
    rows = [verifier.PairSet(np.repeat(p.left, n, axis=0), np.tile(p.right, (n, 1, 1)), np.full(n * n, p.same))
            for tests in pairs.values() for p in tests.values()]
    old = [verifier.pair_distances(bundle, r) for r in rows]
    print(n, len(distances), sum(d.tobytes() != o.tobytes() for d, o in zip(distances, old)))
"""


def test_run_tests_distances_equal_pair_distances_over_repeat_tile_rows():
    src = str(Path(evaluation.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _REPEAT_TILE_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["15 6 0", "20 6 0", "30 6 0"]
