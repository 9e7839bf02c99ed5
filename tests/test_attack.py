import string
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from keyforge import attack, gan, pipeline
from keyforge.attack import (
    NonFiniteSampleError,
    SpaceModel,
    build_attack_stream,
    fit_space_model,
    plan_words,
    stitch_events,
)
from keyforge.config import AttackSection, ConfigError, RunConfig, config_from_dict
from keyforge.data import (
    COL_HL,
    COL_IL,
    COL_KEYCODE,
    COL_PL,
    KeyEvent,
    SPACE_KEYCODE,
    T_MAX_SECONDS,
    UserLog,
    WORD_LEN,
    extract_features,
    normalize,
    synth_corpus,
    words_from_corpus,
)
from keyforge.verifier import sequences_from_corpus

DEFAULT_SPACES = AttackSection().default_space_model()


@pytest.fixture(scope="module")
def user_words():
    """u0's words as (texts, matrices)."""
    corpus = synth_corpus(3, 5, 23)
    return words_from_corpus(corpus.users[0])


@pytest.fixture(scope="module")
def bundle():
    return gan.new_bundle(4, gan.GanTrainConfig())


@pytest.fixture(scope="module")
def small_bundle():
    """An untrained generator narrow enough to generate hundreds of words per example."""
    return gan.new_bundle(4, gan.GanTrainConfig(g_hidden=4, d_hidden1=4, d_hidden2=2))


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


def test_plan_ordered_is_identity(rng):
    assert plan_words(["w1", "w2", "w3"], "ordered", rng) == ["w1", "w2", "w3"]


def test_plan_random_is_seeded_permutation():
    texts = [f"w{i}" for i in range(30)]
    p1 = plan_words(texts, "random", np.random.default_rng(1))
    p2 = plan_words(texts, "random", np.random.default_rng(1))
    p3 = plan_words(texts, "random", np.random.default_rng(2))
    assert p1 == p2
    assert p1 != p3
    assert Counter(p1) == Counter(texts)
    assert p1 != texts  # 30 elements: identity permutation is vanishingly unlikely


def test_plan_rejects_empty(rng):
    with pytest.raises(ValueError):
        plan_words([], "ordered", rng)


def test_attack_config_validation(rng):
    with pytest.raises(ValueError, match="shuffled"):
        plan_words(["w1"], "shuffled", rng)
    for section in ("attack", "eval"):
        for bad in (0, -1, "3", 2.0, True):
            with pytest.raises(ConfigError, match=f"{section}.n_sequences"):
                config_from_dict({section: {"n_sequences": bad}})


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------


def test_stitch_single_word_is_noop(user_words, rng):
    texts, matrices = user_words
    events = stitch_events(texts[:1], matrices[:1], DEFAULT_SPACES, rng)
    rows = normalize(extract_features(events, [len(events)]))
    assert rows.shape == (len(texts[0]), 5)
    assert np.allclose(rows, matrices[0, : len(texts[0])], atol=1e-6)


in_range_cells = arrays(np.float64, (15, 5), elements=st.floats(min_value=0.0, max_value=1.0))


@given(in_range_cells, st.integers(min_value=1, max_value=15))
def test_stitch_events_inverts_normalize(cells, n):
    """A word's hold and keycode cells survive stitching and re-featurization."""
    cells[:, COL_KEYCODE] = np.round(cells[:, COL_KEYCODE] * 255.0) / 255.0
    matrix = cells.copy()
    matrix[n:] = 0.0
    text = "".join(chr(int(round(k * 255))) for k in cells[:n, COL_KEYCODE])
    events = stitch_events([text], matrix[None], DEFAULT_SPACES, np.random.default_rng(0))
    rows = normalize(extract_features(events, [len(events)]))
    assert len(events) == n
    assert np.allclose(rows[:, COL_HL], cells[:n, COL_HL], atol=1e-9)
    assert np.array_equal(rows[:, COL_KEYCODE], cells[:n, COL_KEYCODE])
    # presses advance by the press-to-press cell, floored at 1 ms
    floored = np.maximum(cells[: n - 1, COL_PL], 1.0 / 5000.0)
    assert np.allclose(rows[:-1, COL_PL], floored, atol=1e-9)


def test_stitch_events_rounds_then_clamps_keycodes(rng):
    cells = np.zeros((15, 5))
    cells[:4, COL_KEYCODE] = [-0.1, 72.5 / 255.0, 73.5 / 255.0, 1.2]
    events = stitch_events(["abcd"], cells[None], DEFAULT_SPACES, rng)
    assert [ev.keycode for ev in events] == [0, 72, 74, 255]  # halves round to even


def test_stitch_inserts_one_space_per_boundary(user_words, rng):
    k = 4
    texts, matrices = user_words
    events = stitch_events(texts[:k], matrices[:k], DEFAULT_SPACES, rng)
    spaces = [ev for ev in events if ev.keycode == SPACE_KEYCODE]
    assert len(spaces) == k - 1
    assert len(events) == sum(map(len, texts[:k])) + k - 1


def test_stitch_presses_strictly_increase(bundle, rng):
    # untrained generator output is the degenerate case the 1ms floor guards
    texts = ["aa", "longerword", "mid"]
    matrices = np.array([gan.generate_word(bundle, gan.word_tables([t]), rng) for t in texts])
    events = stitch_events(texts, matrices, DEFAULT_SPACES, rng)
    presses = [ev.press_time for ev in events]
    assert all(b > a for a, b in zip(presses, presses[1:]))


def test_stitched_rows_satisfy_latency_identity(bundle, user_words, rng):
    texts, matrices = user_words
    texts = texts[:3] + ["xyzzy"]
    xyzzy = gan.generate_word(bundle, gan.word_tables(["xyzzy"]), rng)
    matrices = np.concatenate([matrices[:3], xyzzy[None]])
    events = stitch_events(texts, matrices, DEFAULT_SPACES, rng)
    rows = extract_features(events, [len(events)])
    for row in rows[:-1]:
        assert abs(row[COL_PL] - (row[COL_HL] + row[COL_IL])) < 1e-9


def test_stitch_round_trip_preserves_word_cells(user_words, rng):
    """Word runs inside the stitched stream carry the original within-word cells."""
    texts, matrices = user_words[0][:5], user_words[1][:5]
    events = stitch_events(texts, matrices, DEFAULT_SPACES, rng)
    rec_texts, rec_matrices = words_from_corpus(UserLog("u", [events]))
    assert len(rec_texts) == len(rec_matrices) == len(texts)
    assert rec_texts == texts
    assert np.allclose(rec_matrices, matrices, atol=1e-6)


def stitch_reference(texts, matrices, space_model, rng):
    """stitch_events as a loop over keys, one KeyEvent and one clock addition at a time."""
    def sample_ms(mean_s, std_s):
        return max(rng.normal(mean_s, std_s) * 1000.0, 1.0)

    events, clock = [], 0.0
    for w_index, (text, matrix) in enumerate(zip(texts, matrices)):
        if w_index > 0:
            pre_gap = sample_ms(space_model.gap_mean, space_model.gap_std)
            hold = sample_ms(space_model.hold_mean, space_model.hold_std)
            post_gap = sample_ms(space_model.gap_mean, space_model.gap_std)
            press = events[-1].release_time + pre_gap
            events.append(KeyEvent(SPACE_KEYCODE, press, press + hold))
            clock = press + hold + post_gap
        cells = matrix[: len(text)]
        holds = ((cells[:, COL_HL] * T_MAX_SECONDS) * 1000.0).tolist()
        steps = ((cells[:, COL_PL] * T_MAX_SECONDS) * 1000.0).tolist()
        keycodes = np.clip(np.rint(cells[:, COL_KEYCODE] * 255.0), 0, 255).astype(int).tolist()
        press = clock
        for i, (keycode, hold_ms) in enumerate(zip(keycodes, holds)):
            events.append(KeyEvent(keycode, press, press + hold_ms))
            if i + 1 < len(holds):
                press += max(steps[i], 1.0)
    return events


@pytest.mark.parametrize("n_words", [1, 2, 7, 40])
def test_stitch_matches_per_key_reference(bundle, user_words, n_words):
    """Same rng draws and the same bits as adding up the clock one key at a time."""
    generated = ["a", "qwertyuiopasdfg", "mid"]
    real_texts, real_matrices = user_words
    texts = [generated[i % 3] if i % 4 == 3 else real_texts[i % len(real_texts)] for i in range(n_words)]
    matrices = np.array([gan.generate_word(bundle, gan.word_tables([generated[i % 3]]), np.random.default_rng(i))
                         if i % 4 == 3 else real_matrices[i % len(real_texts)] for i in range(n_words)])
    space_model = fit_space_model(synth_corpus(2, 3, 1).users[1].sentences, DEFAULT_SPACES)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = stitch_events(texts, matrices, space_model, got_rng)
    want = stitch_reference(texts, matrices, space_model, want_rng)
    assert list(got) == want
    assert got.rows.tobytes() == UserLog("u", [want]).sentences[0].rows.tobytes()
    assert got_rng.random() == want_rng.random()


def test_stitch_rejects_empty(rng):
    with pytest.raises(ValueError):
        stitch_events([], np.zeros((0, WORD_LEN, 5)), DEFAULT_SPACES, rng)


# ---------------------------------------------------------------------------
# space model
# ---------------------------------------------------------------------------


def test_fit_space_model_defaults_when_no_spaces():
    events = [KeyEvent(97, i * 100.0, i * 100.0 + 50.0) for i in range(5)]
    assert fit_space_model(UserLog("u", [events]).sentences, DEFAULT_SPACES) is DEFAULT_SPACES


def test_fit_space_model_matches_hand_stats():
    # a<space>b with known timings: space hold 60ms, gaps 40ms and 50ms
    sentence = [
        KeyEvent(97, 0.0, 80.0),
        KeyEvent(SPACE_KEYCODE, 120.0, 180.0),
        KeyEvent(98, 230.0, 300.0),
    ]
    model = fit_space_model(UserLog("u", [sentence]).sentences, DEFAULT_SPACES)
    assert np.isclose(model.hold_mean, 0.060)
    assert np.isclose(model.gap_mean, 0.045)
    assert np.isclose(model.gap_std, 0.005)


def fit_space_reference(sentences):
    """(holds, gaps) of fit_space_model, pooled key by key as Python floats."""
    holds, gaps = [], []
    for sentence in sentences:
        for i, ev in enumerate(sentence):
            if ev.keycode != SPACE_KEYCODE:
                continue
            holds.append((ev.release_time - ev.press_time) / 1000.0)
            if i > 0:
                gaps.append((ev.press_time - sentence[i - 1].release_time) / 1000.0)
            if i + 1 < len(sentence):
                gaps.append((sentence[i + 1].press_time - ev.release_time) / 1000.0)
    return holds, gaps


def test_fit_space_model_pools_gaps_in_key_order():
    """Spaces at either end of a sentence and back to back: the same bits as the key loop."""
    sentences = [list(s) for s in synth_corpus(3, 4, 8).users[2].sentences]
    sentences[0] = [KeyEvent(SPACE_KEYCODE, 0.0, 70.0)] + [
        KeyEvent(ev.keycode, ev.press_time + 100.0, ev.release_time + 100.0) for ev in sentences[0]]
    sentences[1][-1] = KeyEvent(SPACE_KEYCODE, sentences[1][-1].press_time, sentences[1][-1].release_time)
    sentences[2][5] = KeyEvent(SPACE_KEYCODE, sentences[2][5].press_time, sentences[2][5].release_time)
    sentences[2][6] = KeyEvent(SPACE_KEYCODE, sentences[2][6].press_time, sentences[2][6].release_time)
    holds, gaps = fit_space_reference(sentences)
    model = fit_space_model(UserLog("u", sentences).sentences, DEFAULT_SPACES)
    assert model == SpaceModel(float(np.mean(holds)), float(np.std(holds)),
                               float(np.mean(gaps)), float(np.std(gaps)))
    (lone_space,) = UserLog("u", [[KeyEvent(SPACE_KEYCODE, 0.0, 50.0)]]).sentences
    assert fit_space_model([lone_space], DEFAULT_SPACES) is DEFAULT_SPACES


def test_fit_space_model_counts_a_hold_or_gap_as_at_most_t_max():
    """Times near the float ceiling overflowed np.std; each hold and gap now counts as at most 5 s."""
    sentence = [KeyEvent(97, 0.0, 80.0), KeyEvent(SPACE_KEYCODE, 1e306, 1.5e306), KeyEvent(98, 1.6e306, 1.7e306)]
    with np.errstate(all="raise"):
        model = fit_space_model(UserLog("u", [sentence]).sentences, DEFAULT_SPACES)
    assert model == SpaceModel(T_MAX_SECONDS, 0.0, T_MAX_SECONDS, 0.0)


def test_fit_space_model_on_synthetic_corpus_is_plausible():
    corpus = synth_corpus(2, 5, 3)
    model = fit_space_model(corpus.users[0].sentences, DEFAULT_SPACES)
    assert 0.01 < model.hold_mean < 0.3
    assert 0.01 < model.gap_mean < 0.4


# ---------------------------------------------------------------------------
# sequence construction
# ---------------------------------------------------------------------------


def attack_sequences(bundle, condition, n_sequences, seed):
    """The production path: plan, generate and stitch, then window like real typing."""
    corpus = synth_corpus(3, 5, 23)
    cfg = RunConfig()
    cfg.attack.n_sequences = n_sequences
    events = pipeline.make_attack_events(corpus, "u0", bundle, condition, seed, cfg)
    return sequences_from_corpus(pipeline.attack_events_to_corpus(events))["attacker"]


def test_attack_sequences_counts_and_shape(bundle):
    seqs = attack_sequences(bundle, "ordered", 5, 2)
    assert len(seqs) >= 5
    for s in seqs:
        assert s.shape == (15, 5)


def test_attack_sequences_deterministic(bundle):
    s1 = attack_sequences(bundle, "random", 3, 5)
    s2 = attack_sequences(bundle, "random", 3, 5)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert np.array_equal(a, b)


def test_build_attack_stream_regenerates_short_plans(bundle):
    cfg = AttackSection(n_sequences=3)
    events = build_attack_stream(bundle, ["ab", "cd"], cfg, DEFAULT_SPACES, np.random.default_rng(1))
    assert len(events) >= 3 * 15


def test_build_attack_stream_embeds_each_planned_word_once(small_bundle, monkeypatch):
    """The plan's word table is built once: neither a repeated word nor a further pass embeds again."""
    embed, calls = gan.embed_word, []
    monkeypatch.setattr(gan, "embed_word", lambda text: calls.append(text) or embed(text))
    plan = ["ab", "cd", "ab"]
    events = build_attack_stream(small_bundle, plan, AttackSection(n_sequences=3), DEFAULT_SPACES,
                                 np.random.default_rng(1))
    assert (len(events) + 1) // (sum(map(len, plan)) + len(plan)) == 6  # passes
    assert calls == plan


def passes_reference(word_plan, n_sequences):
    """The passes of the loop that re-summed the stitched rows after every pass of the plan."""
    needed_rows = n_sequences * WORD_LEN
    lens, passes = [], 0
    while sum(lens) + len(lens) - 1 < needed_rows:
        lens.extend(len(text) for text in word_plan)
        passes += 1
    return passes


@given(st.lists(st.integers(min_value=1, max_value=WORD_LEN), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=40))
def test_build_attack_stream_makes_as_many_passes_as_the_summing_loop(small_bundle, lengths, n_sequences):
    """p passes stitch p * (letters + words) - 1 rows, so the stream's length gives the pass count."""
    plan = [string.ascii_lowercase[:n] for n in lengths]
    events = build_attack_stream(small_bundle, plan, AttackSection(n_sequences=n_sequences),
                                 DEFAULT_SPACES, np.random.default_rng(0))
    per_pass = sum(lengths) + len(lengths)
    assert (len(events) + 1) % per_pass == 0
    assert (len(events) + 1) // per_pass == passes_reference(plan, n_sequences)
    assert len(events) >= n_sequences * WORD_LEN


def test_build_attack_stream_of_overflowing_generator_raises_without_warnings():
    """Weights scaled by 1e30 overflow into NaN cells: one error, and no RuntimeWarning on the way."""
    bundle = gan.new_bundle(4, gan.GanTrainConfig(g_hidden=4, d_hidden1=4, d_hidden2=2))
    bundle.generator.flat *= 1e30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSampleError, match="non-finite cells for 6 of 6 planned words, first for 'ab'"):
            build_attack_stream(bundle, ["ab", "cd"], AttackSection(n_sequences=1), DEFAULT_SPACES,
                                np.random.default_rng(1))


def test_build_attack_stream_names_the_planned_word_of_the_first_non_finite_sample(small_bundle, monkeypatch):
    """Two passes of a 3-word plan, generated in sorted order: only the 5th sample, pass 1's 'cd', is NaN."""
    generate_word = attack.generate_word
    calls = []

    def nan_on_fifth_call(bundle, row, rng):
        calls.append(row)
        out = generate_word(bundle, row, rng)
        return np.full_like(out, np.nan) if len(calls) == 5 else out

    monkeypatch.setattr(attack, "generate_word", nan_on_fifth_call)
    with pytest.raises(NonFiniteSampleError, match="non-finite cells for 1 of 6 planned words, first for 'cd'$"):
        build_attack_stream(small_bundle, ["cd", "ab", "ef"], AttackSection(n_sequences=1), DEFAULT_SPACES,
                            np.random.default_rng(1))
    assert len(calls) == 6


def test_conditions_share_per_word_cells(bundle, user_words):
    """Same seed, permuted plan: per-word cells match as multisets."""
    texts = user_words[0][:8]
    permuted = list(reversed(texts))

    def word_cells(plan):
        rng = np.random.default_rng(77)
        events = build_attack_stream(bundle, plan, AttackSection(n_sequences=1), DEFAULT_SPACES, rng)
        return {
            (text, tuple(np.round(matrix[: len(text), :4], 9).ravel()))
            for text, matrix in zip(*words_from_corpus(UserLog("u", [events])))
        }

    assert word_cells(texts) == word_cells(permuted)
