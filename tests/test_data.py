import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from hypothesis.extra.numpy import arrays

from keyforge.attack import stitch_events
from keyforge.config import AttackSection
from keyforge.data import (
    COL_HL,
    COL_IL,
    COL_KEYCODE,
    COL_PL,
    COL_RL,
    Corpus,
    INGEST_BLOCK_LINES,
    KeyEvent,
    N_FEATURES,
    ParseError,
    SPACE_KEYCODE,
    Sentence,
    T_MAX_SECONDS,
    TSV_COLUMNS,
    UserLog,
    ValidationError,
    WORD_LEN,
    export_log,
    extract_features,
    ingest_log,
    normalize,
    slice_windows,
    stack_sentences,
    synth_corpus,
    words_from_corpus,
)

HEADER = "PARTICIPANT_ID\tSENTENCE_ID\tKEYCODE\tPRESS_TIME\tRELEASE_TIME"


def sentence_of(events) -> Sentence:
    """A KeyEvent list as a Sentence, converted where keyforge converts one: in UserLog."""
    (sentence,) = UserLog("u", [events]).sentences
    return sentence


def features_of(sentence: Sentence) -> np.ndarray:
    """extract_features of one sentence."""
    return extract_features(sentence, [len(sentence)])


# ---------------------------------------------------------------------------
# events and ingestion
# ---------------------------------------------------------------------------


def test_key_event_rejects_release_before_press():
    with pytest.raises(ValidationError):
        KeyEvent(72, 1000, 900)


def test_key_event_rejects_bad_keycode():
    with pytest.raises(ValidationError):
        KeyEvent(300, 0, 10)


@pytest.mark.parametrize("press, release", [
    (math.nan, 10.0), (0.0, math.nan), (0.0, math.inf), (math.inf, math.inf), (-math.inf, 10.0),
])
def test_key_event_rejects_non_finite_times(press, release):
    with pytest.raises(ValidationError, match="non-finite"):
        KeyEvent(72, press, release)


def write_log(tmp_path, rows, header=HEADER):
    path = tmp_path / "log.tsv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def test_ingest_single_row(tmp_path):
    path = write_log(tmp_path, ["u1\ts1\t72\t1000\t1080"])
    corpus = ingest_log(path)
    assert [u.user_id for u in corpus.users] == ["u1"]
    assert corpus.users[0].sentences == UserLog("u1", [[KeyEvent(72, 1000, 1080)]]).sentences


def test_ingest_sorts_by_press_time(tmp_path):
    path = write_log(
        tmp_path,
        ["u1\ts1\t73\t1150\t1220", "u1\ts1\t72\t1000\t1080"],
    )
    corpus = ingest_log(path)
    presses = [ev.press_time for ev in corpus.users[0].sentences[0]]
    assert presses == [1000, 1150]


def test_ingest_release_before_press_names_line(tmp_path):
    path = write_log(tmp_path, ["u1\ts1\t72\t1000\t900"])
    with pytest.raises(ValidationError, match=":2:"):
        ingest_log(path)


def test_ingest_wrong_column_count_names_line(tmp_path):
    path = write_log(tmp_path, ["u1\ts1\t72\t1000"])
    with pytest.raises(ParseError, match=":2:"):
        ingest_log(path)


def test_ingest_non_numeric_time(tmp_path):
    path = write_log(tmp_path, ["u1\ts1\t72\tabc\t1080"])
    with pytest.raises(ParseError, match=":2:"):
        ingest_log(path)


def test_ingest_bad_header(tmp_path):
    path = write_log(tmp_path, ["u1\ts1\t72\t1000\t1080"], header="USER\tWHAT")
    with pytest.raises(ParseError, match=":1:"):
        ingest_log(path)


def test_ingest_duplicate_press_times_rejected(tmp_path):
    path = write_log(
        tmp_path,
        ["u1\ts1\t72\t1000\t1080", "u1\ts1\t73\t1000\t1090"],
    )
    with pytest.raises(ValidationError, match="non-increasing"):
        ingest_log(path)


def test_export_ingest_round_trip(tmp_path):
    corpus = synth_corpus(3, 2, 5)
    path = tmp_path / "corpus.tsv"
    export_log(corpus, path)
    back = ingest_log(path)
    assert [u.user_id for u in back.users] == [u.user_id for u in corpus.users]
    for u_orig, u_back in zip(corpus.users, back.users):
        assert u_orig.sentences == u_back.sentences


# the TSV column separator and every character str.splitlines() breaks a line at
_TSV_BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
user_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=_TSV_BREAKS),
                   max_size=6)
times = st.floats(min_value=0.0, max_value=1e12)


@st.composite
def sentences(draw):
    """A non-empty sentence: strictly increasing press times, each release >= its press."""
    presses = sorted(set(draw(st.lists(times, min_size=1, max_size=6))))
    return [KeyEvent(draw(st.integers(min_value=0, max_value=255)), press,
                     draw(st.floats(min_value=press, max_value=2e12)))
            for press in presses]


@st.composite
def corpora(draw):
    """Users with distinct ids, each with one to three sentences."""
    users = [UserLog(user_id=uid, sentences=draw(st.lists(sentences(), min_size=1, max_size=3)))
             for uid in draw(st.lists(user_ids, max_size=4, unique=True))]
    return Corpus(users=users)


@given(corpora())
def test_ingest_inverts_export(tmp_path_factory, corpus):
    path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
    export_log(corpus, path)
    assert ingest_log(path) == corpus


def ingest_reference(path) -> Corpus:
    """ingest_log as a loop over lines and KeyEvents: the reader before sentences were arrays."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected header row")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != TSV_COLUMNS:
        raise ParseError(f"{path}:1: bad header {header!r}, expected {TSV_COLUMNS!r}")
    grouped = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(TSV_COLUMNS):
            raise ParseError(f"{path}:{lineno}: expected {len(TSV_COLUMNS)} columns, got {len(cells)}")
        pid, sid, kc_text, press_text, release_text = cells
        try:
            keycode = int(kc_text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: keycode {kc_text!r} is not an integer") from None
        try:
            press = float(press_text)
            release = float(release_text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric time in {cells!r}") from None
        try:
            event = KeyEvent(keycode=keycode, press_time=press, release_time=release)
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        grouped.setdefault((pid, sid), []).append(event)
    users = {}
    for (pid, sid), events in grouped.items():
        events.sort(key=lambda ev: ev.press_time)
        for a, b in zip(events, events[1:]):
            if b.press_time <= a.press_time:
                raise ValidationError(
                    f"{path}: user {pid!r} sentence {sid!r}: non-increasing press time "
                    f"{b.press_time} after {a.press_time}"
                )
        users.setdefault(pid, []).append(events)
    return Corpus(users=[UserLog(user_id=pid, sentences=events) for pid, events in users.items()])


# cells that int() or float() reads in some unusual way, or refuses
ODD_KEYCODES = ["1_0", "+65", " 72 ", "0x41", "72.0", "", "x", "-1", "256", "٧٢", "9" * 400, "-" + "9" * 400]
ODD_TIMES = ["nan", "NaN", "inf", "-inf", "infinity", "-1.5", "-0.0", "1_000", " 2e3 ", "1e400", "abc", ""]
# lines with nothing to read, and lines with the wrong number of cells
ODD_LINES = ["", "   ", "\t\t\t\t", "u0\ts0\t72\t1.0", "u0\ts0\t72\t1.0\t2.0\t3.0", "u0"]


@st.composite
def log_rows(draw):
    """Rows of a log: valid keystrokes of a few interleaved sentences, plus a few broken ones.

    Presses come from a small grid, so repeated presses in a sentence occur,
    and the rows are in no particular order.
    """
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        press = draw(st.integers(min_value=0, max_value=20)) * 7.5
        cells = [draw(st.sampled_from(["u0", "u1", " u2"])), draw(st.sampled_from(["s0", "s1"])),
                 str(draw(st.integers(min_value=0, max_value=255))),
                 repr(press), repr(press + draw(st.floats(min_value=0.0, max_value=500.0)))]
        rows.append("\t".join(cells))
    valid = list(rows)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        kind = draw(st.sampled_from(["line", "keycode", "press", "release", "backwards"]))
        if kind == "line" or not valid:
            rows.insert(at, draw(st.sampled_from(ODD_LINES)))
            continue
        cells = draw(st.sampled_from(valid)).split("\t")
        if kind == "keycode":
            cells[2] = draw(st.sampled_from(ODD_KEYCODES))
        elif kind in ("press", "release"):
            cells[3 if kind == "press" else 4] = draw(st.sampled_from(ODD_TIMES))
        else:
            cells[3], cells[4] = cells[4], repr(float(cells[3]) - 1.0)
        rows.insert(at, "\t".join(cells))
    return rows


def ingest_outcome(reader, path):
    try:
        return reader(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@given(log_rows())
@example(["u0\ts0\t9999\t1.0\t2.0", "u0\ts0\t65\t1.0"])
@example(["u0\ts0\t65\tnan\t2.0", "u0\ts0\t" + "9" * 400 + "\t1.0\t2.0"])
@example(["u0\ts0\t65\t2.0\t3.0", "u1\ts0\t66\t1.0\t2.0", "u0\ts0\t67\t2.0\t4.0"])
def test_ingest_matches_per_line_reader(tmp_path_factory, rows):
    """The bulk reader gives the same corpus as the line loop, or the same error class and text."""
    path = tmp_path_factory.getbasetemp() / "rows.tsv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    got, want = ingest_outcome(ingest_log, path), ingest_outcome(ingest_reference, path)
    assert got == want
    if isinstance(want, Corpus):
        for u_got, u_want in zip(got.users, want.users):
            assert all(a.rows.tobytes() == b.rows.tobytes()
                       for a, b in zip(u_got.sentences, u_want.sentences))


def export_reference(corpus: Corpus, path) -> None:
    """export_log as one f-string per KeyEvent: the writer before sentences were arrays."""
    lines = ["\t".join(TSV_COLUMNS)]
    for user in corpus.users:
        for s_index, sentence in enumerate(user.sentences):
            for ev in sentence:
                lines.append(
                    f"{user.user_id}\t{f's{s_index}'}\t{ev.keycode}\t{ev.press_time!r}\t{ev.release_time!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@given(corpora())
@example(synth_corpus(3, 2, 5))
def test_export_matches_per_event_writer(tmp_path_factory, corpus):
    base = tmp_path_factory.getbasetemp()
    export_log(corpus, base / "arrays.tsv")
    export_reference(corpus, base / "events.tsv")
    assert (base / "arrays.tsv").read_bytes() == (base / "events.tsv").read_bytes()


@given(sentences(), st.slices(8))
def test_sentence_agrees_with_its_events(events, part):
    sentence = sentence_of(events)
    assert isinstance(sentence, Sentence) and sentence_of(sentence) is sentence
    assert len(sentence) == len(events)
    assert list(sentence) == events
    assert [sentence[i] for i in range(-len(events), len(events))] == events + events
    assert list(sentence[part]) == events[part] and isinstance(sentence[part], Sentence)
    assert sentence == sentence_of(events) and sentence != events
    assert (sentence != sentence_of(events[:-1])
            and sentence != sentence_of(events[::-1]) or len(events) == 1)
    assert not sentence.rows.flags.writeable
    with pytest.raises(IndexError):
        sentence[len(events)]


@pytest.mark.parametrize("keycode, press, release", [
    (300, 0.0, 10.0), (-1, 0.0, 10.0), (10**400, 0.0, 1.0), (72.5, 0.0, 10.0), (72, math.nan, 10.0),
    (72, 0.0, math.inf), (72, -1.0, 10.0), (72, 1000.0, 900.0),
])
def test_sentence_rows_and_key_events_share_rules_and_messages(keycode, press, release):
    with pytest.raises(ValidationError) as by_event:
        KeyEvent(keycode, press, release)
    if keycode < 10**300:  # a row is float64, so only ingest and KeyEvent see such an int
        with pytest.raises(ValidationError) as by_row:
            Sentence([(0, 0.0, 1.0), (keycode, press, release)])
        assert str(by_row.value) == str(by_event.value)


def test_ingest_of_a_huge_keycode_names_its_line(tmp_path):
    path = write_log(tmp_path, ["u1\ts1\t72\t1000\t1080", "u1\ts1\t" + "9" * 400 + "\t1100\t1180"])
    with pytest.raises(ValidationError, match=f":3: keycode {'9' * 400} outside 0..255"):
        ingest_log(path)


BLOCK = INGEST_BLOCK_LINES


def block_log_rows() -> list[str]:
    """Valid rows of a log that runs past a second block: 30-key sentences of 7 users, in press order.

    The sentence at the end of the first block runs on into the second.
    """
    rows = []
    for k in range(2 * BLOCK // 30 + 10):
        rows += [f"u{k % 7}\ts{k}\t{97 + j % 26}\t{100.0 * j!r}\t{100.0 * j + 50.0!r}" for j in range(30)]
    assert rows[BLOCK - 1].split("\t")[:2] == rows[BLOCK].split("\t")[:2]
    return rows


def put(rows, at, line):
    """A copy of rows with line in place of the row at index at."""
    rows = list(rows)
    rows[at] = line
    return rows


BAD_KEYCODE, BAD_COLUMNS, BAD_TIME = "u0\ts0\tx\t1.0\t2.0", "u0\ts0\t65\t1.0", "u0\ts0\t65\tnan\t2.0"
BAD_ORDER, BAD_RANGE = "u0\ts0\t65\t2.0\t1.0", "u0\ts0\t300\t1.0\t2.0"
BLANKS = ["", "   ", "\t", ""]
# each case: how it edits block_log_rows(), and the body index of the bad line that must be named
# (body index i is line i + 2; a block holds BLOCK lines)
BLOCK_CASES = {
    "last line of a block": (lambda rows: put(rows, BLOCK - 1, BAD_KEYCODE), BLOCK - 1),
    "first line of the next block": (lambda rows: put(rows, BLOCK, BAD_COLUMNS), BLOCK),
    "last line of the file": (lambda rows: put(rows, -1, BAD_TIME), -1),
    "two in one block": (lambda rows: put(put(rows, BLOCK + 5, BAD_RANGE), BLOCK + 9, BAD_KEYCODE), BLOCK + 5),
    "two in two blocks": (lambda rows: put(put(rows, BLOCK + 2, BAD_COLUMNS), BLOCK - 3, BAD_ORDER), BLOCK - 3),
    "after blank lines across a boundary": (
        lambda rows: put(rows[:BLOCK - 2] + BLANKS + rows[BLOCK - 2:], BLOCK + 3, BAD_TIME), BLOCK + 3),
    "blank lines across a boundary": (lambda rows: rows[:BLOCK - 2] + BLANKS + rows[BLOCK - 2:], None),
    "every sentence in every block": (
        lambda rows: [rows[i] for i in np.random.default_rng(3).permutation(len(rows))], None),
    "one press twice, in two blocks": (lambda rows: rows + [rows[0].replace("\t97\t", "\t98\t")], None),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_ingest_across_blocks_matches_per_line_reader(tmp_path, case):
    """A log of more than two blocks reads as the line loop reads it: the first bad line is named wherever it falls."""
    edit, bad_at = BLOCK_CASES[case]
    rows = edit(block_log_rows())
    assert len(rows) > 2 * BLOCK
    path = write_log(tmp_path, rows)
    got, want = ingest_outcome(ingest_log, path), ingest_outcome(ingest_reference, path)
    assert got == want
    if bad_at is not None:
        assert f"{path}:{bad_at % len(rows) + 2}: " in want[1]
    elif isinstance(want, Corpus):
        for u_got, u_want in zip(got.users, want.users):
            assert all(a.rows.tobytes() == b.rows.tobytes()
                       for a, b in zip(u_got.sentences, u_want.sentences))


def test_ingest_of_a_200_user_corpus_peaks_below_20_mb(tmp_path):
    """Only one block's cells are strings at once; split whole, this log's cells peaked at 34 MB."""
    path = tmp_path / "corpus.tsv"
    export_log(synth_corpus(200, 10, 3), path)
    tracemalloc.start()
    try:
        corpus = ingest_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.n_events() > 50_000
    assert peak < 20e6


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------


def test_extract_features_two_keys():
    rows = features_of(sentence_of([KeyEvent(72, 1000, 1080), KeyEvent(73, 1150, 1220)]))
    assert rows.shape == (2, 5)
    r0, r1 = rows
    assert math.isclose(r0[COL_HL], 0.080)
    assert math.isclose(r0[COL_IL], 0.070)
    assert math.isclose(r0[COL_PL], 0.150)
    assert math.isclose(r0[COL_RL], 0.140)
    assert r0[COL_KEYCODE] == 72
    assert math.isclose(r1[COL_HL], 0.070)
    assert r1[COL_IL] == r1[COL_PL] == r1[COL_RL] == 0.0
    assert r1[COL_KEYCODE] == 73


def test_extract_features_single_event():
    (row,) = features_of(sentence_of([KeyEvent(65, 0, 50)]))
    assert math.isclose(row[COL_HL], 0.050)
    assert row[COL_IL] == row[COL_PL] == row[COL_RL] == 0.0


def test_extract_features_negative_il_on_rollover():
    rows = features_of(sentence_of([KeyEvent(65, 0, 200), KeyEvent(66, 100, 300)]))
    assert math.isclose(rows[0, COL_IL], -0.100)


def test_extract_features_matches_per_row_reference():
    """Column ops give the same bits as computing each cell from its two events."""
    for sentence in synth_corpus(3, 4, 17).users[1].sentences:
        expected = []
        for i, ev in enumerate(sentence):
            row = [(ev.release_time - ev.press_time) / 1000.0, 0.0, 0.0, 0.0, float(ev.keycode)]
            if i + 1 < len(sentence):
                nxt = sentence[i + 1]
                row[COL_IL] = (nxt.press_time - ev.release_time) / 1000.0
                row[COL_PL] = (nxt.press_time - ev.press_time) / 1000.0
                row[COL_RL] = (nxt.release_time - ev.release_time) / 1000.0
            expected.append(row)
        assert np.array_equal(features_of(sentence), np.array(expected))


def test_extract_features_empty_input():
    with pytest.raises(ValueError):
        extract_features(Sentence([]), [0])


timestamps = st.floats(min_value=-10.0, max_value=1e7) | st.sampled_from(
    [math.nan, math.inf, -math.inf]
)


@st.composite
def accepted_event_streams(draw):
    """Strictly press-increasing streams of whatever events KeyEvent accepts."""
    events = {}
    for _ in range(draw(st.integers(min_value=2, max_value=30))):
        try:
            ev = KeyEvent(draw(st.integers(min_value=-5, max_value=300)), draw(timestamps),
                          draw(timestamps))
        except ValidationError:
            continue
        events[ev.press_time] = ev
    assume(events)
    return [events[press] for press in sorted(events)]


@given(st.lists(accepted_event_streams() | st.just([]), max_size=4))
def test_extract_features_of_stacked_sentences_is_each_sentence_alone(streams):
    """Given the sentence lengths, every sentence ends in a terminal row: no feature spans two."""
    sentences = list(UserLog("u", streams).sentences)
    stacked, lengths = stack_sentences(sentences)
    assert lengths.tolist() == [len(events) for events in streams]
    assume(len(stacked))
    expected = np.concatenate([features_of(sentence) for sentence in sentences if len(sentence)])
    assert extract_features(stacked, lengths).tobytes() == expected.tobytes()


@given(st.lists(st.tuples(accepted_event_streams() | st.just([]), st.integers(0, 40)), max_size=4))
def test_stack_sentences_with_stops_stacks_each_prefix(cut):
    """Sentence i gives its first stops[i] rows, or all of them when it is shorter."""
    sentences = [sentence_of(events) for events, _ in cut]
    stacked, lengths = stack_sentences(sentences, [stop for _, stop in cut])
    prefixes, prefix_lengths = stack_sentences([sentence_of(events[:stop]) for events, stop in cut])
    assert lengths.tolist() == prefix_lengths.tolist() == [min(len(events), stop) for events, stop in cut]
    assert stacked == prefixes and not stacked.rows.flags.writeable


@pytest.mark.parametrize("lengths", [[], [2], [4], [1, 1], [3, 0, -1, 1], [[2, 1]]])
def test_extract_features_rejects_lengths_that_do_not_count_the_rows(lengths):
    stacked, _ = stack_sentences([make_events([65, 66]), make_events([67])])
    with pytest.raises(ValueError, match="are not counts that sum to the 3 stacked rows"):
        extract_features(stacked, lengths)


@given(accepted_event_streams())
def test_latency_identities(events):
    rows = features_of(sentence_of(events))
    assert np.all(np.isfinite(rows))
    for i, row in enumerate(rows[:-1]):
        assert abs(row[COL_PL] - (row[COL_HL] + row[COL_IL])) < 1e-9
        assert abs(row[COL_RL] - (row[COL_PL] + rows[i + 1, COL_HL] - row[COL_HL])) < 1e-9


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_scales_and_clamps():
    rows = np.array([
        [0.5, -0.5, 7.2, 2.5, 255],
        [7.2, -7.2, 0.0, 0.0, 0],
    ])
    m = normalize(rows)
    assert math.isclose(m[0, COL_HL], 0.1)
    assert math.isclose(m[0, COL_IL], -0.1)
    assert math.isclose(m[0, COL_PL], 1.0)
    assert math.isclose(m[0, COL_RL], 0.5)
    assert math.isclose(m[0, COL_KEYCODE], 1.0)
    assert math.isclose(m[1, COL_HL], 1.0)
    assert math.isclose(m[1, COL_IL], -1.0)


def normalize_reference(features: np.ndarray) -> np.ndarray:
    """normalize column by column, as its docstring states it."""
    out = np.empty_like(features)
    for col in (COL_HL, COL_PL, COL_RL):
        out[:, col] = np.clip(features[:, col], 0.0, T_MAX_SECONDS) / T_MAX_SECONDS
    out[:, COL_IL] = np.clip(features[:, COL_IL], -T_MAX_SECONDS, T_MAX_SECONDS) / T_MAX_SECONDS
    out[:, COL_KEYCODE] = features[:, COL_KEYCODE] / 255.0
    return out


feature_cells = st.floats(min_value=-1e4, max_value=1e4) | st.sampled_from(
    [0.0, -0.0, T_MAX_SECONDS, -T_MAX_SECONDS, np.nextafter(T_MAX_SECONDS, 6.0), 255.0]
)


@given(arrays(np.float64, st.tuples(st.integers(min_value=1, max_value=40), st.just(N_FEATURES)),
              elements=feature_cells))
@example(np.full((1, N_FEATURES), -0.0))
def test_normalize_matches_per_column_formula(features):
    """Latencies past +-T_max, negative IL and signed zeros: the same bits as the formula."""
    assert normalize(features).tobytes() == normalize_reference(features).tobytes()


# stitch_events is the inverse of normalize: it turns a word's unit-range
# cells back into absolute-time events.
DEFAULT_SPACES = AttackSection().default_space_model()


def pad_rows(rows: np.ndarray) -> np.ndarray:
    """rows followed by zero rows up to WORD_LEN."""
    out = np.zeros((WORD_LEN, N_FEATURES))
    out[: rows.shape[0]] = rows
    return out


def denormalize(cells: np.ndarray) -> Sentence:
    return stitch_events(["x" * cells.shape[0]], pad_rows(cells)[None], DEFAULT_SPACES,
                         np.random.default_rng(0))


def test_denormalize_inverse_scale():
    (ev,) = denormalize(np.array([[0.1, -0.02, 0.12, 0.11, 72 / 255]]))
    assert math.isclose((ev.release_time - ev.press_time) / 1000.0, 0.1 * T_MAX_SECONDS)
    assert ev.keycode == 72


def test_denormalize_zero_row():
    (ev,) = denormalize(np.zeros((1, 5)))
    (row,) = features_of(sentence_of([ev]))
    assert row[COL_HL] == row[COL_IL] == row[COL_PL] == row[COL_RL] == 0.0
    assert ev.keycode == 0


@st.composite
def unclamped_words(draw):
    """Press-monotone words whose latencies all sit inside normalize's clamp range.

    Holds stay under 2s and press steps between 2s and 3s, so every IL, PL and
    RL cell lies in [0, T_max] and no step falls under the 1ms stitch floor.
    """
    n = draw(st.integers(min_value=1, max_value=15))
    holds = draw(st.lists(st.floats(min_value=0.0, max_value=2000.0), min_size=n, max_size=n))
    steps = draw(st.lists(st.floats(min_value=2000.0, max_value=3000.0), min_size=n, max_size=n))
    keycodes = draw(st.lists(st.integers(min_value=0, max_value=255), min_size=n, max_size=n))
    events, press = [], 0.0
    for keycode, hold, step in zip(keycodes, holds, steps):
        events.append(KeyEvent(keycode, press, press + hold))
        press += step
    return events


@given(unclamped_words())
def test_normalize_denormalize_round_trip(events):
    features = features_of(sentence_of(events))
    back = features_of(denormalize(normalize(features)))
    assert back.shape == features.shape
    assert np.allclose(back[:, :COL_KEYCODE], features[:, :COL_KEYCODE], rtol=0, atol=1e-6)
    assert np.array_equal(back[:, COL_KEYCODE], features[:, COL_KEYCODE])


# ---------------------------------------------------------------------------
# word splitting
# ---------------------------------------------------------------------------


def make_events(keycodes, step=200.0, hold=80.0) -> Sentence:
    return sentence_of([KeyEvent(kc, i * step, i * step + hold) for i, kc in enumerate(keycodes)])


def words_of(events) -> tuple[list[str], np.ndarray]:
    """The words of one sentence: words_from_corpus over a one-sentence user."""
    return words_from_corpus(UserLog("u", [events]))


def test_words_split_on_space():
    texts, matrices = words_of(make_events([72, 73, SPACE_KEYCODE, 66]))
    assert texts == ["HI", "B"]
    assert [len(text) for text in texts] == [2, 1]
    assert matrices.shape == (2, WORD_LEN, N_FEATURES)


def test_words_truncate_long_runs():
    texts, matrices = words_of(make_events([65] * 17))
    assert len(texts) == len(matrices) == 1
    assert len(texts[0]) == 15
    assert np.all(matrices[0, :, COL_KEYCODE] == 65 / 255.0)


def test_words_all_spaces_is_empty():
    texts, matrices = words_of(make_events([SPACE_KEYCODE, SPACE_KEYCODE]))
    assert texts == [] and matrices.shape == (0, WORD_LEN, N_FEATURES)


def test_words_never_contain_space_keycode():
    corpus = synth_corpus(3, 4, 2)
    for user in corpus.users:
        for text, matrix in zip(*words_from_corpus(user)):
            keycodes = matrix[: len(text), COL_KEYCODE] * 255
            assert not np.any(np.isclose(keycodes, SPACE_KEYCODE))
            assert np.all(matrix[len(text) :] == 0.0)


def test_word_matrix_cells_in_declared_ranges():
    corpus = synth_corpus(2, 3, 3)
    for text, matrix in zip(*words_of(corpus.users[0].sentences[0])):
        valid = matrix[: len(text)]
        assert np.all(valid[:, [COL_HL, COL_PL, COL_RL, COL_KEYCODE]] >= 0.0)
        assert np.all(valid[:, [COL_HL, COL_PL, COL_RL, COL_KEYCODE]] <= 1.0)
        assert np.all(np.abs(valid[:, COL_IL]) <= 1.0)


def words_reference(events: list[KeyEvent]) -> list[tuple[str, np.ndarray]]:
    """One sentence's words word by word: each run's first 15 keys featurized alone."""
    runs, current = [], []
    for ev in events:
        if ev.keycode == SPACE_KEYCODE:
            if current:
                runs.append(current)
                current = []
        else:
            current.append(ev)
    if current:
        runs.append(current)
    return [("".join(chr(ev.keycode) for ev in run[:WORD_LEN]),
             pad_rows(normalize_reference(features_of(sentence_of(run[:WORD_LEN])))))
            for run in runs]


def assert_words_match(words: tuple[list[str], np.ndarray], expected: list[tuple[str, np.ndarray]]) -> None:
    texts, matrices = words
    assert texts == [text for text, _ in expected]
    assert matrices.shape == (len(expected), WORD_LEN, N_FEATURES)
    for got, (_, matrix) in zip(matrices, expected):
        assert got.tobytes() == matrix.tobytes()


@st.composite
def spaced_sentences(draw):
    """Sentences of space keys and letter runs of 1-20 keys (any keycode but space).

    Leading, trailing and repeated spaces, all-space and empty sentences all
    occur. Holds and press steps reach 8 s, so latencies pass T_max, and a hold
    longer than the next step makes IL negative.
    """
    keycodes = []
    for token in draw(st.lists(st.integers(min_value=0, max_value=20), max_size=8)):
        if token == 0:
            keycodes.append(SPACE_KEYCODE)
        else:
            keycodes += draw(st.lists(st.integers(min_value=0, max_value=255).filter(
                lambda kc: kc != SPACE_KEYCODE), min_size=token, max_size=token))
    events, press = [], 0.0
    for keycode in keycodes:
        hold = draw(st.floats(min_value=0.0, max_value=8000.0))
        events.append(KeyEvent(keycode, press, press + hold))
        press += draw(st.floats(min_value=1.0, max_value=8000.0))
    return events


@given(spaced_sentences())
def test_words_of_one_sentence_match_per_word_reference(events):
    assert_words_match(words_of(events), words_reference(events))


# a word that ends one sentence and one that starts the next, with no space between
LETTER_AT_BOTH_ENDS = [make_events([72, 73]), make_events([SPACE_KEYCODE]), [],
                       make_events([66, SPACE_KEYCODE, 67])]


@example(LETTER_AT_BOTH_ENDS)
@given(st.lists(spaced_sentences(), max_size=5))
def test_words_from_corpus_matches_per_sentence_reference(sentences):
    """No word spans two sentences: the stacked pass gives each sentence's words in turn."""
    expected = [word for events in sentences for word in words_reference(events)]
    assert_words_match(words_from_corpus(UserLog("u", sentences)), expected)


def test_words_around_leading_trailing_and_double_spaces():
    texts, matrices = words_of(make_events(
        [SPACE_KEYCODE, 72, 73, SPACE_KEYCODE, SPACE_KEYCODE, 66, SPACE_KEYCODE]))
    assert texts == ["HI", "B"]
    # each word's last row ends its own timing, whatever key follows
    assert matrices[0, 1, COL_IL] == matrices[0, 1, COL_PL] == 0.0
    assert matrices[0, 0, COL_PL] == pytest.approx(200.0 / 1000.0 / T_MAX_SECONDS)


def test_user_log_sentences_are_converted_once_and_cannot_change():
    """Every sentence a UserLog holds is a Sentence: its tuple cannot be appended to or replaced."""
    events = [KeyEvent(72, 0.0, 80.0), KeyEvent(73, 200.0, 280.0)]
    user = UserLog("u", [events, make_events([65])])
    assert user.sentences == (Sentence([(72, 0.0, 80.0), (73, 200.0, 280.0)]), make_events([65]))
    with pytest.raises(AttributeError):
        user.sentences.append(make_events([66]))
    with pytest.raises(AttributeError):
        user.sentences = (make_events([66]),)
    with pytest.raises(AttributeError):
        user.user_id = "v"
    assert user.sentences == (Sentence([(72, 0.0, 80.0), (73, 200.0, 280.0)]), make_events([65]))


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


# sha256 of export_log(synth_corpus(users, sentences, seed)). They pin the
# generator's draw order and the arithmetic of every timestamp: the README's
# corpus, the benchmark's corpus-io size, and a two-user minimum.
SYNTH_SHA256 = {
    (25, 15, 7): "79122044a138516266dcc29217821f25a935d8f21640f199452dc6a5d3390410",
    (200, 10, 5): "aa6367a477408612428f218d9c7876988cb22ea16a93f60008d742bee359c6db",
    (2, 1, 123): "73869b164000c6f65c323668a5cb382c63985b73a6f3a968d71dd4126ca1ad4f",
}


@pytest.mark.parametrize("users, sentences, seed", sorted(SYNTH_SHA256))
def test_synth_corpus_digest(tmp_path, users, sentences, seed):
    path = tmp_path / "corpus.tsv"
    export_log(synth_corpus(users, sentences, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_SHA256[users, sentences, seed]


def test_synth_corpus_deterministic(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    export_log(synth_corpus(4, 3, 9), a)
    export_log(synth_corpus(4, 3, 9), b)
    assert a.read_bytes() == b.read_bytes()


def test_synth_corpus_seed_changes_output(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    export_log(synth_corpus(4, 3, 1), a)
    export_log(synth_corpus(4, 3, 2), b)
    assert a.read_bytes() != b.read_bytes()


def test_synth_corpus_paper_scale_shape():
    corpus = synth_corpus(25, 15, 7)
    assert len(corpus.users) == 25
    assert all(len(u.sentences) == 15 for u in corpus.users)


def test_synth_corpus_rejects_single_user():
    with pytest.raises(ValueError):
        synth_corpus(1, 5, 0)


def test_synth_corpus_sentences_are_valid():
    corpus = synth_corpus(3, 5, 13)
    for user in corpus.users:
        for sentence in user.sentences:
            assert 15 <= len(sentence) <= 40
            presses = [ev.press_time for ev in sentence]
            assert all(b > a for a, b in zip(presses, presses[1:]))


def test_slice_windows_drops_remainder():
    rows = np.arange(31 * 5, dtype=float).reshape(31, 5)
    windows = slice_windows(rows)
    assert windows.shape == (2, 15, 5) and np.shares_memory(windows, rows)
    assert np.array_equal(windows[0], rows[:15])
    assert np.array_equal(windows[1], rows[15:30])
