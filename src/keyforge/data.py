"""Keystroke logs, latency features, word samples, and synthetic corpora.

Raw key events carry millisecond press/release timestamps; extracted feature
rows are in seconds. Normalized matrices scale hold/press/release latencies by
a fixed 5-second ceiling (inter-key latency symmetrically, since key rollover
makes it negative) and keycodes by 255, so model outputs stay interpretable
without any per-dataset statistics.

Features are computed in one pass over stacked rows: a featurizer stacks the
sentences it needs (stack_sentences), calls extract_features and normalize
once with each sentence's length, and cuts every sample with one gather.
extract_features always takes those lengths, even for one sentence. Each
sentence's last row is a terminal row, so no word or window spans two
sentences. A sample set stays one (n, 15, 5) array, and KeyEvent lists become
Sentences only in UserLog: every other reader of keystrokes takes Sentences.

ingest_log reads a TSV log in blocks of INGEST_BLOCK_LINES lines through one
bulk parser. A block that fails is read again through the same parser one line
at a time, so the first bad line is named without re-reading the whole log.
"""

from __future__ import annotations

import math
import operator
import string
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

T_MAX_SECONDS = 5.0
SPACE_KEYCODE = 32
WORD_LEN = 15
N_FEATURES = 5

COL_HL, COL_IL, COL_PL, COL_RL, COL_KEYCODE = range(N_FEATURES)

# columns of a Sentence's (n, 3) rows
KEY_COL, PRESS_COL, RELEASE_COL = range(3)

TSV_COLUMNS = ("PARTICIPANT_ID", "SENTENCE_ID", "KEYCODE", "PRESS_TIME", "RELEASE_TIME")


class ParseError(ValueError):
    """A log row the TSV reader cannot interpret."""


class ValidationError(ValueError):
    """Structurally readable data that violates a corpus invariant."""


def _event_problem(keycode, press, release) -> str | None:
    """The first keystroke rule one event breaks, as ValidationError text; None if it breaks none.

    The one statement of the rules and their messages: KeyEvent checks its
    fields with it, and the array checks name their first bad row with it.
    A keycode is compared as given, so an int of any size gets its message.
    """
    if not 0 <= keycode <= 255:
        return f"keycode {keycode} outside 0..255"
    if keycode != int(keycode):
        return f"keycode {keycode} is not an integer"
    if not (math.isfinite(press) and math.isfinite(release)):
        return f"non-finite timestamp on keycode {keycode}: press={press}, release={release}"
    if press < 0 or release < 0:
        return f"negative timestamp on keycode {keycode}: press={press}, release={release}"
    if release < press:
        return f"release before press on keycode {keycode}: press={press}, release={release}"
    return None


def _bad_rows(rows: np.ndarray) -> np.ndarray:
    """Which rows of an (n, 3) [keycode, press, release] array _event_problem rejects.

    0 <= press <= release < inf holds exactly when both times are finite and
    non-negative and release is not before press; NaN fails every comparison.
    """
    keycodes, presses, releases = rows[:, KEY_COL], rows[:, PRESS_COL], rows[:, RELEASE_COL]
    good = (keycodes >= 0) & (keycodes <= 255) & (keycodes == np.floor(keycodes))
    good &= (presses >= 0) & (presses <= releases) & (releases < math.inf)
    return ~good


def _check_rows(rows: np.ndarray) -> None:
    """Raise ValidationError for the first row that breaks a keystroke rule."""
    bad = np.flatnonzero(_bad_rows(rows))
    if bad.size:
        keycode, press, release = rows[bad[0]].tolist()
        raise ValidationError(_event_problem(
            int(keycode) if keycode.is_integer() else keycode, press, release))


@dataclass(frozen=True)
class KeyEvent:
    """One keystroke: ASCII keycode plus press/release times in milliseconds.

    A Sentence yields its rows as KeyEvents, and callers that build events one
    at a time hand their lists to UserLog; keyforge's own paths work on Sentences.
    """

    keycode: int
    press_time: float
    release_time: float

    def __post_init__(self):
        problem = _event_problem(self.keycode, self.press_time, self.release_time)
        if problem is not None:
            raise ValidationError(problem)


class Sentence:
    """One typed sentence: a read-only (n, 3) float64 array of [keycode, press_ms, release_ms] rows.

    Every row obeys the KeyEvent rules, checked in one vectorized pass when
    the sentence is built. len() counts keys; an int index or iteration gives
    KeyEvents, and a slice gives a Sentence that views the same rows. A
    Sentence equals another with equal rows.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = np.array(rows, dtype=np.float64)
        if rows.size == 0:
            rows = rows.reshape(0, 3)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"sentence rows must be shaped (n, 3), got {rows.shape}")
        _check_rows(rows)
        rows.flags.writeable = False
        self.rows = rows

    @classmethod
    def _of(cls, rows: np.ndarray) -> Sentence:
        """Wrap read-only rows already checked, without copying them."""
        sentence = cls.__new__(cls)
        sentence.rows = rows
        return sentence

    @property
    def keycodes(self) -> np.ndarray:
        return self.rows[:, KEY_COL]

    @property
    def presses(self) -> np.ndarray:
        return self.rows[:, PRESS_COL]

    @property
    def releases(self) -> np.ndarray:
        return self.rows[:, RELEASE_COL]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sentence._of(self.rows[index])
        keycode, press, release = self.rows[operator.index(index)].tolist()
        return KeyEvent(int(keycode), press, release)

    def __iter__(self):
        for keycode, press, release in self.rows.tolist():
            yield KeyEvent(int(keycode), press, release)

    def __eq__(self, other):
        if isinstance(other, Sentence):
            return np.array_equal(self.rows, other.rows)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Sentence({self.rows.tolist()!r})"


@dataclass(frozen=True)
class UserLog:
    """One user's sentences as Sentences, frozen; the one place where a KeyEvent list becomes a Sentence."""

    user_id: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(
            s if isinstance(s, Sentence)
            else Sentence([(ev.keycode, ev.press_time, ev.release_time) for ev in s])
            for s in self.sentences))


@dataclass
class Corpus:
    users: list[UserLog]

    def get(self, user_id: str) -> UserLog:
        for u in self.users:
            if u.user_id == user_id:
                return u
        raise KeyError(f"unknown user id {user_id!r}")

    def n_events(self) -> int:
        return sum(len(s) for u in self.users for s in u.sentences)


def stack_sentences(
    sentences: Sequence[Sentence], stops: Sequence[int] | None = None
) -> tuple[Sentence, np.ndarray]:
    """The rows of every sentence stacked in order as one Sentence, and each sentence's key count.

    With stops, sentence i gives only its first stops[i] rows, and its count
    is of those. Give extract_features the counts with the stack, so that it
    ends every sentence where it ends.
    """
    parts = [sentence.rows for sentence in sentences]
    if stops is not None:
        parts = [rows[:stop] for rows, stop in zip(parts, stops)]
    lengths = np.fromiter(map(len, parts), np.int64, len(parts))
    rows = np.concatenate(parts) if parts else np.empty((0, 3))
    rows.flags.writeable = False
    return Sentence._of(rows), lengths


def extract_features(sentence: Sentence, lengths: Sequence[int]) -> np.ndarray:
    """Derive the (n, 5) [hl, il, pl, rl, keycode] array (seconds) from press-sorted events.

    Row i uses events i and i+1: hl = release-press of the same key, il = next
    press minus current release (negative under rollover), pl = press-to-press,
    rl = release-to-release. The terminal row keeps il = pl = rl = 0 so it
    merges cleanly with zero padding.

    sentence holds one or more sentences stacked (stack_sentences), given
    with each one's key count in lengths; every sentence's last row is a
    terminal row, so no feature spans two sentences.
    """
    n = len(sentence)
    if not n:
        raise ValueError("extract_features requires at least one event")
    lengths = np.asarray(lengths)
    ends = np.cumsum(lengths)
    if lengths.ndim != 1 or not lengths.size or ends[-1] != n or lengths.min() < 0:
        raise ValueError(f"sentence lengths {lengths} are not counts that sum to the {n} stacked rows")
    rows, press, release = sentence.rows, sentence.presses, sentence.releases
    out = np.empty((n, N_FEATURES), dtype=np.float64)
    out[:, COL_HL] = (release - press) / 1000.0
    out[:-1, COL_IL] = (press[1:] - release[:-1]) / 1000.0
    # pl and rl: next press minus press, next release minus release
    out[:-1, COL_PL : COL_RL + 1] = (rows[1:, PRESS_COL:] - rows[:-1, PRESS_COL:]) / 1000.0
    # each sentence's last row; a sentence with no keys names the previous sentence's last
    # row again, or, first in the stack, row -1, which is the last row of all
    out[ends - 1, COL_IL:COL_KEYCODE] = 0.0
    out[:, COL_KEYCODE] = sentence.keycodes
    return out


# normalize's divisor per column, in COL_* order
_SCALE = np.array([T_MAX_SECONDS, T_MAX_SECONDS, T_MAX_SECONDS, T_MAX_SECONDS, 255.0])


def normalize(features: np.ndarray) -> np.ndarray:
    """Scale an extract_features array into an (n, 5) matrix of unit-range cells.

    HL/PL/RL are clamped to [0, T_max] then divided by T_max; IL is clamped to
    [-T_max, T_max] then divided; keycodes divide by 255. Clamping makes the
    map total, at the cost of saturating pathological latencies.

    The clamps take scalar bounds: np.clip with per-column array bounds turns
    a -0.0 latency into +0.0, where a scalar-bound clip keeps its sign.
    """
    out = np.clip(features, 0.0, T_MAX_SECONDS)
    out[:, COL_IL] = np.clip(features[:, COL_IL], -T_MAX_SECONDS, T_MAX_SECONDS)
    out[:, COL_KEYCODE] = features[:, COL_KEYCODE]
    out /= _SCALE
    return out


def words_from_corpus(user: UserLog) -> tuple[list[str], np.ndarray]:
    """One user's words in corpus order as (texts, matrices), from one pass over their stacked sentences.

    A word is a maximal run of keys other than the space key within one
    sentence: it starts at a non-space key after a space or at the start of
    a sentence and ends at a non-space key before a space or at the end of
    one, so no word spans two sentences. Runs longer than 15 keys are
    truncated to their first 15. A word's rows are the featurized sentence
    rows of its keys, and its last row's IL, PL and RL are set to 0 as
    extract_features would over the word alone, so no cross-word timing
    leaks in. matrices is one (n, 15, 5) array, zero past each text's length.
    """
    stacked, lengths = stack_sentences(user.sentences)
    keycodes = stacked.keycodes
    key = keycodes != SPACE_KEYCODE
    # cut[i]: no word runs on from key i - 1 to key i, as at either end of every sentence
    cut = np.ones(len(keycodes) + 1, dtype=bool)
    np.logical_not(key[1:] & key[:-1], out=cut[1:-1])
    cut[np.cumsum(lengths)] = True
    starts = np.flatnonzero(key & cut[:-1])
    if not starts.size:
        return [], np.zeros((0, WORD_LEN, N_FEATURES))
    ends = np.flatnonzero(key & cut[1:]) + 1
    sizes = np.minimum(ends - starts, WORD_LEN)
    rows = normalize(extract_features(stacked, lengths))
    offsets = np.arange(WORD_LEN)
    filled = offsets < sizes[:, None]
    matrices = np.zeros((starts.size, WORD_LEN, N_FEATURES))
    matrices[filled] = rows[(starts[:, None] + offsets)[filled]]
    matrices[np.arange(starts.size), sizes - 1, COL_IL:COL_KEYCODE] = 0.0
    text = keycodes.astype(np.uint8).tobytes().decode("latin-1")
    texts = [text[start : start + size] for start, size in zip(starts.tolist(), sizes.tolist())]
    return texts, matrices


def slice_windows(rows: np.ndarray) -> np.ndarray:
    """Non-overlapping WORD_LEN-row windows as one (n, WORD_LEN, ...) view of rows; the remainder is dropped."""
    n = rows.shape[0] // WORD_LEN
    return rows[: n * WORD_LEN].reshape(n, WORD_LEN, *rows.shape[1:])


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

# Hold-mean slot -> keycode: slot 0 is the space key, slots 1-26 the letters a-z.
_SLOT_KEYCODES = np.array([SPACE_KEYCODE, *(ord(c) for c in string.ascii_lowercase)])
_SPACE_SLOT = np.zeros(1, dtype=np.int64)


def synth_corpus(n_users: int, sentences_per_user: int, seed: int) -> Corpus:
    """Generate a deterministic multi-user corpus of plausible typing logs.

    Each user draws one mean hold time per keycode and one mean inter-key gap
    (hold means ~ N(90ms, 25ms), gap mean ~ N(120ms, 40ms), clamped to at
    least 1ms), then types random 3-10 letter words with 10ms jitter around
    those means. Sentences carry 15-40 keys including separating spaces.

    The generator is drawn from once per word for its letters and once per
    sentence for its timings: hold and gap draws interleave key by key
    (hold_0, gap_0, hold_1, ...), each clamped to at least 1ms. The running
    sum of that series is each key's release (even terms) and the next key's
    press (odd terms); the first press is at 0.
    """
    if n_users < 2:
        raise ValueError("synth_corpus needs n_users >= 2 (impostor pairs require a second user)")
    if sentences_per_user < 1:
        raise ValueError("sentences_per_user must be >= 1")

    rng = np.random.default_rng(seed)
    users = []
    for u in range(n_users):
        hold_means = np.maximum(1.0, rng.normal(90.0, 25.0, size=len(_SLOT_KEYCODES)))
        gap_mean = max(1.0, rng.normal(120.0, 40.0))

        sentences = []
        for _ in range(sentences_per_user):
            target_keys = int(rng.integers(15, 31))
            pieces: list[np.ndarray] = []  # words and the spaces between them, as slots
            n_keys = 0
            while n_keys < target_keys:
                if pieces:
                    pieces.append(_SPACE_SLOT)
                    n_keys += 1
                word_len = int(rng.integers(3, 11))
                # one uniform letter slot per key: the stream of word_len rng.integers(26)
                pieces.append(1 + rng.integers(26, size=word_len))
                n_keys += word_len
            slots = np.concatenate(pieces)

            means = np.full(2 * n_keys, gap_mean)
            means[0::2] = hold_means[slots]
            times = np.cumsum(np.maximum(1.0, rng.normal(means, 10.0)))
            rows = np.empty((n_keys, 3))
            rows[:, KEY_COL] = _SLOT_KEYCODES[slots]
            rows[0, PRESS_COL] = 0.0
            rows[1:, PRESS_COL] = times[1:-1:2]
            rows[:, RELEASE_COL] = times[0::2]
            sentences.append(Sentence(rows))
        users.append(UserLog(user_id=f"u{u}", sentences=sentences))
    return Corpus(users=users)


# ---------------------------------------------------------------------------
# TSV ingestion / export
# ---------------------------------------------------------------------------


# Body lines ingest_log parses at once: a bound on the cell strings held together, and on
# the lines a block that fails reads again one at a time.
INGEST_BLOCK_LINES = 4096


def _parse_block(
    path: Path, lineno: int, lines: list[str], group_of: dict[tuple[str, str], int]
) -> tuple[np.ndarray, np.ndarray]:
    """Log body lines, the first at line number lineno, as (n, 3) [keycode, press, release] rows and group ids.

    Blank and whitespace-only lines carry nothing. Cells are split, parsed
    with int and float and checked in bulk. A line's group id is its
    (participant, sentence) key's in group_of, which numbers keys in order of
    first appearance across every block. A block that breaks a rule is read
    again through this parser one line at a time, and its first bad line
    raises the error that names it.
    """

    def reject(error: type[ValueError], problem: str) -> NoReturn:
        """Raise a one-line block's problem, naming its line; read a longer block again line by line."""
        if len(lines) == 1:
            raise error(f"{path}:{lineno}: {problem}")
        for i, line in enumerate(lines):
            if line.strip():
                _parse_block(path, lineno + i, [line], group_of)
        raise AssertionError(f"{path}:{lineno}: a block of valid lines was rejected")

    body = list(filter(str.strip, lines))
    n = len(body)
    if not n:
        return np.empty((0, 3)), np.empty(0, dtype=np.int64)
    # Joined with "\t\n", a line's first cell is the only one to start with "\n": every
    # line has 5 cells exactly when the first cells hold all n - 1 of them.
    cells = "\t\n".join(body).split("\t")
    pids = "".join(cells[0::5]).split("\n")
    if len(cells) != 5 * n or len(pids) != n:
        reject(ParseError, f"expected {len(TSV_COLUMNS)} columns, got {len(cells)}")
    try:
        keycodes = list(map(int, cells[2::5]))
    except ValueError:
        reject(ParseError, f"keycode {cells[2]!r} is not an integer")
    rows = np.empty((n, 3))
    try:
        rows[:, PRESS_COL] = np.fromiter(map(float, cells[3::5]), np.float64, n)
        rows[:, RELEASE_COL] = np.fromiter(map(float, cells[4::5]), np.float64, n)
    except ValueError:
        reject(ParseError, f"non-numeric time in {cells!r}")
    in_range = 0 <= min(keycodes) <= max(keycodes) <= 255  # compared as ints: any size is fine
    if in_range:
        rows[:, KEY_COL] = keycodes
    if not in_range or _bad_rows(rows).any():
        reject(ValidationError, str(_event_problem(keycodes[0], *rows[0, PRESS_COL:].tolist())))

    # the dict sees one key per run of equal keys
    sids = cells[1::5]
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (np.fromiter(map(operator.ne, pids[1:], pids[:-1]), bool, n - 1)
                   | np.fromiter(map(operator.ne, sids[1:], sids[:-1]), bool, n - 1))
    run_starts = np.flatnonzero(new_run)
    run_groups = [group_of.setdefault((pids[i], sids[i]), len(group_of)) for i in run_starts.tolist()]
    return rows, np.repeat(run_groups, np.diff(run_starts, append=n))


def ingest_log(path: str | Path) -> Corpus:
    """Read a keystroke TSV into a corpus, sorting each sentence by press time.

    The required header and column layout are PARTICIPANT_ID, SENTENCE_ID,
    KEYCODE, PRESS_TIME, RELEASE_TIME. Parse problems report the line number;
    events that violate invariants (release < press, duplicate press times)
    raise validation errors naming the offending event.

    The body is read in blocks of INGEST_BLOCK_LINES lines through one
    parser (_parse_block), so only one block's cells are held as strings at
    once; a block that fails is read again line by line to name its first bad
    line. Sentences are grouped by (participant, sentence) in order of first
    appearance and sorted stably by press time, as views into one array.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise ParseError(f"{path}: empty file, expected header row")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != TSV_COLUMNS:
        raise ParseError(f"{path}:1: bad header {header!r}, expected {TSV_COLUMNS!r}")

    group_of: dict[tuple[str, str], int] = {}
    blocks = [_parse_block(path, start + 1, lines[start : start + INGEST_BLOCK_LINES], group_of)
              for start in range(1, len(lines), INGEST_BLOCK_LINES)]
    if not group_of:
        return Corpus(users=[])
    rows, groups = map(np.concatenate, zip(*blocks))
    order = np.lexsort((rows[:, PRESS_COL], groups))  # stable: equal presses keep file order
    rows, groups = rows[order], groups[order]
    presses = rows[:, PRESS_COL]
    repeated = np.flatnonzero((presses[1:] <= presses[:-1]) & (groups[1:] == groups[:-1]))
    if repeated.size:
        i = repeated[0]
        pid, sid = list(group_of)[groups[i]]
        raise ValidationError(
            f"{path}: user {pid!r} sentence {sid!r}: non-increasing press time "
            f"{presses[i + 1].item()} after {presses[i].item()}"
        )

    rows.flags.writeable = False
    sentences = np.split(rows, np.cumsum(np.bincount(groups))[:-1])
    users: dict[str, list[Sentence]] = {}
    for (pid, _), sentence in zip(group_of, sentences):
        users.setdefault(pid, []).append(Sentence._of(sentence))
    return Corpus(users=[UserLog(user_id=pid, sentences=s) for pid, s in users.items()])


def export_log(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the same TSV layout ingest_log reads.

    Keycodes are written as ints and times by repr, so ingest_log reads back
    the same bits.
    """
    path = Path(path)
    lines = ["\t".join(TSV_COLUMNS)]
    for user in corpus.users:
        for s_index, sentence in enumerate(user.sentences):
            n = len(sentence)
            if n:
                lines.append("\n".join(map("\t".join, zip(
                    repeat(user.user_id, n), repeat(f"s{s_index}", n),
                    map(str, sentence.keycodes.astype(np.int64).tolist()),
                    map(repr, sentence.presses.tolist()), map(repr, sentence.releases.tolist())))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
