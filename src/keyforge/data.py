"""Keystroke logs, latency features, word samples, and synthetic corpora.

Raw key events carry millisecond press/release timestamps; extracted feature
rows are in seconds. Normalized matrices scale hold/press/release latencies by
a fixed 5-second ceiling (inter-key latency symmetrically, since key rollover
makes it negative) and keycodes by 255, so model outputs stay interpretable
without any per-dataset statistics.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T_MAX_SECONDS = 5.0
SPACE_KEYCODE = 32
WORD_LEN = 15
N_FEATURES = 5

COL_HL, COL_IL, COL_PL, COL_RL, COL_KEYCODE = range(N_FEATURES)

TSV_COLUMNS = ("PARTICIPANT_ID", "SENTENCE_ID", "KEYCODE", "PRESS_TIME", "RELEASE_TIME")


class ParseError(ValueError):
    """A log row the TSV reader cannot interpret."""


class ValidationError(ValueError):
    """Structurally readable data that violates a corpus invariant."""


@dataclass(frozen=True)
class KeyEvent:
    """One keystroke: ASCII keycode plus press/release times in milliseconds."""

    keycode: int
    press_time: float
    release_time: float

    def __post_init__(self):
        if not 0 <= self.keycode <= 255:
            raise ValidationError(f"keycode {self.keycode} outside 0..255")
        if not (math.isfinite(self.press_time) and math.isfinite(self.release_time)):
            raise ValidationError(
                f"non-finite timestamp on keycode {self.keycode}: "
                f"press={self.press_time}, release={self.release_time}"
            )
        if self.press_time < 0 or self.release_time < 0:
            raise ValidationError(
                f"negative timestamp on keycode {self.keycode}: "
                f"press={self.press_time}, release={self.release_time}"
            )
        if self.release_time < self.press_time:
            raise ValidationError(
                f"release before press on keycode {self.keycode}: "
                f"press={self.press_time}, release={self.release_time}"
            )


@dataclass(frozen=True)
class WordSample:
    """A single word as a 15x5 normalized matrix, zero-padded past its text's length."""

    text: str
    matrix: np.ndarray

    @property
    def valid_len(self) -> int:
        return len(self.text)


@dataclass
class UserLog:
    user_id: str
    sentences: list[list[KeyEvent]]


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


def extract_features(events: list[KeyEvent]) -> np.ndarray:
    """Derive the (n, 5) [hl, il, pl, rl, keycode] array (seconds) from press-sorted events.

    Row i uses events i and i+1: hl = release-press of the same key, il = next
    press minus current release (negative under rollover), pl = press-to-press,
    rl = release-to-release. The terminal row keeps il = pl = rl = 0 so it
    merges cleanly with zero padding.
    """
    if not events:
        raise ValueError("extract_features requires at least one event")
    raw = np.array([(ev.press_time, ev.release_time, ev.keycode) for ev in events], dtype=np.float64)
    press, release = raw[:, 0], raw[:, 1]
    out = np.zeros((len(events), N_FEATURES), dtype=np.float64)
    out[:, COL_HL] = (release - press) / 1000.0
    out[:-1, COL_IL] = (press[1:] - release[:-1]) / 1000.0
    out[:-1, COL_PL] = (press[1:] - press[:-1]) / 1000.0
    out[:-1, COL_RL] = (release[1:] - release[:-1]) / 1000.0
    out[:, COL_KEYCODE] = raw[:, 2]
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


# a maximal run of keys other than the space key, over a sentence's chr(keycode) string
_WORD_RUN = re.compile(f"[^{chr(SPACE_KEYCODE)}]+")


def words_from_sentence(events: list[KeyEvent]) -> list[WordSample]:
    """Split a sentence on the space key into fixed-size word samples.

    Each maximal non-space run becomes one sample; runs longer than 15 keys
    are truncated to their first 15. The sentence is featurized once: a
    word's rows are the sentence rows of its keys, and its last row's IL, PL
    and RL are set to 0 as extract_features would over the word alone, so the
    terminal-row zeros never leak cross-word timing. Rows past the word's
    length stay zero.
    """
    text = "".join([chr(ev.keycode) for ev in events])
    spans = [match.span() for match in _WORD_RUN.finditer(text)]
    if not spans:
        return []
    rows = normalize(extract_features(events))
    matrices = np.zeros((len(spans), WORD_LEN, N_FEATURES))
    samples = []
    for matrix, (start, end) in zip(matrices, spans):
        n = min(end - start, WORD_LEN)
        matrix[:n] = rows[start : start + n]
        matrix[n - 1, COL_IL:COL_KEYCODE] = 0.0
        samples.append(WordSample(text=text[start : start + n], matrix=matrix))
    return samples


def words_from_corpus(user: UserLog) -> list[WordSample]:
    """All of one user's word samples in corpus order."""
    out: list[WordSample] = []
    for sentence in user.sentences:
        out.extend(words_from_sentence(sentence))
    return out


def slice_windows(rows: np.ndarray, width: int = WORD_LEN) -> list[np.ndarray]:
    """Non-overlapping width-row windows; the trailing remainder is dropped."""
    n = rows.shape[0] // width
    return [rows[i * width : (i + 1) * width].copy() for i in range(n)]


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
            presses = [0.0, *times[1:-1:2].tolist()]
            sentences.append([
                KeyEvent(keycode=kc, press_time=press, release_time=release)
                for kc, press, release in zip(
                    _SLOT_KEYCODES[slots].tolist(), presses, times[0::2].tolist()
                )
            ])
        users.append(UserLog(user_id=f"u{u}", sentences=sentences))
    return Corpus(users=users)


# ---------------------------------------------------------------------------
# TSV ingestion / export
# ---------------------------------------------------------------------------


def ingest_log(path: str | Path) -> Corpus:
    """Read a keystroke TSV into a corpus, sorting each sentence by press time.

    The required header and column layout are PARTICIPANT_ID, SENTENCE_ID,
    KEYCODE, PRESS_TIME, RELEASE_TIME. Parse problems report the line number;
    events that violate invariants (release < press, duplicate press times)
    raise validation errors naming the offending event.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected header row")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != TSV_COLUMNS:
        raise ParseError(f"{path}:1: bad header {header!r}, expected {TSV_COLUMNS!r}")

    grouped: dict[tuple[str, str], list[KeyEvent]] = {}
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

    users: dict[str, UserLog] = {}
    for (pid, sid), events in grouped.items():
        events.sort(key=lambda ev: ev.press_time)
        for a, b in zip(events, events[1:]):
            if b.press_time <= a.press_time:
                raise ValidationError(
                    f"{path}: user {pid!r} sentence {sid!r}: non-increasing press time "
                    f"{b.press_time} after {a.press_time}"
                )
        users.setdefault(pid, UserLog(user_id=pid, sentences=[])).sentences.append(events)
    return Corpus(users=list(users.values()))


def export_log(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the same TSV layout ingest_log reads."""
    path = Path(path)
    lines = ["\t".join(TSV_COLUMNS)]
    for user in corpus.users:
        for s_index, sentence in enumerate(user.sentences):
            sid = f"s{s_index}"
            for ev in sentence:
                lines.append(
                    f"{user.user_id}\t{sid}\t{ev.keycode}\t{ev.press_time!r}\t{ev.release_time!r}"
                )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
