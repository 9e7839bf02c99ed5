"""Reconstruction of verifier-ready sequences from generated word samples.

Word samples carry no cross-word timing (terminal rows are zero by
convention), so stitching rebuilds an absolute-time event stream: presses
advance by each word's press-to-press latencies, and one synthetic space key
joins consecutive words with hold/gap times drawn from a space model fitted to
the target user's real spaces. Features are then re-extracted over the whole
stream, which makes cross-word latencies consistent by construction. A word
set is its texts plus one (n, 15, 5) array, as data.words_from_corpus gives.

Two word-ordering conditions are supported: "ordered" keeps the single-user
corpus order, "random" applies a seeded permutation. Latent draws are keyed to
the word multiset rather than plan position, so the two conditions generate
identical per-word cells and differ only in arrangement.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    COL_HL,
    COL_KEYCODE,
    COL_PL,
    KEY_COL,
    N_FEATURES,
    PRESS_COL,
    RELEASE_COL,
    SPACE_KEYCODE,
    T_MAX_SECONDS,
    WORD_LEN,
    Sentence,
)
from .gan import GanBundle, generate_word, word_tables

if TYPE_CHECKING:
    from .config import AttackSection

CONDITIONS = ("ordered", "random")

ATTACKER_ID = "attacker"

_MIN_GAP_MS = 1.0


class NonFiniteSampleError(ValueError):
    """The generator maps some planned word to a NaN or infinite cell."""


@dataclass(frozen=True)
class SpaceModel:
    """Gaussian timing model for synthesized space keys, in seconds."""

    hold_mean: float
    hold_std: float
    gap_mean: float
    gap_std: float


def fit_space_model(sentences: Sequence[Sentence], fallback: SpaceModel) -> SpaceModel:
    """Estimate space-key hold and surrounding-gap statistics from real typing.

    Pre- and post-space gaps are pooled into one distribution, space by space
    in sentence order (each space's gap before it, then after it). A hold or gap
    counts as at most T_MAX_SECONDS, as in the features, so finite times give a
    finite model. Returns fallback when the sentences contain no space keys.
    """
    holds, gaps = [], []
    for sentence in sentences:
        press, release = sentence.presses, sentence.releases
        at = np.flatnonzero(sentence.keycodes == SPACE_KEYCODE)
        holds.append((release[at] - press[at]) / 1000.0)
        # one (before, after) pair per space; a space that starts or ends the sentence lacks one
        has = np.column_stack([at > 0, at + 1 < len(sentence)])
        pair = np.zeros(has.shape)
        pair[has[:, 0], 0] = (press[at[has[:, 0]]] - release[at[has[:, 0]] - 1]) / 1000.0
        pair[has[:, 1], 1] = (press[at[has[:, 1]] + 1] - release[at[has[:, 1]]]) / 1000.0
        gaps.append(pair[has])
    holds = np.concatenate(holds) if holds else np.empty(0)
    gaps = np.concatenate(gaps) if gaps else np.empty(0)
    if not holds.size or not gaps.size:
        return fallback
    holds, gaps = np.clip(holds, 0.0, T_MAX_SECONDS), np.clip(gaps, -T_MAX_SECONDS, T_MAX_SECONDS)
    return SpaceModel(
        hold_mean=float(np.mean(holds)),
        hold_std=float(np.std(holds)),
        gap_mean=float(np.mean(gaps)),
        gap_std=float(np.std(gaps)),
    )


def plan_words(corpus_words: list[str], condition: str, rng: np.random.Generator) -> list[str]:
    """Word order for one reconstruction pass: identity or a seeded permutation."""
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}, got {condition!r}")
    if not corpus_words:
        raise ValueError("cannot plan an attack over an empty word list")
    if condition == "ordered":
        return list(corpus_words)
    return [corpus_words[i] for i in rng.permutation(len(corpus_words))]


def stitch_events(
    texts: list[str], matrices: np.ndarray, space_model: SpaceModel, rng: np.random.Generator
) -> Sentence:
    """Integrate words (word i: the first len(texts[i]) rows of matrices[i]) into one stream with spaces.

    Within a word, presses advance by the press-to-press latency (floored at
    1ms so the stream stays strictly press-monotone even for degenerate
    generator output); between words a space key is inserted with sampled
    hold and pre/post gaps. Keycode cells round to the nearest code in 0..255.

    Each boundary draws its pre-gap, hold and post-gap in turn, floored at
    1ms. The clock runs as one left-to-right sum: from a word's first press
    by its steps to its last press, then by that key's hold to its release,
    by the pre-gap to the space's press, by the space's hold to its release,
    and by the post-gap to the next word's first press.
    """
    if not texts:
        raise ValueError("stitch needs at least one word sample")
    n_words = len(texts)
    lens = np.fromiter(map(len, texts), np.int64, n_words)
    cells = matrices[np.arange(WORD_LEN) < lens[:, None]]
    holds = (cells[:, COL_HL] * T_MAX_SECONDS) * 1000.0
    steps = np.maximum((cells[:, COL_PL] * T_MAX_SECONDS) * 1000.0, _MIN_GAP_MS)
    n_spaces = n_words - 1
    m = space_model
    draws = rng.normal(np.tile([m.gap_mean, m.hold_mean, m.gap_mean], n_spaces),
                       np.tile([m.gap_std, m.hold_std, m.gap_std], n_spaces))
    pre_gap, space_hold, post_gap = np.maximum(draws * 1000.0, _MIN_GAP_MS).reshape(-1, 3).T

    # clock slots per word: its presses, its last release, then the space's press and release
    first_slot = np.zeros(n_words, dtype=np.int64)
    first_slot[1:] = np.cumsum(lens[:-1] + 3)
    key_word = np.repeat(np.arange(n_words), lens)
    key_slot = np.arange(len(cells)) + first_slot[key_word] - (np.cumsum(lens) - lens)[key_word]
    last_slot = first_slot + lens  # the last key's release
    steps_in = np.empty(last_slot[-1] + 1)
    steps_in[0] = 0.0
    steps_in[key_slot[1:]] = steps[:-1]
    steps_in[first_slot[1:]] = post_gap
    steps_in[last_slot] = holds[np.cumsum(lens) - 1]
    steps_in[last_slot[:-1] + 1] = pre_gap
    steps_in[last_slot[:-1] + 2] = space_hold
    clock = np.cumsum(steps_in)

    rows = np.empty((len(cells) + n_spaces, 3))
    key_rows = np.arange(len(cells)) + key_word
    rows[key_rows, KEY_COL] = np.clip(np.rint(cells[:, COL_KEYCODE] * 255.0), 0, 255)
    rows[key_rows, PRESS_COL] = clock[key_slot]
    rows[key_rows, RELEASE_COL] = clock[key_slot] + holds
    space_rows = np.cumsum(lens)[:-1] + np.arange(n_spaces)
    rows[space_rows, KEY_COL] = SPACE_KEYCODE
    rows[space_rows, PRESS_COL] = clock[last_slot[:-1] + 1]
    rows[space_rows, RELEASE_COL] = clock[last_slot[:-1] + 2]
    return Sentence(rows)


def build_attack_stream(
    bundle: GanBundle,
    word_plan: list[str],
    config: AttackSection,
    space_model: SpaceModel,
    rng: np.random.Generator,
) -> Sentence:
    """Generate and stitch enough events to window config.n_sequences full sequences.

    The plan's word tables are built once; the plan repeats, with fresh
    latents per pass, until the stream is long enough. A generator that gives
    a NaN or infinite cell, as overflowing weights do, raises
    NonFiniteSampleError; the overflow itself stays silent.
    """
    if not word_plan:
        raise ValueError("empty word plan")
    # p passes stitch p * (letters + words) - 1 rows; take the fewest that reach the rows needed
    per_pass = sum(map(len, word_plan)) + len(word_plan)
    passes = (config.n_sequences * WORD_LEN + per_pass) // per_pass
    # canonical (sorted, occurrence-stable) order: plans over one multiset draw equal latents per word
    canonical = sorted(range(len(word_plan)), key=lambda i: (word_plan[i], i))
    tables = word_tables(word_plan)
    rows = [tuple(table[i : i + 1] for table in tables) for i in range(len(word_plan))]
    matrices = np.empty((passes, len(word_plan), WORD_LEN, N_FEATURES))
    with np.errstate(all="ignore"):
        for p in range(passes):
            for i in canonical:
                matrices[p, i] = generate_word(bundle, rows[i], rng)
    matrices = matrices.reshape(-1, WORD_LEN, N_FEATURES)
    bad = np.flatnonzero(~np.isfinite(matrices).all(axis=(1, 2)))
    if bad.size:
        raise NonFiniteSampleError(
            f"generator gives non-finite cells for {bad.size} of {len(matrices)} planned words, "
            f"first for {word_plan[bad[0] % len(word_plan)]!r}")
    return stitch_events(word_plan * passes, matrices, space_model, rng)
