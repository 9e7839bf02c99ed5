"""Reconstruction of verifier-ready sequences from generated word samples.

Word samples carry no cross-word timing (terminal rows are zero by
convention), so stitching rebuilds an absolute-time event stream: presses
advance by each word's press-to-press latencies, and one synthetic space key
joins consecutive words with hold/gap times drawn from a space model fitted to
the target user's real spaces. Features are then re-extracted over the whole
stream, which makes cross-word latencies consistent by construction.

Two word-ordering conditions are supported: "ordered" keeps the single-user
corpus order, "random" applies a seeded permutation. Latent draws are keyed to
the word multiset rather than plan position, so the two conditions generate
identical per-word cells and differ only in arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    COL_HL,
    COL_KEYCODE,
    COL_PL,
    KeyEvent,
    SPACE_KEYCODE,
    T_MAX_SECONDS,
    WORD_LEN,
    WordSample,
)
from .gan import GanBundle, generate_word

if TYPE_CHECKING:
    from .config import AttackSection

CONDITIONS = ("ordered", "random")

ATTACKER_ID = "attacker"

_MIN_GAP_MS = 1.0


@dataclass(frozen=True)
class SpaceModel:
    """Gaussian timing model for synthesized space keys, in seconds."""

    hold_mean: float
    hold_std: float
    gap_mean: float
    gap_std: float


def fit_space_model(sentences: list[list[KeyEvent]], fallback: SpaceModel) -> SpaceModel:
    """Estimate space-key hold and surrounding-gap statistics from real typing.

    Pre- and post-space gaps are pooled into one distribution. Returns
    fallback when the sentences contain no space keys.
    """
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
    if not holds or not gaps:
        return fallback
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


def _sample_ms(rng: np.random.Generator, mean_s: float, std_s: float) -> float:
    return max(rng.normal(mean_s, std_s) * 1000.0, _MIN_GAP_MS)


def stitch_events(
    words: list[WordSample], space_model: SpaceModel, rng: np.random.Generator
) -> list[KeyEvent]:
    """Integrate word samples into one absolute-time event stream with spaces.

    Within a word, presses advance by the press-to-press latency (floored at
    1ms so the stream stays strictly press-monotone even for degenerate
    generator output); between words a space key is inserted with sampled
    hold and pre/post gaps. Keycode cells round to the nearest code in 0..255.
    """
    if not words:
        raise ValueError("stitch needs at least one word sample")
    events: list[KeyEvent] = []
    clock = 0.0  # next press time, ms
    for w_index, word in enumerate(words):
        if w_index > 0:
            pre_gap = _sample_ms(rng, space_model.gap_mean, space_model.gap_std)
            hold = _sample_ms(rng, space_model.hold_mean, space_model.hold_std)
            post_gap = _sample_ms(rng, space_model.gap_mean, space_model.gap_std)
            press = events[-1].release_time + pre_gap
            events.append(KeyEvent(SPACE_KEYCODE, press, press + hold))
            clock = press + hold + post_gap
        cells = word.matrix[: word.valid_len]
        holds = ((cells[:, COL_HL] * T_MAX_SECONDS) * 1000.0).tolist()
        steps = ((cells[:, COL_PL] * T_MAX_SECONDS) * 1000.0).tolist()
        keycodes = np.clip(np.rint(cells[:, COL_KEYCODE] * 255.0), 0, 255).astype(int).tolist()
        press = clock
        for i, (keycode, hold_ms) in enumerate(zip(keycodes, holds)):
            events.append(KeyEvent(keycode, press, press + hold_ms))
            if i + 1 < len(holds):
                press += max(steps[i], _MIN_GAP_MS)
    return events


def _generate_plan_samples(
    bundle: GanBundle, word_plan: list[str], rng: np.random.Generator
) -> list[WordSample]:
    """Generate one sample per planned word, with latents keyed to the multiset.

    Words are generated in canonical (sorted, occurrence-stable) order so that
    two plans over the same multiset consume identical latent draws per word.
    """
    samples: list[WordSample | None] = [None] * len(word_plan)
    canonical = sorted(range(len(word_plan)), key=lambda i: (word_plan[i], i))
    for i in canonical:
        samples[i] = generate_word(bundle, word_plan[i], rng)
    return samples  # type: ignore[return-value]


def build_attack_stream(
    bundle: GanBundle,
    word_plan: list[str],
    config: AttackSection,
    space_model: SpaceModel,
    rng: np.random.Generator,
) -> list[KeyEvent]:
    """Generate and stitch enough events to window config.n_sequences full sequences.

    The plan repeats, with fresh latents per pass, until the stream is long
    enough.
    """
    if not word_plan:
        raise ValueError("empty word plan")
    needed_rows = config.n_sequences * WORD_LEN
    words: list[WordSample] = []
    # stitched rows: every word's keys plus one space between consecutive words
    while sum(w.valid_len for w in words) + len(words) - 1 < needed_rows:
        words.extend(_generate_plan_samples(bundle, word_plan, rng))
    return stitch_events(words, space_model, rng)
