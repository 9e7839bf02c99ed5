"""Deterministic 100-d conditioning vectors for word text.

Every byte value owns a fixed unit vector drawn from a generator seeded by
(EMBED_SEED, code), so the table is reproducible across processes with no
stored artifact. A word embeds as the position-discounted sum of its character
vectors, renormalized to unit length: weight 1/(1+i) at position i breaks
anagram symmetry while keeping near-identical spellings nearby.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

EMBED_DIM = 100
EMBED_SEED = 0x5EED
MAX_WORD_LEN = 15


def _build_char_table() -> np.ndarray:
    table = np.empty((256, EMBED_DIM), dtype=np.float64)
    for code in range(256):
        rng = np.random.default_rng((EMBED_SEED, code))
        vec = rng.standard_normal(EMBED_DIM)
        table[code] = vec / np.linalg.norm(vec)
    return table


_CHAR_VECTORS = _build_char_table()


@lru_cache(maxsize=None)
def embed_word(text: str) -> np.ndarray:
    """Map 1-15 characters of text to a unit-norm 100-d conditioning vector.

    Computed once per distinct text; every later call returns the same
    read-only array.
    """
    if not 1 <= len(text) <= MAX_WORD_LEN:
        raise ValueError(f"text length {len(text)} outside 1..{MAX_WORD_LEN}")
    codes = [ord(ch) for ch in text]
    if any(c > 255 for c in codes):
        raise ValueError(f"non-byte character in {text!r}")
    vec = np.zeros(EMBED_DIM, dtype=np.float64)
    for i, code in enumerate(codes):
        vec += _CHAR_VECTORS[code] / (1.0 + i)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:  # cannot occur for random character vectors; guards table edits
        raise ValueError(f"degenerate embedding for {text!r}")
    out = vec / norm
    out.flags.writeable = False
    return out
