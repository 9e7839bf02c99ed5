import numpy as np
import pytest
from hypothesis import given, strategies as st

from keyforge.embedding import EMBED_DIM, embed_word

words = st.text(
    alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
    min_size=1,
    max_size=15,
)


def test_deterministic():
    assert np.array_equal(embed_word("hello"), embed_word("hello"))


@given(words)
def test_unit_norm(text):
    assert abs(np.linalg.norm(embed_word(text)) - 1.0) < 1e-6
    assert embed_word(text).shape == (EMBED_DIM,)


def test_position_weighting_breaks_anagram_symmetry():
    assert not np.allclose(embed_word("ab"), embed_word("ba"))


def test_near_spelling_is_closer_than_far():
    # both embeddings are unit vectors, so the dot product is the cosine
    close = float(embed_word("hello") @ embed_word("hellp"))
    far = float(embed_word("hello") @ embed_word("zzzzz"))
    assert close > far


def test_single_char_change_moves_embedding():
    base = embed_word("password")
    for i in range(len("password")):
        mutated = "password"[:i] + "q" + "password"[i + 1 :]
        if mutated != "password":
            assert np.linalg.norm(embed_word(mutated) - base) > 1e-6


def test_rejects_empty_and_long_text():
    with pytest.raises(ValueError):
        embed_word("")
    with pytest.raises(ValueError):
        embed_word("a" * 16)


def test_rejects_non_byte_characters():
    with pytest.raises(ValueError):
        embed_word("hሴllo")


def test_injective_on_random_vocabulary():
    rng = np.random.default_rng(42)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    vocab = set()
    while len(vocab) < 1000:
        n = int(rng.integers(3, 11))
        vocab.add("".join(rng.choice(letters, size=n)))
    embeddings = np.stack([embed_word(w) for w in sorted(vocab)])
    # unit vectors: squared distance = 2 - 2 cos
    gram = embeddings @ embeddings.T
    np.fill_diagonal(gram, -1.0)
    min_dist = np.sqrt(max(0.0, 2.0 - 2.0 * float(gram.max())))
    assert min_dist > 1e-3


def test_cached_result_equals_fresh_computation():
    first = embed_word("cache")
    assert embed_word("cache") is first
    assert np.array_equal(first, embed_word.__wrapped__("cache"))


def test_cached_result_is_read_only():
    vec = embed_word("frozen")
    with pytest.raises(ValueError):
        vec[0] = 1.0
    assert np.array_equal(embed_word("frozen"), embed_word.__wrapped__("frozen"))
