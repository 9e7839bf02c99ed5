import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from keyforge import gan
from keyforge.data import COL_KEYCODE, WORD_LEN, WordSample, synth_corpus, words_from_corpus
from keyforge.embedding import embed_word
from keyforge.nn import AdamState, CheckpointVersionError, NetworkParams


@pytest.fixture(scope="module")
def bundle():
    return gan.new_bundle(3)


@pytest.fixture(scope="module")
def corpus_words():
    corpus = synth_corpus(3, 4, 17)
    return words_from_corpus(corpus.users[0])


def constant_words(cell_value, texts, rng=None):
    """Word samples whose timing cells all equal cell_value."""
    words = []
    for text in texts:
        matrix = np.zeros((WORD_LEN, 5))
        n = len(text)
        matrix[:n, :4] = cell_value
        matrix[:n, COL_KEYCODE] = [ord(c) / 255.0 for c in text]
        words.append(WordSample(text=text, matrix=matrix))
    return words


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_word_padding_and_ranges(bundle, rng):
    word = gan.generate_word(bundle, "hello", rng)
    assert word.valid_len == 5
    assert np.all(word.matrix[5:] == 0.0)
    valid = word.matrix[:5]
    assert np.all(valid[:, :4] >= -1.0) and np.all(valid[:, :4] <= 1.0)
    assert np.all(valid >= -1.0) and np.all(valid <= 1.0)


def test_generate_word_keycode_column_is_exact(bundle, rng):
    word = gan.generate_word(bundle, "abc", rng)
    expected = np.array([ord(c) / 255.0 for c in "abc"])
    assert np.array_equal(word.matrix[:3, COL_KEYCODE], expected)


def test_generate_word_rng_changes_timing_not_keycodes(bundle):
    a = gan.generate_word(bundle, "hello", np.random.default_rng(1))
    b = gan.generate_word(bundle, "hello", np.random.default_rng(2))
    assert not np.array_equal(a.matrix[:5, :4], b.matrix[:5, :4])
    assert np.array_equal(a.matrix[:, COL_KEYCODE], b.matrix[:, COL_KEYCODE])


def test_generate_word_rejects_bad_text(bundle, rng):
    with pytest.raises(ValueError):
        gan.generate_word(bundle, "", rng)
    with pytest.raises(ValueError):
        gan.generate_word(bundle, "x" * 16, rng)


def test_discriminate_in_unit_interval_and_deterministic(bundle, rng):
    word = gan.generate_word(bundle, "hello", rng)
    flat = word.matrix.reshape(1, -1)
    cond = embed_word("hello")[None, :]
    p1 = gan._scores(bundle, flat, cond)
    p2 = gan._scores(bundle, flat, cond)
    assert p1.shape == (1,)
    assert 0.0 < p1[0] < 1.0
    assert np.array_equal(p1, p2)


def test_discriminate_rejects_bad_shapes(bundle, rng):
    word = gan.generate_word(bundle, "hello", rng)
    with pytest.raises(ValueError):
        gan._scores(bundle, word.matrix.reshape(1, -1), np.ones((1, 5)))
    with pytest.raises(ValueError):
        gan._scores(bundle, np.zeros((1, 15)), embed_word("x")[None, :])


def test_postprocess_matches_per_text_loop(rng):
    texts = ["a", "hello", "x" * 15, "hello", "typing"]
    raw = rng.uniform(size=(len(texts), gan.GEN_OUT_DIM))
    mats = raw.reshape(-1, WORD_LEN, 5).copy()
    mask = np.zeros_like(mats)
    for i, text in enumerate(texts):
        n = len(text)
        mats[i, n:, :] = 0.0
        mats[i, :n, COL_KEYCODE] = [ord(ch) / 255.0 for ch in text]
        mask[i, :n, :] = 1.0
        mask[i, :, COL_KEYCODE] = 0.0
    flat, got_mask = gan._postprocess(raw, texts)
    assert np.array_equal(flat, mats.reshape(len(texts), -1))
    assert np.array_equal(got_mask, mask.reshape(len(texts), -1))
    flat[:] = -1.0  # the outputs are fresh arrays; the per-text layout cache is untouched
    assert np.array_equal(gan._postprocess(raw, texts)[0], mats.reshape(len(texts), -1))


def test_bundle_validates_dimensions():
    good = gan.new_bundle(0)
    with pytest.raises(ValueError):
        gan.GanBundle(generator=good.discriminator, discriminator=good.discriminator, seed=0)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_epoch_reproducible(corpus_words):
    def run():
        b = gan.new_bundle(5)
        d_state = AdamState.for_params(b.discriminator, lr=1e-4)
        g_state = AdamState.for_params(b.generator, lr=1e-3)
        stats = []
        rng = np.random.default_rng(5)
        for _ in range(3):
            b, s = gan.train_epoch(b, corpus_words, 16, rng, d_state, g_state)
            stats.append(s)
        return b, stats

    b1, stats1 = run()
    b2, stats2 = run()
    assert stats1 == stats2
    for w1, w2 in zip(b1.generator.weights, b2.generator.weights):
        assert np.array_equal(w1, w2)


def test_train_epoch_single_sample_is_finite(corpus_words, rng):
    b = gan.new_bundle(6)
    b, stats = gan.train_epoch(b, corpus_words[:1], 32, rng)
    assert np.isfinite(stats["d_loss"]) and np.isfinite(stats["g_loss"])


def test_train_epoch_rejects_empty_inputs(rng):
    b = gan.new_bundle(7)
    with pytest.raises(ValueError):
        gan.train_epoch(b, [], 32, rng)


def test_discriminator_learns_separable_data(rng):
    """Frozen generator vs discriminator on trivially separable cells.

    Real words sit at 0.9, the frozen generator emits 0.1 everywhere, so 200
    epochs of discriminator-only training must classify both sides >= 0.95.
    """
    texts = ["hello", "world", "stream", "typing"] * 8
    words = constant_words(0.9, texts)
    bundle = gan.new_bundle(8)
    # force the generator output to sigmoid(-2.1972) ~= 0.1 and freeze it via lr=0
    last = bundle.generator.weights[-1]
    last[:] = 0.0
    bundle.generator.biases[-1][:] = np.log(0.1 / 0.9)
    d_state = AdamState.for_params(bundle.discriminator, lr=1e-3, beta1=0.5)
    g_state = AdamState.for_params(bundle.generator, lr=0.0)
    for _ in range(200):
        bundle, stats = gan.train_epoch(bundle, words, 32, rng, d_state, g_state)
    assert stats["d_real_acc"] >= 0.95
    assert stats["d_fake_acc"] >= 0.95


# ---------------------------------------------------------------------------
# stopping rule
# ---------------------------------------------------------------------------


def test_subset_accuracy_tie_counts_as_synthetic():
    real_acc, fake_acc = gan.subset_accuracies(np.full(32, 0.5), np.full(32, 0.5))
    assert real_acc == 0.0
    assert fake_acc == 1.0


def test_stop_decision_constant_half_discriminator():
    stop, details = gan.stop_decision([0.0] * 5, [1.0] * 5)
    assert not stop
    assert details["real_mean"] == 0.0 and details["fake_mean"] == 1.0


def test_stop_decision_oracle_discriminator():
    real_accs, fake_accs = [], []
    for _ in range(5):
        r, f = gan.subset_accuracies(np.ones(32), np.zeros(32))
        real_accs.append(r)
        fake_accs.append(f)
    stop, _ = gan.stop_decision(real_accs, fake_accs)
    assert stop


def test_stop_decision_requires_both_sides():
    stop, _ = gan.stop_decision([0.9] * 5, [0.8] * 5)
    assert not stop
    stop, _ = gan.stop_decision([0.8] * 5, [0.9] * 5)
    assert not stop
    stop, _ = gan.stop_decision([0.85] * 5, [0.85] * 5)
    assert stop


def test_stop_check_constant_half_discriminator_end_to_end(corpus_words, rng):
    bundle = gan.new_bundle(9)
    for w in bundle.discriminator.weights:
        w[:] = 0.0
    for b in bundle.discriminator.biases:
        b[:] = 0.0
    stop, details = gan.stop_check(bundle, corpus_words, rng)
    assert not stop
    assert details["real_mean"] == 0.0
    assert details["fake_mean"] == 1.0


def test_stop_check_samples_with_replacement_when_short(rng):
    bundle = gan.new_bundle(10)
    stop, details = gan.stop_check(bundle, constant_words(0.5, ["ab"]), rng)
    assert len(details["real_accuracies"]) == 5


# ---------------------------------------------------------------------------
# full training loop
# ---------------------------------------------------------------------------


def test_train_stops_early_on_easy_data(rng):
    """Far-apart real data lets the discriminator pass the criterion quickly."""
    texts = ["hello", "world", "stream", "typing"] * 8
    words = constant_words(0.9, texts)
    cfg = gan.GanTrainConfig(max_epochs=60, check_interval=5, batch_size=16,
                             g_lr=1e-4, d_lr=5e-3)
    bundle = gan.train(gan.new_bundle(11), words, cfg, rng)
    assert bundle.converged
    assert bundle.epochs_trained % cfg.check_interval == 0
    assert bundle.history[-1]["stop"] is True
    assert bundle.history[-1]["epoch"] == bundle.epochs_trained


def test_train_flags_not_converged_at_max_epochs(corpus_words, rng):
    cfg = gan.GanTrainConfig(max_epochs=6, check_interval=2, batch_size=16,
                             g_lr=1e-4, d_lr=1e-6, stop_threshold=1.01)
    bundle = gan.train(gan.new_bundle(12), corpus_words, cfg, rng)
    assert not bundle.converged
    assert bundle.epochs_trained == 6
    assert len(bundle.history) == 3  # checks at epochs 2, 4, 6


def test_train_history_length_is_epochs_over_interval(corpus_words, rng):
    cfg = gan.GanTrainConfig(max_epochs=7, check_interval=3, batch_size=16,
                             g_lr=1e-4, d_lr=1e-6, stop_threshold=1.01)
    bundle = gan.train(gan.new_bundle(13), corpus_words, cfg, rng)
    assert len(bundle.history) == 2  # checks at epochs 3 and 6


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_bundle_save_load_round_trip(tmp_path, corpus_words, rng):
    bundle = gan.new_bundle(14)
    bundle.epochs_trained = 5
    bundle.converged = True
    gan.save_bundle(bundle, tmp_path)
    loaded = gan.load_bundle(tmp_path)
    assert loaded.seed == 14
    assert loaded.epochs_trained == 5
    assert loaded.converged
    for a, b in zip(loaded.generator.weights, bundle.generator.weights):
        assert np.array_equal(a, b)
    word_a = gan.generate_word(bundle, "same", np.random.default_rng(0))
    word_b = gan.generate_word(loaded, "same", np.random.default_rng(0))
    assert np.array_equal(word_a.matrix, word_b.matrix)


def test_bundle_load_rejects_foreign_embed_seed(tmp_path):
    import json

    bundle = gan.new_bundle(15)
    gan.save_bundle(bundle, tmp_path)
    doc = json.loads((tmp_path / "generator.json").read_text())
    doc["embed_seed"] = 123
    (tmp_path / "generator.json").write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError):
        gan.load_bundle(tmp_path)


# sha256 over the generator's weights then biases, then the discriminator's, after
# 3 epochs at default shapes (600->512->512->75, 175->256->128->1) on the
# default corpus's u0 words. The float bits depend on the BLAS thread count,
# so the run pins one thread in a fresh interpreter.
DEFAULT_SHAPE_GAN_SHA256 = "ec4124f61d1ebd08ec712e4a44913e805db77f59d2292f7d68fac2121bac5e39"

_DEFAULT_SHAPE_SCRIPT = """
import hashlib
import numpy as np
from keyforge import gan
from keyforge.config import RunConfig
from keyforge.data import words_from_corpus
from keyforge.pipeline import build_corpus

words = words_from_corpus(build_corpus(RunConfig()).get("u0"))
g = gan.GanTrainConfig(max_epochs=3, check_interval=2)
bundle = gan.train(gan.new_bundle(9, g), words, g, np.random.default_rng(9))
h = hashlib.sha256()
for net in (bundle.generator, bundle.discriminator):
    for array in net.weights + net.biases:
        h.update(array.tobytes())
print(len(words), len(bundle.history), h.hexdigest())
"""


def test_default_shape_gan_weights_are_pinned():
    src = str(Path(gan.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _DEFAULT_SHAPE_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["54", "1", DEFAULT_SHAPE_GAN_SHA256]
