import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from keyforge import gan, nn
from keyforge.data import COL_KEYCODE, WORD_LEN, synth_corpus, words_from_corpus
from keyforge.embedding import embed_word
from keyforge.nn import (
    AdamState,
    CheckpointShapeError,
    CheckpointVersionError,
    CorruptCheckpointError,
    LayerSpec,
    NetworkParams,
)
from test_nn import copy_of, max_relative_error, numeric_gradients


DEFAULT = gan.GanTrainConfig()


@pytest.fixture(scope="module")
def bundle():
    return gan.new_bundle(3, DEFAULT)


@pytest.fixture(scope="module")
def corpus_words():
    """u0's words as (texts, matrices)."""
    corpus = synth_corpus(3, 4, 17)
    return words_from_corpus(corpus.users[0])


def flat_words(texts, matrices):
    """(flat samples, word tables) of words (texts, matrices), as train_epoch and stop_check take them."""
    return matrices.reshape(len(texts), gan.GEN_OUT_DIM), gan.word_tables(texts)


def constant_words(cell_value, texts):
    """Words (texts, matrices) whose timing cells all equal cell_value."""
    matrices = np.zeros((len(texts), WORD_LEN, 5))
    for matrix, text in zip(matrices, texts):
        n = len(text)
        matrix[:n, :4] = cell_value
        matrix[:n, COL_KEYCODE] = [ord(c) / 255.0 for c in text]
    return texts, matrices


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_word_padding_and_ranges(bundle, rng):
    word = gan.generate_word(bundle, gan.word_tables(["hello"]), rng)
    assert word.shape == (WORD_LEN, 5)
    assert np.all(word[5:] == 0.0)
    valid = word[:5]
    assert np.all(valid[:, :4] >= -1.0) and np.all(valid[:, :4] <= 1.0)
    assert np.all(valid >= -1.0) and np.all(valid <= 1.0)


def test_generate_word_keycode_column_is_exact(bundle, rng):
    word = gan.generate_word(bundle, gan.word_tables(["abc"]), rng)
    expected = np.array([ord(c) / 255.0 for c in "abc"])
    assert np.array_equal(word[:3, COL_KEYCODE], expected)


def test_generate_word_rng_changes_timing_not_keycodes(bundle):
    a = gan.generate_word(bundle, gan.word_tables(["hello"]), np.random.default_rng(1))
    b = gan.generate_word(bundle, gan.word_tables(["hello"]), np.random.default_rng(2))
    assert not np.array_equal(a[:5, :4], b[:5, :4])
    assert np.array_equal(a[:, COL_KEYCODE], b[:, COL_KEYCODE])


def test_word_tables_reject_bad_text():
    with pytest.raises(ValueError):
        gan.word_tables([""])
    with pytest.raises(ValueError):
        gan.word_tables(["x" * 16])


def test_discriminate_in_unit_interval_and_deterministic(bundle, rng):
    word = gan.generate_word(bundle, gan.word_tables(["hello"]), rng)
    flat = word.reshape(1, -1)
    cond = embed_word("hello")[None, :]
    p1 = gan._scores(bundle, flat, cond)
    p2 = gan._scores(bundle, flat, cond)
    assert p1.shape == (1,)
    assert 0.0 < p1[0] < 1.0
    assert np.array_equal(p1, p2)


def test_discriminate_rejects_bad_shapes(bundle, rng):
    word = gan.generate_word(bundle, gan.word_tables(["hello"]), rng)
    with pytest.raises(ValueError):
        gan._scores(bundle, word.reshape(1, -1), np.ones((1, 5)))
    with pytest.raises(ValueError):
        gan._scores(bundle, np.zeros((1, 15)), embed_word("x")[None, :])


def test_word_tables_match_per_text_loop():
    texts = ["a", "hello", "x" * 15, "hello", "caf\u00e9"]  # lengths 1 and 15, a repeat, keycode 233
    mats = np.zeros((len(texts), WORD_LEN, 5))
    mask = np.zeros_like(mats)
    for i, text in enumerate(texts):
        n = len(text)
        mats[i, :n, COL_KEYCODE] = [ord(ch) / 255.0 for ch in text]
        mask[i, :n, :] = 1.0
        mask[i, :, COL_KEYCODE] = 0.0
    conds, got_mask, fixed = gan.word_tables(texts)
    assert np.array_equal(conds, np.stack([embed_word(t) for t in texts]))
    assert np.array_equal(got_mask, mask.reshape(len(texts), -1))
    assert np.array_equal(fixed, mats.reshape(len(texts), -1))
    assert fixed.reshape(-1, WORD_LEN, 5)[4, 3, COL_KEYCODE] == 233 / 255.0


def test_postprocess_keeps_raw_only_where_the_mask_is_one(rng):
    texts = ["a", "hello", "x" * 15, "hello", "caf\u00e9"]
    _, mask, fixed = gan.word_tables(texts)
    raw = rng.uniform(0.1, 0.9, size=(len(texts), gan.GEN_OUT_DIM))
    flat = gan._postprocess(raw, mask, fixed)
    assert np.array_equal(flat[mask == 1], raw[mask == 1])
    assert np.array_equal(flat[mask == 0], fixed[mask == 0])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def adam_states(bundle):
    """Discriminator and generator Adam states at lr 2e-4 and the GAN's betas."""
    return (AdamState.for_params(bundle.discriminator, lr=2e-4, beta1=0.5, beta2=0.999),
            AdamState.for_params(bundle.generator, lr=2e-4, beta1=0.5, beta2=0.999))


def test_train_epoch_reproducible(corpus_words):
    def run():
        b = gan.new_bundle(5, DEFAULT)
        d_state = AdamState.for_params(b.discriminator, lr=1e-4, beta1=0.5, beta2=0.999)
        g_state = AdamState.for_params(b.generator, lr=1e-3, beta1=0.5, beta2=0.999)
        stats = []
        rng = np.random.default_rng(5)
        for _ in range(3):
            stats.append(gan.train_epoch(b, *flat_words(*corpus_words), 16, rng, d_state, g_state))
        return b, stats

    b1, stats1 = run()
    b2, stats2 = run()
    assert stats1 == stats2
    for w1, w2 in zip(b1.generator.weights, b2.generator.weights):
        assert np.array_equal(w1, w2)


def test_train_epoch_computes_each_network_in_its_own_dtype(corpus_words, monkeypatch):
    """The generator's tape activations, dLoss/dz, gradients, moments and scratch are float32; the
    discriminator's are float64. A Python-float leaky_relu slope would make the generator's dLoss/dz
    float64, and with it every matmul after it mixed."""
    bundle = gan.new_bundle(24, gan.GanTrainConfig(g_hidden=8, d_hidden1=8, d_hidden2=4))
    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert (bundle.generator.flat.dtype, bundle.discriminator.flat.dtype) == (f32, f64)
    forward, activation_backward, seen = nn.forward, nn._activation_backward, []

    def recording_forward(params, x):
        out, tape = forward(params, x)
        seen.extend((params.flat.dtype, a.dtype) for a in tape.activations)
        return out, tape

    def recording_activation_backward(name, g, h):
        dz = activation_backward(name, g, h)
        seen.append((h.dtype, dz.dtype))
        return dz

    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "_activation_backward", recording_activation_backward)
    d_state, g_state = adam_states(bundle)
    gan.train_epoch(bundle, *flat_words(*corpus_words), 16, np.random.default_rng(24), d_state, g_state)
    assert set(seen) == {(f32, f32), (f64, f64)}
    for params, state in ((bundle.generator, g_state), (bundle.discriminator, d_state)):
        arrays = [params.flat, state.grad, state.m, state.v, state.scratch, *(a for pair in state.grads for a in pair)]
        assert {a.dtype for a in arrays} == {params.flat.dtype}


def test_train_epoch_single_sample_is_finite(corpus_words, rng):
    b = gan.new_bundle(6, DEFAULT)
    texts, matrices = corpus_words
    stats = gan.train_epoch(b, *flat_words(texts[:1], matrices[:1]), 32, rng, *adam_states(b))
    assert np.isfinite(stats["d_loss"]) and np.isfinite(stats["g_loss"])


def test_train_epoch_rejects_empty_inputs(rng):
    b = gan.new_bundle(7, DEFAULT)
    with pytest.raises(ValueError):
        gan.train_epoch(b, np.zeros((0, gan.GEN_OUT_DIM)), gan.word_tables(["a"]), 32, rng,
                        *adam_states(b))


def test_discriminator_learns_separable_data(rng):
    """Frozen generator vs discriminator on trivially separable cells.

    Real words sit at 0.9, the frozen generator emits 0.1 everywhere, so 200
    epochs of discriminator-only training must classify both sides >= 0.95.
    """
    texts = ["hello", "world", "stream", "typing"] * 8
    words = flat_words(*constant_words(0.9, texts))
    bundle = gan.new_bundle(8, DEFAULT)
    # force the generator output to sigmoid(-2.1972) ~= 0.1 and freeze it via lr=0
    last = bundle.generator.weights[-1]
    last[:] = 0.0
    bundle.generator.biases[-1][:] = np.log(0.1 / 0.9)
    d_state = AdamState.for_params(bundle.discriminator, lr=1e-3, beta1=0.5, beta2=0.999)
    g_state = AdamState.for_params(bundle.generator, lr=0.0, beta1=0.5, beta2=0.999)
    for _ in range(200):
        stats = gan.train_epoch(bundle, *words, 32, rng, d_state, g_state)
    assert stats["d_real_acc"] >= 0.95
    assert stats["d_fake_acc"] >= 0.95


def test_gan_step_gradients_match_finite_differences_of_the_stated_losses(corpus_words, monkeypatch):
    """The gradients train_epoch hands nn.adam_step are those of the losses its docstring states.

    One batch of 4 distinct words at small widths, captured at nn.forward and
    nn.adam_step. The D step: the mean BCE of its 2n input rows (n real with
    target 1, then n fake with target 0) at its parameters. The G step: the
    mean BCE against target 1 of the updated discriminator's scores of the
    post-processed output of the last generator forward before the generator's
    update. Neither depends on where that forward's latents come from.
    """
    texts, matrices = corpus_words
    first = [texts.index(text) for text in dict.fromkeys(texts)][:4]  # 4 distinct words
    texts, n = [texts[i] for i in first], len(first)
    flat, tables = flat_words(texts, matrices[first])
    bundle = gan.new_bundle(21, gan.GanTrainConfig(g_hidden=8, d_hidden1=8, d_hidden2=4))
    # nn computes in each network's dtype, so a float64 generator runs the same code as the
    # float32 one; central differences need float64 (in float32 they read an error of 2.0)
    bundle.generator = nn.init_network(gan.generator_specs(8), 21)
    forward, adam_step, calls = nn.forward, nn.adam_step, []

    def recording_forward(params, x):
        calls.append(("forward", params, copy_of(params), np.array(x)))
        return forward(params, x)

    def recording_adam_step(params, state):
        grads = [(w.copy(), b.copy()) for w, b in state.grads]
        adam_step(params, state)
        calls.append(("adam", params, grads, copy_of(params)))

    monkeypatch.setattr(nn, "forward", recording_forward)
    monkeypatch.setattr(nn, "adam_step", recording_adam_step)
    gan.train_epoch(bundle, flat, tables, n, np.random.default_rng(22), *adam_states(bundle))

    def update_of(network):
        return next(k for k, call in enumerate(calls) if call[:2] == ("adam", network))

    def last_forward_before(k, network):  # (params, input) of that forward
        return next(call[2:] for call in reversed(calls[:k]) if call[:2] == ("forward", network))

    d_update, g_update = update_of(bundle.discriminator), update_of(bundle.generator)
    assert d_update < g_update
    d_params, d_input = last_forward_before(d_update, bundle.discriminator)
    _, _, d_grads, d_after = calls[d_update]
    g_params, g_input = last_forward_before(g_update, bundle.generator)
    g_grads = calls[g_update][2]
    assert d_input.shape == (2 * n, gan.DISC_IN_DIM) and g_input.shape == (n, gan.GEN_IN_DIM)
    assert all(any(np.array_equal(row, sample) for sample in flat) for row in d_input[:n, : gan.GEN_OUT_DIM])

    targets = np.concatenate([np.ones(n), np.zeros(n)])[:, None]

    def d_loss():
        probs, _ = forward(d_params, d_input)
        return float(nn.bce_loss(probs, targets)[0].mean())

    conds = g_input[:, gan.LATENT_DIM :]
    rows = [next(i for i, cond in enumerate(tables[0]) if np.array_equal(cond, c)) for c in conds]
    mask, fixed = tables[1][rows], tables[2][rows]

    def g_loss():
        raw, _ = forward(g_params, g_input)
        probs, _ = forward(d_after, np.hstack([gan._postprocess(raw, mask, fixed), conds]))
        return float(nn.bce_loss(probs, np.ones((n, 1)))[0].mean())

    assert max_relative_error(d_grads, numeric_gradients(d_params, d_loss)) < 1e-4
    assert max_relative_error(g_grads, numeric_gradients(g_params, g_loss)) < 1e-4


# ---------------------------------------------------------------------------
# stopping rule
# ---------------------------------------------------------------------------


def test_subset_accuracy_tie_counts_as_synthetic():
    real_acc, fake_acc = gan.subset_accuracies(np.full(32, 0.5), np.full(32, 0.5))
    assert real_acc == 0.0
    assert fake_acc == 1.0


def test_subset_accuracies_count_the_share_of_each_side():
    real_acc, fake_acc = gan.subset_accuracies([0.9, 0.51, 0.5, 0.7], [0.1, 0.6, 0.5, 0.2, 0.8])
    assert (real_acc, fake_acc) == (0.75, 0.6)


def test_stop_decision_constant_half_discriminator():
    stop, details = gan.stop_decision([0.0] * 5, [1.0] * 5, 0.85)
    assert not stop
    assert details["real_mean"] == 0.0 and details["fake_mean"] == 1.0


def test_stop_decision_oracle_discriminator():
    real_accs, fake_accs = [], []
    for _ in range(5):
        r, f = gan.subset_accuracies(np.ones(32), np.zeros(32))
        real_accs.append(r)
        fake_accs.append(f)
    stop, _ = gan.stop_decision(real_accs, fake_accs, 0.85)
    assert stop


def test_stop_decision_requires_both_sides():
    stop, _ = gan.stop_decision([0.9] * 5, [0.8] * 5, 0.85)
    assert not stop
    stop, _ = gan.stop_decision([0.8] * 5, [0.9] * 5, 0.85)
    assert not stop
    stop, _ = gan.stop_decision([0.85] * 5, [0.85] * 5, 0.85)
    assert stop


def test_stop_check_constant_half_discriminator_end_to_end(corpus_words, rng):
    bundle = gan.new_bundle(9, DEFAULT)
    for w in bundle.discriminator.weights:
        w[:] = 0.0
    for b in bundle.discriminator.biases:
        b[:] = 0.0
    stop, details = gan.stop_check(bundle, *flat_words(*corpus_words), rng, 0.85)
    assert not stop
    assert details["real_mean"] == 0.0
    assert details["fake_mean"] == 1.0


def test_stop_check_samples_with_replacement_when_short(rng):
    bundle = gan.new_bundle(10, DEFAULT)
    stop, details = gan.stop_check(bundle, *flat_words(*constant_words(0.5, ["ab"])), rng, 0.85)
    assert len(details["real_accuracies"]) == 5


class ChoiceLog:
    """An rng that keeps what each choice() call returned."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def choice(self, *args, **kwargs):
        self.draws.append(self.rng.choice(*args, **kwargs))
        return self.draws[-1]

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_stop_check_with_exactly_a_subset_of_samples_draws_without_replacement(rng):
    assert gan.STOP_SUBSET_SIZE == 32
    bundle = gan.new_bundle(10, DEFAULT)
    log = ChoiceLog(rng)
    gan.stop_check(bundle, *flat_words(*constant_words(0.5, ["hello", "world", "stream", "typing"] * 8)),
                   log, 0.85)
    real_draws = log.draws[0::2]  # each subset draws its reals, then its fakes' words
    assert len(real_draws) == gan.STOP_SUBSETS
    for idx in real_draws:
        assert sorted(idx) == list(range(32))


# ---------------------------------------------------------------------------
# full training loop
# ---------------------------------------------------------------------------


def test_train_stops_early_on_easy_data(rng):
    """Far-apart real data lets the discriminator pass the criterion quickly."""
    texts = ["hello", "world", "stream", "typing"] * 8
    words = constant_words(0.9, texts)
    cfg = gan.GanTrainConfig(max_epochs=60, check_interval=5, batch_size=16,
                             g_lr=1e-4, d_lr=5e-3)
    bundle = gan.train(gan.new_bundle(11, cfg), *words, cfg, rng)
    assert bundle.converged
    assert bundle.epochs_trained % cfg.check_interval == 0
    assert bundle.history[-1]["stop"] is True
    assert bundle.history[-1]["epoch"] == bundle.epochs_trained


def test_train_flags_not_converged_at_max_epochs(corpus_words, rng):
    cfg = gan.GanTrainConfig(max_epochs=6, check_interval=2, batch_size=16,
                             g_lr=1e-4, d_lr=1e-6, stop_threshold=1.01)
    bundle = gan.train(gan.new_bundle(12, cfg), *corpus_words, cfg, rng)
    assert not bundle.converged
    assert bundle.epochs_trained == 6
    assert len(bundle.history) == 3  # checks at epochs 2, 4, 6


def test_train_history_length_is_epochs_over_interval(corpus_words, rng):
    cfg = gan.GanTrainConfig(max_epochs=7, check_interval=3, batch_size=16,
                             g_lr=1e-4, d_lr=1e-6, stop_threshold=1.01)
    bundle = gan.train(gan.new_bundle(13, cfg), *corpus_words, cfg, rng)
    assert len(bundle.history) == 2  # checks at epochs 3 and 6


def test_train_embeds_each_word_sample_once(corpus_words, rng, monkeypatch):
    """train builds the word tables once, not once per epoch or stop check."""
    embed, calls = gan.embed_word, []
    monkeypatch.setattr(gan, "embed_word", lambda text: calls.append(text) or embed(text))
    cfg = gan.GanTrainConfig(max_epochs=4, check_interval=2, batch_size=16, g_hidden=8, d_hidden1=8,
                             d_hidden2=4, stop_threshold=1.01)
    bundle = gan.train(gan.new_bundle(17, cfg), *corpus_words, cfg, rng)
    assert bundle.epochs_trained == 4 and len(bundle.history) == 2
    assert calls == corpus_words[0]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_bundle_save_load_round_trip(tmp_path, corpus_words, rng):
    bundle = gan.new_bundle(14, DEFAULT)
    gan.train_epoch(bundle, *flat_words(*corpus_words), 32, rng, *adam_states(bundle))  # nonzero biases
    bundle.epochs_trained = 5
    bundle.converged = True
    assert gan.save_bundle(bundle, tmp_path) == gan.checkpoint_paths(tmp_path)
    loaded = gan.load_bundle(tmp_path)
    assert loaded.seed == 14
    assert loaded.epochs_trained == 5
    assert loaded.converged
    for a, b in ((loaded.generator, bundle.generator), (loaded.discriminator, bundle.discriminator)):
        assert a.flat.dtype == b.flat.dtype and np.array_equal(a.flat, b.flat)
    assert loaded.generator.flat.dtype == gan.GEN_DTYPE
    word_a = gan.generate_word(bundle, gan.word_tables(["same"]), np.random.default_rng(0))
    word_b = gan.generate_word(loaded, gan.word_tables(["same"]), np.random.default_rng(0))
    assert np.array_equal(word_a, word_b)


def test_bundle_load_rejects_foreign_embed_seed(tmp_path):
    bundle = gan.new_bundle(15, DEFAULT)
    gan.save_bundle(bundle, tmp_path)
    doc = json.loads((tmp_path / "generator.json").read_text())
    doc["embed_seed"] = 123
    (tmp_path / "generator.json").write_text(json.dumps(doc))
    with pytest.raises(CheckpointVersionError):
        gan.load_bundle(tmp_path)


def test_bundle_validates_dimensions(tmp_path):
    """Loading checks each network's kind and end widths, naming the file."""
    small = gan.GanTrainConfig(g_hidden=8, d_hidden1=8, d_hidden2=4)
    gan.save_bundle(gan.new_bundle(16, small), tmp_path)
    g_path, d_path = tmp_path / "generator.json", tmp_path / "discriminator.json"
    good = {p: p.read_text() for p in (g_path, d_path)}
    cases = [
        (g_path, [LayerSpec(599, 8, "leaky_relu"), LayerSpec(8, 75, "sigmoid")], "generator",
         CheckpointShapeError, "generator maps 599 -> 75, expected 600 -> 75"),
        (d_path, [LayerSpec(175, 4, "leaky_relu"), LayerSpec(4, 2, "sigmoid")], "discriminator",
         CheckpointShapeError, "discriminator maps 175 -> 2, expected 175 -> 1"),
        (d_path, gan.generator_specs(8), "generator",
         CorruptCheckpointError, "model_kind 'generator' is not a discriminator"),
    ]
    for path, specs, kind, error, message in cases:
        nn.save_params(nn.init_network(specs, 0), path, kind, 16, 0, {})
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            gan.load_bundle(tmp_path)
        path.write_text(good[path])
    # the two files swapped: each holds the other network
    g_path.write_text(good[d_path])
    d_path.write_text(good[g_path])
    with pytest.raises(CorruptCheckpointError,
                       match=re.escape(f"{g_path}: model_kind 'discriminator' is not a generator")):
        gan.load_bundle(tmp_path)


# sha256 over the generator's weights then biases, then the discriminator's, after
# 3 epochs at default shapes (600->512->512->75, 175->256->128->1) on the
# default corpus's u0 words. The float bits depend on the BLAS thread count,
# so the run pins one thread in a fresh interpreter.
DEFAULT_SHAPE_GAN_SHA256 = "0ea78c7bc2e9e362614ba2c49ca681866eb849f4e02c3addcb81170e80fd783f"

_DEFAULT_SHAPE_SCRIPT = """
import hashlib
import numpy as np
from keyforge import gan
from keyforge.config import RunConfig
from keyforge.data import words_from_corpus
from keyforge.pipeline import build_corpus

texts, matrices = words_from_corpus(build_corpus(RunConfig()).get("u0"))
g = gan.GanTrainConfig(max_epochs=3, check_interval=2)
bundle = gan.train(gan.new_bundle(9, g), texts, matrices, g, np.random.default_rng(9))
h = hashlib.sha256()
for net in (bundle.generator, bundle.discriminator):
    for array in net.weights + net.biases:
        h.update(array.tobytes())
print(len(texts), len(bundle.history), h.hexdigest())
"""


def test_default_shape_gan_weights_are_pinned():
    src = str(Path(gan.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _DEFAULT_SHAPE_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["54", "1", DEFAULT_SHAPE_GAN_SHA256]
