"""Conditional GAN over single-user word samples: texts plus one (n, 15, 5) array.

The generator maps a 500-d Gaussian latent plus the 100-d word embedding to a
15x5 matrix; the discriminator scores a flattened matrix plus the same
embedding. Training alternates a discriminator step on real/generated pairs
with a non-saturating generator step, pausing every check_interval epochs to
apply the discriminator-accuracy stopping rule.

Generated samples are always post-processed before any use: padding rows are
zeroed and the keycode column is overwritten with the conditioning word's true
normalized keycodes (the attacker knows the text being typed), so only the
timing cells are ever learned or judged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import COL_KEYCODE, N_FEATURES, WORD_LEN
from .embedding import EMBED_DIM, embed_word
from . import nn
from .nn import AdamState, LayerSpec, NetworkParams, TrainingError

LATENT_DIM = 500
GEN_IN_DIM = LATENT_DIM + EMBED_DIM  # 600
GEN_OUT_DIM = WORD_LEN * N_FEATURES  # 75
DISC_IN_DIM = GEN_OUT_DIM + EMBED_DIM  # 175


@dataclass
class GanTrainConfig:
    max_epochs: int = 5000
    check_interval: int = 50
    batch_size: int = 32
    g_lr: float = 1e-3
    d_lr: float = 5e-5
    beta1: float = 0.5
    beta2: float = 0.999
    stop_threshold: float = 0.85
    g_hidden: int = 512
    d_hidden1: int = 256
    d_hidden2: int = 128


def generator_specs(hidden: int) -> list[LayerSpec]:
    return [
        LayerSpec(GEN_IN_DIM, hidden, "leaky_relu"),
        LayerSpec(hidden, hidden, "leaky_relu"),
        LayerSpec(hidden, GEN_OUT_DIM, "sigmoid"),
    ]


def discriminator_specs(hidden1: int, hidden2: int) -> list[LayerSpec]:
    return [
        LayerSpec(DISC_IN_DIM, hidden1, "leaky_relu"),
        LayerSpec(hidden1, hidden2, "leaky_relu"),
        LayerSpec(hidden2, 1, "sigmoid"),
    ]


@dataclass
class GanBundle:
    generator: NetworkParams
    discriminator: NetworkParams
    seed: int
    epochs_trained: int = 0
    history: list[dict] = field(default_factory=list)
    converged: bool = False


def new_bundle(seed: int, config: GanTrainConfig) -> GanBundle:
    return GanBundle(
        generator=nn.init_network(generator_specs(config.g_hidden), seed),
        discriminator=nn.init_network(discriminator_specs(config.d_hidden1, config.d_hidden2), seed + 1),
        seed=seed,
    )


@lru_cache(maxsize=None)
def _text_layout(text: str) -> np.ndarray:
    """Gradient mask and fixed cells of one text's flat 15x5 sample, built once per text.

    Row 0, the mask, is 1 exactly on the timing cells of the text's rows.
    Row 1 holds the text's normalized keycodes in its rows and 0 elsewhere.
    """
    n = len(text)
    layout = np.zeros((2, WORD_LEN, N_FEATURES))
    layout[0, :n] = 1.0
    layout[0, :, COL_KEYCODE] = 0.0
    layout[1, :n, COL_KEYCODE] = [ord(ch) / 255.0 for ch in text]
    layout.flags.writeable = False
    return layout.reshape(2, GEN_OUT_DIM)


def _postprocess(raw: np.ndarray, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Zero padding rows and overwrite keycodes; also return the gradient mask.

    The mask is 1 exactly on the surviving generator cells (timing columns of
    valid rows), so backpropagation ignores overwritten and zeroed outputs.
    """
    layouts = np.array([_text_layout(t) for t in texts])
    mask = layouts[:, 0]
    return np.where(mask > 0, raw, layouts[:, 1]), mask


def _generate_flat(
    bundle: GanBundle, texts: list[str], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, nn.ForwardTape, np.ndarray]:
    """Generate post-processed flat samples for a batch of conditioning texts."""
    conds = np.stack([embed_word(t) for t in texts])
    latents = rng.standard_normal((len(texts), LATENT_DIM))
    raw, tape = nn.forward(bundle.generator, np.hstack([latents, conds]))
    flat, mask = _postprocess(raw, texts)
    return flat, conds, tape, mask


def generate_word(bundle: GanBundle, text: str, rng: np.random.Generator) -> np.ndarray:
    """Sample one synthetic (15, 5) word matrix conditioned on the given text."""
    flat, _, _, _ = _generate_flat(bundle, [text], rng)
    return flat.reshape(WORD_LEN, N_FEATURES)


def _scores(bundle: GanBundle, flat: np.ndarray, conds: np.ndarray) -> np.ndarray:
    out, _ = nn.forward(bundle.discriminator, np.hstack([flat, conds]))
    return out[:, 0]


def train_epoch(
    bundle: GanBundle,
    texts: list[str],
    matrices: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    d_state: AdamState,
    g_state: AdamState,
) -> tuple[GanBundle, dict]:
    """One adversarial epoch over shuffled batches of the words (texts, matrices).

    Per batch: (1) discriminator step on real pairs (target 1) and freshly
    generated pairs (target 0); (2) generator step through the frozen
    discriminator with target 1. d_state and g_state are the networks' Adam
    states, carried across epochs. Returns per-epoch mean losses and
    discriminator accuracies.
    """
    if not texts:
        raise ValueError("train_epoch needs at least one word sample")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    flat = matrices.reshape(len(texts), GEN_OUT_DIM)
    order = rng.permutation(len(texts))
    d_losses, g_losses = [], []
    real_hits = fake_hits = seen = 0

    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        batch_texts = [texts[i] for i in batch]
        n = len(batch)

        # Discriminator step: real pairs labelled 1, generated pairs labelled 0.
        real_flat = flat[batch]
        fake_flat, conds, _, _ = _generate_flat(bundle, batch_texts, rng)
        x = np.vstack([np.hstack([real_flat, conds]), np.hstack([fake_flat, conds])])
        targets = np.concatenate([np.ones(n), np.zeros(n)])[:, None]
        probs, tape = nn.forward(bundle.discriminator, x)
        losses, dldp = nn.bce_loss(probs, targets)
        d_loss = float(losses.mean())
        nn.backward(bundle.discriminator, tape, dldp / (2 * n), d_state.grads)
        nn.adam_step(bundle.discriminator, d_state)

        real_hits += int(np.count_nonzero(probs[:n, 0] > 0.5))
        fake_hits += int(np.count_nonzero(probs[n:, 0] <= 0.5))
        seen += n

        # Generator step through the frozen discriminator, non-saturating target 1.
        gen_flat, gen_conds, g_tape, g_mask = _generate_flat(bundle, batch_texts, rng)
        probs, tape = nn.forward(bundle.discriminator, np.hstack([gen_flat, gen_conds]))
        losses, dldp = nn.bce_loss(probs, np.ones((n, 1)))
        g_loss = float(losses.mean())
        dx = nn.backward(bundle.discriminator, tape, dldp / n)
        nn.backward(bundle.generator, g_tape, dx[:, :GEN_OUT_DIM] * g_mask, g_state.grads)
        nn.adam_step(bundle.generator, g_state)

        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
            raise TrainingError(
                f"non-finite loss in batch at index {start}: d={d_loss}, g={g_loss}"
            )
        d_losses.append(d_loss)
        g_losses.append(g_loss)

    stats = {
        "d_loss": float(np.mean(d_losses)),
        "g_loss": float(np.mean(g_losses)),
        "d_real_acc": real_hits / seen,
        "d_fake_acc": fake_hits / seen,
    }
    return bundle, stats


# ---------------------------------------------------------------------------
# Stopping rule
# ---------------------------------------------------------------------------

STOP_SUBSETS = 5
STOP_SUBSET_SIZE = 32


def subset_accuracies(real_scores: np.ndarray, fake_scores: np.ndarray) -> tuple[float, float]:
    """Classification accuracy per the score rule: real iff score > 0.5.

    Ties (score exactly 0.5) count as synthetic, so a constant-0.5
    discriminator scores 0.0 on reals and 1.0 on fakes.
    """
    real_scores = np.asarray(real_scores, dtype=np.float64)
    fake_scores = np.asarray(fake_scores, dtype=np.float64)
    real_acc = float(np.count_nonzero(real_scores > 0.5)) / real_scores.size
    fake_acc = float(np.count_nonzero(fake_scores <= 0.5)) / fake_scores.size
    return real_acc, fake_acc


def stop_decision(
    real_accuracies: list[float], fake_accuracies: list[float], threshold: float
) -> tuple[bool, dict]:
    """Stop iff the mean accuracy over subsets reaches the threshold for BOTH classes."""
    real_mean = float(np.mean(real_accuracies))
    fake_mean = float(np.mean(fake_accuracies))
    stop = real_mean >= threshold and fake_mean >= threshold
    details = {
        "real_accuracies": [float(a) for a in real_accuracies],
        "fake_accuracies": [float(a) for a in fake_accuracies],
        "real_mean": real_mean,
        "fake_mean": fake_mean,
        "threshold": threshold,
    }
    return stop, details


def stop_check(
    bundle: GanBundle,
    texts: list[str],
    matrices: np.ndarray,
    rng: np.random.Generator,
    threshold: float,
) -> tuple[bool, dict]:
    """Evaluate the pause-and-measure stopping rule on 5 subsets of 32+32 samples."""
    if not texts:
        raise ValueError("stop_check needs real word samples")
    flat = matrices.reshape(len(texts), GEN_OUT_DIM)
    replace = len(texts) < STOP_SUBSET_SIZE
    real_accs, fake_accs = [], []
    for _ in range(STOP_SUBSETS):
        idx = rng.choice(len(texts), size=STOP_SUBSET_SIZE, replace=replace)
        real_flat = flat[idx]
        real_conds = np.stack([embed_word(texts[i]) for i in idx])
        fake_texts = [texts[i] for i in rng.choice(len(texts), size=STOP_SUBSET_SIZE, replace=True)]
        fake_flat, fake_conds, _, _ = _generate_flat(bundle, fake_texts, rng)
        real_acc, fake_acc = subset_accuracies(
            _scores(bundle, real_flat, real_conds),
            _scores(bundle, fake_flat, fake_conds),
        )
        real_accs.append(real_acc)
        fake_accs.append(fake_acc)
    return stop_decision(real_accs, fake_accs, threshold)


def train(
    bundle: GanBundle,
    texts: list[str],
    matrices: np.ndarray,
    config: GanTrainConfig,
    rng: np.random.Generator,
) -> GanBundle:
    """Adversarial training loop with the periodic stopping criterion.

    Runs stop_check every check_interval epochs; stops on the criterion or at
    max_epochs (flagging the bundle not-converged). The criterion history is
    recorded on the bundle.
    """
    d_state = AdamState.for_params(
        bundle.discriminator, lr=config.d_lr, beta1=config.beta1, beta2=config.beta2
    )
    g_state = AdamState.for_params(
        bundle.generator, lr=config.g_lr, beta1=config.beta1, beta2=config.beta2
    )
    # Fill the per-text caches before the loop, so their small long-lived
    # arrays sit below the loop's short-lived ones on the heap. Filled
    # mid-loop, they kept freed memory resident: ~6 MiB more peak RSS in a
    # shortened default study.
    for text in texts:
        embed_word(text)
        _text_layout(text)
    epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        bundle, _ = train_epoch(bundle, texts, matrices, config.batch_size, rng, d_state, g_state)
        epochs = epoch
        if epoch % config.check_interval == 0:
            stop, details = stop_check(bundle, texts, matrices, rng, config.stop_threshold)
            bundle.history.append({"epoch": epoch, "stop": stop, **details})
            if stop:
                bundle.converged = True
                break
    bundle.epochs_trained = epochs
    return bundle


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def checkpoint_paths(directory: str | Path) -> tuple[Path, Path]:
    """The generator's and the discriminator's checkpoint files in a bundle's directory."""
    return Path(directory) / "generator.json", Path(directory) / "discriminator.json"


def save_bundle(bundle: GanBundle, directory: str | Path) -> tuple[Path, Path]:
    """Write both checkpoints into directory, made if missing; returns checkpoint_paths(directory)."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    g_path, d_path = checkpoint_paths(directory)
    meta = {"converged": bundle.converged}
    nn.save_params(bundle.generator, g_path, "generator", bundle.seed, bundle.epochs_trained, meta)
    nn.save_params(bundle.discriminator, d_path, "discriminator", bundle.seed,
                   bundle.epochs_trained, meta)
    return g_path, d_path


def load_bundle(directory: str | Path) -> GanBundle:
    g_path, d_path = checkpoint_paths(directory)
    gen, g_info = nn.load_params(g_path, "generator", GEN_IN_DIM, GEN_OUT_DIM)
    disc, _ = nn.load_params(d_path, "discriminator", DISC_IN_DIM, 1)
    return GanBundle(
        generator=gen,
        discriminator=disc,
        seed=g_info["rng_seed"] if g_info["rng_seed"] is not None else 0,
        epochs_trained=g_info["trained_epochs"],
        converged=bool(g_info["metadata"].get("converged", False)),
    )
