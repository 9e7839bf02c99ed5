"""Conditional GAN over single-user word samples: texts plus one (n, 15, 5) array.

The generator maps a 500-d Gaussian latent plus the 100-d word embedding to a
15x5 matrix; the discriminator scores a flattened matrix plus the same
embedding. Each batch generates one set of fakes; training alternates a
discriminator step on real/generated pairs with a non-saturating generator
step on the same generated pairs, pausing every check_interval epochs to
apply the discriminator-accuracy stopping rule.

Generated samples are always post-processed before any use: padding rows are
zeroed and the keycode column is overwritten with the conditioning word's true
normalized keycodes (the attacker knows the text being typed), so only the
timing cells are ever learned or judged. A word's condition, mask and fixed
cells depend on its text alone: train and the attack build word_tables once.

The generator computes in GEN_DTYPE (float32) and returns float64 samples. The
discriminator stays float64: its scores sit near 0.5 and decide the stopping rule,
and an all-float32 GAN did not converge on a seed that converges with it in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
GEN_DTYPE = np.float32


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
        generator=nn.init_network(generator_specs(config.g_hidden), seed, GEN_DTYPE),
        discriminator=nn.init_network(discriminator_specs(config.d_hidden1, config.d_hidden2), seed + 1),
        seed=seed,
    )


def word_tables(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Condition rows, gradient masks and fixed cells of the texts' flat 15x5 samples.

    Row i of the (n, 100) conditions is embed_word(texts[i]). Row i of the
    (n, 75) mask is 1 exactly on the timing cells of the text's rows, and row i
    of the (n, 75) fixed cells holds its normalized keycodes there and 0 elsewhere.
    """
    conds = np.stack([embed_word(t) for t in texts])
    mask = np.zeros((len(texts), WORD_LEN, N_FEATURES))
    fixed = np.zeros((len(texts), WORD_LEN, N_FEATURES))
    for i, text in enumerate(texts):
        mask[i, : len(text)] = 1.0
        fixed[i, : len(text), COL_KEYCODE] = [ord(ch) / 255.0 for ch in text]
    mask[:, :, COL_KEYCODE] = 0.0
    return conds, mask.reshape(len(texts), GEN_OUT_DIM), fixed.reshape(len(texts), GEN_OUT_DIM)


def _postprocess(raw: np.ndarray, mask: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Raw cells where the mask is 1, fixed cells elsewhere: padding zeroed, keycodes the text's."""
    return np.where(mask > 0, raw, fixed)


def _generate_flat(
    bundle: GanBundle, rows: tuple[np.ndarray, ...], rng: np.random.Generator
) -> tuple[np.ndarray, nn.ForwardTape]:
    """Generate post-processed flat samples for word-table rows (conditions, mask, fixed cells)."""
    conds, mask, fixed = rows
    latents = rng.standard_normal((len(conds), LATENT_DIM))
    raw, tape = nn.forward(bundle.generator, np.hstack([latents, conds]))
    return _postprocess(raw, mask, fixed), tape


def generate_word(bundle: GanBundle, row: tuple[np.ndarray, ...], rng: np.random.Generator) -> np.ndarray:
    """Sample one synthetic (15, 5) word matrix for one word's word_tables row, each table sliced to 1 row."""
    flat, _ = _generate_flat(bundle, row, rng)
    return flat.reshape(WORD_LEN, N_FEATURES)


def _scores(bundle: GanBundle, flat: np.ndarray, conds: np.ndarray) -> np.ndarray:
    out, _ = nn.forward(bundle.discriminator, np.hstack([flat, conds]))
    return out[:, 0]


def train_epoch(
    bundle: GanBundle,
    flat: np.ndarray,
    tables: tuple[np.ndarray, ...],
    batch_size: int,
    rng: np.random.Generator,
    d_state: AdamState,
    g_state: AdamState,
) -> dict:
    """One adversarial epoch, in place, over shuffled batches of the (n, 75) flat real samples.

    tables are word_tables of the samples' texts. Per batch of n samples the
    generator runs once, on fresh latents, to give n post-processed fakes. (1)
    The discriminator steps on the mean BCE over the n real pairs (target 1) and
    the n fake pairs (target 0). (2) The generator steps on the same fakes and
    tape: the mean BCE of the updated, frozen discriminator's scores of the fake
    pairs against target 1 (non-saturating), through the timing cells alone.
    d_state and g_state are the networks' Adam states, carried across epochs.
    Returns per-epoch mean losses and discriminator accuracies.
    """
    if not len(flat):
        raise ValueError("train_epoch needs at least one word sample")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    order = rng.permutation(len(flat))
    d_losses, g_losses = [], []
    real_hits = fake_hits = seen = 0

    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        rows = tuple(table[batch] for table in tables)
        conds, mask, _ = rows
        n = len(batch)

        # Discriminator step: real pairs labelled 1, generated pairs labelled 0.
        fake_flat, g_tape = _generate_flat(bundle, rows, rng)
        x = np.vstack([np.hstack([flat[batch], conds]), np.hstack([fake_flat, conds])])
        targets = np.concatenate([np.ones(n), np.zeros(n)])[:, None]
        probs, tape = nn.forward(bundle.discriminator, x)
        losses, dldp = nn.bce_loss(probs, targets)
        d_loss = float(losses.mean())
        nn.backward(bundle.discriminator, tape, dldp / (2 * n), d_state.grads)
        nn.adam_step(bundle.discriminator, d_state)

        real_hits += int(np.count_nonzero(probs[:n, 0] > 0.5))
        fake_hits += int(np.count_nonzero(probs[n:, 0] <= 0.5))
        seen += n

        # Generator step on the same fakes (x's last n rows) through the updated, frozen discriminator.
        probs, tape = nn.forward(bundle.discriminator, x[n:])
        losses, dldp = nn.bce_loss(probs, np.ones((n, 1)))
        g_loss = float(losses.mean())
        dx = nn.backward(bundle.discriminator, tape, dldp / n)
        nn.backward(bundle.generator, g_tape, dx[:, :GEN_OUT_DIM] * mask, g_state.grads)
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
    return stats


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
    flat: np.ndarray,
    tables: tuple[np.ndarray, ...],
    rng: np.random.Generator,
    threshold: float,
) -> tuple[bool, dict]:
    """Evaluate the pause-and-measure stopping rule on 5 subsets of 32+32 of train_epoch's samples."""
    if not len(flat):
        raise ValueError("stop_check needs real word samples")
    replace = len(flat) < STOP_SUBSET_SIZE
    real_accs, fake_accs = [], []
    for _ in range(STOP_SUBSETS):
        idx = rng.choice(len(flat), size=STOP_SUBSET_SIZE, replace=replace)
        fake_idx = rng.choice(len(flat), size=STOP_SUBSET_SIZE, replace=True)
        fake_rows = tuple(table[fake_idx] for table in tables)
        fake_flat, _ = _generate_flat(bundle, fake_rows, rng)
        real_acc, fake_acc = subset_accuracies(
            _scores(bundle, flat[idx], tables[0][idx]),
            _scores(bundle, fake_flat, fake_rows[0]),
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
    recorded on the bundle. Overflow stays silent: a non-finite loss or
    gradient, or a trained generator's non-finite cell, raises TrainingError.
    """
    flat = matrices.reshape(len(texts), GEN_OUT_DIM)
    tables = word_tables(texts)
    d_state = AdamState.for_params(
        bundle.discriminator, lr=config.d_lr, beta1=config.beta1, beta2=config.beta2
    )
    g_state = AdamState.for_params(
        bundle.generator, lr=config.g_lr, beta1=config.beta1, beta2=config.beta2
    )
    epochs = 0
    with np.errstate(all="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            train_epoch(bundle, flat, tables, config.batch_size, rng, d_state, g_state)
            epochs = epoch
            if epoch % config.check_interval == 0:
                stop, details = stop_check(bundle, flat, tables, rng, config.stop_threshold)
                bundle.history.append({"epoch": epoch, "stop": stop, **details})
                if stop:
                    bundle.converged = True
                    break
        # finite weights can still give NaN cells; latents from their own stream move no training bit
        check_rng = np.random.default_rng(bundle.seed)
        bad = 0
        for start in range(0, len(flat), config.batch_size):
            rows = tuple(table[start : start + config.batch_size] for table in tables)
            sample, _ = _generate_flat(bundle, rows, check_rng)
            bad += int(np.count_nonzero(~np.isfinite(sample).all(axis=1)))
    if bad:
        raise TrainingError(f"trained generator gives non-finite cells for {bad} of {len(flat)} word samples")
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
    gen, g_info = nn.load_params(g_path, "generator", GEN_IN_DIM, GEN_OUT_DIM, GEN_DTYPE)
    disc, _ = nn.load_params(d_path, "discriminator", DISC_IN_DIM, 1)
    return GanBundle(
        generator=gen,
        discriminator=disc,
        seed=g_info["rng_seed"] if g_info["rng_seed"] is not None else 0,
        epochs_trained=g_info["trained_epochs"],
        converged=bool(g_info["metadata"].get("converged", False)),
    )
