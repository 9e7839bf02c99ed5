"""Run configuration: one JSON document, validated strictly at load.

Every consumed key is checked against the dataclass schema and unknown keys
are rejected, so a typo in a config file fails loudly instead of silently
running defaults. Values are checked for type and range at load too, so a
bad value fails with ConfigError naming its key before any work starts.
Per-phase seeds derive from the global seed when not set explicitly;
artifacts carry the canonical config hash for provenance.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .attack import CONDITIONS, SpaceModel
from .data import N_FEATURES, T_MAX_SECONDS, WORD_LEN
from .gan import GEN_IN_DIM, GEN_OUT_DIM, GanTrainConfig
from .verifier import EMBED_OUT_DIM, VerifierConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    users: int = 25
    sentences_per_user: int = 15


@dataclass
class AttackSection:
    n_sequences: int = 20
    fit_space_model: bool = True
    space_hold_mean: float = 0.080
    space_hold_std: float = 0.015
    space_gap_mean: float = 0.110
    space_gap_std: float = 0.030

    def default_space_model(self) -> SpaceModel:
        return SpaceModel(hold_mean=self.space_hold_mean, hold_std=self.space_hold_std,
                          gap_mean=self.space_gap_mean, gap_std=self.space_gap_std)


@dataclass
class EvalSection:
    n_sequences: int = 15  # the windows that data.sentences_per_user 15 guarantees


@dataclass
class Seeds:
    global_seed: int = 7
    data: int | None = None
    verifier: int | None = None
    gan: int | None = None
    attack: int | None = None
    attack_b: int | None = None
    eval: int | None = None

    def resolved(self) -> "Seeds":
        g = self.global_seed
        return Seeds(
            global_seed=g,
            data=self.data if self.data is not None else g,
            verifier=self.verifier if self.verifier is not None else g + 1,
            gan=self.gan if self.gan is not None else g + 2,
            attack=self.attack if self.attack is not None else g + 3,
            attack_b=self.attack_b if self.attack_b is not None else g + 4,
            eval=self.eval if self.eval is not None else g + 5,
        )


@dataclass
class RunConfig:
    target_user: str = "u0"
    conditions: list[str] = field(default_factory=lambda: list(CONDITIONS))
    seeds: Seeds = field(default_factory=Seeds)
    data: DataConfig = field(default_factory=DataConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    gan: GanTrainConfig = field(default_factory=GanTrainConfig)
    attack: AttackSection = field(default_factory=AttackSection)
    eval: EvalSection = field(default_factory=EvalSection)


_SECTION_TYPES = {
    "seeds": Seeds,
    "data": DataConfig,
    "verifier": VerifierConfig,
    "gan": GanTrainConfig,
    "attack": AttackSection,
    "eval": EvalSection,
}


def _fill_dataclass(cls, doc: dict, context: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {type(doc).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    return cls(**doc)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:  # an int past the largest float would overflow where it meets one
    return _is_int(value) and abs(value) <= sys.float_info.max or isinstance(value, float) and math.isfinite(value)


_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_RATE = ("a finite number > 0", lambda v: _is_real(v) and v > 0)
_BETA = ("a number in [0, 1)", lambda v: _is_real(v) and 0 <= v < 1)
_SEED = ("an integer >= 0 or null", lambda v: v is None or (_is_int(v) and v >= 0))

# A size key's ceiling keeps the largest float64 array it sizes within about 1 GiB.
_GIB = 2**30
# attack.n_sequences: the generated cells, one (15, 5) matrix per planned word. A word
# stitches at least two stream rows (a key and a space), so a 15-row sequence takes at
# most 7.5 words; 238,609 sequences at most.
_MAX_ATTACK_SEQUENCES = 2 * _GIB // (WORD_LEN * WORD_LEN * N_FEATURES * 8)
# eval.n_sequences: one test's (n, n, 64) code differences, from which its n x n
# distances are summed; 1,448 sequences at most.
_MAX_EVAL_SEQUENCES = math.isqrt(_GIB // (EMBED_OUT_DIM * 8))
# verifier.*_pairs: make_pairs draws all three splits as one pair set, two (n, 15, 5)
# arrays at 1,200 bytes per pair, so 894,784 pairs in total: half for training, a
# quarter each for calibration and test.
_MAX_PAIRS = _GIB // (2 * WORD_LEN * N_FEATURES * 8)
# gan.*_hidden, verifier.hidden: one width ceiling, at which every network's flat
# parameters stay within 1 GiB. The generator (600 -> h -> h -> 75, with biases) holds
# the most at width h, h^2 + 677h + 75, so 11,251 at most.
_GEN_LINEAR = GEN_IN_DIM + GEN_OUT_DIM + 2
_MAX_WIDTH = (math.isqrt(_GEN_LINEAR**2 + 4 * (_GIB // 8 - GEN_OUT_DIM)) - _GEN_LINEAR) // 2
# data.users x data.sentences_per_user: a synthetic sentence is at most 40 keys of 24 B.
_MAX_SENTENCES = _GIB // (40 * 3 * 8)
# verifier.margin: an epoch sums a pair loss of at most margin^2 / 2 over at most 447,392
# train pairs, finite up to sqrt(2 * float max / 447,392) = 2.8e151; the power of ten below.
_MAX_MARGIN = 10.0 ** math.floor(math.log10(math.sqrt(sys.float_info.max / (_MAX_PAIRS // 2) * 2)))
# attack.space_*: seconds, at most data.T_MAX_SECONDS, the longest time the features keep.
_SPACE_TIME = (f"a number in [0, {T_MAX_SECONDS:g}]", lambda v: _is_real(v) and 0 <= v <= T_MAX_SECONDS)
_MARGIN = (f"a number in (0, {_MAX_MARGIN:g}]", lambda v: _is_real(v) and 0 < v <= _MAX_MARGIN)


def _size(most: int, least: int = 1) -> tuple:
    return (f"an integer in [{least}, {most}]", lambda v: _is_int(v) and least <= v <= most)


# (description, predicate) per checked key of each section
_VALUE_CHECKS = {
    "seeds": {"global_seed": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
              **{k: _SEED for k in ("data", "verifier", "gan", "attack", "attack_b", "eval")}},
    "data": {"users": ("an integer >= 2", lambda v: _is_int(v) and v >= 2),
             "sentences_per_user": _COUNT},
    # make_pairs alternates genuine and impostor pairs, so a split needs two to hold both
    "verifier": {**{k: _COUNT for k in ("epochs", "batch_size")}, "hidden": _size(_MAX_WIDTH),
                 "train_pairs": _size(_MAX_PAIRS // 2, 2), "calibration_pairs": _size(_MAX_PAIRS // 4, 2),
                 "test_pairs": _size(_MAX_PAIRS // 4),
                 "lr": _RATE, "margin": _MARGIN, "beta1": _BETA, "beta2": _BETA},
    "gan": {**{k: _COUNT for k in ("max_epochs", "check_interval", "batch_size")},
            **{k: _size(_MAX_WIDTH) for k in ("g_hidden", "d_hidden1", "d_hidden2")},
            "g_lr": _RATE, "d_lr": _RATE, "beta1": _BETA, "beta2": _BETA,
            "stop_threshold": ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)},
    "attack": {"n_sequences": _size(_MAX_ATTACK_SEQUENCES),
               "fit_space_model": ("a JSON bool", lambda v: isinstance(v, bool)),
               **{f"space_{k}": _SPACE_TIME for k in ("hold_mean", "hold_std", "gap_mean", "gap_std")}},
    "eval": {"n_sequences": _size(_MAX_EVAL_SEQUENCES)},
}


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    top_names = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(doc) - top_names)
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")
    kwargs = {}
    for key, value in doc.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _fill_dataclass(_SECTION_TYPES[key], value, f"config.{key}")
        else:
            kwargs[key] = value
    cfg = RunConfig(**kwargs)
    if not isinstance(cfg.target_user, str):
        raise ConfigError(f"config.target_user must be a string, got {cfg.target_user!r}")
    if not isinstance(cfg.conditions, list) or not cfg.conditions:
        raise ConfigError(f"config.conditions must be a non-empty list, got {cfg.conditions!r}")
    for condition in cfg.conditions:
        if condition not in CONDITIONS:
            raise ConfigError(f"config.conditions: unknown condition {condition!r}")
    if len(set(cfg.conditions)) != len(cfg.conditions):
        raise ConfigError(f"config.conditions: duplicate condition in {cfg.conditions!r}")
    for section, checks in _VALUE_CHECKS.items():
        values = getattr(cfg, section)
        for key, (what, ok) in checks.items():
            value = getattr(values, key)
            if not ok(value):
                raise ConfigError(f"config.{section}.{key} must be {what}, got {value!r}")
    check_corpus_size(cfg.data.users, cfg.data.sentences_per_user,
                      "config.data.users x config.data.sentences_per_user")
    return cfg


def check_flag(value, flag: str, section: str, key: str) -> None:
    """Reject a command-line value that config.<section>.<key> would reject, naming the flag."""
    what, ok = _VALUE_CHECKS[section][key]
    if not ok(value):
        raise ConfigError(f"{flag} must be {what}, got {value!r}")


def check_corpus_size(users: int, sentences: int, names: str) -> None:  # names: the two sizes' keys or flags
    if users * sentences > _MAX_SENTENCES:
        raise ConfigError(f"{names} must be at most {_MAX_SENTENCES} sentences, got {users} x {sentences}")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's 4,300 digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
