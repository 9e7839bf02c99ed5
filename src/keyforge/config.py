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
from dataclasses import dataclass, field
from pathlib import Path

from .attack import SpaceModel
from .gan import GanTrainConfig
from .verifier import VerifierConfig


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
        return SpaceModel(
            hold_mean=self.space_hold_mean,
            hold_std=self.space_hold_std,
            gap_mean=self.space_gap_mean,
            gap_std=self.space_gap_std,
        )


@dataclass
class EvalSection:
    n_sequences: int = 20


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
    conditions: list[str] = field(default_factory=lambda: ["ordered", "random"])
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


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
# make_pairs alternates genuine and impostor pairs, so a split needs two to hold both
_PAIRS = ("an integer >= 2", lambda v: _is_int(v) and v >= 2)
_RATE = ("a finite number > 0", lambda v: _is_real(v) and v > 0)
_BETA = ("a number in [0, 1)", lambda v: _is_real(v) and 0 <= v < 1)
_SEED = ("an integer or null", lambda v: v is None or _is_int(v))

# (description, predicate) per checked key of each section
_VALUE_CHECKS = {
    "seeds": {"global_seed": ("an integer", _is_int),
              **{k: _SEED for k in ("data", "verifier", "gan", "attack", "attack_b", "eval")}},
    "data": {"users": ("an integer >= 2", lambda v: _is_int(v) and v >= 2),
             "sentences_per_user": _COUNT},
    "verifier": {**{k: _COUNT for k in ("epochs", "batch_size", "hidden", "test_pairs")},
                 "train_pairs": _PAIRS, "calibration_pairs": _PAIRS,
                 "lr": _RATE, "margin": _RATE, "beta1": _BETA, "beta2": _BETA},
    "gan": {**{k: _COUNT for k in ("max_epochs", "check_interval", "batch_size", "g_hidden",
                                   "d_hidden1", "d_hidden2")},
            "g_lr": _RATE, "d_lr": _RATE, "beta1": _BETA, "beta2": _BETA,
            "stop_threshold": ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)},
    "attack": {"n_sequences": _COUNT},
    "eval": {"n_sequences": _COUNT},
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
    if not isinstance(cfg.conditions, list):
        raise ConfigError(f"config.conditions must be a list, got {cfg.conditions!r}")
    for condition in cfg.conditions:
        if condition not in ("ordered", "random"):
            raise ConfigError(f"config.conditions: unknown condition {condition!r}")
    if len(set(cfg.conditions)) != len(cfg.conditions):
        raise ConfigError(f"config.conditions: duplicate condition in {cfg.conditions!r}")
    for section, checks in _VALUE_CHECKS.items():
        values = getattr(cfg, section)
        for key, (what, ok) in checks.items():
            value = getattr(values, key)
            if not ok(value):
                raise ConfigError(f"config.{section}.{key} must be {what}, got {value!r}")
    return cfg


def check_count(value, name: str) -> None:
    """Reject a count that is not an integer >= 1."""
    what, ok = _COUNT
    if not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return config_from_dict(doc)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
