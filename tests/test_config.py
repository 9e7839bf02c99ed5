import json
import re

import pytest

from keyforge.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)


def test_defaults_are_paper_scale():
    cfg = RunConfig()
    assert cfg.data.users == 25
    assert cfg.data.sentences_per_user == 15
    assert cfg.seeds.global_seed == 7
    assert cfg.attack.n_sequences == 20
    assert cfg.eval.n_sequences == 20
    assert cfg.gan.max_epochs == 5000
    assert cfg.gan.check_interval == 50
    assert cfg.gan.stop_threshold == 0.85


def test_seed_resolution_derives_from_global():
    seeds = RunConfig().seeds.resolved()
    assert seeds.data == 7
    assert seeds.verifier == 8
    assert seeds.gan == 9
    assert seeds.attack == 10
    assert seeds.attack_b == 11
    assert seeds.eval == 12


def test_explicit_seeds_win_over_derivation():
    cfg = config_from_dict({"seeds": {"global_seed": 7, "gan": 99}})
    seeds = cfg.seeds.resolved()
    assert seeds.gan == 99
    assert seeds.verifier == 8


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"tarrget_user": "u0"})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="config.gan"):
        config_from_dict({"gan": {"max_epoch": 100}})


def test_unknown_condition_rejected():
    with pytest.raises(ConfigError, match="condition"):
        config_from_dict({"conditions": ["ordered", "shuffled"]})


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target_user": "u3",
        "seeds": {"global_seed": 42},
        "gan": {"max_epochs": 10, "batch_size": 8},
        "verifier": {"epochs": 2},
    }))
    cfg = load_config(path)
    assert cfg.target_user == "u3"
    assert cfg.seeds.global_seed == 42
    assert cfg.gan.max_epochs == 10
    assert cfg.verifier.epochs == 2
    # untouched sections keep defaults
    assert cfg.attack.n_sequences == 20


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_hash_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    assert config_hash(a) == config_hash(b)
    b.seeds.global_seed = 8
    assert config_hash(a) != config_hash(b)


def test_config_to_dict_is_json_serializable():
    doc = config_to_dict(RunConfig())
    json.dumps(doc)
    assert doc["gan"]["stop_threshold"] == 0.85


def test_config_hash_of_valid_configs_is_pinned():
    # the load-time value checks accept these unchanged; an int rate stays an int
    assert config_hash(RunConfig()) == (
        "c35d6290bf81c6125e655f28c9acb894da3bda717d11bed816c2069c88a92bf8")
    doc = {"gan": {"g_lr": 1, "stop_threshold": 1}, "seeds": {"gan": 3}}
    assert config_hash(config_from_dict(doc)) == (
        "b7eab4b5e9df7abf3f84d1d53f06be029e636f1ad169f956627de02c5ca97220")


@pytest.mark.parametrize("doc", [
    {"gan": {"stop_threshold": 0}},
    {"gan": {"stop_threshold": 1.0, "beta1": 0, "beta2": 0.0}},
    {"data": {"users": 2, "sentences_per_user": 1}},
    {"verifier": {"margin": 1e-9, "lr": 3}},
    {"seeds": {"global_seed": -4, "gan": None, "eval": 0}},
    {"conditions": ["random"]},
])
def test_boundary_values_accepted(doc):
    config_from_dict(doc)


@pytest.mark.parametrize("doc, key", [
    ({"gan": {"batch_size": 0}}, "config.gan.batch_size"),
    ({"gan": {"max_epochs": 0}}, "config.gan.max_epochs"),
    ({"gan": {"check_interval": 2.0}}, "config.gan.check_interval"),
    ({"gan": {"g_hidden": True}}, "config.gan.g_hidden"),
    ({"gan": {"d_lr": 0.0}}, "config.gan.d_lr"),
    ({"gan": {"beta2": 1.0}}, "config.gan.beta2"),
    ({"gan": {"beta1": -0.1}}, "config.gan.beta1"),
    ({"gan": {"stop_threshold": 1.01}}, "config.gan.stop_threshold"),
    ({"gan": {"stop_threshold": "0.85"}}, "config.gan.stop_threshold"),
    ({"data": {"users": 1}}, "config.data.users"),
    ({"data": {"sentences_per_user": 0}}, "config.data.sentences_per_user"),
    ({"verifier": {"test_pairs": 0}}, "config.verifier.test_pairs"),
    ({"verifier": {"margin": -1.0}}, "config.verifier.margin"),
    ({"verifier": {"lr": float("nan")}}, "config.verifier.lr"),
    ({"seeds": {"global_seed": "x"}}, "config.seeds.global_seed"),
    ({"seeds": {"global_seed": False}}, "config.seeds.global_seed"),
    ({"seeds": {"attack_b": 1.5}}, "config.seeds.attack_b"),
    ({"conditions": ["ordered", "ordered"]}, "config.conditions"),
    ({"conditions": "ordered"}, "config.conditions"),
    ({"target_user": 0}, "config.target_user"),
])
def test_bad_values_rejected_naming_the_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(doc)
