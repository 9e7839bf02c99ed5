import dataclasses
import json
import re

import numpy as np
import pytest

from keyforge import gan, nn, verifier
from keyforge.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_hash,
    load_config,
)
from keyforge.data import synth_corpus


def test_defaults_are_paper_scale():
    cfg = RunConfig()
    assert cfg.data.users == 25
    assert cfg.data.sentences_per_user == 15
    assert cfg.seeds.global_seed == 7
    assert cfg.attack.n_sequences == 20
    assert cfg.eval.n_sequences == 15  # the windows that 15 sentences per user guarantee
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


def test_config_root_of_another_type_rejected():
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        config_from_dict(["u0"])


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="config.gan"):
        config_from_dict({"gan": {"max_epoch": 100}})


@pytest.mark.parametrize("doc", [
    {"gan": {"max_epochs": "many"}, "tarrget_user": "u0"},
    {"gan": {"max_epoch": 100}, "tarrget_user": "u0", "seeds": []},
])
def test_unknown_top_level_key_is_reported_before_any_section(doc):
    with pytest.raises(ConfigError, match=re.escape("config: unknown keys ['tarrget_user']")):
        config_from_dict(doc)


def test_sections_are_checked_in_document_order():
    with pytest.raises(ConfigError, match=re.escape("config.seeds: expected an object, got list")):
        config_from_dict({"seeds": [], "gan": {"max_epoch": 100}})
    with pytest.raises(ConfigError, match=re.escape("config.gan: unknown keys ['max_epoch']")):
        config_from_dict({"gan": {"max_epoch": 100}, "seeds": []})


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


def test_config_is_json_serializable():
    doc = dataclasses.asdict(RunConfig())
    json.dumps(doc)
    assert doc["gan"]["stop_threshold"] == 0.85


def test_config_hash_of_valid_configs_is_pinned():
    # the load-time value checks accept these unchanged; an int rate stays an int
    assert config_hash(RunConfig()) == (
        "3aa6df86cc51168b70b67f831cfd73f06818f420ba75daff699025cc0ae34018")
    doc = {"gan": {"g_lr": 1, "stop_threshold": 1}, "seeds": {"gan": 3}}
    assert config_hash(config_from_dict(doc)) == (
        "aea8237b074be7e0b9016c2ba6a207ffccf7a2a92e3bdd4ac51faacb849affe3")


@pytest.mark.parametrize("doc", [
    {"gan": {"stop_threshold": 0}},
    {"gan": {"stop_threshold": 1.0, "beta1": 0, "beta2": 0.0}},
    {"data": {"users": 2, "sentences_per_user": 1}},
    {"verifier": {"margin": 1e-9, "lr": 3}},
    {"seeds": {"global_seed": 0, "gan": None, "eval": 0}},
    {"conditions": ["random"]},
    {"attack": {"fit_space_model": False, "space_hold_mean": 0, "space_hold_std": 0.0,
                "space_gap_mean": 2, "space_gap_std": 1e-300}},
    {"attack": {"n_sequences": 238609}, "eval": {"n_sequences": 1448}},
    {"verifier": {"train_pairs": 447392, "calibration_pairs": 223696, "test_pairs": 223696}},
    {"verifier": {"train_pairs": 2, "calibration_pairs": 2, "test_pairs": 1}},
    {"verifier": {"hidden": 11251}, "gan": {"g_hidden": 11251, "d_hidden1": 11251, "d_hidden2": 11251}},
    {"verifier": {"margin": 1e151}},
    {"attack": {"space_hold_mean": 5, "space_hold_std": 5.0, "space_gap_mean": 5, "space_gap_std": 5.0}},
    {"data": {"users": 3, "sentences_per_user": 372827}},
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
    ({"conditions": []}, "config.conditions must be a non-empty list, got []"),
    ({"attack": {"fit_space_model": 1}}, "config.attack.fit_space_model must be a JSON bool, got 1"),
    ({"attack": {"space_hold_mean": -1e-9}}, "config.attack.space_hold_mean"),
    ({"attack": {"space_gap_std": float("inf")}}, "config.attack.space_gap_std"),
    ({"attack": {"space_hold_std": True}}, "config.attack.space_hold_std"),
    ({"attack": {"space_gap_mean": "0.1"}}, "config.attack.space_gap_mean"),
    ({"attack": {"n_sequences": 238610}}, "config.attack.n_sequences must be an integer in [1, 238609]"),
    ({"eval": {"n_sequences": 1449}}, "config.eval.n_sequences must be an integer in [1, 1448]"),
    ({"verifier": {"train_pairs": 447393}},
     "config.verifier.train_pairs must be an integer in [2, 447392], got 447393"),
    ({"verifier": {"calibration_pairs": 223697}},
     "config.verifier.calibration_pairs must be an integer in [2, 223696], got 223697"),
    ({"verifier": {"test_pairs": 223697}},
     "config.verifier.test_pairs must be an integer in [1, 223696], got 223697"),
    ({"seeds": {"global_seed": -3}}, "config.seeds.global_seed must be an integer >= 0, got -3"),
    ({"seeds": {"verifier": -1}}, "config.seeds.verifier must be an integer >= 0 or null, got -1"),
    ({"seeds": {"eval": -1}}, "config.seeds.eval must be an integer >= 0 or null, got -1"),
    ({"gan": {"g_hidden": 11252}}, "config.gan.g_hidden must be an integer in [1, 11251], got 11252"),
    ({"gan": {"d_hidden1": 11252}}, "config.gan.d_hidden1 must be an integer in [1, 11251], got 11252"),
    ({"gan": {"d_hidden2": 0}}, "config.gan.d_hidden2 must be an integer in [1, 11251], got 0"),
    ({"verifier": {"hidden": 10**8}}, "config.verifier.hidden must be an integer in [1, 11251]"),
    ({"verifier": {"margin": 1e200}}, "config.verifier.margin must be a number in (0, 1e+151], got 1e+200"),
    ({"verifier": {"margin": 1.01e151}}, "config.verifier.margin must be a number in (0, 1e+151]"),
    ({"attack": {"space_gap_mean": 1e308}}, "config.attack.space_gap_mean must be a number in [0, 5], got 1e+308"),
    ({"attack": {"space_hold_std": 5.001}}, "config.attack.space_hold_std must be a number in [0, 5]"),
    ({"data": {"users": 3, "sentences_per_user": 372828}},
     "config.data.users x config.data.sentences_per_user must be at most 1118481 sentences, got 3 x 372828"),
    ({"data": {"users": 10**9}},
     "config.data.users x config.data.sentences_per_user must be at most 1118481 sentences"),
])
def test_bad_values_rejected_naming_the_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(doc)


def test_pair_ceilings_keep_the_pair_set_within_a_gib():
    """At every pair ceiling, make_pairs' one pair set is two (n, 15, 5) float64 arrays of <= 1 GiB."""
    v = config_from_dict({"verifier": {"train_pairs": 447392, "calibration_pairs": 223696,
                                       "test_pairs": 223696}}).verifier
    n = v.train_pairs + v.calibration_pairs + v.test_pairs
    assert n * 2 * 15 * 5 * 8 <= 2**30 < (n + 1) * 2 * 15 * 5 * 8


def test_width_ceiling_keeps_each_network_within_a_gib():
    """At the width ceiling every network's flat float64 parameters fit in 1 GiB; the generator's just."""
    cfg = config_from_dict({"verifier": {"hidden": 11251},
                            "gan": {"g_hidden": 11251, "d_hidden1": 11251, "d_hidden2": 11251}})

    def n_params(specs):
        return sum(spec.in_dim * spec.out_dim + spec.out_dim for spec in specs)

    networks = [gan.generator_specs(cfg.gan.g_hidden),
                gan.discriminator_specs(cfg.gan.d_hidden1, cfg.gan.d_hidden2),
                verifier.embedding_specs(cfg.verifier.hidden)]
    assert all(n_params(specs) * 8 <= 2**30 for specs in networks)
    assert n_params(gan.generator_specs(11252)) * 8 > 2**30


def test_margin_ceiling_keeps_an_epoch_loss_finite():
    """At the margin ceiling, impostor pairs at distance 0 over the largest train split sum to a finite loss."""
    v = config_from_dict({"verifier": {"margin": 1e151, "train_pairs": 447392}}).verifier
    losses, _ = nn.contrastive_loss(np.zeros(v.train_pairs), np.zeros(v.train_pairs, bool), v.margin)
    assert np.isfinite(losses.sum())


def test_corpus_ceiling_keeps_the_rows_within_a_gib():
    """A synthetic sentence has at most 40 keys of 3 float64, so 1,118,481 sentences fit in 1 GiB."""
    corpus = synth_corpus(20, 50, 3)
    assert max(len(sentence) for user in corpus.users for sentence in user.sentences) <= 40
    config_from_dict({"data": {"users": 3, "sentences_per_user": 1118481 // 3}})
    assert 1118481 * 40 * 3 * 8 <= 2**30 < 1118482 * 40 * 3 * 8
