import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import keyforge
from keyforge import gan as gan_mod
from keyforge import nn, pipeline
from keyforge import verifier as verifier_mod
from keyforge.cli import main
from keyforge.config import RunConfig, config_hash, load_config
from keyforge.data import WORD_LEN, Corpus, UserLog, export_log, synth_corpus

TINY_CONFIG = {
    "target_user": "u0",
    "data": {"users": 4, "sentences_per_user": 5},
    "verifier": {
        "epochs": 5, "batch_size": 32, "hidden": 32,
        "train_pairs": 200, "calibration_pairs": 60, "test_pairs": 60,
    },
    "gan": {
        "max_epochs": 4, "check_interval": 2, "batch_size": 16,
        "g_hidden": 32, "d_hidden1": 32, "d_hidden2": 16,
    },
    "attack": {"n_sequences": 3},
    "eval": {"n_sequences": 3},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    assert main(["synth-data", "--users", "4", "--sentences", "5",
                 "--seed", "7", "--out", str(path)]) == 0
    return path


def test_synth_data_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["synth-data", "--users", "3", "--sentences", "2", "--seed", "5",
                 "--out", str(a)]) == 0
    assert main(["synth-data", "--users", "3", "--sentences", "2", "--seed", "5",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "3 users" in out


def test_synth_data_single_user_is_usage_error(tmp_path):
    assert main(["synth-data", "--users", "1", "--out", str(tmp_path / "x.tsv")]) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--users", "1", "config error: --users must be an integer >= 2, got 1\n"),
    ("--sentences", "0", "config error: --sentences must be an integer >= 1, got 0\n"),
])
def test_synth_data_flags_follow_the_config_rules(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.tsv"
    assert main(["synth-data", flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    out = capsys.readouterr().out
    assert out.startswith("usage: keyforge")
    # each subcommand heads an indented line of its own in the help listing
    for name in ("synth-data", "ingest", "train-verifier", "train-cgan", "attack", "evaluate",
                 "run-all"):
        assert re.search(rf"^ +{name}(\s|$)", out, re.MULTILINE), name


def test_ingest_summary(corpus_file, capsys):
    assert main(["ingest", "--log", str(corpus_file)]) == 0
    out = capsys.readouterr().out
    assert "4 users" in out and "20 sentences" in out


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    assert main(["ingest", "--log", str(missing)]) == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_ingest_of_a_directory_is_data_error(tmp_path, capsys):
    assert_data_error(main(["ingest", "--log", str(tmp_path)]), capsys, tmp_path, "Is a directory")


def test_attack_with_a_file_as_gan_dir_is_data_error(tmp_path, corpus_file, capsys):
    out = tmp_path / "f.tsv"
    code = main(["attack", "--gan-dir", str(corpus_file), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(out)])
    assert_data_error(code, capsys, corpus_file / "generator.json", "Not a directory")
    assert not out.exists()


def test_ingest_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("PARTICIPANT_ID\tSENTENCE_ID\tKEYCODE\tPRESS_TIME\tRELEASE_TIME\nu1\ts1\tx\t1\t2\n")
    assert main(["ingest", "--log", str(bad)]) == 2


@pytest.mark.parametrize("press, release", [("nan", "10"), ("0", "inf"), ("-inf", "10")])
def test_ingest_non_finite_time_is_data_error(tmp_path, capsys, press, release):
    bad = tmp_path / "bad.tsv"
    bad.write_text("PARTICIPANT_ID\tSENTENCE_ID\tKEYCODE\tPRESS_TIME\tRELEASE_TIME\n"
                   f"u1\ts1\t72\t0\t5\nu1\ts1\t73\t{press}\t{release}\n")
    assert main(["ingest", "--log", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.tsv:3:" in err and "non-finite" in err


def test_train_verifier_summary_format(tmp_path, tiny_config, corpus_file, capsys):
    ckpt = tmp_path / "verifier.json"
    code = main(["train-verifier", "--corpus", str(corpus_file), "--out", str(ckpt),
                 "--config", str(tiny_config)])
    assert code == 0
    assert ckpt.exists()
    out = capsys.readouterr().out
    assert re.search(r"tau=\d+\.\d{4}\b", out)
    assert re.search(r"eer=\d+\.\d{4}\b", out)


@pytest.mark.parametrize("users, keys, message", [
    (1, None, "the corpus has 1 users with a window and 1 with >= 2"),
    (2, WORD_LEN, "the corpus has 2 users with a window and 0 with >= 2"),
    (4, WORD_LEN - 1, "the corpus has 0 users with a window and 0 with >= 2"),
])
def test_train_verifier_on_too_few_windows_is_data_error(tmp_path, tiny_config, users, keys,
                                                         message, capsys):
    corpus = synth_corpus(4, 5, 7)
    corpus.users = corpus.users[:users]
    if keys is not None:  # one sentence per user, cut to keys keys
        corpus.users = [replace(user, sentences=[user.sentences[0][:keys]]) for user in corpus.users]
    path = tmp_path / "short.tsv"
    export_log(corpus, path)
    ckpt = tmp_path / "verifier.json"
    code = main(["train-verifier", "--corpus", str(path), "--out", str(ckpt),
                 "--config", str(tiny_config)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: verifier pairs need") and message in err
    assert "Traceback" not in err and not ckpt.exists()


def test_ingest_of_a_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("PARTICIPANT_ID\tSENTENCE_ID\tKEYCODE\tPRESS_TIME\tRELEASE_TIME\n"
                    "u\xe9\ts1\t72\t0\t5\n".encode("latin-1"))
    assert main(["ingest", "--log", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: not UTF-8 text") and "Traceback" not in err


def test_config_that_is_not_utf8_is_config_error(tmp_path, corpus_file, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_bytes(b'{"target_user": "u\xe9"}')
    code = main(["train-verifier", "--corpus", str(corpus_file), "--out", str(tmp_path / "v.json"),
                 "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg_path}: not UTF-8 text") and "Traceback" not in err


def test_train_verifier_missing_corpus(tmp_path, capsys):
    code = main(["train-verifier", "--corpus", str(tmp_path / "gone.tsv"),
                 "--out", str(tmp_path / "v.json")])
    assert code == 2
    assert "gone.tsv" in capsys.readouterr().err


def test_train_cgan_writes_history_and_warns(tmp_path, tiny_config, corpus_file, capsys):
    out_dir = tmp_path / "gan"
    code = main(["train-cgan", "--corpus", str(corpus_file), "--user", "u0",
                 "--out-dir", str(out_dir), "--config", str(tiny_config)])
    assert code == 0
    assert (out_dir / "generator.json").exists()
    assert (out_dir / "discriminator.json").exists()
    history = json.loads((out_dir / "gan_history.json").read_text())
    assert len(history["history"]) == 2  # checks at epochs 2 and 4
    out = capsys.readouterr().out
    assert "warning" in out  # 4 epochs cannot converge


def test_train_cgan_unknown_user(tmp_path, tiny_config, corpus_file, capsys):
    code = main(["train-cgan", "--corpus", str(corpus_file), "--user", "nobody",
                 "--out-dir", str(tmp_path / "gan"), "--config", str(tiny_config)])
    assert code == 2
    assert capsys.readouterr().err == "data error: unknown user id 'nobody'\n"
    assert not (tmp_path / "gan").exists()


def test_run_all_unknown_target_user_fails_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, target_user="nobody")))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 2
    assert capsys.readouterr().err == "data error: unknown user id 'nobody'\n"
    assert not (out_dir / "verifier.json").exists()


def test_train_cgan_blowup_is_training_failure(tmp_path, corpus_file, capsys):
    cfg = dict(TINY_CONFIG)
    cfg["gan"] = dict(TINY_CONFIG["gan"], g_lr=1e150, d_lr=1e150, max_epochs=30)
    cfg_path = tmp_path / "blowup.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["train-cgan", "--corpus", str(corpus_file), "--user", "u0",
                 "--out-dir", str(tmp_path / "gan"), "--config", str(cfg_path)])
    assert code == 3
    assert "training error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("gan", "g_lr"), ("gan", "d_lr"), ("verifier", "lr")])
def test_overflowing_learning_rate_is_one_training_error_line(tmp_path, corpus_file, section, key, capsys):
    """The overflow itself stays silent (a RuntimeWarning fails the test); the finite checks report it."""
    cfg = dict(TINY_CONFIG)
    cfg[section] = dict(TINY_CONFIG[section], **{key: 1e308})
    cfg_path = tmp_path / "lr.json"
    cfg_path.write_text(json.dumps(cfg))
    args = (["train-cgan", "--user", "u0", "--out-dir", str(tmp_path / "gan")] if section == "gan"
            else ["train-verifier", "--out", str(tmp_path / "v.json")])
    code = main([*args, "--corpus", str(corpus_file), "--config", str(cfg_path)])
    assert code == 3
    assert capsys.readouterr().err == "training error: non-finite gradient in layer 0\n"
    assert not (tmp_path / "gan").exists() and not (tmp_path / "v.json").exists()


def test_train_cgan_whose_generator_gives_non_finite_cells_is_training_error(tmp_path, corpus_file, capsys):
    """One Adam step at a rate near the float ceiling leaves finite weights whose every sample is NaN."""
    cfg_path = tmp_path / "found.json"
    cfg_path.write_text(json.dumps({"gan": {"g_lr": 1.7e308, "batch_size": 1000, "g_hidden": 32,
                                            "d_hidden1": 32, "d_hidden2": 16}}))
    code = main(["train-cgan", "--corpus", str(corpus_file), "--user", "u0",
                 "--out-dir", str(tmp_path / "gan"), "--config", str(cfg_path), "--max-epochs", "1"])
    assert code == 3
    assert capsys.readouterr().err == (
        "training error: trained generator gives non-finite cells for 17 of 17 word samples\n")
    assert not (tmp_path / "gan").exists()


@pytest.fixture()
def trained_artifacts(tmp_path, tiny_config, corpus_file):
    gan_dir = tmp_path / "gan"
    assert main(["train-cgan", "--corpus", str(corpus_file), "--user", "u0",
                 "--out-dir", str(gan_dir), "--config", str(tiny_config)]) == 0
    verifier = tmp_path / "verifier.json"
    assert main(["train-verifier", "--corpus", str(corpus_file), "--out", str(verifier),
                 "--config", str(tiny_config)]) == 0
    return gan_dir, verifier


def test_attack_writes_tsv_and_metadata(tmp_path, tiny_config, corpus_file, trained_artifacts, capsys):
    gan_dir, _ = trained_artifacts
    out = tmp_path / "fake.tsv"
    code = main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(out),
                 "--config", str(tiny_config), "--seed", "10"])
    assert code == 0
    assert out.exists()
    meta = json.loads((tmp_path / "fake.tsv.meta.json").read_text())
    assert meta["seed"] == 10
    assert meta["condition"] == "ordered"
    stdout = capsys.readouterr().out
    assert "seed=10" in stdout
    events, windows = re.search(r": (\d+) events \((\d+) windows available", stdout).groups()
    assert int(windows) == int(events) // WORD_LEN > 0


def test_attack_invalid_condition_is_usage_error(tmp_path, corpus_file, trained_artifacts, capsys):
    gan_dir, _ = trained_artifacts
    code = main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "sideways", "--out", str(tmp_path / "f.tsv")])
    assert code == 1
    assert "sideways" in capsys.readouterr().err


def test_attack_zero_sequences_is_config_error(tmp_path, tiny_config, corpus_file, trained_artifacts,
                                              capsys):
    gan_dir, _ = trained_artifacts
    code = main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(tmp_path / "f.tsv"),
                 "--config", str(tiny_config), "--n-sequences", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --n-sequences") and "Traceback" not in err
    assert not (tmp_path / "f.tsv").exists()


def test_attack_sequences_past_the_ceiling_is_config_error(tmp_path, corpus_file, capsys):
    """The flag meets the attack.n_sequences ceiling; the check comes before any file is read."""
    code = main(["attack", "--gan-dir", str(tmp_path / "nothing"), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(tmp_path / "f.tsv"),
                 "--n-sequences", str(10**12)])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: --n-sequences must be an integer in [1, 238609], got 1000000000000\n")


@pytest.mark.parametrize("command, flag, value", [
    ("train-verifier", "--epochs", "0"),
    ("train-verifier", "--epochs", "-2"),
    ("train-cgan", "--max-epochs", "0"),
    ("train-cgan", "--max-epochs", "-3"),
])
def test_count_override_below_one_is_config_error(tmp_path, tiny_config, corpus_file, command, flag,
                                                  value, capsys):
    out = tmp_path / "out"
    target = (["--out", str(out)] if command == "train-verifier"
              else ["--user", "u0", "--out-dir", str(out)])
    code = main([command, "--corpus", str(corpus_file), *target, "--config", str(tiny_config),
                 flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {flag} must be an integer >= 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("synth-data", ["--out", "{x}"]),
    ("train-verifier", ["--corpus", "{x}", "--out", "{x}"]),
    ("train-cgan", ["--corpus", "{x}", "--user", "u0", "--out-dir", "{x}"]),
    ("attack", ["--gan-dir", "{x}", "--corpus", "{x}", "--user", "u0", "--condition", "ordered",
                "--out", "{x}"]),
    ("evaluate", ["--verifier", "{x}", "--corpus", "{x}", "--user", "u0"]),
    ("run-all", ["--out-dir", "{x}"]),
])
def test_negative_seed_flag_is_config_error(tmp_path, command, args, capsys):
    """Every --seed meets the seeds' check before any file is read or written."""
    missing = tmp_path / "missing"
    code = main([command, *(a.format(x=missing) for a in args), "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "config error: --seed must be an integer >= 0, got -1\n"
    assert not missing.exists()


@pytest.mark.parametrize("section", ["attack", "eval"])
def test_zero_sequences_in_config_is_config_error(tmp_path, section, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({section: {"n_sequences": 0}}))
    code = main(["run-all", "--out-dir", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.{section}.n_sequences") and "Traceback" not in err


@pytest.mark.parametrize("doc, key", [
    ({"gan": {"batch_size": 0}}, "config.gan.batch_size"),
    ({"gan": {"max_epochs": 0}}, "config.gan.max_epochs"),
    ({"data": {"users": 1}}, "config.data.users"),
    ({"seeds": {"global_seed": "x"}}, "config.seeds.global_seed"),
    ({"gan": {"stop_threshold": 2}}, "config.gan.stop_threshold"),
    ({"verifier": {"beta1": 1}}, "config.verifier.beta1"),
    ({"conditions": ["random", "random"]}, "config.conditions"),
    ({"verifier": {"train_pairs": 1}}, "config.verifier.train_pairs must be an integer in [2, 447392]"),
    ({"verifier": {"calibration_pairs": 1}},
     "config.verifier.calibration_pairs must be an integer in [2, 223696]"),
    ({"seeds": {"global_seed": -3}}, "config.seeds.global_seed must be an integer >= 0, got -3"),
    ({"seeds": {"gan": -1}}, "config.seeds.gan must be an integer >= 0 or null, got -1"),
    ({"gan": {"g_hidden": 10**8}}, "config.gan.g_hidden must be an integer in [1, 11251]"),
    ({"verifier": {"hidden": 11252}}, "config.verifier.hidden must be an integer in [1, 11251]"),
    ({"verifier": {"margin": 1e200}}, "config.verifier.margin must be a number in (0, 1e+151]"),
    ({"attack": {"space_gap_mean": 1e308}}, "config.attack.space_gap_mean must be a number in [0, 5]"),
    ({"data": {"users": 10**6, "sentences_per_user": 10**6}},
     "config.data.users x config.data.sentences_per_user must be at most 1118481 sentences"),
])
def test_bad_config_value_is_config_error(tmp_path, doc, key, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["run-all", "--out-dir", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}") and "Traceback" not in err
    assert not (tmp_path / "run" / "verifier.json").exists()


def test_attack_missing_checkpoint_is_data_error(tmp_path, corpus_file, capsys):
    code = main(["attack", "--gan-dir", str(tmp_path / "nothing"), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(tmp_path / "f.tsv")])
    assert code == 2


def test_evaluate_end_to_end(tmp_path, tiny_config, corpus_file, trained_artifacts, capsys):
    gan_dir, verifier = trained_artifacts
    fakes = {}
    for condition in ("ordered", "random"):
        for tag, seed in (("a", "10"), ("b", "11")):
            out = tmp_path / f"fake_{condition}_{tag}.tsv"
            assert main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                         "--user", "u0", "--condition", condition, "--out", str(out),
                         "--config", str(tiny_config), "--seed", seed]) == 0
            fakes[(condition, tag)] = out
    report_json = tmp_path / "report.json"
    report_txt = tmp_path / "report.txt"
    code = main(["evaluate", "--verifier", str(verifier), "--corpus", str(corpus_file),
                 "--user", "u0",
                 "--fake-ordered-a", str(fakes[("ordered", "a")]),
                 "--fake-ordered-b", str(fakes[("ordered", "b")]),
                 "--fake-random-a", str(fakes[("random", "a")]),
                 "--fake-random-b", str(fakes[("random", "b")]),
                 "--out-json", str(report_json), "--out-table", str(report_txt),
                 "--config", str(tiny_config)])
    assert code == 0
    doc = json.loads(report_json.read_text())
    assert set(doc["conditions"]) == {"ordered", "random"}
    for cond in ("ordered", "random"):
        assert set(doc["conditions"][cond]) == {"test1", "test2", "test3"}
        assert doc["conditions"][cond]["test1"]["n_pairs"] == 9  # 3x3 at tiny scale
    table = report_txt.read_text()
    assert "ordered" in table and "random" in table
    out = capsys.readouterr().out
    assert "condition" in out


def test_evaluate_set_size_mismatch_is_data_error(tmp_path, tiny_config, corpus_file,
                                                  trained_artifacts, capsys):
    gan_dir, verifier = trained_artifacts
    fake = tmp_path / "fake.tsv"
    assert main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(fake),
                 "--config", str(tiny_config)]) == 0
    # default eval wants 20 sequences; the tiny attack stream cannot provide them
    code = main(["evaluate", "--verifier", str(verifier), "--corpus", str(corpus_file),
                 "--user", "u0",
                 "--fake-ordered-a", str(fake), "--fake-ordered-b", str(fake),
                 "--fake-random-a", str(fake), "--fake-random-b", str(fake)])
    assert code == 2
    assert "sequences" in capsys.readouterr().err


def test_run_all_is_deterministic(tmp_path, tiny_config, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["run-all", "--out-dir", str(out1), "--config", str(tiny_config)]) == 0
    assert main(["run-all", "--out-dir", str(out2), "--config", str(tiny_config)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "corpus.tsv").read_bytes() == (out2 / "corpus.tsv").read_bytes()
    for name in ("verifier.json", "generator.json", "discriminator.json",
                 "gan_history.json", "attack_ordered_a.tsv", "attack_random_b.tsv"):
        assert (out1 / name).exists()
    out = capsys.readouterr().out
    assert "condition" in out
    assert re.search(r"^phase timings \(s\): corpus=\d+\.\d, .*total=\d+\.\d$", out, re.MULTILINE)


# sha256 of every run-all artifact at TINY_CONFIG. The generator's float bits
# depend on the BLAS thread count, so the run below pins one thread.
GOLDEN_SHA256 = {
    "attack_ordered_a.tsv": "50e72efd660687cc37f438aabdeaf16c0162b8f04cb4063dbf6c62a4f522857e",
    "attack_ordered_a.tsv.meta.json": "7dba715673b1fe2f9ea2da0bae3d6ed68b9b708dfc19f995942228ddee5416ea",
    "attack_ordered_b.tsv": "f36673577bd11380b20f8983e09120766be28fe64f2bd0b6a3a5d58b846689f6",
    "attack_ordered_b.tsv.meta.json": "b8b966b7eacff66dd756e6df4b868ef5df4cf459255ca8f65687529b1cb1b5fc",
    "attack_random_a.tsv": "3cfddcfe670692583c354b783ce4c32e7f7d0645d5981a289e6fd398138c2cfa",
    "attack_random_a.tsv.meta.json": "e967abf92e4bb1f4644f6ccc76a9178ecf1239907e7e09477dc2c17db8d74c53",
    "attack_random_b.tsv": "bb445b97de9ab7a10f69d7ee111c8ae5dd499ed240ec87cf4e914794805919e2",
    "attack_random_b.tsv.meta.json": "bce6e4fadc0dc539cf16ff24dc7e59782fb9e90cfc292964848531bf1676af82",
    "corpus.tsv": "d1c702dba63f6431c0778a1bc55d0403b624d2ecf62404da75101632411fa64a",
    "discriminator.json": "95a613899a98569d4236bf9bd8f628dfe62e3d68a6cb3ca80e5aba76e0c9deae",
    "gan_history.json": "19a585d89711af6c8f95ff718a501cd149b104ef89b7e6450fdc1f748f6f1115",
    "generator.json": "9b5add456b79075ad2d761de3b09022593e19eef14468bb9f6b9dfcefe428dca",
    "report.json": "8e968490539096e35885f26887df7a8015305ac42c4a07aeea210ab3eefb7d69",
    "report.txt": "cd8023a76ee82457762ef31c8e202e167c23f4d5d0d3804223f8354374b51cbc",
    "verifier.json": "4c0f3c3fc4e8bae6608f070d5e6312f21e0ddc8afd70c8497c0e55bbef636e46",
}


def test_run_all_golden_digests(tmp_path, tiny_config):
    out_dir = tmp_path / "run"
    src = str(Path(keyforge.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "keyforge", "run-all", "--out-dir", str(out_dir),
                    "--config", str(tiny_config)], env=env, check=True, capture_output=True)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == GOLDEN_SHA256


# sha256 over every distance run-all computes at TINY_CONFIG, in call order:
# threshold calibration and held-out accuracy (pair_distances), then the six
# test sets (evaluation's n x n distances). The report only says on which side
# of tau each distance falls; this pins the distances themselves. Their bits
# depend on the BLAS thread count, so the run pins one thread in a fresh
# interpreter.
DISTANCES_SHA256 = "86a9064b0e09c93bb3fc5548760513c0cf5dab6e155ac70c6a9026712595ec3b"

_DISTANCES_SCRIPT = """
import hashlib, json, sys, tempfile
from keyforge import evaluation, pipeline, verifier
from keyforge.config import config_from_dict

distances = []

def recorded(fn):
    def call(*args):
        d = fn(*args)
        distances.append(d)
        return d
    return call

verifier.pair_distances = recorded(verifier.pair_distances)
evaluation._cross_distances = recorded(evaluation._cross_distances)
with tempfile.TemporaryDirectory() as out:
    pipeline.run_all(config_from_dict(json.loads(sys.argv[1])), out, log=lambda *args: None)
h = hashlib.sha256()
for d in distances:
    h.update(d.tobytes())
print(len(distances), sum(d.size for d in distances), h.hexdigest())
"""


def test_run_all_distances_are_pinned():
    src = str(Path(keyforge.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _DISTANCES_SCRIPT, json.dumps(TINY_CONFIG)], env=env,
                         check=True, capture_output=True, text=True).stdout.split()
    assert out == ["8", "174", DISTANCES_SHA256]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}])
def test_import_pins_blas_threads_unless_set(preset):
    """Importing keyforge sets each BLAS thread variable to 1 unless it is already set."""
    src = str(Path(keyforge.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import json, os, keyforge; "
             f"print(json.dumps([os.environ.get(v) for v in {BLAS_VARS!r}]))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True,
                          text=True)
    assert json.loads(done.stdout) == [preset.get(v, "1") for v in BLAS_VARS]


def assert_data_error(code, capsys, path, message):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: {message}") and "Traceback" not in err


def test_attack_with_generator_of_other_width_is_data_error(tmp_path, corpus_file, capsys):
    gan_dir = tmp_path / "gan"
    small = gan_mod.GanTrainConfig(g_hidden=8, d_hidden1=8, d_hidden2=4)
    gan_mod.save_bundle(gan_mod.new_bundle(0, small), gan_dir)
    narrow = nn.init_network([nn.LayerSpec(599, 8, "leaky_relu"), nn.LayerSpec(8, 75, "sigmoid")], 0)
    nn.save_params(narrow, gan_dir / "generator.json", "generator", 0, 0, {})
    out = tmp_path / "f.tsv"
    code = main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(out)])
    assert_data_error(code, capsys, gan_dir / "generator.json",
                      "generator maps 599 -> 75, expected 600 -> 75")
    assert not out.exists()


def test_attack_with_overflowing_generator_is_data_error(tmp_path, tiny_config, corpus_file, capsys):
    """Weights scaled by 1e30 load as finite but generate NaN cells; the error names the checkpoint."""
    gan_dir = tmp_path / "gan"
    bundle = gan_mod.new_bundle(0, gan_mod.GanTrainConfig(g_hidden=32, d_hidden1=32, d_hidden2=16))
    bundle.generator.flat *= 1e30
    gan_mod.save_bundle(bundle, gan_dir)
    out = tmp_path / "f.tsv"
    code = main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                 "--user", "u0", "--condition", "ordered", "--out", str(out),
                 "--config", str(tiny_config)])
    assert_data_error(code, capsys, gan_dir / "generator.json", "generator gives non-finite cells for ")
    assert not out.exists()


@pytest.mark.parametrize("value", [None, 1e300, 0.1], ids=["float64-file", "1e300", "0.1"])
def test_attack_with_generator_values_float32_does_not_hold_is_data_error(tmp_path, corpus_file, capsys, value):
    """A float64 generator file, or one value that overflows or rounds in float32: exit 2, naming file and layer."""
    gan_dir = tmp_path / "gan"
    gan_mod.save_bundle(gan_mod.new_bundle(0, gan_mod.GanTrainConfig(g_hidden=8, d_hidden1=8, d_hidden2=4)),
                        gan_dir)
    g_path, layer = gan_dir / "generator.json", 2
    if value is None:  # as generator files were written while the generator computed in float64
        nn.save_params(nn.init_network(gan_mod.generator_specs(8), 0), g_path, "generator", 0, 0, {})
        layer = 0
    else:
        doc = json.loads(g_path.read_text())
        doc["biases"][2][3] = value
        g_path.write_text(json.dumps(doc))
    out = tmp_path / "f.tsv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file),
                     "--user", "u0", "--condition", "ordered", "--out", str(out)])
    assert not caught
    assert_data_error(code, capsys, g_path, f"layer {layer} holds values that float32 does not\n")
    assert not out.exists()


def test_attack_over_run_all_checkpoints_reproduces_its_stream(tmp_path, tiny_config, capsys):
    """The float32 generator read back from generator.json gives run-all's in-memory bundle's bits."""
    run = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(run), "--config", str(tiny_config)]) == 0
    out = tmp_path / "ordered.tsv"
    assert main(["attack", "--gan-dir", str(run), "--corpus", str(run / "corpus.tsv"), "--user", "u0",
                 "--condition", "ordered", "--out", str(out), "--config", str(tiny_config)]) == 0
    assert out.read_bytes() == (run / "attack_ordered_a.tsv").read_bytes()


def evaluate_args(verifier, corpus_file, out_json):
    """evaluate argv; loading the verifier fails first, so the fake streams need not exist."""
    fakes = [arg for name in ("ordered-a", "ordered-b", "random-a", "random-b")
             for arg in (f"--fake-{name}", str(corpus_file))]
    return ["evaluate", "--verifier", str(verifier), "--corpus", str(corpus_file), "--user", "u0",
            *fakes, "--out-json", str(out_json)]


def untrained_verifier_file(path, scale=1.0):
    """Write an untrained 75 -> 8 -> 64 verifier with tau 0.5 to path, its weights times scale.

    It is built in VERIFIER_DTYPE (float32), as train-verifier writes it: a float64
    file does not load. A scale must stay inside float32's range (1e30, not 1e306).
    """
    net = nn.init_network(verifier_mod.embedding_specs(8), 0, verifier_mod.VERIFIER_DTYPE)
    net.flat *= scale
    nn.save_params(net, path, "verifier", 0, 0, {"tau": 0.5, "margin": 1.0})
    return path


def test_evaluate_with_verifier_of_other_width_is_data_error(tmp_path, corpus_file, capsys):
    path = tmp_path / "verifier.json"
    narrow = nn.init_network([nn.LayerSpec(74, 8, "relu"), nn.LayerSpec(8, 64, "identity")], 0)
    nn.save_params(narrow, path, "verifier", 0, 0, {"tau": 0.5, "margin": 1.0})
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, path, "verifier maps 74 -> 64, expected 75 -> 64")
    assert not out_json.exists()


def test_evaluate_with_float64_verifier_is_data_error(tmp_path, corpus_file, capsys):
    """A verifier file as written while the verifier computed in float64: exit 2, naming file and layer 0."""
    path = tmp_path / "verifier.json"
    nn.save_params(nn.init_network(verifier_mod.embedding_specs(8), 0), path, "verifier", 0, 0,
                   {"tau": 0.5, "margin": 1.0})
    out_json = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(evaluate_args(path, corpus_file, out_json))
    assert not caught
    assert_data_error(code, capsys, path, "layer 0 holds values that float32 does not\n")
    assert not out_json.exists()


def test_evaluate_with_a_directory_as_verifier_is_data_error(tmp_path, corpus_file, capsys):
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(tmp_path, corpus_file, out_json))
    assert_data_error(code, capsys, tmp_path, "Is a directory")
    assert not out_json.exists()


@pytest.mark.parametrize("tau", [None, "0.5", float("nan")])
def test_evaluate_with_bad_tau_is_data_error(tmp_path, corpus_file, tau, capsys):
    path = untrained_verifier_file(tmp_path / "verifier.json")
    doc = json.loads(path.read_text())
    doc["metadata"]["tau"] = tau
    path.write_text(json.dumps(doc))  # save_params itself writes no NaN
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, path, f"tau {tau!r} is not a finite number >= 0")
    assert not out_json.exists()


@pytest.mark.parametrize("key, value", [("eer", float("nan")), ("heldout_accuracy", float("inf"))])
def test_evaluate_with_a_non_finite_verifier_metadata_value_is_data_error(tmp_path, corpus_file, key,
                                                                          value, capsys):
    path = untrained_verifier_file(tmp_path / "verifier.json")
    doc = json.loads(path.read_text())
    doc["metadata"][key] = value
    path.write_text(json.dumps(doc))
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, path, "non-finite number in the metadata")
    assert not out_json.exists()


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON: "),
    ("[1]", "expected a JSON object, got list"),
    ('{"seed": NaN}', "not valid JSON: Out of range float values are not JSON compliant"),
], ids=["malformed", "list", "nan-seed"])
def test_evaluate_with_bad_attack_side_file_is_data_error(tmp_path, corpus_file, text, message,
                                                          capsys):
    path = untrained_verifier_file(tmp_path / "verifier.json")
    side = Path(f"{corpus_file}.meta.json")
    side.write_text(text)
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, side, message)
    assert not out_json.exists()


def test_evaluate_with_overflowing_verifier_is_data_error(tmp_path, tiny_config, corpus_file, capsys):
    """Weights scaled by 1e30 load as finite but embed to inf; no NaN distance reaches a report."""
    path = untrained_verifier_file(tmp_path / "verifier.json", scale=1e30)
    corpus = synth_corpus(4, 5, 7)
    fakes = []
    for tag, user_id in (("a", "u1"), ("b", "u2")):
        fake = tmp_path / f"fake_{tag}.tsv"
        export_log(Corpus(users=[UserLog(pipeline.ATTACKER_ID, corpus.get(user_id).sentences)]), fake)
        fakes.append(str(fake))
    out_json = tmp_path / "report.json"
    code = main(["evaluate", "--verifier", str(path), "--corpus", str(corpus_file), "--user", "u0",
                 "--fake-ordered-a", fakes[0], "--fake-ordered-b", fakes[1],
                 "--fake-random-a", fakes[0], "--fake-random-b", fakes[1],
                 "--out-json", str(out_json), "--config", str(tiny_config)])
    assert_data_error(code, capsys, path, "verifier gives ")
    assert not out_json.exists()


def overflowing_verifier(monkeypatch):
    """Let train_verifier return its network with every weight scaled by 1e30: finite, but every
    distance it gives overflows."""
    train = verifier_mod.train_verifier

    def overflowing(*args, **kwargs):
        bundle = train(*args, **kwargs)
        bundle.network.flat *= 1e30
        return bundle

    monkeypatch.setattr(verifier_mod, "train_verifier", overflowing)


def assert_training_error(code, capsys, message):
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"training error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("phase", ["threshold calibration", "held-out accuracy"])
def test_train_verifier_that_overflows_is_training_error(tmp_path, tiny_config, corpus_file, phase,
                                                         monkeypatch, capsys):
    overflowing_verifier(monkeypatch)
    if phase == "held-out accuracy":  # calibration passes, so the held-out pairs meet the NaN
        def calibrate(bundle, pairs):
            bundle.tau = 0.5
            bundle.metadata["eer"] = 0.0
            return bundle.tau

        monkeypatch.setattr(verifier_mod, "calibrate_threshold", calibrate)
    ckpt = tmp_path / "verifier.json"
    code = main(["train-verifier", "--corpus", str(corpus_file), "--out", str(ckpt),
                 "--config", str(tiny_config)])
    assert_training_error(code, capsys, f"trained verifier fails {phase}: verifier gives ")
    assert not ckpt.exists()


def test_run_all_with_verifier_that_overflows_is_training_error(tmp_path, tiny_config, monkeypatch,
                                                                capsys):
    overflowing_verifier(monkeypatch)
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(tiny_config)])
    assert_training_error(code, capsys, "trained verifier fails threshold calibration: verifier gives ")
    assert not (out_dir / "verifier.json").exists() and not (out_dir / "report.json").exists()


def test_run_all_with_generator_that_overflows_is_training_error(tmp_path, tiny_config, monkeypatch,
                                                                 capsys):
    """train_user_gan returns its generator with every weight scaled by 1e30: finite, but it
    generates NaN cells, which the attack phase must name."""
    train = pipeline.train_user_gan

    def overflowing(*args, **kwargs):
        bundle = train(*args, **kwargs)
        bundle.generator.flat *= 1e30
        return bundle

    monkeypatch.setattr(pipeline, "train_user_gan", overflowing)
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(tiny_config)])
    assert_training_error(code, capsys,
                          "trained generator fails the attack phase: generator gives non-finite cells for ")
    assert not list(out_dir.glob("attack_*")) and not (out_dir / "report.json").exists()


def evaluate_over(tmp_path, config, corpus):
    """evaluate on corpus with an untrained verifier; the corpus fails before any fake stream."""
    corpus_path = tmp_path / "short.tsv"
    export_log(corpus, corpus_path)
    verifier = untrained_verifier_file(tmp_path / "verifier.json")
    out_json = tmp_path / "report.json"
    code = main([*evaluate_args(verifier, corpus_path, out_json), "--config", str(config)])
    assert not out_json.exists()
    return code


@pytest.mark.parametrize("others", ["absent", "short"])
def test_evaluate_without_other_users_windows_is_data_error(tmp_path, tiny_config, others, capsys):
    corpus = synth_corpus(4, 5, 7)
    u0 = corpus.get("u0")
    if others == "absent":
        corpus.users = [u0]
    else:
        corpus.users[1:] = [replace(user, sentences=[sentence[:WORD_LEN - 1] for sentence in user.sentences])
                            for user in corpus.users[1:]]
    code = evaluate_over(tmp_path, tiny_config, corpus)
    assert code == 2
    assert capsys.readouterr().err == (
        "data error: no user other than 'u0' has a full 15-key window "
        f"(u0: {verifier_mod.window_count(u0)} windows, "
        f"other users: {len(corpus.users) - 1} with 0 windows)\n")


def test_evaluate_over_a_corpus_without_windows_is_data_error(tmp_path, tiny_config, capsys):
    corpus = synth_corpus(4, 5, 7)
    corpus.users = [replace(user, sentences=[sentence[:WORD_LEN - 1] for sentence in user.sentences])
                    for user in corpus.users]
    code = evaluate_over(tmp_path, tiny_config, corpus)
    assert code == 2
    assert (capsys.readouterr().err
            == "data error: real sequences of u0: only 0 sequences available, need 3\n")


def test_evaluate_over_run_all_files_reproduces_its_report(tmp_path, tiny_config, capsys):
    run = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(run), "--config", str(tiny_config)]) == 0
    fakes = [arg for condition in ("ordered", "random") for tag in ("a", "b")
             for arg in (f"--fake-{condition}-{tag}", str(run / f"attack_{condition}_{tag}.tsv"))]
    report_json, report_txt = tmp_path / "report.json", tmp_path / "report.txt"
    assert main(["evaluate", "--verifier", str(run / "verifier.json"),
                 "--corpus", str(run / "corpus.tsv"), "--user", "u0", *fakes,
                 "--out-json", str(report_json), "--out-table", str(report_txt),
                 "--config", str(tiny_config)]) == 0
    held = json.loads((run / "report.json").read_text())
    read_back = json.loads(report_json.read_text())
    assert read_back["conditions"] == held["conditions"]
    assert report_txt.read_bytes() == (run / "report.txt").read_bytes()


def test_evaluate_over_one_condition_run_all_files_reproduces_its_report(tmp_path):
    """evaluate scores config.conditions, as run-all does, and takes the fake flags of those only."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, conditions=["ordered"])))
    run = tmp_path / "run"
    assert main(["run-all", "--out-dir", str(run), "--config", str(cfg_path)]) == 0
    assert not list(run.glob("attack_random_*"))
    report_json, report_txt = tmp_path / "report.json", tmp_path / "report.txt"
    assert main(["evaluate", "--verifier", str(run / "verifier.json"),
                 "--corpus", str(run / "corpus.tsv"), "--user", "u0",
                 "--fake-ordered-a", str(run / "attack_ordered_a.tsv"),
                 "--fake-ordered-b", str(run / "attack_ordered_b.tsv"),
                 "--out-json", str(report_json), "--out-table", str(report_txt),
                 "--config", str(cfg_path)]) == 0
    held = json.loads((run / "report.json").read_text())
    read_back = json.loads(report_json.read_text())
    assert list(read_back["conditions"]) == ["ordered"]
    assert read_back["conditions"] == held["conditions"]
    assert report_txt.read_bytes() == (run / "report.txt").read_bytes()
    assert sorted(read_back["metadata"]["inputs"]) == ["corpus", "fake_ordered_a", "fake_ordered_b"]
    # one builder: evaluate's metadata is run-all's less the generator, which evaluate does not see
    run_all_meta = held["metadata"]
    del run_all_meta["gan_epochs"], run_all_meta["gan_converged"]
    del run_all_meta["checkpoints"]["generator"], run_all_meta["checkpoints"]["discriminator"]
    assert read_back["metadata"] == run_all_meta


@pytest.mark.parametrize("conditions, flags, message", [
    (["ordered"], ("ordered-a", "ordered-b", "random-a"),
     "evaluate: --fake-random-a is not allowed: config.conditions does not list 'random'\n"),
    (["ordered", "random"], ("ordered-a", "ordered-b", "random-a"),
     "evaluate: --fake-random-b is required: config.conditions lists 'random'\n"),
], ids=["extra", "missing"])
def test_evaluate_fake_flags_that_do_not_match_the_conditions_are_usage_errors(
        tmp_path, corpus_file, conditions, flags, message, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, conditions=conditions)))
    out_json = tmp_path / "report.json"
    fakes = [arg for flag in flags for arg in (f"--fake-{flag}", str(corpus_file))]
    code = main(["evaluate", "--verifier", str(tmp_path / "missing.json"), "--corpus", str(corpus_file),
                 "--user", "u0", *fakes, "--out-json", str(out_json), "--config", str(cfg_path)])
    assert code == 1
    assert capsys.readouterr().err == message
    assert not out_json.exists()


@pytest.mark.parametrize("override, message", [
    ({"attack": {"n_sequences": 3, "fit_space_model": False, "space_hold_std": -1}},
     "config.attack.space_hold_std must be a number in [0, 5], got -1"),
    ({"attack": {"n_sequences": 3, "fit_space_model": False, "space_gap_mean": float("nan")}},
     "config.attack.space_gap_mean must be a number in [0, 5], got nan"),
    ({"attack": {"n_sequences": 3, "fit_space_model": "no"}},
     "config.attack.fit_space_model must be a JSON bool, got 'no'"),
    ({"conditions": []}, "config.conditions must be a non-empty list, got []"),
    ({"attack": {"n_sequences": 10**12}},
     "config.attack.n_sequences must be an integer in [1, 238609], got 1000000000000"),
    ({"eval": {"n_sequences": 10**12}},
     "config.eval.n_sequences must be an integer in [1, 1448], got 1000000000000"),
    ({"verifier": {"train_pairs": 10**12}},
     "config.verifier.train_pairs must be an integer in [2, 447392], got 1000000000000"),
    ({"verifier": {"calibration_pairs": 10**12}},
     "config.verifier.calibration_pairs must be an integer in [2, 223696], got 1000000000000"),
    ({"verifier": {"test_pairs": 10**12}},
     "config.verifier.test_pairs must be an integer in [1, 223696], got 1000000000000"),
    ({"seeds": {"global_seed": -3}}, "config.seeds.global_seed must be an integer >= 0, got -3"),
    ({"seeds": {"attack": -1}}, "config.seeds.attack must be an integer >= 0 or null, got -1"),
    ({"gan": {"g_hidden": 10**8}}, "config.gan.g_hidden must be an integer in [1, 11251], got 100000000"),
    ({"gan": {"d_hidden2": 11252}}, "config.gan.d_hidden2 must be an integer in [1, 11251], got 11252"),
    ({"verifier": {"hidden": 11252}}, "config.verifier.hidden must be an integer in [1, 11251], got 11252"),
    ({"verifier": {"margin": 1e200}}, "config.verifier.margin must be a number in (0, 1e+151], got 1e+200"),
    ({"attack": {"n_sequences": 3, "fit_space_model": False, "space_gap_mean": 1e308}},
     "config.attack.space_gap_mean must be a number in [0, 5], got 1e+308"),
    ({"attack": {"n_sequences": 3, "fit_space_model": False, "space_hold_std": 1e308}},
     "config.attack.space_hold_std must be a number in [0, 5], got 1e+308"),
    ({"data": {"users": 10**6, "sentences_per_user": 5}},
     "config.data.users x config.data.sentences_per_user must be at most 1118481 sentences, "
     "got 1000000 x 5"),
], ids=["negative-space-std", "nan-space-mean", "string-bool", "no-conditions", "huge-attack-sequences",
        "huge-eval-sequences", "huge-train-pairs", "huge-calibration-pairs", "huge-test-pairs",
        "negative-global-seed", "negative-phase-seed", "huge-g-hidden", "wide-d-hidden2", "wide-v-hidden",
        "huge-margin", "huge-space-gap-mean", "huge-space-hold-std", "huge-corpus"])
def test_run_all_config_hole_is_config_error_naming_the_key(tmp_path, override, message, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, **override)))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out_dir.exists()


def test_default_config_has_the_windows_to_evaluate_at_every_seed():
    """run_all's pre-training window check passes at the default config for seeds 0-49."""
    for seed in range(50):
        cfg = RunConfig()
        cfg.seeds.global_seed = seed
        u0 = pipeline.build_corpus(cfg).get(cfg.target_user)
        assert verifier_mod.window_count(u0) >= cfg.eval.n_sequences, f"seed {seed}"


def test_synth_data_past_the_corpus_ceiling_is_config_error(tmp_path, capsys):
    out = tmp_path / "c.tsv"
    code = main(["synth-data", "--users", "1000000", "--sentences", "2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: --users x --sentences must be at most 1118481 sentences, got 1000000 x 2\n")
    assert not out.exists()


def test_run_all_non_finite_verifier_loss_is_training_error(tmp_path, monkeypatch, capsys):
    contrastive_loss = nn.contrastive_loss

    def infinite_loss(*args):
        loss, grad = contrastive_loss(*args)
        return np.full_like(loss, np.inf), grad

    monkeypatch.setattr(nn, "contrastive_loss", infinite_loss)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 3
    assert capsys.readouterr().err == "training error: non-finite verifier loss in epoch 0: inf\n"
    assert not (out_dir / "verifier.json").exists()


def test_run_all_short_target_user_fails_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, eval={"n_sequences": 50})))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"data error: real sequences of u0: only \d+ sequences available, need 50 "
                        r"\(eval.n_sequences\); data.sentences_per_user 5 guarantees 5\n", err)
    assert not (out_dir / "verifier.json").exists()


def test_run_all_target_user_without_a_full_window_fails_before_training(tmp_path, monkeypatch,
                                                                         capsys):
    def short_u0(cfg):
        corpus = synth_corpus(cfg.data.users, cfg.data.sentences_per_user, 7)
        u0 = corpus.users[0]
        corpus.users[0] = replace(u0, sentences=[sentence[:14] for sentence in u0.sentences])
        return corpus

    monkeypatch.setattr(pipeline, "build_corpus", short_u0)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 2
    assert (capsys.readouterr().err
            == "data error: real sequences of u0: only 0 sequences available, need 3 "
               "(eval.n_sequences); data.sentences_per_user 5 guarantees 5\n")
    assert not (out_dir / "verifier.json").exists()


def test_attack_seed_flag_enters_the_side_files_config_hash(tmp_path, tiny_config, corpus_file, trained_artifacts,
                                                            capsys):
    """attack --seed sets seeds.attack, so each side file holds the hash of the config that made its stream."""
    gan_dir, _ = trained_artifacts
    hashes = []
    for seed in (10, 11):
        out = tmp_path / f"fake-{seed}.tsv"
        assert main(["attack", "--gan-dir", str(gan_dir), "--corpus", str(corpus_file), "--user", "u0",
                     "--condition", "ordered", "--out", str(out), "--config", str(tiny_config),
                     "--seed", str(seed)]) == 0
        cfg = load_config(tiny_config)
        cfg.seeds.attack = seed
        hashes.append(json.loads(Path(f"{out}.meta.json").read_text())["config_hash"])
        assert hashes[-1] == config_hash(cfg)
    assert hashes[0] != hashes[1]


def test_synth_data_without_flags_is_the_default_config_corpus(tmp_path, capsys):
    default, explicit = tmp_path / "default.tsv", tmp_path / "explicit.tsv"
    assert main(["synth-data", "--out", str(default)]) == 0
    assert main(["synth-data", "--users", "25", "--sentences", "15", "--seed", "7", "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


# each subcommand's options, as they were before one table declared the integer flags
OPTIONS = {
    "synth-data": {"--users", "--sentences", "--seed", "--out"},
    "ingest": {"--log", "--out"},
    "train-verifier": {"--corpus", "--out", "--config", "--epochs", "--seed"},
    "train-cgan": {"--corpus", "--user", "--out-dir", "--config", "--max-epochs", "--seed"},
    "attack": {"--gan-dir", "--corpus", "--user", "--condition", "--out", "--config", "--n-sequences", "--seed"},
    "evaluate": {"--verifier", "--corpus", "--user", "--fake-ordered-a", "--fake-ordered-b", "--fake-random-a",
                 "--fake-random-b", "--out-json", "--out-table", "--config", "--seed"},
    "run-all": {"--out-dir", "--config", "--seed"},
}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_each_subcommand_keeps_its_options(command, capsys):
    assert main([command, "--help"]) == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) == OPTIONS[command] | {"--help"}
