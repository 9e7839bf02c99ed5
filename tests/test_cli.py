import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import keyforge
from keyforge import gan as gan_mod
from keyforge import nn, pipeline
from keyforge import verifier as verifier_mod
from keyforge.cli import main
from keyforge.data import WORD_LEN, export_log, synth_corpus

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
        for user in corpus.users:
            user.sentences = [user.sentences[0][:keys]]
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_cgan_blowup_is_training_failure(tmp_path, corpus_file, capsys):
    cfg = dict(TINY_CONFIG)
    cfg["gan"] = dict(TINY_CONFIG["gan"], g_lr=1e150, d_lr=1e150, max_epochs=30)
    cfg_path = tmp_path / "blowup.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["train-cgan", "--corpus", str(corpus_file), "--user", "u0",
                 "--out-dir", str(tmp_path / "gan"), "--config", str(cfg_path)])
    assert code == 3
    assert "training error" in capsys.readouterr().err


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
    ({"verifier": {"train_pairs": 1}}, "config.verifier.train_pairs must be an integer >= 2"),
    ({"verifier": {"calibration_pairs": 1}},
     "config.verifier.calibration_pairs must be an integer >= 2"),
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
    "attack_ordered_a.tsv": "000852dc0850560a166a76ff5b2e99183b604ddb2a6139efc8a6d4d99d471217",
    "attack_ordered_a.tsv.meta.json": "7dba715673b1fe2f9ea2da0bae3d6ed68b9b708dfc19f995942228ddee5416ea",
    "attack_ordered_b.tsv": "a7cdcfb2c3cc4c37b20ae605a1b14cc1c2bdb6db93e74f08ad485523fb100edf",
    "attack_ordered_b.tsv.meta.json": "b8b966b7eacff66dd756e6df4b868ef5df4cf459255ca8f65687529b1cb1b5fc",
    "attack_random_a.tsv": "2efa566607bf74073eb080c42757a7e40e9106ff4a98166a9031501fa83a1ca5",
    "attack_random_a.tsv.meta.json": "e967abf92e4bb1f4644f6ccc76a9178ecf1239907e7e09477dc2c17db8d74c53",
    "attack_random_b.tsv": "85946609ba316a814b5939b095790fbc474ded141414038a1b7e3254a4d71f28",
    "attack_random_b.tsv.meta.json": "bce6e4fadc0dc539cf16ff24dc7e59782fb9e90cfc292964848531bf1676af82",
    "corpus.tsv": "d1c702dba63f6431c0778a1bc55d0403b624d2ecf62404da75101632411fa64a",
    "discriminator.json": "db0db2018fabd1f95b5c563a2ce9b00aa8963c1f2a299fe95027c35f9a524808",
    "gan_history.json": "27e3b856f47dd57f5837c62d04fa90ad291a84f3a0fd1ef9c0da0f24ab8b3f9b",
    "generator.json": "62415cc3fa9f6515ac1bdf8f1582740d09ed28dec85c546c86ed790043707b2b",
    "report.json": "58003b346aa939685eeada1fd28e2c04e8ad25593f5e2c6fbac3bc5da037db5a",
    "report.txt": "37037af609411af5e563af95f43cc49938a20a7bca0754f9f732a028e838fb83",
    "verifier.json": "fa526a5019453627fcfeb99d9d8c983bcae60e115de499aeb4ad61af9cbaf094",
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


def evaluate_args(verifier, corpus_file, out_json):
    """evaluate argv; loading the verifier fails first, so the fake streams need not exist."""
    fakes = [arg for name in ("ordered-a", "ordered-b", "random-a", "random-b")
             for arg in (f"--fake-{name}", str(corpus_file))]
    return ["evaluate", "--verifier", str(verifier), "--corpus", str(corpus_file), "--user", "u0",
            *fakes, "--out-json", str(out_json)]


def test_evaluate_with_verifier_of_other_width_is_data_error(tmp_path, corpus_file, capsys):
    path = tmp_path / "verifier.json"
    narrow = nn.init_network([nn.LayerSpec(74, 8, "relu"), nn.LayerSpec(8, 64, "identity")], 0)
    nn.save_params(narrow, path, "verifier", 0, 0, {"tau": 0.5, "margin": 1.0})
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, path, "verifier maps 74 -> 64, expected 75 -> 64")
    assert not out_json.exists()


@pytest.mark.parametrize("tau", [None, "0.5", float("nan")])
def test_evaluate_with_bad_tau_is_data_error(tmp_path, corpus_file, tau, capsys):
    path = tmp_path / "verifier.json"
    net = nn.init_network(verifier_mod.embedding_specs(8), 0)
    nn.save_params(net, path, "verifier", 0, 0, {"tau": tau, "margin": 1.0})
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, path, f"tau {tau!r} is not a finite number >= 0")
    assert not out_json.exists()


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON: "),
    ("[1]", "expected a JSON object, got list"),
], ids=["malformed", "list"])
def test_evaluate_with_bad_attack_side_file_is_data_error(tmp_path, corpus_file, text, message,
                                                          capsys):
    path = tmp_path / "verifier.json"
    net = nn.init_network(verifier_mod.embedding_specs(8), 0)
    nn.save_params(net, path, "verifier", 0, 0, {"tau": 0.5, "margin": 1.0})
    side = Path(f"{corpus_file}.meta.json")
    side.write_text(text)
    out_json = tmp_path / "report.json"
    code = main(evaluate_args(path, corpus_file, out_json))
    assert_data_error(code, capsys, side, message)
    assert not out_json.exists()


def evaluate_over(tmp_path, config, corpus):
    """evaluate on corpus with an untrained verifier; the corpus fails before any fake stream."""
    corpus_path = tmp_path / "short.tsv"
    export_log(corpus, corpus_path)
    verifier = tmp_path / "verifier.json"
    net = nn.init_network(verifier_mod.embedding_specs(8), 0)
    nn.save_params(net, verifier, "verifier", 0, 0, {"tau": 0.5, "margin": 1.0})
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
        for user in corpus.users[1:]:
            user.sentences = [sentence[:WORD_LEN - 1] for sentence in user.sentences]
    code = evaluate_over(tmp_path, tiny_config, corpus)
    assert code == 2
    assert capsys.readouterr().err == (
        "data error: no user other than 'u0' has a full 15-key window "
        f"(u0: {verifier_mod.window_count(u0)} windows, "
        f"other users: {len(corpus.users) - 1} with 0 windows)\n")


def test_evaluate_over_a_corpus_without_windows_is_data_error(tmp_path, tiny_config, capsys):
    corpus = synth_corpus(4, 5, 7)
    for user in corpus.users:
        user.sentences = [sentence[:WORD_LEN - 1] for sentence in user.sentences]
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


def test_run_all_short_target_user_fails_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, eval={"n_sequences": 50})))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"data error: real sequences of u0: only \d+ sequences available, need 50\n",
                        err)
    assert not (out_dir / "verifier.json").exists()


def test_run_all_target_user_without_a_full_window_fails_before_training(tmp_path, monkeypatch,
                                                                         capsys):
    def short_u0(cfg):
        corpus = synth_corpus(cfg.data.users, cfg.data.sentences_per_user, 7)
        corpus.get("u0").sentences = [sentence[:14] for sentence in corpus.get("u0").sentences]
        return corpus

    monkeypatch.setattr(pipeline, "build_corpus", short_u0)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out_dir = tmp_path / "run"
    code = main(["run-all", "--out-dir", str(out_dir), "--config", str(cfg_path)])
    assert code == 2
    assert (capsys.readouterr().err
            == "data error: real sequences of u0: only 0 sequences available, need 3\n")
    assert not (out_dir / "verifier.json").exists()
