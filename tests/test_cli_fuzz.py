"""One property over in-process cli.main at a micro config: whatever the input, a documented exit.

Each example is one command over one bad input: TSV bytes, a config value or a flag
at, just past or far past a bound of its check, or a mutated JSON checkpoint. It must
exit 0, 1, 2 or 3, let no exception out of main, warn no RuntimeWarning, and leave
every JSON file it writes free of NaN and Infinity literals.
"""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from keyforge.cli import _FLAG_KEYS, main
from keyforge.config import _VALUE_CHECKS

# a run of every phase at this size takes well under 0.1 s
MICRO = {
    "data": {"users": 2, "sentences_per_user": 2},
    "verifier": {"epochs": 1, "batch_size": 8, "hidden": 4,
                 "train_pairs": 4, "calibration_pairs": 4, "test_pairs": 2},
    "gan": {"max_epochs": 1, "check_interval": 1, "batch_size": 4,
            "g_hidden": 4, "d_hidden1": 4, "d_hidden2": 4},
    "attack": {"n_sequences": 1},
    "eval": {"n_sequences": 1},
}
COMMANDS = ("train-verifier", "train-cgan", "attack", "evaluate", "run-all")
# a value that passes its check but sizes a run far past MICRO (a ceiling, say) is only
# loaded and checked: the command then meets this missing corpus and exits 2
MISSING = "{run}/missing.tsv"


def argv_of(command, corpus="{base}/corpus.tsv", gan="{base}/gan", verifier="{base}/verifier.json",
            config="{base}/config.json"):
    out = "{run}/out"
    fakes = [arg for name in ("ordered-a", "ordered-b", "random-a", "random-b")
             for arg in (f"--fake-{name}", "{base}/fake.tsv")]
    return {
        "ingest": ["ingest", "--log", corpus, "--out", f"{out}/corpus.tsv"],
        "synth-data": ["synth-data", "--out", f"{out}/corpus.tsv"],
        "train-verifier": ["train-verifier", "--corpus", corpus, "--out", f"{out}/verifier.json",
                           "--config", config],
        "train-cgan": ["train-cgan", "--corpus", corpus, "--user", "u0", "--out-dir", f"{out}/gan",
                       "--config", config],
        "attack": ["attack", "--gan-dir", gan, "--corpus", corpus, "--user", "u0", "--condition", "ordered",
                   "--out", f"{out}/fake.tsv", "--config", config],
        "evaluate": ["evaluate", "--verifier", verifier, "--corpus", corpus, "--user", "u0", *fakes,
                     "--out-json", f"{out}/report.json", "--out-table", f"{out}/report.txt", "--config", config],
        "run-all": ["run-all", "--out-dir", f"{out}/run", "--config", config],
    }[command]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A micro corpus, config, verifier, GAN and attack stream, each made by the CLI."""
    d = tmp_path_factory.mktemp("base")
    (d / "config.json").write_text(json.dumps(MICRO))
    steps = [["synth-data", "--users", "3", "--sentences", "2", "--seed", "7", "--out", "{base}/corpus.tsv"],
             ["train-verifier", "--corpus", "{base}/corpus.tsv", "--out", "{base}/verifier.json",
              "--config", "{base}/config.json"],
             ["train-cgan", "--corpus", "{base}/corpus.tsv", "--user", "u0", "--out-dir", "{base}/gan",
              "--config", "{base}/config.json"],
             ["attack", "--gan-dir", "{base}/gan", "--corpus", "{base}/corpus.tsv", "--user", "u0",
              "--condition", "ordered", "--out", "{base}/fake.tsv", "--config", "{base}/config.json"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for step in steps:
            assert main([arg.format(base=d) for arg in step]) == 0
    return d


# --- the edges of each check -------------------------------------------------------------

JUNK = [None, True, "1", [1], {"a": 1}, 1.5, 10**400, -10**400, math.nan, math.inf]


def edges(what):
    """Values at, just past and far past each bound that a _VALUE_CHECKS description states.

    The first number in the description is the lower bound, a second one the upper.
    """
    real = "integer" not in what
    numbers = re.findall(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?", what)
    values = []
    for side, number in zip((-1, 1), numbers):
        if real:
            bound = float(number)
            values += [bound, math.nextafter(bound, side * math.inf), side * 1e308, side * 10**400]
        else:
            bound = int(number)
            values += [bound, bound + side, side * 10**30]
    return values


CHECKED_KEYS = [(section, key) for section, checks in _VALUE_CHECKS.items() for key in checks]


def flag_rule(command, flag):
    section, key = _FLAG_KEYS[command][flag]
    return _VALUE_CHECKS[section]["global_seed" if section == "seeds" else key]


def costly(section, key, value):
    """Whether a value passes its check but sizes a run far past MICRO: a count or a ceiling."""
    return section != "seeds" and _VALUE_CHECKS[section][key][1](value) and isinstance(value, int) and value > 64


# --- the four kinds of input ---------------------------------------------------------------

TSV_TOKENS = ["", "nan", "inf", "-inf", "-5", "1e308", "-1e308", "1e999", "9" * 5000, "0x10", " 7", "ü"]
tsv_edits = st.lists(st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 60), st.integers(0, 4),
              st.sampled_from(TSV_TOKENS) | st.floats().map(repr)),
    st.tuples(st.just("columns"), st.integers(0, 60), st.integers(-2, 2)),
    st.tuples(st.just("duplicate"), st.integers(1, 60)),
    st.tuples(st.just("bytes"), st.integers(0, 4000), st.sampled_from([b"\xff", b"\xc3", b"\x00", b"\r", b"\n"])),
    st.tuples(st.just("cut"), st.integers(0, 4000)),
    st.tuples(st.just("scale"), st.sampled_from([1e300, 1e200, 1e15, 1e-300, -1.0])),  # every time
), min_size=1, max_size=3)
tsv_cases = st.tuples(st.just("tsv"), st.sampled_from(("ingest", *COMMANDS[:-1])), tsv_edits)

config_values = st.sampled_from(CHECKED_KEYS).flatmap(
    lambda sk: st.tuples(st.just(sk[0]), st.just(sk[1]),
                         st.sampled_from(edges(_VALUE_CHECKS[sk[0]][sk[1]][0]) or [False]) | st.sampled_from(JUNK)))
config_docs = st.sampled_from([[], "x", None, {"nope": 1}, {"gan": []}, {"verifier": {"nope": 1}},
                               {"conditions": []}, {"conditions": ["sideways"]}, {"conditions": "ordered"},
                               {"conditions": [1]}, {"conditions": ["random", "random"]},
                               {"target_user": 1}, {"target_user": None}, {"target_user": "nobody"}])
config_texts = st.sampled_from([b"{", b"", b'{"target_user": "u\xe9"}', b'{"seeds": {"global_seed": '
                                + b"9" * 5000 + b"}}", b'{"verifier": {"lr": NaN}}'])
config_cases = st.tuples(st.just("config"), st.sampled_from(COMMANDS),
                         st.one_of(config_values.map(lambda v: ("key", *v)), config_docs.map(lambda d: ("doc", d)),
                                   config_texts.map(lambda t: ("text", t))))

FLAG_PAIRS = [(command, flag) for command, flags in _FLAG_KEYS.items() for flag in flags]
flag_cases = st.sampled_from(FLAG_PAIRS).flatmap(
    lambda cf: st.tuples(st.just("flag"), st.just(cf[0]), st.tuples(
        st.just(cf[1]), st.sampled_from([str(v) for v in edges(flag_rule(*cf)[0])])
        | st.sampled_from(["1.5", "x", "", "9" * 5000, "0x1", "1e3"]))))

CHECKPOINTS = ("verifier.json", "gan/generator.json", "gan/discriminator.json")
HEADER_KEYS = ("format_version", "model_kind", "layer_specs", "weights", "biases", "embed_seed",
               "rng_seed", "trained_epochs", "metadata")
checkpoint_changes = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(HEADER_KEYS).map(lambda k: (k,)), st.sampled_from(JUNK)),
    st.tuples(st.just("set"), st.tuples(st.just("layer_specs"), st.integers(0, 2),
                                        st.sampled_from(["in_dim", "out_dim", "activation"])),
              st.sampled_from(JUNK + [0, -1, "tanh"])),
    st.tuples(st.just("set"), st.tuples(st.sampled_from(["weights", "biases"]), st.integers(0, 2), st.integers(0, 3)),
              st.sampled_from(JUNK + [1e308, -1e308])),
    st.tuples(st.just("set"), st.tuples(st.just("metadata"), st.sampled_from(["tau", "eer", "converged"])),
              st.sampled_from(JUNK + [-1.0, 1e308])),
    st.tuples(st.just("raw"), st.sampled_from(HEADER_KEYS), st.sampled_from([b"9" * 5000, b"NaN", b"-Infinity"])),
    st.tuples(st.just("delete"), st.sampled_from(HEADER_KEYS).map(lambda k: (k,)), st.none()),
    st.tuples(st.just("scale"), st.none(), st.sampled_from([1e306, -1e306, 0.0])),
    st.tuples(st.just("cut"), st.none(), st.integers(0, 3000)),
)
checkpoint_cases = st.tuples(st.just("checkpoint"), st.sampled_from(CHECKPOINTS), checkpoint_changes)


# --- turning a case into files and an argv ---------------------------------------------------

def edit_tsv(data, edits):
    for edit in edits:
        kind, where, *rest = edit
        if kind in ("bytes", "cut"):
            where = min(where, len(data))
            data = data[:where] + rest[0] + data[where:] if kind == "bytes" else data[:where]
            continue
        lines = data.split(b"\n")
        row = where % len(lines)
        if kind == "scale":
            for k, line in enumerate(lines[1:], 1):
                cells = line.split(b"\t")
                with contextlib.suppress(ValueError, IndexError):
                    cells[3:5] = [repr(float(cell) * where).encode() for cell in cells[3:5]]
                lines[k] = b"\t".join(cells)
        elif kind == "cell":
            cells = lines[row].split(b"\t")
            cells[rest[0] % len(cells)] = rest[1].encode()
            lines[row] = b"\t".join(cells)
        elif kind == "columns":
            cells = lines[row].split(b"\t")
            lines[row] = b"\t".join(cells + [b"1"] * rest[0] if rest[0] > 0 else cells[:len(cells) + rest[0]])
        else:  # duplicate
            lines.insert(row, lines[row])
        data = b"\n".join(lines)
    return data


def edit_checkpoint(data, kind, where, value):
    if kind == "cut":
        return data[:value]
    doc = json.loads(data)
    if kind == "raw":  # a header value as raw JSON text: an integer of 5,000 digits, say
        doc[where] = "\0raw"
        return json.dumps(doc).encode().replace(b'"\\u0000raw"', value)
    if kind == "scale":
        for name in ("weights", "biases"):
            doc[name] = json.loads(json.dumps(doc[name]), parse_float=lambda text: float(text) * value)
    else:
        *path, last = where
        node = doc
        for step in path:
            node = node[step % len(node)] if isinstance(node, list) else node[step]
        while isinstance(node, list) and node and isinstance(node[0], list):  # down to a weight row
            node = node[0]
        if kind == "delete":
            del node[last]
        elif isinstance(node, list):
            node[last % len(node)] = value
        else:
            node[last] = value
    return json.dumps(doc).encode()


def materialize(case, base, run):
    """Write a case's input under run and return the argv that runs it.

    A case is (kind, target, change): the target is the command to run, or for a
    checkpoint the file to mutate.
    """
    kind, command, change = case
    if kind == "tsv":
        (run / "corpus.tsv").write_bytes(edit_tsv((base / "corpus.tsv").read_bytes(), change))
        argv = argv_of(command, corpus="{run}/corpus.tsv")
    elif kind == "config":
        what, *rest = change
        corpus = "{base}/corpus.tsv"
        if what == "text":
            text = rest[0]
        else:
            doc = rest[0]
            if what == "key":
                section, key, value = rest
                doc = json.loads(json.dumps(MICRO))
                doc.setdefault(section, {})[key] = value
                if costly(section, key, value):
                    command, corpus = "train-verifier", MISSING
            text = json.dumps(doc).encode()
        (run / "config.json").write_bytes(text)
        argv = argv_of(command, corpus=corpus, config="{run}/config.json")
    elif kind == "flag":
        flag, value = change
        corpus = "{base}/corpus.tsv"
        with contextlib.suppress(ValueError):
            if costly(*_FLAG_KEYS[command][flag], int(value)):
                corpus = MISSING
        argv = [*argv_of(command, corpus=corpus), flag, value]
    else:
        shutil.copytree(base / "gan", run / "gan")
        (run / command).write_bytes(edit_checkpoint((base / command).read_bytes(), *change))
        argv = argv_of("evaluate" if command == "verifier.json" else "attack",
                       gan="{run}/gan", verifier="{run}/verifier.json")
    return [arg.format(base=base, run=run) for arg in argv]


def reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


@given(st.one_of(config_cases, flag_cases, checkpoint_cases, tsv_cases))
@example(("config", "train-verifier", ("text", b'{"seeds": {"global_seed": ' + b"9" * 5000 + b"}}")))
@example(("config", "train-verifier", ("key", "verifier", "lr", -10**400)))
@example(("checkpoint", "verifier.json", ("set", ("weights", 0, 0), 10**400)))
@example(("checkpoint", "gan/generator.json", ("raw", "rng_seed", b"9" * 5000)))
@example(("tsv", "attack", [("scale", 1e300)]))
def test_cli_exits_with_a_documented_code_on_any_input(base, case):
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        run = Path(tmp)
        (run / "out").mkdir()
        argv = materialize(case, base, run)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
        for path in (run / "out").rglob("*.json"):
            json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)
