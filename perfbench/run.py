#!/usr/bin/env python3
"""keyforge benchmark: three workloads driven through keyforge's public functions.

    python3 perfbench/run.py --workload study --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; keyforge is imported from its `src/`. The
run prints a readable report and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. perfbench/README.md
describes the workloads, the metrics and what each layer should move.
"""

import os

# One BLAS thread, pinned before numpy loads. On 2 cores one thread ran a GAN
# epoch as fast as two did, with less spread between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("study", "verifier-wide", "corpus-io")
TARGET = "u0"
SPACE = 32
SEQUENCE_ROWS = 15  # keyforge.data.WORD_LEN: rows per word sample and per verifier sequence
MIN_ITERATIONS = 2  # the determinism check compares at least two repeats
SETUP_PROBES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("gan_epochs_per_s", "epochs/s"),
    ("verifier_train_pairs_per_s", "pairs/s"),
    ("eval_pairs_per_s", "pairs/s"),
    ("synth_events_per_s", "events/s"),
    ("export_events_per_s", "events/s"),
    ("ingest_events_per_s", "events/s"),
    ("featurize_events_per_s", "events/s"),
    ("attack_events_per_s", "events/s"),
)

# Rates a workload's own job produces; the rest come from the mini-study probe.
NATIVE = {
    "study": {"gan_epochs_per_s", "verifier_train_pairs_per_s", "eval_pairs_per_s",
              "attack_events_per_s"},
    "verifier-wide": {"verifier_train_pairs_per_s", "eval_pairs_per_s"},
    "corpus-io": {"attack_events_per_s"},
}
PROBE_RATES = ("gan_epochs_per_s", "verifier_train_pairs_per_s", "eval_pairs_per_s",
               "attack_events_per_s")

now = time.perf_counter

# Every timing is scaled by the speed of this fixed reference kernel, timed
# just before and after it: seconds * REF_NOMINAL_S / t_ref. The 2-core host
# it was measured on drifted between fast and slow states of up to 1.6x that
# lasted seconds to minutes; raw medians then spread 20-50% between runs of
# identical work, scaled ones mostly under 10%. REF_NOMINAL_S is about the
# kernel's time on that host in its fast state.
REF_NOMINAL_S = 0.002
BASELINE_NOMINAL_S = 0.15  # a fresh interpreter importing numpy, on the same host
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((64, 75))
_REF_W = _REF_RNG.standard_normal((75, 128))


def _reference_kernel() -> float:
    """TSV-like string work, dict updates and small matmuls; returns its seconds.

    The collector is paused so that the program's live heap, which a
    collection would traverse, does not enter the reference time.
    """
    gc.disable()
    try:
        start = now()
        acc = 0.0
        rows = {}
        for i in range(1000):
            cells = f"u{i % 7}\ts{i % 3}\t{i}\t{i * 0.5!r}\t{i * 0.75!r}".split("\t")
            rows[i] = (int(cells[2]), float(cells[3]))
            acc += rows[i][1]
        for _ in range(30):
            acc += float(np.maximum(_REF_X @ _REF_W, 0.0).sum())
        return now() - start
    finally:
        gc.enable()


def reference_seconds() -> float:
    """Median of five kernel runs, so one preempted run does not skew a lap."""
    return statistics.median(_reference_kernel() for _ in range(5))


class Clock:
    """Lap timer whose laps are scaled to the host speed measured around them."""

    def __init__(self, scales: list[float]):
        self.scales = scales  # every lap's factor, reported as the host's speed
        self.scale = 1.0
        self._ref = reference_seconds()
        self._start = now()

    def restart(self) -> None:
        self._start = now()

    def lap(self) -> float:
        """Scaled seconds since the last lap or restart; the reference runs outside it."""
        raw = now() - self._start
        ref = reference_seconds()
        self.scale = REF_NOMINAL_S / (0.5 * (self._ref + ref))
        self.scales.append(self.scale)
        self._ref = ref
        self._start = now()
        return raw * self.scale


def _quiet(*_args, **_kwargs):
    pass


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def load_keyforge() -> types.SimpleNamespace:
    """Import keyforge from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import keyforge
        from keyforge import config, data, evaluation, gan, nn, pipeline, verifier
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import keyforge from {SRC}: {exc}")
    if not Path(keyforge.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: keyforge was imported from {keyforge.__file__}, not {SRC}")
    return types.SimpleNamespace(config=config, data=data, evaluation=evaluation, gan=gan,
                                 nn=nn, pipeline=pipeline, verifier=verifier)


def study_config(kf, seed: int, full: bool = False):
    cfg = kf.config.RunConfig()
    cfg.seeds.global_seed = seed
    if not full:
        # Every phase and one stop_check still run: the GAN trains one check
        # interval and the verifier a tenth of its epochs.
        cfg.gan.max_epochs = cfg.gan.check_interval
        cfg.verifier.epochs = 10
        # Each synthetic sentence has >= 15 keys and so yields >= 1 sequence;
        # at the default 20 about half of all seeds raise DataError.
        cfg.eval.n_sequences = cfg.data.sentences_per_user
    return cfg


def probe_config(kf, seed: int):
    cfg = study_config(kf, seed)
    cfg.gan.max_epochs, cfg.gan.check_interval = 40, 20
    cfg.verifier.epochs = 5
    cfg.attack.n_sequences = 40
    return cfg


def verifier_wide_config(kf, seed: int):
    cfg = kf.config.RunConfig()
    cfg.seeds.global_seed = seed
    cfg.data.users, cfg.data.sentences_per_user = 50, 30
    v = cfg.verifier
    v.epochs, v.train_pairs, v.calibration_pairs, v.test_pairs = 20, 6000, 2000, 2000
    cfg.eval.n_sequences = cfg.data.sentences_per_user
    return cfg


def corpus_io_config(kf, seed: int):
    cfg = kf.config.RunConfig()
    cfg.seeds.global_seed = seed
    cfg.data.users, cfg.data.sentences_per_user = 200, 10
    cfg.attack.n_sequences = 400
    return cfg


class Context:
    """What one benchmark process knows about its workload."""

    def __init__(self, kf, workload: str, seed: int, full: bool):
        self.kf = kf
        self.workload = workload
        if workload == "study":
            self.cfg = study_config(kf, seed, full)
        else:
            configs = {"verifier-wide": verifier_wide_config, "corpus-io": corpus_io_config}
            self.cfg = configs[workload](kf, seed)
        self.probe_cfg = probe_config(kf, seed)
        self.workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}
        self.scales: list[float] = []

    def same_digest(self, key: str, digest: str) -> None:
        """Repeats at one seed must give byte-identical outputs."""
        first = self.digests.setdefault(key, digest)
        check(digest == first, f"{key}: outputs differ between repeats at one seed")


def setup(args) -> Context:
    return Context(load_keyforge(), args.workload, args.seed, args.full)


def _ready_seconds(cmd: list[str]) -> float:
    """Seconds from spawning cmd until it prints its "ready" line; waits for its exit."""
    start = now()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        seconds = now() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != "ready":
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode} after {line!r}")
    return seconds


def setup_seconds(args) -> float:
    """Process start to the first measured call, in a fresh interpreter.

    Process start-up cost (page faults, loading numpy's libraries) drifted on
    its own on that host, by up to 40%, while the reference kernel did
    not. So set-up is scaled by a bare interpreter importing numpy, started
    just before: seconds * BASELINE_NOMINAL_S / t_baseline.
    """
    baseline = _ready_seconds([sys.executable, "-c", "import numpy; print('ready', flush=True)"])
    seconds = _ready_seconds([sys.executable, str(Path(__file__).resolve()), "--workload",
                              args.workload, "--seed", str(args.seed), "--setup-probe"])
    return seconds * BASELINE_NOMINAL_S / baseline


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Ledger:
    """Operations attempted and failed. A failure is counted, never raised."""

    def __init__(self):
        self.attempted = self.failed = self.passed = 0
        self.errors: list[str] = []

    def run(self, n_ops: int, fn, *args):
        """Run one iteration of n_ops operations; those after a failure fail too."""
        before = self.passed
        self.attempted += n_ops
        try:
            return fn(self, *args)
        except Exception as exc:  # any failure is an operation's result, not the harness's
            self.failed += max(1, n_ops - (self.passed - before))
            self.errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def count_words(sentences) -> tuple[int, int]:
    """(words, letters) of space-separated runs, counted without keyforge's splitter."""
    words = letters = 0
    for sentence in sentences:
        run = 0
        for ev in list(sentence) + [None]:
            if ev is None or ev.keycode == SPACE:
                if run:
                    words += 1
                    letters += min(run, SEQUENCE_ROWS)
                run = 0
            else:
                run += 1
    return words, letters


def corpus_round_trip(led: Ledger, ctx: Context, clock: Clock):
    """synth -> export -> ingest (must equal) -> featurize: two operations.

    Returns the ingested corpus, its rates, its TSV path and the seconds spent.
    """
    kf, cfg = ctx.kf, ctx.cfg
    path = ctx.workdir / "corpus.tsv"
    clock.restart()
    corpus = kf.data.synth_corpus(cfg.data.users, cfg.data.sentences_per_user,
                                  cfg.seeds.resolved().data)
    synth_s = clock.lap()
    kf.data.export_log(corpus, path)
    export_s = clock.lap()
    back = kf.data.ingest_log(path)
    ingest_s = clock.lap()
    check(back == corpus, "ingest_log(export_log(c)) differs from c")
    led.passed += 1
    clock.restart()
    kf.verifier.sequences_from_corpus(back)
    for user in back.users:
        kf.data.words_from_corpus(user)
    featurize_s = clock.lap()
    led.passed += 1
    n = corpus.n_events()
    rates = {"synth_events_per_s": n / synth_s, "export_events_per_s": n / export_s,
             "ingest_events_per_s": n / ingest_s, "featurize_events_per_s": n / featurize_s}
    return back, rates, path, synth_s + export_s + ingest_s + featurize_s


def check_report_doc(doc: dict, cfg) -> None:
    n = cfg.eval.n_sequences
    check(sorted(doc["conditions"]) == sorted(cfg.conditions), "report conditions")
    for condition, tests in doc["conditions"].items():
        check(sorted(tests) == ["test1", "test2", "test3"], f"{condition}: report tests")
        for name, entry in tests.items():
            total = sum(entry["confusion"].values())
            check(entry["n_pairs"] == n * n == total, f"{condition}/{name}: {total} pairs, not {n * n}")


def check_report(ctx: Context, report, cfg, key: str, arrays) -> None:
    """Report shape, and report plus weights identical to the first repeat's."""
    doc = ctx.kf.evaluation.report_to_dict(report)
    check_report_doc(doc, cfg)
    h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    for a in arrays:
        h.update(a.tobytes())
    ctx.same_digest(key, h.hexdigest())


def run_study(led: Ledger, ctx: Context, clock: Clock) -> dict:
    """One pipeline.run_all: one operation, checked and compared with the first."""
    kf, cfg = ctx.kf, ctx.cfg
    out = ctx.workdir / "study"
    shutil.rmtree(out, ignore_errors=True)
    clock.restart()
    _, artifacts = kf.pipeline.run_all(cfg, out, log=_quiet)
    wall = clock.lap()
    timings = {phase: raw * clock.scale for phase, raw in artifacts["timings"].items()}
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    check_report_doc(doc, cfg)
    if not ctx.digests:
        for name in ("generator.json", "discriminator.json", "verifier.json"):
            ckpt = json.loads((out / name).read_text(encoding="utf-8"))
            finite = all(np.isfinite(np.asarray(a)).all() for a in ckpt["weights"] + ckpt["biases"])
            check(finite, f"{name}: non-finite weights")
    sha256 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.iterdir()) if p.is_file()}
    ctx.same_digest("study", json.dumps(sha256, sort_keys=True))
    led.passed += 1

    meta = doc["metadata"]
    n = cfg.eval.n_sequences
    attack_events = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1
                        for p in out.glob("attack_*.tsv"))
    v = cfg.verifier
    return {
        "wall": wall,
        "epochs": meta["gan_epochs"],
        "rates": {
            "gan_epochs_per_s": meta["gan_epochs"] / timings["gan"],
            "verifier_train_pairs_per_s": v.train_pairs * v.epochs / timings["verifier"],
            "eval_pairs_per_s": len(cfg.conditions) * 3 * n * n / timings["evaluate"],
            "attack_events_per_s": attack_events / timings["attack"],
        },
        "quality": {
            "epochs_trained": meta["gan_epochs"],
            "converged": meta["gan_converged"],
            "eer": meta["verifier_eer"],
            "heldout_accuracy": meta["verifier_heldout_accuracy"],
            "test1_acceptance": {c: t["test1"]["attack_acceptance_rate"]
                                 for c, t in sorted(doc["conditions"].items())},
            "sha256": sha256,
        },
    }


# ---------------------------------------------------------------------------
# Workload iterations: each returns its wall time, rates and expected counts
# ---------------------------------------------------------------------------

def study_iteration(led: Ledger, ctx: Context) -> dict:
    """Round trip of the study corpus (2 operations), then run_all (1)."""
    cfg = ctx.cfg
    clock = Clock(ctx.scales)
    corpus, io_rates, _, _ = corpus_round_trip(led, ctx, clock)
    result = run_study(led, ctx, clock)
    words, _ = count_words(corpus.get(TARGET).sentences)
    v, g, n = cfg.verifier, cfg.gan, cfg.eval.n_sequences
    epochs = result["epochs"]
    result["rates"].update(io_rates)
    result["expect"] = {
        "nn.adam_step.generator.calls": math.ceil(words / g.batch_size) * epochs,
        "nn.adam_step.discriminator.calls": math.ceil(words / g.batch_size) * epochs,
        "nn.adam_step.verifier.calls": math.ceil(v.train_pairs / v.batch_size) * v.epochs,
        "gan.train_epoch.calls": epochs,
        "gan.stop_check.calls": epochs // g.check_interval,
        "evaluation.run_tests.pairs": len(cfg.conditions) * 3 * n * n,
    }
    return result


def relabelled_fakes(ctx: Context, corpus) -> dict:
    """Per condition, (fake_a, fake_b): other real users' sentences as one attacker stream each."""
    kf = ctx.kf
    fakes = {}
    for i, condition in enumerate(ctx.cfg.conditions):
        pair = []
        for j in range(2):
            user = corpus.users[1 + 2 * i + j]
            events, clock = [], 0.0
            for sentence in user.sentences:
                shift = clock - sentence[0].press_time
                events.extend(kf.data.KeyEvent(ev.keycode, ev.press_time + shift,
                                               ev.release_time + shift) for ev in sentence)
                clock = events[-1].release_time + 500.0
            pair.append(kf.pipeline.attack_events_to_corpus(events))
        fakes[condition] = tuple(pair)
    return fakes


def verifier_iteration(led: Ledger, ctx: Context) -> dict:
    """Round trip of the wide corpus (2 operations), then train + evaluate (1)."""
    kf, cfg = ctx.kf, ctx.cfg
    clock = Clock(ctx.scales)
    corpus, io_rates, _, _ = corpus_round_trip(led, ctx, clock)
    fakes = relabelled_fakes(ctx, corpus)
    clock.restart()
    bundle, summary = kf.pipeline.prepare_verifier(corpus, cfg)
    train_s = clock.lap()
    report = kf.pipeline.evaluate_attack(bundle, corpus, TARGET, fakes, cfg)
    eval_s = clock.lap()
    check(bundle.tau is not None, "verifier tau is unset")
    check(0.0 <= summary["eer"] <= 0.5, f"EER {summary['eer']} outside [0, 0.5]")
    check_report(ctx, report, cfg, "verifier-wide", bundle.network.weights + bundle.network.biases)
    led.passed += 1
    v, n = cfg.verifier, cfg.eval.n_sequences
    pairs = len(cfg.conditions) * 3 * n * n
    return {
        "wall": train_s + eval_s,
        "rates": {"verifier_train_pairs_per_s": v.train_pairs * v.epochs / train_s,
                  "eval_pairs_per_s": pairs / eval_s, **io_rates},
        "expect": {
            "nn.adam_step.verifier.calls": math.ceil(v.train_pairs / v.batch_size) * v.epochs,
            "evaluation.run_tests.pairs": pairs,
            "data.ingest_log.events": corpus.n_events(),
            "gan.train_epoch.calls": 0,
        },
        "quality": {"eer": summary["eer"], "heldout_accuracy": summary["heldout_accuracy"],
                    "tau": summary["tau"]},
    }


def corpus_io_iteration(led: Ledger, ctx: Context) -> dict:
    """Round trip (2 operations), checkpoint round trip (1), one stream per condition (2)."""
    kf, cfg = ctx.kf, ctx.cfg
    seeds = cfg.seeds.resolved()
    clock = Clock(ctx.scales)
    corpus, io_rates, corpus_path, wall = corpus_round_trip(led, ctx, clock)

    ckpt = ctx.workdir / "gan"
    clock.restart()
    bundle = kf.gan.new_bundle(seeds.gan, cfg.gan)
    kf.gan.save_bundle(bundle, ckpt)
    loaded = kf.gan.load_bundle(ckpt)
    wall += clock.lap()
    for net in ("generator", "discriminator"):
        a, b = getattr(bundle, net), getattr(loaded, net)
        check(all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases)),
              f"{net}: checkpoint round trip changed the weights")
    led.passed += 1

    files = [corpus_path, ckpt / "generator.json", ckpt / "discriminator.json"]
    attack_s = 0.0
    attack_events = 0
    rows = cfg.attack.n_sequences * SEQUENCE_ROWS
    for condition in cfg.conditions:
        clock.restart()
        events = kf.pipeline.make_attack_events(corpus, TARGET, loaded, condition, seeds.attack, cfg)
        attack_s += clock.lap()
        attack_events += len(events)
        check(len(events) >= rows, f"{condition}: {len(events)} rows, need {rows}")
        check(all(b.press_time > a.press_time for a, b in zip(events, events[1:])),
              f"{condition}: stream is not strictly press-monotone")
        path = ctx.workdir / f"attack_{condition}.tsv"
        stream = kf.pipeline.attack_events_to_corpus(events)
        clock.restart()
        kf.data.export_log(stream, path)
        back = kf.data.ingest_log(path)
        wall += clock.lap()
        check(back == stream, f"{condition}: stream round trip differs")
        files.append(path)
        if condition == cfg.conditions[-1]:
            ctx.same_digest("corpus-io", file_digest(files))
        led.passed += 1
    wall += attack_s

    # Each pass of the plan stitches every word plus the spaces between them.
    words, letters = count_words(corpus.get(TARGET).sentences)
    passes = math.ceil((rows + 1) / (letters + words))
    generated = len(cfg.conditions) * passes * words
    return {
        "wall": wall,
        "rates": {"attack_events_per_s": attack_events / attack_s, **io_rates},
        "expect": {
            "gan.generate_word.calls": generated,
            "nn.forward.generator.calls": generated,
            "attack.build_attack_stream.passes": len(cfg.conditions) * passes,
            "nn.adam_step.generator.calls": 0,
            "nn.adam_step.discriminator.calls": 0,
            "nn.adam_step.verifier.calls": 0,
        },
    }


def probe_iteration(led: Ledger, ctx: Context) -> dict:
    """A small fixed study from pipeline's phase functions, each phase timed on its own.

    It supplies the rates that a workload's own job lacks: one operation.
    """
    kf, cfg = ctx.kf, ctx.probe_cfg
    seeds = cfg.seeds.resolved()
    corpus = kf.pipeline.build_corpus(cfg)
    clock = Clock(ctx.scales)
    verifier_bundle, summary = kf.pipeline.prepare_verifier(corpus, cfg)
    verifier_s = clock.lap()
    gan_bundle = kf.pipeline.train_user_gan(corpus, TARGET, cfg)
    gan_s = clock.lap()
    fakes, attack_s, attack_events = {}, 0.0, 0
    for condition in cfg.conditions:
        streams = []
        for seed in (seeds.attack, seeds.attack_b):
            clock.restart()
            events = kf.pipeline.make_attack_events(corpus, TARGET, gan_bundle, condition, seed, cfg)
            attack_s += clock.lap()
            attack_events += len(events)
            streams.append(kf.pipeline.attack_events_to_corpus(events))
        fakes[condition] = tuple(streams)
    clock.restart()
    report = kf.pipeline.evaluate_attack(verifier_bundle, corpus, TARGET, fakes, cfg)
    eval_s = clock.lap()
    check(verifier_bundle.tau is not None, "probe: verifier tau is unset")
    check_report(ctx, report, cfg, "probe", gan_bundle.generator.weights + verifier_bundle.network.weights)
    led.passed += 1
    v, n = cfg.verifier, cfg.eval.n_sequences
    return {"rates": {
        "gan_epochs_per_s": gan_bundle.epochs_trained / gan_s,
        "verifier_train_pairs_per_s": v.train_pairs * v.epochs / verifier_s,
        "eval_pairs_per_s": len(cfg.conditions) * 3 * n * n / eval_s,
        "attack_events_per_s": attack_events / attack_s,
    }}


ITERATIONS = {
    "study": (study_iteration, 3),
    "verifier-wide": (verifier_iteration, 3),
    "corpus-io": (corpus_io_iteration, 5),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(led: Ledger, ctx: Context, args) -> tuple[list[dict], dict[str, list[float]]]:
    """Repeat the workload's iteration for args.seconds.

    Untraced, each iteration is followed by the mini-study probe (for the
    rates the workload's own job lacks) and one set-up probe, so that every
    metric's samples spread over the whole run. Traced, every other
    iteration runs under the tracer.
    """
    iteration, n_ops = ITERATIONS[ctx.workload]
    spy = tracer.Tracer() if args.trace else None
    missing = set(PROBE_RATES) - NATIVE[ctx.workload]
    done, samples = [], defaultdict(list)
    start = now()
    while len(done) < MIN_ITERATIONS or now() - start < args.seconds:
        traced = bool(args.trace) and len(done) % 2 == 1
        if traced:
            spy.install()
        clock = Clock(ctx.scales)
        try:
            result = led.run(n_ops, iteration, ctx)
        finally:
            if traced:
                spy.uninstall()
        elapsed = clock.lap()
        done.append({"traced": traced, "elapsed": elapsed, "result": result,
                     "spans": spy.take_spans() if traced else None})
        if args.trace:
            continue
        if result is not None:
            samples["wall_s"].append(result["wall"])
            for name, value in result["rates"].items():
                if name not in missing:
                    samples[name].append(value)
        if missing:
            probe = led.run(1, probe_iteration, ctx)
            if probe is not None:
                for name in missing:
                    samples[name].append(probe["rates"][name])
        samples["setup_s"].append(setup_seconds(args))
    while not args.trace and len(samples["setup_s"]) < SETUP_PROBES:
        samples["setup_s"].append(setup_seconds(args))
    return done, samples


def tail(values: list[float]):
    """(p, value) for the highest of p90/p99/p99.9 with >= 10 samples beyond it, or None."""
    best = None
    for p in (90, 99, 99.9):
        if len(values) * (1 - p / 100) >= 10:
            best = (p, float(np.percentile(values, p)))
    return best


def per_layer(led: Ledger, done: list[dict]) -> tuple[dict[str, float], list[list[list]]]:
    """Per-layer numbers from the traced iterations, with the fidelity checks."""
    traced = [it for it in done if it["traced"] and it["result"] is not None]
    # the first iteration also pays for warm-up, so it is left out of the ratio when it can be
    plain = [it for it in done if not it["traced"] and it["result"] is not None]
    plain = plain[1:] or plain
    led.attempted += 1
    try:
        check(traced and plain, "no traced and untraced iteration pair completed")
        per_iteration = []
        for it in traced:
            metrics = tracer.layer_metrics(it["spans"])
            for name, want in it["result"]["expect"].items():
                check(metrics[name] == want, f"traced {name} = {metrics[name]}, derived {want}")
            per_iteration.append(metrics)
        metrics, mismatches = tracer.combine(per_iteration)
        check(not mismatches, "; ".join(mismatches))
    except CheckFailed as exc:
        led.failed += 1
        led.errors.append(f"trace: {exc}")
        metrics = {name: 0.0 for name, _, _ in tracer.PER_LAYER}
    walls = lambda its: statistics.median(it["elapsed"] for it in its)  # noqa: E731
    metrics["trace.overhead_ratio"] = walls(traced) / walls(plain) if traced and plain else 0.0
    return metrics, [it["spans"] for it in traced]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def machine() -> dict:
    commit = "unknown"  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer names -> units from BENCHMARK.json, which must match this file."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if e2e != dict(END_TO_END) or layers != {n: u for n, u, _ in tracer.PER_LAYER}:
        raise SystemExit("perfbench: BENCHMARK.json metrics differ from perfbench/run.py and tracer.py")
    return e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="study only: run_all at full defaults (about 130 s per run)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.full and args.workload != "study":
        parser.error("--full applies to the study workload only")

    if args.setup_probe:
        ctx = setup(args)
        print("ready", flush=True)
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        return 0

    e2e_units, layer_units = declared_metrics()
    ctx = setup(args)
    led = Ledger()
    try:
        done, samples = measure(led, ctx, args)
        if args.trace:
            values, spans = per_layer(led, done)
            units, details = layer_units, {}
        else:
            samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
            samples["ok_ratio"] = [(led.attempted - led.failed) / led.attempted]
            values = {name: statistics.median(samples[name]) if samples[name] else 0.0
                      for name in e2e_units}
            units, details = e2e_units, dict(samples)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    info = machine()
    quality = next((it["result"].get("quality") for it in done if it["result"]), None)
    print(f"keyforge benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} full={args.full}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"iterations: {len(done)} ({sum(it['traced'] for it in done)} traced); "
          f"operations: {led.attempted} attempted, {led.failed} failed")
    for name, unit in units.items():
        line = f"  {name:<44} {values[name]:>14.6g} {unit}"
        if name in details:
            t = tail(details[name])
            line += f"  (median of {len(details[name])}" + (f"; p{t[0]:g} {t[1]:.6g})" if t else ")")
        print(line)
    print(f"host speed: median scale {statistics.median(ctx.scales):.4g} over {len(ctx.scales)} "
          f"laps (1 = reference kernel at {REF_NOMINAL_S * 1e3:g} ms; raw s = scaled s / scale)")
    if quality:
        print("quality: " + json.dumps(quality, sort_keys=True))
    for error in led.errors:
        print(f"FAILED {error}")

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-full' if args.full else ''}"
    (records / f"{stem}.json").write_text(json.dumps({
        "args": vars(args), "machine": info, "attempted": led.attempted, "failed": led.failed,
        "errors": led.errors, "metrics": values, "samples": details, "quality": quality,
        "host_scales": ctx.scales,
        "iterations": [{"traced": it["traced"], "elapsed": it["elapsed"]} for it in done],
    }, indent=2, sort_keys=True), encoding="utf-8")
    if args.trace:
        tracer.write_spans(records / f"{stem}.spans.jsonl", spans)

    print(json.dumps({
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
