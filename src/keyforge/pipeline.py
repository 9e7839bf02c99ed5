"""Phase orchestration and artifact writing shared by the CLI subcommands and run-all.

Wires the corpus, verifier, generator training, attack reconstruction, and
evaluation together with explicit per-phase seeds so that a whole run is a
pure function of its configuration.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import gan as gan_mod
from . import verifier as verifier_mod
from .attack import ATTACKER_ID
from .config import RunConfig, config_hash
from .data import WORD_LEN, Corpus, DataError, KeyEvent, Sentence, UserLog, export_log, synth_corpus, words_from_corpus
from .evaluation import (TESTS, EvalReport, build_test_pairs, render_table, report_to_dict, run_tests,
                         sample_other_sequences)
from .nn import TrainingError
from .verifier import VerifierBundle


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def build_corpus(cfg: RunConfig) -> Corpus:
    seeds = cfg.seeds.resolved()
    return synth_corpus(cfg.data.users, cfg.data.sentences_per_user, seeds.data)


def prepare_verifier(corpus: Corpus, cfg: RunConfig) -> tuple[VerifierBundle, dict]:
    """Train and calibrate the authenticator; returns the bundle and a summary.

    Pairs are sampled balanced 1:1 and split three ways: training, threshold
    calibration, and a held-out set for the reported accuracy. A corpus that
    cannot give both kinds of pair raises DataError before anything is
    featurized. A trained network that maps some pair to a NaN or infinite
    distance raises TrainingError naming the phase that met it.
    """
    seeds = cfg.seeds.resolved()
    vcfg = cfg.verifier
    counts = [verifier_mod.window_count(user) for user in corpus.users]
    with_one = sum(count >= 1 for count in counts)
    with_two = sum(count >= 2 for count in counts)
    if with_one < 2 or with_two < 1:
        raise DataError(f"verifier pairs need >= 2 users with a {WORD_LEN}-key window and one "
                        f"with >= 2 windows; the corpus has {with_one} users with a window "
                        f"and {with_two} with >= 2")
    sequences = verifier_mod.sequences_from_corpus(corpus)
    rng = np.random.default_rng(seeds.verifier)
    n_total = vcfg.train_pairs + vcfg.calibration_pairs + vcfg.test_pairs
    pairs = verifier_mod.make_pairs(sequences, n_total, rng)
    train = pairs[: vcfg.train_pairs]
    calib = pairs[vcfg.train_pairs : vcfg.train_pairs + vcfg.calibration_pairs]
    test = pairs[vcfg.train_pairs + vcfg.calibration_pairs :]

    bundle = verifier_mod.train_verifier(train, vcfg, seeds.verifier)
    phase = "threshold calibration"
    try:
        tau = verifier_mod.calibrate_threshold(bundle, calib)
        phase = "held-out accuracy"
        accuracy = verifier_mod.pair_accuracy(bundle, test)
    except verifier_mod.NonFiniteDistanceError as exc:
        raise TrainingError(f"trained verifier fails {phase}: {exc}") from None
    bundle.metadata["heldout_accuracy"] = accuracy
    summary = {
        "tau": tau,
        "eer": bundle.metadata["eer"],
        "heldout_accuracy": accuracy,
        "n_sequences": sum(len(s) for s in sequences.values()),
        "n_users": len(sequences),
    }
    return bundle, summary


def train_user_gan(corpus: Corpus, user_id: str, cfg: RunConfig) -> gan_mod.GanBundle:
    seeds = cfg.seeds.resolved()
    texts, matrices = words_from_corpus(corpus.get(user_id))
    if not texts:
        raise DataError(f"user {user_id!r} has no word samples")
    bundle = gan_mod.new_bundle(seeds.gan, cfg.gan)
    return gan_mod.train(bundle, texts, matrices, cfg.gan, np.random.default_rng(seeds.gan))


def save_gan(bundle: gan_mod.GanBundle, out_dir: Path, cfg: RunConfig) -> tuple[Path, Path]:
    """Write both checkpoints, then gan_history.json, into out_dir; returns the two checkpoint paths."""
    paths = gan_mod.save_bundle(bundle, out_dir)  # makes out_dir
    history = {"history": bundle.history, "epochs_trained": bundle.epochs_trained,
               "converged": bundle.converged, "config_hash": config_hash(cfg)}
    (out_dir / "gan_history.json").write_text(json.dumps(history, sort_keys=True, indent=2, allow_nan=False),
                                              encoding="utf-8")
    return paths


def make_attack_events(
    corpus: Corpus,
    user_id: str,
    bundle: gan_mod.GanBundle,
    condition: str,
    seed: int,
    cfg: RunConfig,
) -> Sentence:
    """One attack stream: plan the user's words, generate, and stitch."""
    user = corpus.get(user_id)
    texts, _ = words_from_corpus(user)
    if not texts:
        raise DataError(f"user {user_id!r} has no words to plan an attack over")
    space_model = cfg.attack.default_space_model()
    if cfg.attack.fit_space_model:
        space_model = attack_mod.fit_space_model(user.sentences, space_model)
    rng = np.random.default_rng(seed)
    plan = attack_mod.plan_words(texts, condition, rng)
    return attack_mod.build_attack_stream(bundle, plan, cfg.attack, space_model, rng)


def attack_events_to_corpus(events: Sentence | list[KeyEvent]) -> Corpus:
    """One attack stream as the attacker's one-sentence corpus; a KeyEvent list becomes a Sentence."""
    return Corpus(users=[UserLog(user_id=ATTACKER_ID, sentences=[events])])


def write_attack(
    events: Sentence, path: str | Path, condition: str, seed: int, user_id: str, cfg: RunConfig
) -> None:
    """Write one attack stream as TSV plus its provenance in <path>.meta.json."""
    export_log(attack_events_to_corpus(events), path)
    meta = {"condition": condition, "seed": seed, "config_hash": config_hash(cfg),
            "n_sequences": cfg.attack.n_sequences, "target_user": user_id}
    Path(f"{path}.meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2, allow_nan=False), encoding="utf-8")


def read_attack_meta(path: str | Path) -> dict | None:
    """The provenance write_attack wrote beside the stream at path, or None when there is none."""
    meta_path = Path(f"{path}.meta.json")
    if not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        json.dumps(meta, allow_nan=False)  # a NaN or Infinity literal would reach the report
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or a NaN or Infinity
        raise DataError(f"{meta_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: expected a JSON object, got {type(meta).__name__}")
    return meta


def write_report(report: EvalReport, json_path: str | Path | None, table_path: str | Path | None) -> str:
    """Write the report as JSON and as its table, each to its path when one is given; returns the table."""
    table = render_table(report)
    for path, text in ((json_path, json.dumps(report_to_dict(report), sort_keys=True, indent=2, allow_nan=False)),
                       (table_path, table)):
        if path:
            Path(path).write_text(text + "\n", encoding="utf-8")
    return table


def report_metadata(
    cfg: RunConfig,
    verifier: VerifierBundle,
    verifier_path: str | Path,
    target_user: str,
    corpus_path: str | Path,
    fake_paths: dict[str, str | Path],
) -> dict:
    """A report's metadata: the scoring config, the verifier's operating point and a digest of every file scored.

    fake_paths maps fake_<condition>_<tag> to each fake stream; the seed that
    write_attack recorded beside a stream joins the config's seeds as
    attack:<file name>. run_all adds the generator's fields, which evaluate
    does not see.
    """
    seeds = cfg.seeds.resolved()
    metadata = {
        "config_hash": config_hash(cfg),
        "seeds": {
            "global": seeds.global_seed, "data": seeds.data, "verifier": seeds.verifier,
            "gan": seeds.gan, "attack": seeds.attack, "attack_b": seeds.attack_b,
            "eval": seeds.eval,
        },
        "target_user": target_user,
        "tau": verifier.tau,
        "verifier_eer": verifier.metadata.get("eer"),
        "verifier_heldout_accuracy": verifier.metadata.get("heldout_accuracy"),
        "checkpoints": {"verifier": file_digest(verifier_path)},
        "inputs": {name: file_digest(path) for name, path in {"corpus": corpus_path, **fake_paths}.items()},
    }
    for path in fake_paths.values():
        if (side := read_attack_meta(path)) is not None:
            metadata["seeds"][f"attack:{Path(path).name}"] = side.get("seed")
    return metadata


def _require_windows(count: int, n: int, what: str, why: str = "") -> None:
    if count < n:
        raise DataError(f"{what}: only {count} sequences available, need {n}{why}")


def _first_windows(corpus: Corpus, user_id: str, n: int) -> np.ndarray:
    return verifier_mod.windows_at(corpus, [(user_id, k) for k in range(n)])


def evaluate_attack(
    bundle: VerifierBundle,
    corpus: Corpus,
    target_user: str,
    fakes_by_condition: dict[str, tuple[Corpus, Corpus]],
    cfg: RunConfig,
    metadata: dict | None = None,
) -> EvalReport:
    """Run the three test protocols for every condition's (fake_a, fake_b) corpora.

    The window counts of the target, of the other users and of every fake
    stream are checked first, so a short set fails before anything is
    featurized or embedded. Then only the windows the tests score are
    featurized: the target's first eval.n_sequences, as many windows of other
    users drawn with the eval seed, and the first eval.n_sequences of each
    fake stream. Evaluation cost scales with eval.n_sequences, not with the
    size of the corpus.
    """
    seeds = cfg.seeds.resolved()
    n = cfg.eval.n_sequences
    target_windows = verifier_mod.window_count(corpus.get(target_user))
    _require_windows(target_windows, n, f"real sequences of {target_user}")
    counts = {user.user_id: verifier_mod.window_count(user) for user in corpus.users}
    others = [count for user_id, count in counts.items() if user_id != target_user]
    if not any(others):
        raise DataError(f"no user other than {target_user!r} has a full {WORD_LEN}-key window "
                        f"({target_user}: {target_windows} windows, "
                        f"other users: {len(others)} with 0 windows)")
    fakes = sorted(fakes_by_condition.items())
    for condition, fake_corpora in fakes:
        for tag, fake_corpus in zip("ab", fake_corpora):
            try:
                attacker = fake_corpus.get(ATTACKER_ID)
            except DataError:
                raise DataError(
                    f"fake corpus {condition}/{tag} has no {ATTACKER_ID!r} sequences") from None
            _require_windows(verifier_mod.window_count(attacker), n, f"fake {condition}/{tag}")

    real_alice = _first_windows(corpus, target_user, n)
    rng = np.random.default_rng(seeds.eval)
    real_others = verifier_mod.windows_at(corpus, sample_other_sequences(counts, target_user, n, rng))
    pairs_by_condition = {}
    for condition, (fake_a_corpus, fake_b_corpus) in fakes:
        fake_a = _first_windows(fake_a_corpus, ATTACKER_ID, n)
        fake_b = _first_windows(fake_b_corpus, ATTACKER_ID, n)
        pairs_by_condition[condition] = {
            test_id: build_test_pairs(test_id, real_alice, fake_a, fake_b, real_others, n)
            for test_id in TESTS
        }
    return run_tests(bundle, pairs_by_condition, metadata)


def run_all(cfg: RunConfig, out_dir: str | Path, log=print) -> tuple[EvalReport, dict]:
    """Full study: corpus, verifier, generator, two-condition attacks, report.

    Writes every artifact under out_dir; all outputs are a deterministic
    function of the configuration (no timestamps, stable JSON key order).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = cfg.seeds.resolved()
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    corpus = build_corpus(cfg)
    corpus_path = out_dir / "corpus.tsv"
    export_log(corpus, corpus_path)
    log(f"corpus: {cfg.data.users} users x {cfg.data.sentences_per_user} sentences "
        f"({corpus.n_events()} events) -> {corpus_path}")
    timings["corpus"] = time.perf_counter() - t_start
    # fail before the verifier trains; the corpus is synthetic, so name both keys
    n, per_user = cfg.eval.n_sequences, cfg.data.sentences_per_user
    _require_windows(verifier_mod.window_count(corpus.get(cfg.target_user)), n,
                     f"real sequences of {cfg.target_user}",
                     f" (eval.n_sequences); data.sentences_per_user {per_user} guarantees {per_user}")

    t0 = time.perf_counter()
    verifier_bundle, vsummary = prepare_verifier(corpus, cfg)
    timings["verifier"] = time.perf_counter() - t0
    verifier_path = out_dir / "verifier.json"
    verifier_mod.save_verifier(verifier_bundle, verifier_path)
    log(f"verifier: tau={vsummary['tau']:.4f} eer={vsummary['eer']:.4f} "
        f"heldout_accuracy={vsummary['heldout_accuracy']:.4f} -> {verifier_path}")

    t0 = time.perf_counter()
    gan_bundle = train_user_gan(corpus, cfg.target_user, cfg)
    timings["gan"] = time.perf_counter() - t0
    g_path, d_path = save_gan(gan_bundle, out_dir, cfg)
    status = "converged" if gan_bundle.converged else "NOT CONVERGED"
    log(f"generator: {gan_bundle.epochs_trained} epochs, {status}")

    t0 = time.perf_counter()
    fake_paths: dict[str, Path] = {}  # by evaluate's name, fake_<condition>_<tag>
    fakes_by_condition: dict[str, tuple[Corpus, Corpus]] = {}
    for condition in cfg.conditions:
        corpora = []
        for tag, seed in (("a", seeds.attack), ("b", seeds.attack_b)):
            try:
                events = make_attack_events(corpus, cfg.target_user, gan_bundle, condition, seed, cfg)
            except attack_mod.NonFiniteSampleError as exc:
                raise TrainingError(f"trained generator fails the attack phase: {exc}") from None
            path = out_dir / f"attack_{condition}_{tag}.tsv"
            write_attack(events, path, condition, seed, cfg.target_user, cfg)
            fake_paths[f"fake_{condition}_{tag}"] = path
            corpora.append(attack_events_to_corpus(events))
            log(f"attack [{condition}/{tag}]: {len(events)} events -> {path}")
        fakes_by_condition[condition] = (corpora[0], corpora[1])
    timings["attack"] = time.perf_counter() - t0

    metadata = report_metadata(cfg, verifier_bundle, verifier_path, cfg.target_user, corpus_path, fake_paths)
    metadata.update(gan_epochs=gan_bundle.epochs_trained, gan_converged=gan_bundle.converged)
    metadata["checkpoints"].update(generator=file_digest(g_path), discriminator=file_digest(d_path))
    t0 = time.perf_counter()
    report = evaluate_attack(verifier_bundle, corpus, cfg.target_user, fakes_by_condition, cfg, metadata)
    timings["evaluate"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    log(write_report(report, out_dir / "report.json", out_dir / "report.txt"))

    return report, {"timings": timings}  # wall-clock only; kept out of the deterministic artifacts
