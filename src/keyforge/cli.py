"""Command-line entry point for the full presentation-attack study.

Subcommands cover each phase (synth-data, ingest, train-verifier, train-cgan,
attack, evaluate) plus run-all, which chains them end to end. Exit codes:
0 success, 1 usage or config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gan as gan_mod
from . import pipeline
from . import verifier as verifier_mod
from .attack import CONDITIONS
from .config import ConfigError, RunConfig, check_count, load_config
from .data import ParseError, ValidationError, export_log, ingest_log, synth_corpus
from .evaluation import render_table, report_to_dict
from .nn import CheckpointError, TrainingError
from .pipeline import DataError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class _Parser(argparse.ArgumentParser):
    """Argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def cmd_synth_data(args) -> int:
    if args.users < 2:
        print("synth-data: --users must be >= 2 (impostor pairs need a second user)", file=sys.stderr)
        return EXIT_USAGE
    if args.sentences < 1:
        print("synth-data: --sentences must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    corpus = synth_corpus(args.users, args.sentences, args.seed)
    export_log(corpus, args.out)
    print(f"wrote {args.out}: {len(corpus.users)} users, "
          f"{sum(len(u.sentences) for u in corpus.users)} sentences, "
          f"{corpus.n_events()} events (seed {args.seed})")
    return EXIT_OK


def cmd_ingest(args) -> int:
    corpus = ingest_log(args.log)
    n_sentences = sum(len(u.sentences) for u in corpus.users)
    print(f"{args.log}: {len(corpus.users)} users, {n_sentences} sentences, "
          f"{corpus.n_events()} events")
    if args.out:
        export_log(corpus, args.out)
        print(f"re-exported to {args.out}")
    return EXIT_OK


def cmd_train_verifier(args) -> int:
    cfg = _base_config(args)
    if args.epochs is not None:
        check_count(args.epochs, "--epochs")
        cfg.verifier.epochs = args.epochs
    if args.seed is not None:
        cfg.seeds.verifier = args.seed
    corpus = ingest_log(args.corpus)
    bundle, summary = pipeline.prepare_verifier(corpus, cfg)
    verifier_mod.save_verifier(bundle, args.out)
    print(f"verifier checkpoint -> {args.out}")
    print(f"tau={summary['tau']:.4f} eer={summary['eer']:.4f} "
          f"heldout_accuracy={summary['heldout_accuracy']:.4f} "
          f"(sequences={summary['n_sequences']}, users={summary['n_users']})")
    return EXIT_OK


def cmd_train_cgan(args) -> int:
    cfg = _base_config(args)
    if args.max_epochs is not None:
        check_count(args.max_epochs, "--max-epochs")
        cfg.gan.max_epochs = args.max_epochs
    if args.seed is not None:
        cfg.seeds.gan = args.seed
    corpus = ingest_log(args.corpus)
    bundle = pipeline.train_user_gan(corpus, args.user, cfg)
    out_dir = Path(args.out_dir)
    pipeline.save_gan(bundle, out_dir, cfg)
    print(f"generator/discriminator checkpoints -> {out_dir} "
          f"({bundle.epochs_trained} epochs, {len(bundle.history)} stop checks)")
    if not bundle.converged:
        print("warning: stopping criterion not reached before max_epochs (not converged)")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _base_config(args)
    if args.n_sequences is not None:
        check_count(args.n_sequences, "--n-sequences")
        cfg.attack.n_sequences = args.n_sequences
    seed = args.seed if args.seed is not None else cfg.seeds.resolved().attack
    corpus = ingest_log(args.corpus)
    bundle = gan_mod.load_bundle(args.gan_dir)
    events = pipeline.make_attack_events(corpus, args.user, bundle, args.condition, seed, cfg)
    pipeline.write_attack(events, args.out, args.condition, seed, args.user, cfg)
    n_windows = verifier_mod.window_count(pipeline.attack_events_to_corpus(events).users[0])
    print(f"attack [{args.condition}] seed={seed}: {len(events)} events "
          f"({n_windows} windows available, {cfg.attack.n_sequences} requested) -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _base_config(args)
    if args.seed is not None:
        cfg.seeds.eval = args.seed
    bundle = verifier_mod.load_verifier(args.verifier)
    corpus = ingest_log(args.corpus)
    fakes = {
        "ordered": (ingest_log(args.fake_ordered_a), ingest_log(args.fake_ordered_b)),
        "random": (ingest_log(args.fake_random_a), ingest_log(args.fake_random_b)),
    }
    metadata = {
        "seeds": {"eval": cfg.seeds.resolved().eval},
        "tau": bundle.tau,
        "checkpoints": {"verifier": pipeline.file_digest(args.verifier)},
        "inputs": {
            name: pipeline.file_digest(path)
            for name, path in (
                ("corpus", args.corpus),
                ("fake_ordered_a", args.fake_ordered_a), ("fake_ordered_b", args.fake_ordered_b),
                ("fake_random_a", args.fake_random_a), ("fake_random_b", args.fake_random_b),
            )
        },
        "target_user": args.user,
    }
    for path in (args.fake_ordered_a, args.fake_ordered_b, args.fake_random_a, args.fake_random_b):
        meta_path = Path(f"{path}.meta.json")
        if meta_path.exists():
            try:
                side = json.loads(meta_path.read_text(encoding="utf-8"))
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise DataError(f"{meta_path}: not valid JSON: {exc}") from None
            if not isinstance(side, dict):
                raise DataError(f"{meta_path}: expected a JSON object, got {type(side).__name__}")
            metadata["seeds"][f"attack:{Path(path).name}"] = side.get("seed")
    report = pipeline.evaluate_attack(bundle, corpus, args.user, fakes, cfg, metadata)
    doc = json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if args.out_json:
        Path(args.out_json).write_text(doc, encoding="utf-8")
    table = render_table(report)
    if args.out_table:
        Path(args.out_table).write_text(table + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK


def cmd_run_all(args) -> int:
    cfg = _base_config(args)
    if args.seed is not None:
        cfg.seeds.global_seed = args.seed
    _, artifacts = pipeline.run_all(cfg, args.out_dir)
    print("phase timings (s): "
          + ", ".join(f"{phase}={seconds:.1f}" for phase, seconds in artifacts["timings"].items()))
    return EXIT_OK


def _base_config(args) -> RunConfig:
    return load_config(args.config) if getattr(args, "config", None) else RunConfig()


def build_parser() -> _Parser:
    parser = _Parser(prog="keyforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate a deterministic synthetic corpus TSV")
    p.add_argument("--users", type=int, default=25)
    p.add_argument("--sentences", type=int, default=15)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("ingest", help="validate a keystroke TSV and print summary counts")
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None, help="optionally re-export the normalized corpus")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train-verifier", help="train and calibrate the Siamese authenticator")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train_verifier)

    p = sub.add_parser("train-cgan", help="adversarially train the word generator for one user")
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train_cgan)

    p = sub.add_parser("attack", help="reconstruct synthetic typing sequences from a trained generator")
    p.add_argument("--gan-dir", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--condition", choices=CONDITIONS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--n-sequences", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="run the three test protocols for both conditions")
    p.add_argument("--verifier", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--fake-ordered-a", required=True)
    p.add_argument("--fake-ordered-b", required=True)
    p.add_argument("--fake-random-a", required=True)
    p.add_argument("--fake-random-b", required=True)
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-table", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-all", help="synth-data, train both models, attack, and evaluate")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_run_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, DataError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
