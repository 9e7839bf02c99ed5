"""Command-line entry point for the full presentation-attack study.

Subcommands cover each phase (synth-data, ingest, train-verifier, train-cgan,
attack, evaluate) plus run-all, which chains them end to end. Exit codes:
0 success, 1 usage or config error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import gan as gan_mod
from . import pipeline
from . import verifier as verifier_mod
from .attack import CONDITIONS, NonFiniteSampleError
from .config import ConfigError, RunConfig, check_corpus_size, check_flag, load_config
from .data import ParseError, ValidationError, export_log, ingest_log
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
    cfg = _config(args)
    corpus = pipeline.build_corpus(cfg)
    export_log(corpus, args.out)
    print(f"wrote {args.out}: {len(corpus.users)} users, "
          f"{sum(len(u.sentences) for u in corpus.users)} sentences, "
          f"{corpus.n_events()} events (seed {cfg.seeds.resolved().data})")
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
    cfg = _config(args)
    corpus = ingest_log(args.corpus)
    bundle, summary = pipeline.prepare_verifier(corpus, cfg)
    verifier_mod.save_verifier(bundle, args.out)
    print(f"verifier checkpoint -> {args.out}")
    print(f"tau={summary['tau']:.4f} eer={summary['eer']:.4f} "
          f"heldout_accuracy={summary['heldout_accuracy']:.4f} "
          f"(sequences={summary['n_sequences']}, users={summary['n_users']})")
    return EXIT_OK


def cmd_train_cgan(args) -> int:
    cfg = _config(args)
    corpus = ingest_log(args.corpus)
    bundle = pipeline.train_user_gan(corpus, args.user, cfg)
    pipeline.save_gan(bundle, Path(args.out_dir), cfg)
    print(f"generator/discriminator checkpoints -> {args.out_dir} "
          f"({bundle.epochs_trained} epochs, {len(bundle.history)} stop checks)")
    if not bundle.converged:
        print("warning: stopping criterion not reached before max_epochs (not converged)")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = _config(args)
    seed = cfg.seeds.resolved().attack
    corpus = ingest_log(args.corpus)
    bundle = gan_mod.load_bundle(args.gan_dir)
    try:
        events = pipeline.make_attack_events(corpus, args.user, bundle, args.condition, seed, cfg)
    except NonFiniteSampleError as exc:
        raise DataError(f"{gan_mod.checkpoint_paths(args.gan_dir)[0]}: {exc}") from None
    pipeline.write_attack(events, args.out, args.condition, seed, args.user, cfg)
    n_windows = verifier_mod.window_count(pipeline.attack_events_to_corpus(events).users[0])
    print(f"attack [{args.condition}] seed={seed}: {len(events)} events "
          f"({n_windows} windows available, {cfg.attack.n_sequences} requested) -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _config(args)
    # the fake streams by their metadata name, one a/b pair for each configured condition
    fake_paths = {}
    for condition in CONDITIONS:
        for tag in "ab":
            path, wanted = getattr(args, f"fake_{condition}_{tag}"), condition in cfg.conditions
            if (path is not None) != wanted:
                print(f"evaluate: --fake-{condition}-{tag} is {'required' if wanted else 'not allowed'}: "
                      f"config.conditions {'lists' if wanted else 'does not list'} {condition!r}", file=sys.stderr)
                return EXIT_USAGE
            if wanted:
                fake_paths[f"fake_{condition}_{tag}"] = path
    bundle = verifier_mod.load_verifier(args.verifier)
    corpus = ingest_log(args.corpus)
    fakes = {condition: (ingest_log(fake_paths[f"fake_{condition}_a"]),
                         ingest_log(fake_paths[f"fake_{condition}_b"])) for condition in cfg.conditions}
    metadata = pipeline.report_metadata(cfg, bundle, args.verifier, args.user, args.corpus, fake_paths)
    try:
        report = pipeline.evaluate_attack(bundle, corpus, args.user, fakes, cfg, metadata)
    except verifier_mod.NonFiniteDistanceError as exc:
        raise DataError(f"{args.verifier}: {exc}") from None
    print(pipeline.write_report(report, args.out_json, args.out_table))
    return EXIT_OK


def cmd_run_all(args) -> int:
    cfg = _config(args)
    _, artifacts = pipeline.run_all(cfg, args.out_dir)
    print("phase timings (s): "
          + ", ".join(f"{phase}={seconds:.1f}" for phase, seconds in artifacts["timings"].items()))
    return EXIT_OK


# each subcommand's integer flags and the config key each sets; a --seed meets the global seed's check
_FLAG_KEYS = {
    "synth-data": {"--users": ("data", "users"), "--sentences": ("data", "sentences_per_user"),
                   "--seed": ("seeds", "global_seed")},
    "train-verifier": {"--epochs": ("verifier", "epochs"), "--seed": ("seeds", "verifier")},
    "train-cgan": {"--max-epochs": ("gan", "max_epochs"), "--seed": ("seeds", "gan")},
    "attack": {"--n-sequences": ("attack", "n_sequences"), "--seed": ("seeds", "attack")},
    "evaluate": {"--seed": ("seeds", "eval")},
    "run-all": {"--seed": ("seeds", "global_seed")},
}


def _config(args) -> RunConfig:
    """--config or the defaults, with every flag of _FLAG_KEYS that was given checked and set."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    for flag, (section, key) in _FLAG_KEYS[args.command].items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            check_flag(value, flag, section, "global_seed" if section == "seeds" else key)
            setattr(getattr(cfg, section), key, value)
    if args.command == "synth-data":
        check_corpus_size(cfg.data.users, cfg.data.sentences_per_user, "--users x --sentences")
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="keyforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth-data", help="generate a deterministic synthetic corpus TSV")
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
    p.set_defaults(func=cmd_train_verifier)

    p = sub.add_parser("train-cgan", help="adversarially train the word generator for one user")
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train_cgan)

    p = sub.add_parser("attack", help="reconstruct synthetic typing sequences from a trained generator")
    p.add_argument("--gan-dir", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--condition", choices=CONDITIONS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="run the three test protocols for each configured condition")
    p.add_argument("--verifier", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--user", required=True)
    for condition in CONDITIONS:
        for tag in "ab":
            p.add_argument(f"--fake-{condition}-{tag}", help="required iff config.conditions lists it")
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-table", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-all", help="synth-data, train both models, attack, and evaluate")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_run_all)

    for command, flags in _FLAG_KEYS.items():
        for flag in flags:
            sub.choices[command].add_argument(flag, type=int)
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
    except OSError as exc:  # a path that is missing, a directory where a file belongs, or unreadable
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
