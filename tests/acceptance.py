"""Seed table of attack quality at full defaults: the gate for a change that moves training bits.

pytest does not collect this file. Run it from anywhere; it imports keyforge
from this checkout's src/:

    python tests/acceptance.py                        # seeds 0-7, two at a time
    python tests/acceptance.py --json rows.json       # also keep the records
    python tests/acceptance.py --gate parent.json     # judge against another checkout's records

Each seed runs the phases of pipeline.run_all at RunConfig() defaults, with
seeds.global_seed set to the seed, in an interpreter of its own at one BLAS
thread. gan.stop_check is wrapped so that every check also scores test 1 of
the attack in both conditions. The streams come from make_attack_events with
the attack seeds and are scored by evaluate_attack with the eval seed, each
from an rng of its own, so the GAN trains with run_all's bits. Seed 7 runs
twice, and its two records must be byte-identical.

Per seed the table prints epochs, converged, the verifier's EER and held-out
accuracy, and per condition test 1's same_user_rate at the stop, then its
median and range over the last 10 checks. Below the rows: the medians over
seeds, and the number of seeds that stop before epoch 500.

The gate (--gate) passes when both record sets cover the same seeds, every
seed converges, the median EER moves by at most 0.005, and per condition the
median over seeds of the per-seed check-medians lies inside the range of the
other records' per-seed check-medians. That range counts only the seeds that
run to epoch 500 or later: a seed that stops earlier scores 0 at every check,
and a lower bound of 0 would pass any drop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = tuple(range(8))
JOBS = 2
LAST_CHECKS = 10
EARLY_EPOCH = 500
EER_MOVE = 0.005
REPEATED_SEED = 7


def run_seed(seed: int) -> dict:
    """One seed's record: epochs, convergence, EER, held-out accuracy, test 1 at every check, network digest."""
    from keyforge import gan, pipeline
    from keyforge.config import RunConfig, Seeds

    cfg = RunConfig(seeds=Seeds(global_seed=seed))
    seeds = cfg.seeds.resolved()
    corpus = pipeline.build_corpus(cfg)
    verifier_bundle, summary = pipeline.prepare_verifier(corpus, cfg)
    checks = []
    stop_check = gan.stop_check

    def scored_stop_check(bundle, *args):
        """stop_check, then test 1's same_user_rate per condition for bundle's streams, as run_all scores them."""
        stop, details = stop_check(bundle, *args)
        fakes = {condition: tuple(pipeline.attack_events_to_corpus(
                     pipeline.make_attack_events(corpus, cfg.target_user, bundle, condition, attack_seed, cfg))
                     for attack_seed in (seeds.attack, seeds.attack_b))
                 for condition in cfg.conditions}
        report = pipeline.evaluate_attack(verifier_bundle, corpus, cfg.target_user, fakes, cfg)
        checks.append({"epoch": (len(checks) + 1) * cfg.gan.check_interval,
                       **{condition: report.results[condition]["test1"]["same_user_rate"]
                          for condition in cfg.conditions}})
        return stop, details

    gan.stop_check = scored_stop_check
    try:
        gan_bundle = pipeline.train_user_gan(corpus, cfg.target_user, cfg)
    finally:
        gan.stop_check = stop_check
    h = hashlib.sha256()
    for net in (verifier_bundle.network, gan_bundle.generator, gan_bundle.discriminator):
        h.update(net.flat.tobytes())
    return {"seed": seed, "epochs": gan_bundle.epochs_trained, "converged": gan_bundle.converged,
            "eer": summary["eer"], "heldout_accuracy": summary["heldout_accuracy"],
            "conditions": list(cfg.conditions), "checks": checks, "sha256": h.hexdigest()}


def spawn(seed: int) -> str:
    """run_seed in a fresh interpreter at one BLAS thread; returns its JSON record line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__, "--worker", str(seed)], env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def summarize(record: dict) -> dict:
    """Per condition: test 1 at the stop, and the median, min and max over the last checks."""
    out = {}
    for condition in record["conditions"]:
        last = [check[condition] for check in record["checks"][-LAST_CHECKS:]]
        out[condition] = {"stop": last[-1], "median": statistics.median(last), "min": min(last), "max": max(last)}
    return out


def render(records: list[dict]) -> str:
    conditions = records[0]["conditions"]
    stats = [summarize(r) for r in records]
    lines = [f"{'seed':>4} {'epochs':>6} {'conv':>4} {'eer':>5} {'acc':>5}"
             + "".join(f" | {c + ' stop':>12} {'med10':>5} {'min':>5} {'max':>5}" for c in conditions)]
    for r, s in zip(records, stats):
        lines.append(f"{r['seed']:>4} {r['epochs']:>6} {'yes' if r['converged'] else 'NO':>4} {r['eer']:.3f} "
                     f"{r['heldout_accuracy']:.3f}"
                     + "".join(f" | {s[c]['stop']:>12.3f} {s[c]['median']:>5.3f} {s[c]['min']:>5.3f} "
                               f"{s[c]['max']:>5.3f}" for c in conditions))
    lines.append(f"{'med':>4} {statistics.median(r['epochs'] for r in records):>6g} "
                 f"{sum(r['converged'] for r in records):>2}/{len(records)} "
                 f"{statistics.median(r['eer'] for r in records):.3f} "
                 f"{statistics.median(r['heldout_accuracy'] for r in records):.3f}"
                 + "".join(f" | {statistics.median(s[c]['stop'] for s in stats):>12.3f} "
                           f"{statistics.median(s[c]['median'] for s in stats):>5.3f}" for c in conditions))
    early = sum(r["epochs"] < EARLY_EPOCH for r in records)
    lines.append(f"seeds that stop before epoch {EARLY_EPOCH}: {early} of {len(records)}")
    return "\n".join(lines)


def gate(records: list[dict], parent: list[dict]) -> list[tuple[str, bool]]:
    """The gate's checks, each with whether it holds, for records against the parent's records."""
    seeds, parent_seeds = [r["seed"] for r in records], [r["seed"] for r in parent]
    if seeds != parent_seeds:
        raise ValueError(f"records cover seeds {seeds}, the parent's {parent_seeds}")
    eer_move = abs(statistics.median(r["eer"] for r in records) - statistics.median(r["eer"] for r in parent))
    results = [(f"every seed converges ({sum(r['converged'] for r in records)}/{len(records)})",
                all(r["converged"] for r in records)),
               (f"median EER moves {eer_move:.4f} <= {EER_MOVE}", eer_move <= EER_MOVE)]
    stats = [summarize(r) for r in records]
    parent_stats = [summarize(r) for r in parent if r["epochs"] >= EARLY_EPOCH]
    if not parent_stats:
        raise ValueError(f"no parent seed runs to epoch {EARLY_EPOCH}")
    for condition in records[0]["conditions"]:
        median = statistics.median(s[condition]["median"] for s in stats)
        low = min(s[condition]["median"] for s in parent_stats)
        high = max(s[condition]["median"] for s in parent_stats)
        results.append((f"{condition}: median check-median {median:.3f} in the per-seed range "
                        f"[{low:.3f}, {high:.3f}] of the parent's {len(parent_stats)} seeds that run "
                        f"to epoch {EARLY_EPOCH}", low <= median <= high))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, help="write the records here")
    parser.add_argument("--gate", type=Path, help="records of the parent, written by --json")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        print(json.dumps(run_seed(args.worker), sort_keys=True))
        return 0

    with ThreadPoolExecutor(JOBS) as pool:
        lines = list(pool.map(spawn, SEEDS + (REPEATED_SEED,)))
    repeat = lines.pop()
    records = [json.loads(line) for line in lines]
    if args.json:
        args.json.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(render(records))
    same = repeat == lines[SEEDS.index(REPEATED_SEED)]
    print(f"seed {REPEATED_SEED} run twice: {'byte-identical' if same else 'RECORDS DIFFER'}")
    ok = same
    if args.gate:
        for text, holds in gate(records, json.loads(args.gate.read_text(encoding="utf-8"))):
            print(f"gate: {'pass' if holds else 'FAIL'}  {text}")
            ok &= holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
