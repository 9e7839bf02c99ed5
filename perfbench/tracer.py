"""Per-layer tracing for the benchmark's traced mode, installed from outside keyforge.

Each traced function is replaced by a wrapper in every keyforge module that
holds it, so direct imports such as `gan.embed_word`, `attack.generate_word`,
`verifier.normalize` or `evaluation.pair_distances` are counted as well as
calls through the defining module. A wrapper records one span
`[name, start, end, parent, extras]` in memory; the spans are reduced to
per-layer numbers by `layer_metrics` and written out by `write_spans`.

Self time is a span's duration minus the time its direct child spans cover.
FLOP and byte counts are computed from layer shapes and parameter counts,
not measured.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Networks are told apart by their input width: 500 latent + 100 embedding,
# 75 sample cells + 100 embedding, and one flattened 15x5 sequence.
NETWORKS = {600: "generator", 175: "discriminator", 75: "verifier"}

TRACED = {
    "nn": ("forward", "backward", "adam_step", "save_params", "load_params"),
    "embedding": ("embed_word",),
    "gan": ("train_epoch", "stop_check", "_postprocess", "generate_word"),
    "verifier": (
        "sequences_from_corpus", "make_pairs", "train_verifier", "calibrate_threshold",
        "pair_distances",
    ),
    "attack": ("build_attack_stream", "stitch_events", "fit_space_model"),
    "evaluation": ("build_test_pairs", "run_tests"),
    "data": (
        "synth_corpus", "export_log", "ingest_log", "extract_features", "normalize",
        "words_from_corpus", "slice_windows",
    ),
    "pipeline": (
        "build_corpus", "prepare_verifier", "train_user_gan", "make_attack_events",
        "evaluate_attack",
    ),
}

_BYTES_PER_PARAM_STEP = 4 * 8  # Adam reads or writes param, grad, m and v: float64 each
_MIB = float(2**20)
_SEQUENCE_ROWS = 15  # keyforge.data.WORD_LEN: rows in one verifier sequence


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _net(params) -> str:
    return NETWORKS.get(params.in_dim, "other")


def _macs(params) -> int:
    return sum(spec.in_dim * spec.out_dim for spec in params.specs)


def _file_mib(path) -> float:
    return Path(path).stat().st_size / _MIB


class Tracer:
    """Installs span-recording wrappers around keyforge's public functions."""

    def __init__(self, package: str = "keyforge"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._muted = False
        self._hooks = {
            "nn.forward": self._forward,
            "nn.backward": self._backward,
            "nn.adam_step": self._adam,
            "nn.save_params": lambda a, k, r: ("nn.save_params", {"mb": _file_mib(_arg(a, k, 1, "path"))}),
            "nn.load_params": lambda a, k, r: ("nn.load_params", {"mb": _file_mib(_arg(a, k, 0, "path"))}),
            "embedding.embed_word": lambda a, k, r: ("embedding.embed_word", {"text": _arg(a, k, 0, "text")}),
            "verifier.train_verifier": self._train_verifier,
            "verifier.calibrate_threshold": self._calibrate,
            "verifier.pair_distances": lambda a, k, r: ("verifier.pair_distances", {"pairs": len(r)}),
            "attack.build_attack_stream": self._attack_stream,
            "attack.stitch_events": lambda a, k, r: ("attack.stitch_events", {"events": len(r)}),
            "evaluation.run_tests": self._run_tests,
            "data.export_log": lambda a, k, r: ("data.export_log", {"events": _arg(a, k, 0, "corpus").n_events()}),
            "data.ingest_log": lambda a, k, r: ("data.ingest_log", {"events": r.n_events()}),
            "data.extract_features": lambda a, k, r: ("data.extract_features", {"rows": len(r)}),
            "pipeline.train_user_gan": lambda a, k, r: (
                "pipeline.train_user_gan", {"epochs_trained": r.epochs_trained}),
        }

    # -- per-call extras --------------------------------------------------

    @staticmethod
    def _forward(args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        rows = result[1].output.shape[0]
        return f"nn.forward.{_net(params)}", {"gflop": 2 * rows * _macs(params) / 1e9}

    @staticmethod
    def _backward(args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        rows = _arg(args, kwargs, 1, "tape").output.shape[0]
        # weight gradient and input gradient: two matrix products per layer
        return f"nn.backward.{_net(params)}", {"gflop": 4 * rows * _macs(params) / 1e9}

    @staticmethod
    def _adam(args, kwargs, result):
        params = _arg(args, kwargs, 0, "params")
        n_params = sum(w.size + b.size for w, b in zip(params.weights, params.biases))
        return f"nn.adam_step.{_net(params)}", {"mb_touched": n_params * _BYTES_PER_PARAM_STEP / _MIB}

    @staticmethod
    def _train_verifier(args, kwargs, result):
        pairs = _arg(args, kwargs, 0, "pairs")
        config = _arg(args, kwargs, 1, "config")
        steps = math.ceil(len(pairs) / config.batch_size) * config.epochs
        return "verifier.train_verifier", {"steps": steps}

    def _calibrate(self, args, kwargs, result):
        bundle = _arg(args, kwargs, 0, "bundle")
        pairs = _arg(args, kwargs, 1, "validation_pairs")
        self._muted = True  # these distances are the tracer's own work, not the program's
        try:
            d = self._originals["verifier.pair_distances"](bundle, pairs)
        finally:
            self._muted = False
        scanned = np.unique(np.concatenate([[0.0], d])).size
        return "verifier.calibrate_threshold", {"thresholds_scanned": scanned}

    @staticmethod
    def _attack_stream(args, kwargs, result):
        plan = _arg(args, kwargs, 1, "word_plan")
        config = _arg(args, kwargs, 2, "config")
        return "attack.build_attack_stream", {
            "plan_len": len(plan), "needed_rows": config.n_sequences * _SEQUENCE_ROWS, "events": len(result),
        }

    @staticmethod
    def _run_tests(args, kwargs, result):
        by_condition = _arg(args, kwargs, 1, "pairs_by_condition")
        n = sum(len(p) for tests in by_condition.values() for p in tests.values())
        return "evaluation.run_tests", {"pairs": n}

    # -- installation -----------------------------------------------------

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if hook is not None:
                spans[index][0], spans[index][4] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every keyforge module attribute bound to a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for short, names in TRACED.items():
            home = sys.modules[f"{self.package}.{short}"]
            for fname in names:
                name = f"{short}.{fname}"
                original = getattr(home, fname)
                self._originals[name] = original
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take_spans(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in report order."""
    out = []

    def add(base, stats):
        for stat in stats:
            unit, better = STAT_UNITS[stat]
            out.append((f"{base}.{stat}", unit, better))

    for fn in ("forward", "backward"):
        for net in NETWORKS.values():
            add(f"nn.{fn}.{net}", ("calls", "self_s", "gflop"))
    for net in NETWORKS.values():
        add(f"nn.adam_step.{net}", ("calls", "self_s", "p50_us", "mb_touched"))
    for fn in ("save_params", "load_params"):
        add(f"nn.{fn}", ("calls", "self_s", "mb"))
    add("embedding.embed_word", ("calls", "self_s", "p50_us", "distinct_ratio"))
    add("gan.train_epoch", ("calls", "self_s", "p50_ms", "p99_ms"))
    for fn in ("stop_check", "_postprocess", "generate_word"):
        add(f"gan.{fn}", ("calls", "self_s"))
    out.append(("gan.epochs_trained", "count", "lower"))
    verifier_extra = {"train_verifier": "steps", "calibrate_threshold": "thresholds_scanned",
                      "pair_distances": "pairs"}
    for fn in TRACED["verifier"]:
        add(f"verifier.{fn}", ("calls", "self_s") + ((verifier_extra[fn],) if fn in verifier_extra else ()))
    add("attack.build_attack_stream", ("calls", "self_s", "passes", "rows_used_ratio"))
    add("attack.stitch_events", ("calls", "self_s", "events"))
    add("attack.fit_space_model", ("calls", "self_s"))
    add("evaluation.build_test_pairs", ("calls", "self_s"))
    add("evaluation.run_tests", ("calls", "self_s", "pairs"))
    data_extra = {"export_log": "events", "ingest_log": "events", "extract_features": "rows"}
    for fn in TRACED["data"]:
        add(f"data.{fn}", ("calls", "self_s") + ((data_extra[fn],) if fn in data_extra else ()))
    for fn in TRACED["pipeline"]:
        add(f"pipeline.{fn}", ("total_s",))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "gflop": ("GFLOP", "lower"),
    "p50_us": ("us", "lower"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "mb_touched": ("MiB", "lower"),
    "mb": ("MiB", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "steps": ("count", "lower"),
    "thresholds_scanned": ("count", "lower"),
    "pairs": ("count", "lower"),
    "passes": ("count", "lower"),
    "rows_used_ratio": ("ratio", "higher"),
    "events": ("count", "lower"),
    "rows": ("count", "lower"),
}

PER_LAYER = _names()

# Stats that count work; they must repeat exactly for one seed.
COUNT_STATS = ("calls", "gflop", "mb_touched", "mb", "distinct_ratio", "steps",
               "thresholds_scanned", "pairs", "passes", "rows_used_ratio", "events", "rows",
               "epochs_trained")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration; layers it never called read 0."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls = defaultdict(int)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    sums = defaultdict(float)
    texts = defaultdict(set)
    generate_under = defaultdict(int)
    for index, (name, start, end, parent, extras) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[index]
        durations[name].append(end - start)
        if name == "gan.generate_word" and parent >= 0:
            generate_under[parent] += 1
        for key, value in (extras or {}).items():
            if key == "text":
                texts[name].add(value)
            else:
                sums[f"{name}.{key}"] += value

    passes = [generate_under[i] / extras["plan_len"]
              for i, (name, _, _, _, extras) in enumerate(spans)
              if name == "attack.build_attack_stream"]

    def pct(name, q, scale):
        values = durations.get(name)
        if not values:
            return 0.0
        return float(np.percentile(values, q)) * scale

    out = {}
    for metric, _, _ in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        if stat == "calls":
            value = calls[base]
        elif stat == "self_s":
            value = self_s[base]
        elif stat == "total_s":
            value = sum(durations[base])
        elif stat == "p50_us":
            value = pct(base, 50, 1e6)
        elif stat == "p50_ms":
            value = pct(base, 50, 1e3)
        elif stat == "p99_ms":
            value = pct(base, 99, 1e3)
        elif stat == "distinct_ratio":
            value = len(texts[base]) / calls[base] if calls[base] else 0.0
        elif stat == "passes":
            value = sum(passes)
        elif stat == "rows_used_ratio":
            events = sums[f"{base}.events"]
            value = sums[f"{base}.needed_rows"] / events if events else 0.0
        elif metric == "gan.epochs_trained":
            value = sums["pipeline.train_user_gan.epochs_trained"]
        elif metric == "trace.overhead_ratio":
            continue  # needs the untraced run; filled in by the caller
        else:
            value = sums[metric]
        out[metric] = value
    return out


def combine(per_iteration: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced iterations; work counts must agree exactly between them."""
    combined, mismatches = {}, []
    for metric in per_iteration[0]:
        values = [m[metric] for m in per_iteration]
        stat = metric.rsplit(".", 1)[1]
        if stat in COUNT_STATS:
            if any(not math.isclose(v, values[0], rel_tol=1e-12, abs_tol=1e-12) for v in values):
                mismatches.append(f"{metric} differs between traced iterations: {values}")
            combined[metric] = values[0]
        else:
            combined[metric] = statistics.median(values)
    return combined, mismatches


def write_spans(path: Path, iterations: list[list[list]]) -> None:
    """One JSON object per span: iteration, name, start, end, parent (index or -1)."""
    with open(path, "w", encoding="utf-8") as fh:
        for it, spans in enumerate(iterations):
            for name, start, end, parent, _ in spans:
                fh.write(json.dumps({"iteration": it, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
