"""Attack evaluation: test-pair protocols, confusion metrics, and the report.

Three tests probe the calibrated verifier with 20-sequence sets, paired by
full cross-product (400 pairs each): real-vs-fake and fake-vs-fake expect a
same-user decision, fake-vs-other-users expects different-user. "same_user" is
the positive class for confusion accounting.

Test 1's accuracy is genuinely ambiguous in direction: a high value here reads
as attack acceptance under the expectations above, while a strict-verifier
reading would invert it. The report carries both rates for test 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .verifier import (
    DIFFERENT_USER,
    SAME_USER,
    SequencePair,
    VerifierBundle,
    pair_distances,
)

EVAL_SET_SIZE = 20

TEST_IDS = (1, 2, 3)
TEST_EXPECTATIONS = {1: SAME_USER, 2: SAME_USER, 3: DIFFERENT_USER}
TEST_NAMES = {1: "real vs fake", 2: "fake vs fake", 3: "real other vs fake"}


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    accuracy: float
    recall: float
    precision: float
    f1: float
    mcc: float
    flags: tuple[str, ...] = ()


def metrics(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy, recall, precision, F1, and MCC from one confusion matrix.

    Zero-denominator metrics report 0 and are named in flags rather than
    failing the run.
    """
    if cm.total == 0:
        raise ValueError("cannot compute metrics for an all-zero confusion matrix")
    tp, tn, fp, fn = cm.tp, cm.tn, cm.fp, cm.fn
    flags = []

    accuracy = (tp + tn) / cm.total

    if fn + tp == 0:
        recall = 0.0
        flags.append("recall_undefined")
    else:
        recall = tp / (fn + tp)

    if tp + fp == 0:
        precision = 0.0
        flags.append("precision_undefined")
    else:
        precision = tp / (tp + fp)

    if 2 * tp + fn + fp == 0:
        f1 = 0.0
        flags.append("f1_undefined")
    else:
        f1 = 2 * tp / (2 * tp + fn + fp)

    mcc_den = (tn + fn) * (fp + tp) * (tn + fp) * (fn + tp)
    if mcc_den == 0:
        mcc = 0.0
        flags.append("mcc_undefined")
    else:
        mcc = (tn * tp - fp * fn) / math.sqrt(mcc_den)

    return MetricSet(
        accuracy=accuracy, recall=recall, precision=precision, f1=f1, mcc=mcc,
        flags=tuple(flags),
    )


def build_test_pairs(
    test_id: int,
    real_alice: list[np.ndarray],
    fake_alice: list[np.ndarray],
    fake_alice_b: list[np.ndarray],
    real_others: list[np.ndarray],
    n: int = EVAL_SET_SIZE,
) -> list[SequencePair]:
    """Cross-product pairing for one test protocol, labeled with its expected decision."""
    if test_id not in TEST_IDS:
        raise ValueError(f"test_id must be in {TEST_IDS}, got {test_id}")
    referenced = {
        1: (("real_alice", real_alice), ("fake_alice", fake_alice)),
        2: (("fake_alice", fake_alice), ("fake_alice_b", fake_alice_b)),
        3: (("fake_alice", fake_alice), ("real_others", real_others)),
    }[test_id]
    for name, seqs in referenced:
        if len(seqs) != n:
            raise ValueError(f"test {test_id}: set {name} has {len(seqs)} sequences, expected {n}")
    (_, left), (_, right) = referenced
    expected = TEST_EXPECTATIONS[test_id]
    return [SequencePair(a, b, expected) for a in left for b in right]


def sample_other_sequences(
    sequences_by_user: dict[str, list[np.ndarray]],
    exclude_user: str,
    n: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Draw n sequences uniformly across the non-target users (user first, then sequence)."""
    others = sorted(u for u in sequences_by_user if u != exclude_user)
    if not others:
        raise ValueError(f"no users other than {exclude_user!r} in the sequence set")
    out = []
    for _ in range(n):
        uid = others[rng.integers(len(others))]
        seqs = sequences_by_user[uid]
        out.append(seqs[rng.integers(len(seqs))])
    return out


@dataclass(frozen=True)
class TestResult:
    test_id: int
    n_pairs: int
    matches: int
    accuracy: float
    same_user_rate: float
    confusion: ConfusionMatrix
    metric_set: MetricSet


@dataclass
class EvalReport:
    results: dict[str, dict[int, TestResult]]  # condition -> test_id -> result
    metadata: dict = field(default_factory=dict)


def _run_one_test(bundle: VerifierBundle, test_id: int, pairs: list[SequencePair]) -> TestResult:
    d = pair_distances(bundle, pairs)
    if bundle.tau is None:
        raise ValueError("verifier bundle is not calibrated (tau unset)")
    same = d <= bundle.tau
    expected_same = np.array([p.label == SAME_USER for p in pairs])

    cm = ConfusionMatrix(
        tp=int(np.count_nonzero(same & expected_same)),
        tn=int(np.count_nonzero(~same & ~expected_same)),
        fp=int(np.count_nonzero(same & ~expected_same)),
        fn=int(np.count_nonzero(~same & expected_same)),
    )
    matches = cm.tp + cm.tn
    return TestResult(
        test_id=test_id,
        n_pairs=len(pairs),
        matches=matches,
        accuracy=matches / len(pairs),
        same_user_rate=float(np.count_nonzero(same)) / len(pairs),
        confusion=cm,
        metric_set=metrics(cm),
    )


def run_tests(
    bundle: VerifierBundle,
    pairs_by_condition: dict[str, dict[int, list[SequencePair]]],
    metadata: dict | None = None,
) -> EvalReport:
    """Evaluate every condition's three test protocols against the verifier."""
    results: dict[str, dict[int, TestResult]] = {}
    for condition, tests in pairs_by_condition.items():
        results[condition] = {
            test_id: _run_one_test(bundle, test_id, pairs)
            for test_id, pairs in sorted(tests.items())
        }
    return EvalReport(results=results, metadata=dict(metadata or {}))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def report_to_dict(report: EvalReport) -> dict:
    doc: dict = {"format_version": 1, "metadata": report.metadata, "conditions": {}}
    for condition, tests in sorted(report.results.items()):
        cond_doc = {}
        for test_id, r in sorted(tests.items()):
            entry = {
                "name": TEST_NAMES[r.test_id],
                "expected_decision": TEST_EXPECTATIONS[r.test_id],
                "n_pairs": r.n_pairs,
                "matches": r.matches,
                "accuracy": r.accuracy,
                "same_user_rate": r.same_user_rate,
                "confusion": {
                    "tp": r.confusion.tp,
                    "tn": r.confusion.tn,
                    "fp": r.confusion.fp,
                    "fn": r.confusion.fn,
                },
                "recall": r.metric_set.recall,
                "precision": r.metric_set.precision,
                "f1": r.metric_set.f1,
                "mcc": r.metric_set.mcc,
                "flags": list(r.metric_set.flags),
            }
            if r.test_id == 1:
                entry["attack_acceptance_rate"] = r.same_user_rate
                entry["verifier_correct_rate"] = 1.0 - r.same_user_rate
            cond_doc[f"test{test_id}"] = entry
        doc["conditions"][condition] = cond_doc
    return doc


def render_table(report: EvalReport) -> str:
    """Aligned accuracy table, conditions as rows and tests as columns."""
    conditions = sorted(report.results)
    headers = ["condition"] + [f"test {i}: {TEST_NAMES[i]}" for i in TEST_IDS]
    rows = []
    for condition in conditions:
        row = [condition]
        for test_id in TEST_IDS:
            r = report.results[condition].get(test_id)
            row.append("-" if r is None else f"{r.accuracy:.3f}")
        rows.append(row)
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append("test 1 rates per condition (acceptance vs strict-verifier reading):")
    for condition in conditions:
        r = report.results[condition].get(1)
        if r is not None:
            lines.append(
                f"  {condition}: attack_acceptance={r.same_user_rate:.3f}  "
                f"verifier_correct={1.0 - r.same_user_rate:.3f}"
            )
    return "\n".join(lines)
