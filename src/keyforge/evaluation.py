"""Attack evaluation: test-pair protocols, report entries, and the report.

Three tests probe the calibrated verifier with sets of eval.n_sequences
sequences, paired by full cross-product (n² pairs each): real-vs-fake and
fake-vs-fake expect a same-user decision, fake-vs-other-users expects
different-user. TESTS states that protocol once: each test's name, expected
decision and two sets, read by build_test_pairs, the report entries and the
table. Each test's result is its report entry, a JSON-ready dict.

A test's pairs are its two (n, 15, 5) sets, never n² rows: the verifier
embeds each distinct set once, every set of every test in one forward pass,
and a test's n² distances come from the n + n codes of its two sets.

An entry holds the test's name, expected decision and n_pairs, its
same_user_rate (the share of pairs with d <= tau) and its accuracy (the
share given the expected decision). All of a test's pairs expect one
decision, so recall, precision, F1 and MCC would be undefined or fixed by
same_user_rate, and the report leaves them out. For test 1, same_user_rate is
the attack acceptance rate (ISO/IEC 30107-3's IAPMR). The entry's confusion
counts and test 1's attack_acceptance_rate repeat these figures; they stay
while the benchmark harness reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .verifier import VerifierBundle, code_distances, embed, require_finite

SAME_USER = "same_user"
DIFFERENT_USER = "different_user"

# The protocol: per test id, its name, the decision all its pairs expect, and its (left, right) sets
TESTS = {
    1: ("real vs fake", SAME_USER, ("real_alice", "fake_alice")),
    2: ("fake vs fake", SAME_USER, ("fake_alice", "fake_alice_b")),
    3: ("real other vs fake", DIFFERENT_USER, ("fake_alice", "real_others")),
}


@dataclass(frozen=True)
class CrossPairs:
    """Every pairing of two sets, all expecting one decision.

    Pair i * len(right) + j is (left[i], right[j]).
    """

    left: np.ndarray  # (n, 15, 5)
    right: np.ndarray  # (m, 15, 5)
    same: bool  # whether every pair is expected to come from one user

    def __len__(self) -> int:
        return len(self.left) * len(self.right)


def build_test_pairs(
    test_id: int,
    real_alice: np.ndarray,
    fake_alice: np.ndarray,
    fake_alice_b: np.ndarray,
    real_others: np.ndarray,
    n: int,
) -> CrossPairs:
    """Cross-product pairing for one test protocol: n² pairs, pair i*n + j is (left[i], right[j])."""
    if test_id not in TESTS:
        raise ValueError(f"test_id must be in {tuple(TESTS)}, got {test_id}")
    _, expected, names = TESTS[test_id]
    sets = dict(real_alice=real_alice, fake_alice=fake_alice, fake_alice_b=fake_alice_b, real_others=real_others)
    for name in names:
        if len(sets[name]) != n:
            raise ValueError(f"test {test_id}: set {name} has {len(sets[name])} sequences, expected {n}")
    left, right = (np.asarray(sets[name]) for name in names)
    return CrossPairs(left, right, expected == SAME_USER)


def sample_other_sequences(
    window_counts: dict[str, int],
    exclude_user: str,
    n: int,
    rng: np.random.Generator,
) -> list[tuple[str, int]]:
    """Pick n (user, window index) pairs uniformly across the non-target users.

    Each pick draws the user first, from the sorted users that have at least
    one window, then the window index below that user's count. The picks name
    windows for verifier.windows_at, so only the picked sentences are ever
    featurized.
    """
    others = sorted(u for u, count in window_counts.items() if u != exclude_user and count > 0)
    if not others:
        raise ValueError(f"no users other than {exclude_user!r} with a window")
    picks = []
    for _ in range(n):
        uid = others[rng.integers(len(others))]
        picks.append((uid, int(rng.integers(window_counts[uid]))))
    return picks


@dataclass
class EvalReport:
    results: dict[str, dict[str, dict]]  # condition -> "test<id>" -> report entry
    metadata: dict = field(default_factory=dict)


def _cross_distances(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """|left[i] - right[j]| for every pair of codes, entry i * len(right) + j.

    Raises NonFiniteDistanceError when a distance is NaN or infinite.
    """
    with np.errstate(all="ignore"):
        d = code_distances(left[:, None, :] - right[None, :, :]).ravel()
    return require_finite(d)


def _test_entry(test_id: int, d: np.ndarray, tau: float, same: bool) -> dict:
    accepted = int(np.count_nonzero(d <= np.float64(tau)))  # float64: exact for a float32 d, whatever tau is
    rejected = d.size - accepted
    tp, fn, fp, tn = (accepted, rejected, 0, 0) if same else (0, 0, accepted, rejected)
    name, expected, _ = TESTS[test_id]
    entry = {
        "name": name,
        "expected_decision": expected,
        "n_pairs": d.size,
        "same_user_rate": accepted / d.size,
        "accuracy": (tp + tn) / d.size,
        "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
    }
    if test_id == 1:
        entry["attack_acceptance_rate"] = entry["same_user_rate"]
    return entry


def run_tests(
    bundle: VerifierBundle,
    pairs_by_condition: dict[str, dict[int, CrossPairs]],
    metadata: dict | None = None,
) -> EvalReport:
    """Evaluate every condition's three test protocols against the verifier.

    Sets are told apart by identity. Each distinct set is embedded once, in
    order of first use, all of them in one forward pass.
    """
    if bundle.tau is None:
        raise ValueError("verifier bundle is not calibrated (tau unset)")
    tests = [(condition, test_id, pairs) for condition, by_id in pairs_by_condition.items()
             for test_id, pairs in sorted(by_id.items())]
    sets = {id(s): s for _, _, pairs in tests for s in (pairs.left, pairs.right)}
    with np.errstate(all="ignore"):
        codes = embed(bundle, np.concatenate(list(sets.values())))
    ends = np.cumsum([len(s) for s in sets.values()])
    code_of = dict(zip(sets, np.split(codes, ends[:-1])))
    results = {condition: {} for condition in pairs_by_condition}
    for condition, test_id, pairs in tests:
        d = _cross_distances(code_of[id(pairs.left)], code_of[id(pairs.right)])
        results[condition][f"test{test_id}"] = _test_entry(test_id, d, bundle.tau, pairs.same)
    return EvalReport(results=results, metadata=dict(metadata or {}))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def report_to_dict(report: EvalReport) -> dict:
    return {"format_version": 1, "metadata": report.metadata, "conditions": report.results}


def render_table(report: EvalReport) -> str:
    """Aligned accuracy table, conditions as rows and tests as columns."""
    conditions = sorted(report.results)
    headers = ["condition"] + [f"test {i}: {name}" for i, (name, _, _) in TESTS.items()]
    rows = []
    for condition in conditions:
        row = [condition]
        for test_id in TESTS:
            entry = report.results[condition].get(f"test{test_id}")
            row.append("-" if entry is None else f"{entry['accuracy']:.3f}")
        rows.append(row)
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    lines.append("")
    lines.append("test 1 attack acceptance per condition (same_user_rate):")
    for condition in conditions:
        entry = report.results[condition].get("test1")
        if entry is not None:
            lines.append(f"  {condition}: {entry['same_user_rate']:.3f}")
    return "\n".join(lines)
