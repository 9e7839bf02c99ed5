"""The seed-table gate of tests/acceptance.py on hand-built records: no seed runs."""

import json

import pytest

import acceptance

CONDITIONS = ["ordered", "random"]


def record(seed, epochs=3000, converged=True, eer=0.08, rate=0.1, sha256=None):
    """One seed's record whose last checks all score rate in both conditions."""
    checks = [{"epoch": 50 * (k + 1), **{c: rate for c in CONDITIONS}} for k in range(epochs // 50)]
    return {"seed": seed, "epochs": epochs, "converged": converged, "eer": eer, "heldout_accuracy": 0.93,
            "conditions": CONDITIONS, "checks": checks, "sha256": sha256 or f"digest-{seed}-{epochs}"}


def parent_records():
    # seed 3 stops at epoch 100: its zero rates must not set the lower bound of the range
    return [record(0, rate=0.05), record(1, rate=0.1), record(2, rate=0.2),
            record(3, epochs=100, rate=0.0)]


def test_gate_passes_records_equal_to_the_parent_and_counts_every_seed_as_matching():
    lines = acceptance.gate(parent_records(), parent_records())
    assert lines == [
        ("every seed converges (4/4)", True),
        ("median EER moves 0.0000 <= 0.005", True),
        *((f"{c}: median check-median 0.075 in the per-seed range [0.050, 0.200] of the parent's 3 seeds "
           "that run to epoch 500", True) for c in CONDITIONS),
        ("epochs and sha256 equal the parent's on 4 of 4 seeds", None),
    ]


def test_gate_fails_each_check_and_names_the_seeds_whose_bits_moved():
    change = [record(0, rate=0.01, eer=0.09), record(1, converged=False, rate=0.01, eer=0.09),
              record(2, rate=0.2, eer=0.09, sha256="other"), record(3, epochs=150, rate=0.0, eer=0.09)]
    lines = acceptance.gate(change, parent_records())
    assert [holds for _, holds in lines] == [False, False, False, False, None]
    assert lines[0][0] == "every seed converges (3/4)"
    assert lines[1][0] == "median EER moves 0.0100 <= 0.005"
    assert lines[2][0].startswith("ordered: median check-median 0.010 in the per-seed range [0.050, 0.200]")
    assert lines[4][0] == "epochs and sha256 equal the parent's on 2 of 4 seeds; they differ on seeds 2, 3"


def test_gate_rejects_records_of_other_seeds():
    with pytest.raises(ValueError, match="records cover seeds"):
        acceptance.gate(parent_records()[:3], parent_records())


@pytest.mark.parametrize("rate, status", [(0.1, 0), (0.5, 1)])
def test_main_judges_two_saved_record_sets_without_running_a_seed(tmp_path, monkeypatch, capsys, rate, status):
    def spawn(seed):
        raise AssertionError(f"seed {seed} ran")

    monkeypatch.setattr(acceptance, "spawn", spawn)
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(parent_records()), encoding="utf-8")
    change.write_text(json.dumps([dict(r, checks=[{"epoch": 50, "ordered": rate, "random": 0.1}])
                                  for r in parent_records()]), encoding="utf-8")
    assert acceptance.main(["--gate", str(parent), "--records", str(change)]) == status
    out = capsys.readouterr().out
    assert "run twice" not in out
    assert out.count("gate: pass") == 4 - status
    assert out.count("gate: FAIL") == status
    assert "gate: info  epochs and sha256 equal the parent's on 4 of 4 seeds" in out


def test_main_refuses_to_keep_records_it_does_not_run(tmp_path):
    with pytest.raises(SystemExit) as exc:
        acceptance.main(["--records", str(tmp_path / "a.json"), "--json", str(tmp_path / "b.json")])
    assert exc.value.code == 2
