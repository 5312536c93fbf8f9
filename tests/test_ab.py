"""The same-runner A/B gate (``benchmarks/ab.py``), driven with fabricated runs.

No benchmark runs here: each test builds the per-run results ``run.py``
prints and checks the verdict, the exit status and the run order.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

AB_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = {
    "workloads": [{"name": "sharded"}],
    "end_to_end": [
        {"name": "save_stall_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "restore_mib_s", "unit": "MiB/s", "better": "higher", "bound": 0.25},
    ],
}
TIGHT = [10.0, 10.1, 9.9, 10.0, 10.05]
WIDE = [6.0, 8.0, 10.0, 12.0, 14.0]
RESTORE = [500.0, 505.0, 495.0, 500.0, 502.0]


def run(stall, restore, correct=True, attempted=100, failed=0):
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"save_stall_ms_p50": {"value": stall, "unit": "ms"},
                    "restore_mib_s": {"value": restore, "unit": "MiB/s"}},
    }


def results(parent_stalls, head_stalls, head_overrides=()):
    """Results for SPEC; ``head_overrides`` replaces whole head runs by index."""
    head = [run(stall, restore) for stall, restore in zip(head_stalls, RESTORE)]
    for index, replacement in head_overrides:
        head[index] = replacement
    return {
        "parent": {"sharded": [run(s, r) for s, r in zip(parent_stalls, RESTORE)]},
        "head": {"sharded": head},
    }


def row_of(lines, metric):
    (line,) = [line for line in lines if metric in line]
    return line


def test_worse_than_the_bound_with_a_tight_parent_is_exceeded():
    head = [value * 1.3 for value in TIGHT]
    lines, status = ab.verdict(SPEC, results(TIGHT, head))
    assert row_of(lines, "save_stall_ms_p50").endswith("EXCEEDED")
    assert row_of(lines, "restore_mib_s").endswith("ok")
    assert status != 0


def test_higher_is_better_metrics_regress_downwards():
    slow = [run(stall, restore * 0.6) for stall, restore in zip(TIGHT, RESTORE)]
    lines, status = ab.verdict(
        SPEC, {"parent": results(TIGHT, TIGHT)["parent"], "head": {"sharded": slow}})
    assert row_of(lines, "restore_mib_s").endswith("EXCEEDED")
    assert row_of(lines, "save_stall_ms_p50").endswith("ok")
    assert status != 0


def test_the_same_gap_with_a_wide_parent_is_unresolved():
    head = [value * 1.3 for value in WIDE]
    lines, status = ab.verdict(SPEC, results(WIDE, head))
    assert row_of(lines, "save_stall_ms_p50").endswith("unresolved")
    assert status == 0


def test_a_wide_parent_still_resolves_when_every_head_run_wins():
    head = [value / 3.0 for value in WIDE]  # 4.67 ms at worst, below the parent's best 6
    lines, status = ab.verdict(SPEC, results(WIDE, head))
    assert row_of(lines, "save_stall_ms_p50").endswith("ok")
    assert "5/5" in row_of(lines, "save_stall_ms_p50")
    assert status == 0


def test_within_the_bound_is_ok():
    head = [value * 1.1 for value in TIGHT]
    lines, status = ab.verdict(SPEC, results(TIGHT, head))
    assert row_of(lines, "save_stall_ms_p50").endswith("ok")
    assert "0/5" in row_of(lines, "save_stall_ms_p50")
    assert status == 0


def test_one_incorrect_head_run_fails_the_gate():
    bad = run(TIGHT[2], RESTORE[2], correct=False)
    _, status = ab.verdict(SPEC, results(TIGHT, TIGHT, [(2, bad)]))
    assert status != 0


def test_an_incorrect_parent_run_is_reported_but_does_not_fail_the_head():
    runs = results(TIGHT, TIGHT)
    runs["parent"]["sharded"][3] = ab.failed_run("exit 1")
    lines, status = ab.verdict(SPEC, runs)
    assert "runs not correct: parent 1/5, head 0/5" in row_of(lines, "failed ops")
    assert "0/4" in row_of(lines, "save_stall_ms_p50")
    assert status == 0


def test_a_crashed_run_fails_the_gate_and_drops_its_pair():
    lines, status = ab.verdict(SPEC, results(TIGHT, TIGHT, [(1, ab.failed_run("exit 1"))]))
    assert status != 0
    assert "0/4" in row_of(lines, "save_stall_ms_p50")


def test_a_higher_failed_share_fails_the_gate():
    # correct only counts restores; the share counts every operation
    flaky = run(TIGHT[0], RESTORE[0], correct=True, attempted=100, failed=1)
    lines, status = ab.verdict(SPEC, results(TIGHT, TIGHT, [(0, flaky)]))
    assert "head 0.20%" in row_of(lines, "failed ops")
    assert status != 0


def test_medians_and_iqr_match_numpy():
    rng = np.random.default_rng(7)
    parent, head = rng.lognormal(3.0, 0.4, 10), rng.lognormal(3.0, 0.4, 10)
    low, median, high = ab.quartiles(parent)
    assert median == float(np.median(parent))
    assert (low, high) == tuple(float(q) for q in np.percentile(parent, [25, 75]))
    row = ab.compare_metric(SPEC["end_to_end"][0], list(parent), list(head))
    assert row["parent"] == float(np.median(parent))
    assert row["head"] == float(np.median(head))
    iqr = np.percentile(parent, 75) - np.percentile(parent, 25)
    assert row["spread"] == pytest.approx(iqr / np.median(parent))
    assert row["worse"] == pytest.approx(np.median(head) / np.median(parent) - 1.0)
    assert row["wins"] == int(np.sum(head < parent))


def fake_checkouts(monkeypatch, specs):
    """Stand-ins for ``load_spec`` and ``run_once``: ``specs`` maps a checkout's name
    to its spec; every run is the same steady result.  Returns the list of runs made."""
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        return run(10.0, 500.0)

    monkeypatch.setattr(ab, "load_spec", lambda checkout: specs[checkout.name])
    monkeypatch.setattr(ab, "run_once", fake_run)
    return calls


def test_the_side_that_runs_first_alternates_each_pair(monkeypatch, capsys):
    spec = {**SPEC, "workloads": [{"name": "sharded"}, {"name": "dedup"}]}
    calls = fake_checkouts(monkeypatch, {"parent": spec, "head": spec})
    monkeypatch.setattr(ab, "PAIRS", 4)
    assert ab.main(["/checkouts/parent", "/checkouts/head"]) == 0
    assert len(calls) == 4 * 2 * 2
    for pair in range(4):
        first = "parent" if pair % 2 == 0 else "head"
        second = "head" if first == "parent" else "parent"
        block = calls[pair * 4:(pair + 1) * 4]
        assert block == [(first, "sharded", pair), (second, "sharded", pair),
                         (first, "dedup", pair), (second, "dedup", pair)]
    assert "EXCEEDED" not in capsys.readouterr().out


def test_a_workload_only_the_head_names_is_listed_new_and_not_run(monkeypatch, capsys):
    head_spec = {**SPEC, "workloads": [{"name": "sharded"}, {"name": "added"}]}
    calls = fake_checkouts(monkeypatch, {"parent": SPEC, "head": head_spec})
    monkeypatch.setattr(ab, "PAIRS", 2)
    assert ab.main(["/checkouts/parent", "/checkouts/head"]) == 0
    assert {workload for _, workload, _ in calls} == {"sharded"}
    assert len(calls) == 2 * 2
    out = capsys.readouterr().out
    assert "added" in out and "new (no parent)" in out
    assert "runs not correct: parent 0/2, head 0/2" in out
