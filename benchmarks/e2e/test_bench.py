"""Keeps the benchmark's tables in step with ``src/`` and ``BENCHMARK.json``.

Run by explicit path (``pytest.ini`` only collects ``tests/``):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_bench.py

A rename under ``src/`` must fail here instead of silently dropping a
layer from the traced pass.
"""

from __future__ import annotations

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from benchmarks.e2e import metrics, seams  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Layers the benchmark measures itself; they have no module under src/.
BENCH_OWN_LAYERS = {"device", "obs"}


@pytest.mark.parametrize("layer,target", seams.SEAMS)
def test_every_seam_resolves_to_a_callable_in_src(layer, target):
    owner, attribute, value = seams.resolve(target)
    assert callable(value), target
    if target.startswith("repro."):
        module = inspect.getmodule(inspect.unwrap(value))
        assert Path(module.__file__).resolve().is_relative_to(REPO / "src"), target
    else:
        assert layer in BENCH_OWN_LAYERS, f"{target}: only device seams may live outside src/"


def test_span_names_are_unique():
    names = [seams.span_name(layer, target) for layer, target in seams.SEAMS]
    assert len(names) == len(set(names))
    assert set(seams.SPAN_BYTES) <= set(names)


def test_every_layer_in_the_spec_has_a_seam():
    seam_layers = {layer for layer, _target in seams.SEAMS}
    spec_layers = {seams.layer_of(entry["name"]) for entry in SPEC["per_layer"]}
    assert spec_layers - BENCH_OWN_LAYERS <= seam_layers
    assert seam_layers <= spec_layers | {"device"}


def test_names_and_counts_meet_the_contract():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25, entry
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s").items()


def test_spec_and_code_name_the_same_workloads_and_metrics():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    source = inspect.getsource(metrics)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f'"{entry["name"]}"' in source, f'{entry["name"]} is in BENCHMARK.json but not computed'
    computed = set(re.findall(r'^\s+"([a-z][a-z0-9_.]+)": ', source, re.MULTILINE))
    declared = {entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert computed == declared


def test_layers_sum_to_the_root_wall_clock():
    """Self times plus the unattributed remainder equal the bench.* wall."""
    def event(name, phase, ts, tid=1):
        return {"name": name, "ph": phase, "ts": ts, "pid": 1, "tid": tid}

    events = [
        event("bench.checkpoint", "B", 0),
        event("core.manager.checkpoint", "B", 10),
        event("save", "B", 11),  # the program's own span: transparent
        event("ckpt.serializer.from_entry", "B", 20),
        event("ckpt.serializer.from_entry", "E", 50),
        event("ckpt.sharded.put_many_serialized", "B", 60),
        event("ckpt.sharded.put_serialized", "B", 70),
        event("ckpt.sharded.put_serialized", "E", 170),
        event("ckpt.sharded.put_many_serialized", "E", 200),
        event("save", "E", 209),
        event("core.manager.checkpoint", "E", 210),
        event("bench.checkpoint", "E", 230),
        # A background thread: busy, but not blocking the training loop.
        event("ckpt.sharded.put_serialized", "B", 100, tid=2),
        event("ckpt.sharded.put_serialized", "E", 400, tid=2),
    ]
    stats = seams.summarize(events, {})
    rows = {row["layer"]: row for row in seams.layer_rows("w", stats)}
    assert rows["unattributed"]["wall_s"] == pytest.approx(230e-6)
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(230e-6)
    assert rows["ckpt.sharded"]["wall_s"] == pytest.approx(140e-6)
    assert rows["ckpt.sharded"]["self_s"] == pytest.approx(140e-6)
    assert rows["ckpt.sharded"]["busy_s"] == pytest.approx(440e-6)
    assert rows["core.manager"]["self_s"] == pytest.approx(30e-6)
