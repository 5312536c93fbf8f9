"""Shared bench fixtures: result reporting.

Every bench regenerates one of the paper's tables or figures.  Output
goes both to stdout (run with ``-s`` to watch) and to
``<pytest basetemp>/results/<name>.txt``, so a run never rewrites the
tables committed under ``benchmarks/results/``; copy a table there on
purpose to refresh it.  Pass ``--basetemp DIR`` to choose where the
results land.  ``benchmark.pedantic(..., rounds=1)`` registers
wall-time per experiment without re-running the (deterministic)
workload.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("results", numbered=False))
    print(f"\nbenchmark results: {path}")
    return path


@pytest.fixture
def report(results_dir):
    """Write a named report; also echo it to stdout."""

    def _report(name: str, text: str) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n=== {name} ({path}) ===\n{text}\n")
        return path

    return _report
