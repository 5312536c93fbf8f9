"""Same-runner A/B of the end-to-end benchmark: a parent checkout against a head.

    python benchmarks/ab.py PARENT HEAD

For each of ``PAIRS`` pairs and each workload, runs
``benchmarks/e2e/run.py --workload W --seed <pair> --trace 0`` once from
each checkout, each checkout's own harness measuring its own ``src/``.
Which side goes first alternates every pair: the second run of a
back-to-back pair is systematically slower, so a fixed order would read
as a regression.  Metrics and bounds come from HEAD's ``BENCHMARK.json``;
the workloads are those both checkouts' ``BENCHMARK.json`` name, and a
workload only HEAD names is listed as new and not run.

Per workload and end-to-end metric it prints both medians, how much worse
HEAD's median is beside the bound, the parent's interquartile range as a
share of its median, and how many pairs HEAD won (ties count for
neither).  A row is ``EXCEEDED`` when HEAD is worse than the bound and the
parent's IQR lies within it, and ``unresolved`` when that IQR is wider
than the bound, unless every HEAD run beats every parent run.  The exit
status is non-zero on any ``EXCEEDED`` row, any HEAD run that is not
``correct``, or a workload whose failed-operations share is higher on
HEAD than on the parent.  A parent run that is not correct is reported
and drops its pair, but does not fail HEAD.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SIDES = ("parent", "head")
#: Ten pairs: quartiles of fewer samples are too coarse to tell a bound
#: from noise, and leave rows ``unresolved`` that ten would resolve.
PAIRS = 10
#: A run of run.py ends well inside 170 s on its own; this only stops a
#: wedged harness from holding the job until the runner's timeout.
RUN_TIMEOUT_SECONDS = 300.0

#: One run's result: run.py's last stdout line, or a failed stand-in.
Result = Dict[str, object]
#: side -> workload -> results, one per pair.
Results = Dict[str, Dict[str, List[Result]]]


def load_spec(checkout: Path) -> dict:
    """``checkout``'s ``BENCHMARK.json``, read by that checkout's own harness."""
    code = "import json; from benchmarks.e2e.run import load_spec; print(json.dumps(load_spec()))"
    process = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=harness_environment(),
                             capture_output=True, text=True, check=True)
    return json.loads(process.stdout)


def harness_environment() -> Dict[str, str]:
    """This process's environment without ``PYTHONPATH``: each harness finds its own ``src/``."""
    return {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}


def run_order(pair: int) -> Tuple[str, str]:
    """Which side runs first in ``pair``: the parent on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int) -> Result:
    """One untraced run of ``workload`` from ``checkout``."""
    command = [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    try:
        process = subprocess.run(command, cwd=checkout, env=harness_environment(),
                                 capture_output=True, text=True, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return failed_run(f"no result after {RUN_TIMEOUT_SECONDS:.0f} s")
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return failed_run(f"exit {process.returncode}: {process.stderr.strip()[-500:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return failed_run(f"last line is not a result: {lines[-1][:200]}")


def failed_run(error: str) -> Result:
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "error": error}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(lower quartile, median, upper quartile), numpy's linear method."""
    low, median, high = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(low), float(median), float(high)


def share(part: float, whole: float) -> float:
    """``part / |whole|``; 0 when ``part`` is 0, infinite when only ``whole`` is."""
    if part == 0:
        return 0.0
    return part / abs(whole) if whole else float("inf")


def compare_metric(entry: dict, parent: Sequence[float], head: Sequence[float]) -> dict:
    """One row: medians, HEAD's worsening, the parent's spread and the verdict.

    ``parent`` and ``head`` hold one value per pair, in pair order."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    low, parent_median, high = quartiles(parent)
    head_median = quartiles(head)[1]
    worse = sign * share(head_median - parent_median, parent_median)
    spread = share(high - low, parent_median)
    wins = sum(sign * (after - before) < 0 for before, after in zip(parent, head))
    dominates = max(sign * value for value in head) < min(sign * value for value in parent)
    if spread > entry["bound"] and not dominates:
        verdict = "unresolved"
    elif worse > entry["bound"]:
        verdict = "EXCEEDED"
    else:
        verdict = "ok"
    return {"parent": parent_median, "head": head_median, "worse": worse,
            "bound": entry["bound"], "spread": spread, "wins": wins,
            "pairs": len(parent), "verdict": verdict}


def failed_share(results: Sequence[Result]) -> float:
    attempted = sum(int(result["attempted"]) for result in results)
    return sum(int(result["failed"]) for result in results) / attempted if attempted else 0.0


def verdict(spec: dict, results: Results) -> Tuple[List[str], int]:
    """The report lines and the exit status for a finished A/B of ``results``' workloads."""
    lines = [f"{'workload':<22}{'metric':<24}{'parent':>11}{'head':>11}{'worse by':>10}"
             f"{'bound':>7}{'par IQR':>9}{'head won':>10}  verdict"]
    status = 0
    for workload in results["head"]:
        runs = {side: results[side][workload] for side in SIDES}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            pairs = [(before["metrics"][name]["value"], after["metrics"][name]["value"])
                     for before, after in zip(runs["parent"], runs["head"])
                     if name in before["metrics"] and name in after["metrics"]]
            if not pairs:
                lines.append(f"{workload:<22}{name:<24}  no pair with a result on both sides")
                continue
            row = compare_metric(entry, *zip(*pairs))
            status |= row["verdict"] == "EXCEEDED"
            lines.append(f"{workload:<22}{name:<24}{row['parent']:>11.4g}{row['head']:>11.4g}"
                         f"{row['worse']:>+10.1%}{row['bound']:>7.0%}{row['spread']:>9.1%}"
                         f"{row['wins']:>5}/{row['pairs']:<4}  {row['verdict']}")
        shares = {side: failed_share(runs[side]) for side in SIDES}
        incorrect = {side: sum(not run["correct"] for run in runs[side]) for side in SIDES}
        lines.append(f"{workload:<22}failed ops: parent {shares['parent']:.2%}, head "
                     f"{shares['head']:.2%}; runs not correct: parent {incorrect['parent']}/"
                     f"{len(runs['parent'])}, head {incorrect['head']}/{len(runs['head'])}")
        status |= shares["head"] > shares["parent"]
        status |= incorrect["head"] > 0
    return lines, int(status)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the commit to compare against")
    parser.add_argument("head", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "head": args.head.resolve()}
    specs = {side: load_spec(checkouts[side]) for side in SIDES}
    known = {entry["name"] for entry in specs["parent"]["workloads"]}
    named = [entry["name"] for entry in specs["head"]["workloads"]]
    workloads = [workload for workload in named if workload in known]
    results: Results = {side: {workload: [] for workload in workloads} for side in SIDES}
    for pair in range(PAIRS):
        for workload in workloads:
            for side in run_order(pair):
                begin = time.monotonic()
                result = run_once(checkouts[side], workload, seed=pair)
                results[side][workload].append(result)
                values = {name: metric["value"] for name, metric in result["metrics"].items()}
                print(f"pair {pair + 1}/{PAIRS} {workload} {side} "
                      f"({time.monotonic() - begin:.0f} s): correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {json.dumps(values)}"
                      + (f" error={result['error']}" if "error" in result else ""), flush=True)
    lines, status = verdict(specs["head"], results)
    lines += [f"{workload:<22}new (no parent): not compared"
              for workload in named if workload not in known]
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
