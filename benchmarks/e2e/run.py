"""End-to-end, layer-attributed checkpoint benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last stdout line is the result JSON
        (end-to-end metrics untraced, per-layer metrics traced).
    python -m benchmarks.e2e.run --seed N --out DIR
        every workload, untraced then traced; results, layer rows and the
        Chrome traces land in DIR.
    python -m benchmarks.e2e.run --compare A B
        two result directories side by side, against the bounds in
        BENCHMARK.json; non-zero exit if B is worse than A beyond a bound.

Each run drives the live ``MoCCheckpointManager`` through
setup -> steady -> durable -> warm recover -> gc -> fault -> cold restarts
in fresh subprocesses (see ``lifecycle.py``) against a real directory
inside the checkout, and verifies every restored state byte-exact.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: become benchmarks.e2e.run
    sys.path[0] = str(REPO)
    import benchmarks.e2e  # noqa: F401 - parent package of the relative imports
    __package__ = "benchmarks.e2e"

from . import floor, metrics  # noqa: E402
from .lifecycle import FLOORS, SHARES  # noqa: E402
from .workloads import WORKLOADS  # noqa: E402

SPEC_PATH = REPO / "BENCHMARK.json"
WORK_ROOT = REPO / ".bench_e2e"
SETUP_SAMPLES = 3
#: The whole run — every process it starts — must end well inside the
#: driver's 180 s; a process still running at the deadline is killed.
RUN_TIMEOUT_SECONDS = 170.0


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def group_alive(pgid: int) -> bool:
    """True while any non-zombie process of process group ``pgid`` exists."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as handle:
                state, _ppid, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def reap_group(pgid: int, grace_seconds: float = 10.0) -> None:
    """Wait for every process the child started; kill what will not end."""
    deadline = time.monotonic() + grace_seconds
    while group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + grace_seconds
        time.sleep(0.01)


def spawn(role: str, result: Path, timeout: float, **options) -> Optional[dict]:
    """Run one lifecycle process in its own session; its result, or ``None``
    if it hung, crashed or wrote nothing."""
    command = [sys.executable, "-m", "benchmarks.e2e.lifecycle", role, "--result", str(result)]
    for name, value in options.items():
        flag = "--" + name.replace("_", "-")
        command += [flag] if value is True else [flag, str(value)]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), environment.get("PYTHONPATH")]))
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        environment[variable] = "1"
    process = subprocess.Popen(
        command, cwd=REPO, env=environment, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        process.wait(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        print(f"benchmarks/e2e: {role} process ran past the run's deadline; killed", file=sys.stderr)
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    reap_group(process.pid)
    if process.returncode != 0 or not result.exists():
        return None
    with open(result, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_one(workload: str, seed: int, seconds: float, trace: bool, out: Optional[Path]) -> dict:
    """One lifecycle of one workload; returns the outcome dictionary."""
    spec = load_spec()
    WORK_ROOT.mkdir(exist_ok=True)
    floor.require_real_filesystem(str(WORK_ROOT))
    floor.spread_subdirectories(str(WORK_ROOT))
    run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    deadline = time.monotonic() + RUN_TIMEOUT_SECONDS
    common = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}

    def stage(name: str) -> Path:
        """A directory for one process of this run — a direct child of
        WORK_ROOT, so the filesystem places it on its own (see floor.py)."""
        directory = WORK_ROOT / f"{run_id}.{name}"
        directory.mkdir()
        return directory

    def lifecycle(role: str, directory: Path, **options) -> Optional[dict]:
        return spawn(role, directory / "result.json", deadline - time.monotonic(),
                     root=directory / "root", **options, **common)

    try:
        home = stage("hot")
        hot = lifecycle("hot", home, t0=time.time())
        if hot is None:
            raise SystemExit(f"benchmarks/e2e: the hot process of {workload} produced no result")
        setups = [hot["setup_s"]]
        for index in range(1, SETUP_SAMPLES):
            again = lifecycle("hot", stage(f"setup{index}"), t0=time.time(), setup_only=True)
            if again is None:
                raise SystemExit(f"benchmarks/e2e: a set-up process of {workload} failed")
            setups.append(again["setup_s"])

        colds: List[dict] = []
        attempted, failed = hot["ops"]["attempted"], hot["ops"]["failed"]
        errors = list(hot["ops"]["errors"])
        cold_until = time.perf_counter() + SHARES["cold"] * seconds
        index = 0
        while index < FLOORS["cold"] or time.perf_counter() < cold_until:
            replica = stage(f"cold{index}")
            shutil.copytree(home / "root", replica / "root")
            os.sync()
            cold = lifecycle("cold", replica, expected=home / "expected.json", replica=index + 1)
            if cold is None:
                attempted += 1
                failed += 1
                errors.append(f"cold restart {index}: hung, crashed or wrote no result")
            else:
                colds.append(cold)
                attempted += cold["ops"]["attempted"]
                failed += cold["ops"]["failed"]
                errors += cold["ops"]["errors"]
                if out is not None and trace and index == 0:
                    shutil.copy(replica / "result.json.trace.json",
                                out / f"{workload}.cold.chrome.json")
            shutil.rmtree(replica)
            index += 1
        if not colds:
            raise SystemExit(f"benchmarks/e2e: no cold restart of {workload} succeeded")

        if trace:
            values = {name: (value, 0) for name, value in
                      metrics.per_layer(hot, colds, failed / attempted).items()}
            declared = spec["per_layer"]
            if out is not None:
                shutil.copy(home / "hot.trace.json", out / f"{workload}.hot.chrome.json")
        else:
            values = metrics.end_to_end(hot, setups, colds)
            declared = spec["end_to_end"]
        outcome = {
            **common,
            "filesystem": floor.filesystem_of(str(home))[0],
            "attempted": attempted, "failed": failed, "correct": failed == 0,
            "errors": errors, "floor": hot["floor"],
            "metrics": {
                entry["name"]: {"value": values[entry["name"]][0], "unit": entry["unit"],
                                "n": values[entry["name"]][1]}
                for entry in declared
            },
            "rows": metrics.merged_rows(workload, hot, colds) if trace else [],
        }
    finally:
        for directory in WORK_ROOT.glob(f"{run_id}.*"):
            shutil.rmtree(directory, ignore_errors=True)
        if not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if out is not None:
        with open(out / f"{workload}.trace{int(trace)}.json", "w", encoding="utf-8") as handle:
            json.dump(outcome, handle, indent=1)
    return outcome


def report(outcome: dict) -> None:
    """Every metric by name, with unit and sample count, for a human."""
    floor_numbers = outcome["floor"]
    print(f"== {outcome['workload']}  seed={outcome['seed']}  trace={outcome['trace']}  "
          f"filesystem={outcome['filesystem']}")
    print("   flush policy: src/ issues no fsync; os.sync() between phases and every 10th step, "
          "outside timed regions")
    print(f"   device floor, same run, same directory, {floor_numbers['bytes'] / 2**20:.1f} MiB "
          f"(page cache of this sandbox): write {floor_numbers['device.seq_write_mib_s']:.0f} MiB/s, "
          f"write+fsync {floor_numbers['device.seq_write_fsync_mib_s']:.0f} MiB/s, "
          f"read {floor_numbers['device.seq_read_mib_s']:.0f} MiB/s")
    for name, metric in outcome["metrics"].items():
        count = f"n={metric['n']}" if metric["n"] else ""
        print(f"   {name:<44} {metric['value']:>14.4f} {metric['unit']:<6} {count}")
    for row in outcome["rows"]:
        print("   layer " + json.dumps(row))
    print(f"   ops_failed_share = {outcome['failed']}/{outcome['attempted']}"
          f"  restores verified byte-exact: {outcome['correct']}")
    for error in outcome["errors"]:
        print(f"   FAILED: {error}")


def result_line(outcome: dict) -> str:
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in outcome["metrics"].items()},
    })


def compare(first: Path, second: Path) -> int:
    """Per (workload, end-to-end metric): how much worse ``second`` is than
    ``first``, beside the bound; returns 1 if any bound is exceeded."""
    spec = load_spec()
    exceeded = 0
    print(f"{'workload':<22}{'metric':<26}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}")
    for workload in (entry["name"] for entry in spec["workloads"]):
        results = []
        for directory in (first, second):
            with open(directory / f"{workload}.trace0.json", "r", encoding="utf-8") as handle:
                results.append(json.load(handle)["metrics"])
        for entry in spec["end_to_end"]:
            before, after = (result[entry["name"]]["value"] for result in results)
            change = (after - before) / before
            worse = change if entry["better"] == "lower" else -change
            flag = "  EXCEEDED" if worse > entry["bound"] else ""
            exceeded += bool(flag)
            print(f"{workload:<22}{entry['name']:<26}{before:>12.4f}{after:>12.4f}"
                  f"{worse:>+10.1%}{entry['bound']:>8.0%}{flag}")
    return 1 if exceeded else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: 0 then 1")
    parser.add_argument("--out", type=Path, help="directory for results and Chrome traces")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(compare(*args.compare))
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"benchmarks/e2e: no program to measure: {REPO / 'src' / 'repro'} is missing")
    spec = load_spec()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else [entry["name"] for entry in spec["workloads"]]
    outcome = None
    for workload in workloads:
        for trace in ([args.trace] if args.trace is not None else [0, 1]):
            outcome = run_one(workload, args.seed, seconds, bool(trace), args.out)
            report(outcome)
    if args.workload and args.trace is not None:
        print(result_line(outcome))


if __name__ == "__main__":
    main()
