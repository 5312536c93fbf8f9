"""Observability overhead benchmark: pin "tracing disabled ≈ free".

The unified observability layer leaves ``span()`` / ``trace_counter()``
calls permanently in every hot seam of the storage stack — the manager
save path, the async writer, the dedup journal, the tiered upload
pipeline.  That is only acceptable if the *disabled* path (the default:
no ``--trace``) costs essentially nothing.  This bench measures that
contract instead of assuming it:

* **micro** — per-call cost of ``with span(...): pass`` with the
  default tracer disabled (one attribute check, shared no-op context
  manager) and enabled (one dict append per B/E event), against an
  empty ``with`` block as the floor.
* **macro** — real ``MoCCheckpointManager.checkpoint`` saves on a
  sharded disk store, timed with tracing disabled and enabled (the two
  sides take turns after one discarded warm-up save each), plus a count
  of how many trace events one enabled save emits.

The headline gate is *estimated disabled overhead*: events-per-save ×
disabled-span cost, as a fraction of the measured save wall time.
Estimating from the micro cost is deliberate — the true disabled
overhead is far below run-to-run save-wall noise, so a direct A/B
subtraction would gate on noise.  The estimate is a strict upper bound
on what the instrumentation can cost when off, and the CI gate pins it
below 2%.  Enabled-mode cost is reported (not gated): tracing is an
explicitly requested diagnostic mode.

Run standalone for the CI trace-smoke gate::

    python benchmarks/bench_obs_overhead.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.analysis import render_table
from repro.ckpt import make_backend
from repro.core import MoCCheckpointManager, MoCConfig, PECConfig, TwoLevelConfig
from repro.obs import get_tracer
from repro.obs.trace import span
from repro.testing import TINY, tiny_model_and_optimizer, train_steps
from repro.train import MarkovCorpus

#: The disabled-overhead ceiling the CI gate enforces (percent of save
#: wall time).  The measured estimate lands orders of magnitude below
#: this on any machine; 2% is the contract in DESIGN.md.
DISABLED_OVERHEAD_CEILING_PCT = 2.0

#: The most trace events one enabled save may record.  A span-count
#: explosion is the one machine-independent way the disabled overhead
#: can regress; 24 is 3x the 8 events a save recorded when the gate was
#: set.
EVENTS_PER_SAVE_CEILING = 24


def scratch_dir() -> str:
    """Scratch root for the bench's stores: tmpfs when available."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    import tempfile

    return tempfile.gettempdir()


# ---------------------------------------------------------------------------
# Micro: per-call span cost
# ---------------------------------------------------------------------------

class _Floor:
    """Empty context manager — the do-nothing floor for the micro loop."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_FLOOR = _Floor()


def _time_span_loop(calls: int, use_span: bool) -> float:
    """Seconds for ``calls`` iterations of ``with <cm>: pass``."""
    floor = _FLOOR
    start = time.perf_counter()
    if use_span:
        for _ in range(calls):
            with span("bench-span", step=1):
                pass
    else:
        for _ in range(calls):
            with floor:
                pass
    return time.perf_counter() - start


def micro_span_cost(calls: int, repeats: int = 5) -> Dict[str, float]:
    """Best-of-``repeats`` per-call costs (ns) for floor/disabled/enabled."""
    tracer = get_tracer()
    assert not tracer.enabled, "bench requires the default tracer disabled"
    floor_s = min(_time_span_loop(calls, use_span=False) for _ in range(repeats))
    disabled_s = min(_time_span_loop(calls, use_span=True) for _ in range(repeats))
    enabled_runs: List[float] = []
    tracer.enable()
    try:
        for _ in range(repeats):
            tracer.reset()  # keep buffers bounded between runs
            enabled_runs.append(_time_span_loop(calls, use_span=True))
    finally:
        tracer.disable()
        tracer.reset()
    return {
        "floor_ns": floor_s / calls * 1e9,
        "disabled_ns": disabled_s / calls * 1e9,
        "enabled_ns": min(enabled_runs) / calls * 1e9,
    }


# ---------------------------------------------------------------------------
# Macro: real checkpoint saves, tracing off vs on
# ---------------------------------------------------------------------------

def _make_manager(root: str) -> MoCCheckpointManager:
    model, optimizer = tiny_model_and_optimizer(TINY)
    config = MoCConfig(
        pec=PECConfig(k_snapshot=2, k_persist=1),
        two_level=TwoLevelConfig(checkpoint_interval=1),
    )
    return MoCCheckpointManager(
        model, optimizer, config, disk_store=make_backend("sharded", root)
    )


def _timed_saves(tmpdir: str, saves: int) -> Dict[bool, Dict[str, float]]:
    """Mean per-save wall (ms) over ``saves`` checkpoints, keyed by
    whether tracing was on.

    Each side has its own manager and store.  The sides take turns, one
    save each, and the side that goes first alternates; one discarded
    warm-up save per side comes first, so neither side absorbs the
    process's warm-up.  Each save is preceded by one (untimed) training
    step so the delta pattern matches a live run; only ``checkpoint()``
    is on the clock, and tracing is on only around the traced side's
    saves.
    """
    tracer = get_tracer()
    managers = {traced: _make_manager(os.path.join(tmpdir, "on" if traced else "off"))
                for traced in (False, True)}
    corpora = {traced: MarkovCorpus(vocab_size=32, num_domains=2, seq_len=12, seed=7)
               for traced in (False, True)}
    walls: Dict[bool, List[float]] = {False: [], True: []}
    try:
        for manager in managers.values():
            manager.save_initial(0)  # imports, allocator, first index
        for step in range(1, saves + 2):  # step 1 is the discarded warm-up
            if step == 2:
                tracer.reset()
            for traced in ((False, True) if step % 2 else (True, False)):
                manager = managers[traced]
                train_steps(manager.model, manager.optimizer, corpora[traced], 1, start=step)
                if traced:
                    tracer.enable()
                begin = time.perf_counter()
                manager.checkpoint(step)
                wall = time.perf_counter() - begin
                tracer.disable()
                if step > 1:
                    walls[traced].append(wall)
        events = len(tracer.export()["traceEvents"])
    finally:
        tracer.disable()
        tracer.reset()
        for manager in managers.values():
            manager.close()
    return {
        traced: {
            "save_ms": sum(walls[traced]) / saves * 1e3,
            "events_per_save": events / saves if traced else 0,
        }
        for traced in (False, True)
    }


# ---------------------------------------------------------------------------
# Results / report / gate
# ---------------------------------------------------------------------------

def compute_results(tmpdir: str, quick: bool = False) -> Dict[str, object]:
    calls = 200_000 if quick else 1_000_000
    saves = 6 if quick else 20
    micro = micro_span_cost(calls)
    timed = _timed_saves(tmpdir, saves)
    off, on = timed[False], timed[True]
    # Upper bound on what the disabled instrumentation costs one save:
    # every event the enabled run recorded corresponds to at most one
    # disabled-path call (a span records two events, B and E, so this
    # over-counts by ~2x — fine for an upper bound).
    est_disabled_ms = on["events_per_save"] * micro["disabled_ns"] / 1e6
    disabled_overhead_pct = est_disabled_ms / off["save_ms"] * 100.0
    enabled_overhead_pct = (on["save_ms"] - off["save_ms"]) / off["save_ms"] * 100.0
    return {
        "quick": quick,
        "micro_floor_ns": micro["floor_ns"],
        "micro_disabled_ns": micro["disabled_ns"],
        "micro_enabled_ns": micro["enabled_ns"],
        "save_ms_disabled": off["save_ms"],
        "save_ms_enabled": on["save_ms"],
        "events_per_save": on["events_per_save"],
        "est_disabled_overhead_ms": est_disabled_ms,
        "headline_disabled_overhead_pct": disabled_overhead_pct,
        "enabled_overhead_pct": enabled_overhead_pct,
        "ceiling_pct": DISABLED_OVERHEAD_CEILING_PCT,
    }


def render_report(results: Dict[str, object]) -> str:
    rows = [
        ["with-block floor", f"{results['micro_floor_ns']:.0f} ns/call"],
        ["span() disabled", f"{results['micro_disabled_ns']:.0f} ns/call"],
        ["span() enabled", f"{results['micro_enabled_ns']:.0f} ns/call"],
        ["save wall (tracing off)", f"{results['save_ms_disabled']:.2f} ms"],
        ["save wall (tracing on)", f"{results['save_ms_enabled']:.2f} ms"],
        ["trace events per save",
         f"{results['events_per_save']:.0f} (ceiling {EVENTS_PER_SAVE_CEILING})"],
        ["est. disabled overhead",
         f"{results['est_disabled_overhead_ms']:.4f} ms "
         f"({results['headline_disabled_overhead_pct']:.3f}% of save)"],
        ["enabled overhead (reported)",
         f"{results['enabled_overhead_pct']:+.1f}% of save"],
        ["gate ceiling", f"{results['ceiling_pct']:.1f}%"],
    ]
    return render_table(["metric", "value"], rows)


def check_results(results: Dict[str, object]) -> None:
    # The contract the instrumented hot seams rely on: leaving tracing
    # compiled-in but disabled costs under the documented ceiling.
    assert (
        results["headline_disabled_overhead_pct"] < DISABLED_OVERHEAD_CEILING_PCT
    ), (
        f"disabled tracing overhead "
        f"{results['headline_disabled_overhead_pct']:.3f}% >= "
        f"{DISABLED_OVERHEAD_CEILING_PCT}% ceiling"
    )
    # An enabled save must actually record the hot seams (sanity that
    # the macro run measured an instrumented pipeline, not a no-op).
    assert results["events_per_save"] >= 6
    assert results["events_per_save"] <= EVENTS_PER_SAVE_CEILING, (
        f"{results['events_per_save']:.0f} trace events per save > "
        f"{EVENTS_PER_SAVE_CEILING} ceiling"
    )


def test_obs_overhead_bench(benchmark, report):
    import tempfile

    from repro.testing import once

    def compute():
        with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmpdir:
            return compute_results(tmpdir, quick=True)

    results = once(benchmark, compute)
    report("obs_overhead_quick", render_report(results))
    check_results(results)


# ---------------------------------------------------------------------------
# Standalone entry point (CI trace-smoke gate)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small shape for the CI smoke gate")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON payload to stdout")
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(dir=scratch_dir()) as tmpdir:
        results = compute_results(tmpdir, quick=args.quick)
    text = render_report(results)
    print(text)
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    check_results(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
