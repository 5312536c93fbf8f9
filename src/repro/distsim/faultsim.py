"""End-to-end fault-tolerance simulation of a long training run.

Where :mod:`repro.distsim.timeline` simulates a fault-free stretch of
iterations with checkpointing, this module simulates the *whole* run of
Eq. 3: iterations accrue wall-clock time (including per-checkpoint
``O_save``), faults arrive as a Poisson process, and each fault costs a
restart plus the progress since the last completed checkpoint.  The
result is the empirical counterpart of the Eq. 12/13 closed form — the
property tests check the two agree — and lets benches compare Full vs
MoC total overheads with confidence intervals rather than point
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FaultSimConfig:
    """One method's parameters for a long-run simulation.

    All durations are in *iteration units* (1.0 = one fault-free,
    checkpoint-free iteration), matching the overhead model.
    """

    total_iterations: int
    checkpoint_interval: int
    o_save: float  # extra time per checkpointing process
    o_restart: float  # restart cost per fault
    fault_rate: float  # faults per unit time (~per iteration)
    persist_lag_checkpoints: int = 0  # checkpoints in flight (async persist)

    def __post_init__(self) -> None:
        if self.total_iterations < 1 or self.checkpoint_interval < 1:
            raise ValueError("iterations and interval must be >= 1")
        if min(self.o_save, self.o_restart, self.fault_rate) < 0:
            raise ValueError("costs must be non-negative")
        if self.persist_lag_checkpoints < 0:
            raise ValueError("persist lag must be non-negative")


@dataclass
class FaultSimResult:
    """Outcome of one simulated run."""

    wall_time: float
    ideal_time: float
    num_faults: int
    num_checkpoints: int
    lost_progress: float
    restart_time: float
    saving_time: float

    @property
    def overhead(self) -> float:
        """Total fault-tolerance overhead (the O_ckpt of Eq. 3)."""
        return self.wall_time - self.ideal_time


def simulate_run(config: FaultSimConfig, rng: np.random.Generator) -> FaultSimResult:
    """Simulate one training run to completion.

    Progress advances iteration by iteration; a checkpoint completes
    every ``checkpoint_interval`` iterations of progress (costing
    ``o_save``).  Faults arrive with probability ``fault_rate`` per unit
    of wall time (thinned Bernoulli per iteration); each fault rewinds
    progress to the last *completed* checkpoint — which trails the most
    recent one by ``persist_lag_checkpoints`` when persists are still in
    flight — and pays ``o_restart``.
    """
    progress = 0  # completed iterations of useful work
    wall = 0.0
    saving = 0.0
    restarts = 0.0
    lost = 0.0
    faults = 0
    checkpoints = 0
    completed_checkpoint_at = 0  # progress value of last durable checkpoint
    recent_checkpoints: List[int] = [0]

    while progress < config.total_iterations:
        # one iteration of work
        step_time = 1.0
        at_checkpoint = (progress + 1) % config.checkpoint_interval == 0
        if at_checkpoint:
            step_time += config.o_save
        # fault during this step?
        fault_probability = 1.0 - np.exp(-config.fault_rate * step_time)
        if rng.random() < fault_probability:
            faults += 1
            wall += step_time  # the interrupted step's time is spent
            restarts += config.o_restart
            wall += config.o_restart
            lost += progress - completed_checkpoint_at
            progress = completed_checkpoint_at
            continue
        wall += step_time
        progress += 1
        if at_checkpoint:
            checkpoints += 1
            saving += config.o_save
            recent_checkpoints.append(progress)
            durable_index = max(0, len(recent_checkpoints) - 1 - config.persist_lag_checkpoints)
            completed_checkpoint_at = recent_checkpoints[durable_index]

    return FaultSimResult(
        wall_time=wall,  # replayed iterations re-accrue inside the loop
        ideal_time=float(config.total_iterations),
        num_faults=faults,
        num_checkpoints=checkpoints,
        lost_progress=float(lost),
        restart_time=restarts,
        saving_time=saving,
    )


def expected_overhead(config: FaultSimConfig) -> float:
    """The Eq. 12/13 closed form for this configuration."""
    n_ckpt = config.total_iterations / config.checkpoint_interval
    n_fault = config.fault_rate * config.total_iterations
    mean_lost = config.checkpoint_interval * (0.5 + config.persist_lag_checkpoints)
    return config.o_save * n_ckpt + n_fault * (config.o_restart + mean_lost)


def simulate_many(
    config: FaultSimConfig, runs: int, seed: int = 0
) -> List[FaultSimResult]:
    """Independent replications for confidence intervals."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rng = np.random.default_rng(seed)
    return [simulate_run(config, rng) for _ in range(runs)]


def mean_overhead(results: List[FaultSimResult]) -> float:
    return float(np.mean([result.overhead for result in results]))


# ---------------------------------------------------------------------------
# Trace-driven and adaptive simulation.  ``simulate_run`` above is pinned
# by property tests against the closed form; these variants are separate
# functions so they can consume recorded fault traces and a live
# controller without perturbing it.
# ---------------------------------------------------------------------------


def simulate_run_with_faults(
    config: FaultSimConfig, fault_times: Sequence[float]
) -> FaultSimResult:
    """Deterministic replay: faults strike at the given wall-clock times.

    ``fault_times`` are absolute times (iteration units, sorted
    ascending) — e.g. a recorded trace from
    :class:`repro.chaos.traces.FaultTrace`.  A fault scheduled inside a
    step interrupts that step exactly as the stochastic simulator would:
    the step's time is spent, the restart is paid, and progress rewinds
    to the last durable checkpoint.  Multiple faults inside one step
    strike on consecutive attempts of it.  Faults past the end of the
    run are ignored.
    """
    times = sorted(float(t) for t in fault_times)
    next_fault = 0

    progress = 0
    wall = 0.0
    saving = 0.0
    restarts = 0.0
    lost = 0.0
    faults = 0
    checkpoints = 0
    completed_checkpoint_at = 0
    recent_checkpoints: List[int] = [0]

    while progress < config.total_iterations:
        step_time = 1.0
        at_checkpoint = (progress + 1) % config.checkpoint_interval == 0
        if at_checkpoint:
            step_time += config.o_save
        if next_fault < len(times) and times[next_fault] < wall + step_time:
            next_fault += 1
            faults += 1
            wall += step_time
            restarts += config.o_restart
            wall += config.o_restart
            lost += progress - completed_checkpoint_at
            progress = completed_checkpoint_at
            continue
        wall += step_time
        progress += 1
        if at_checkpoint:
            checkpoints += 1
            saving += config.o_save
            recent_checkpoints.append(progress)
            durable_index = max(0, len(recent_checkpoints) - 1 - config.persist_lag_checkpoints)
            completed_checkpoint_at = recent_checkpoints[durable_index]

    return FaultSimResult(
        wall_time=wall,
        ideal_time=float(config.total_iterations),
        num_faults=faults,
        num_checkpoints=checkpoints,
        lost_progress=float(lost),
        restart_time=restarts,
        saving_time=saving,
    )


def simulate_adaptive_run(
    config: FaultSimConfig,
    fault_times: Sequence[float],
    controller,
) -> Tuple[FaultSimResult, List[Tuple[float, float]]]:
    """Trace replay with a live controller retuning the interval.

    ``controller`` is duck-typed (``observe_fault(t)`` and
    ``checkpoint_interval(t)``, e.g.
    :class:`repro.core.adaptive.OnlineAdaptiveController`): every
    injected fault is reported to it, and the checkpoint cadence is
    re-read after each completed checkpoint and after each fault — so a
    rate step-change mid-trace shifts the interval mid-run, which is
    exactly the behaviour the chaos campaign's adaptive loop claims.
    ``config.checkpoint_interval`` seeds the initial cadence; the
    returned timeline lists ``(time, interval)`` pairs, one per
    re-read.
    """
    times = sorted(float(t) for t in fault_times)
    next_fault = 0

    def current_interval(now: float) -> int:
        interval = controller.checkpoint_interval(now)
        if not np.isfinite(interval):
            return config.total_iterations
        return max(1, int(round(interval)))

    progress = 0
    wall = 0.0
    saving = 0.0
    restarts = 0.0
    lost = 0.0
    faults = 0
    checkpoints = 0
    completed_checkpoint_at = 0
    recent_checkpoints: List[int] = [0]
    interval = max(1, int(config.checkpoint_interval))
    next_checkpoint_progress = interval
    timeline: List[Tuple[float, float]] = [(0.0, float(interval))]

    while progress < config.total_iterations:
        step_time = 1.0
        at_checkpoint = progress + 1 >= next_checkpoint_progress
        if at_checkpoint:
            step_time += config.o_save
        if next_fault < len(times) and times[next_fault] < wall + step_time:
            next_fault += 1
            faults += 1
            wall += step_time
            restarts += config.o_restart
            wall += config.o_restart
            lost += progress - completed_checkpoint_at
            progress = completed_checkpoint_at
            # Observed on the wall clock (the axis every interval query
            # uses): the controller sees faults when the run does, a
            # restart-delay after their scheduled trace times.
            controller.observe_fault(wall)
            interval = current_interval(wall)
            next_checkpoint_progress = progress + interval
            timeline.append((wall, float(interval)))
            continue
        wall += step_time
        progress += 1
        if at_checkpoint:
            checkpoints += 1
            saving += config.o_save
            recent_checkpoints.append(progress)
            durable_index = max(0, len(recent_checkpoints) - 1 - config.persist_lag_checkpoints)
            completed_checkpoint_at = recent_checkpoints[durable_index]
            interval = current_interval(wall)
            next_checkpoint_progress = progress + interval
            timeline.append((wall, float(interval)))

    result = FaultSimResult(
        wall_time=wall,
        ideal_time=float(config.total_iterations),
        num_faults=faults,
        num_checkpoints=checkpoints,
        lost_progress=float(lost),
        restart_time=restarts,
        saving_time=saving,
    )
    return result, timeline
