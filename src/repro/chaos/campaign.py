"""Chaos campaigns: seeded randomized fault injection at fleet scale.

A campaign is thousands of short, seeded runs against the *live*
storage stack.  Each run builds a fresh store (dedup, tiered, or
async-tiered), executes a randomized operation plan (puts, overwrites,
deletes, reads, gc, flush), and kills the store mid-operation through
the crash-injection seams every disk-backed tier already exposes via
``fault_hook`` — mid chunk write, mid journal append, mid compaction,
mid upload claim, mid remote payload write.  After every kill the run
recovers through an escalating ladder (retry → reopen → fsck --repair →
report) with attempt tracking
and circular-failure detection, and must end fsck-clean with every
surviving key readable and byte-exact — or the campaign fails carrying
the campaign seed, the per-run seed, and a copy-pasteable repro command.

Everything is derived from ``(campaign_seed, run_index)``: re-running a
campaign with the same seed replays the identical kill schedule, and
re-running one index reproduces one failure in isolation.

The campaign doubles as the *online adaptive loop*'s test bed: injected
kills feed a virtual-clock fault stream into an
:class:`~repro.core.adaptive.OnlineAdaptiveController`, whose decisions
(checkpoint interval, dynamic k, persist-tier choice) retune the
following runs live — a fault-rate step change mid-campaign visibly
moves the knobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ckpt.async_writer import AsyncWriteBackend, AsyncWriteError
from ..ckpt.backend import CrashInjected, KVStoreError
from ..ckpt.dedup import DedupBackend
from ..ckpt.sharded import ShardedDiskKVStore
from ..ckpt.tiered import RemoteUnavailable, SimulatedObjectStore, TieredBackend
from ..core.adaptive import OnlineAdaptiveController, OnlineFaultRateEstimator
from ..io.scheduler import IOScheduler, QoS
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import span as _span
from .traces import FaultTrace, trace_from_times

#: Arm target meaning "the nth seam hit of any name".
ANY = "any"

#: Crash seams per backend kind.  The dedup tier owns the chunk store,
#: the refs journal and the manifest journal; the tiered stack adds its
#: claim journal, the upload pipeline, and the remote sharded store's
#: payload/journal/compaction seams.  The async stack drives the same
#: tiered seams from its writer thread.
#: Seams the shared I/O scheduler fires for every owner that routes
#: work through it (gc/compaction as MAINTENANCE, async saves, tiered
#: uploads): a kill mid-dispatch (before the task body runs), mid-
#: cancel, and at first byte-budget exhaustion.  Any of these may
#: simply never fire in a given run (e.g. the budget never fills) —
#: a no-fire run completing clean is an acceptable outcome.
IOSCHED_SEAMS: Tuple[str, ...] = (
    "iosched:dispatch",
    "iosched:cancel",
    "iosched:budget-exhausted",
)

DEDUP_SEAMS: Tuple[str, ...] = (
    "chunk:tmp-written",
    "chunk:durable",
    "refs:mid-append",
    "refs:appended",
    "refs:compact-tmp-written",
    "manifest:mid-append",
    "manifest:appended",
    "manifest:compact-tmp-written",
) + IOSCHED_SEAMS
TIERED_SEAMS: Tuple[str, ...] = DEDUP_SEAMS + (
    "tier:mid-append",
    "tier:appended",
    "tier:compact-tmp-written",
    "upload:remote-durable",
    "payload:mid-write",
    "payload:durable",
    "journal:mid-append",
    "journal:appended",
    "journal:compact-tmp-written",
)

BACKENDS = ("dedup", "tiered", "async-tiered")

#: Recovery ladder rungs, in escalation order.
RUNG_RETRY = "retry"
RUNG_REOPEN = "reopen"
RUNG_FSCK_REPAIR = "fsck-repair"
RUNG_REPORT = "report"

#: A seam that killed the same run this many times is circling: the
#: injector is disarmed for the rest of the run and recovery starts at
#: the fsck rung (the Auto-Claude recovery-manager idiom — repeated
#: identical failures mean the cheap fixes are not fixing anything).
CIRCULAR_THRESHOLD = 3


def seams_for(backend: str) -> Tuple[str, ...]:
    if backend == "dedup":
        return DEDUP_SEAMS
    if backend in ("tiered", "async-tiered"):
        return TIERED_SEAMS
    raise ValueError(f"unknown backend {backend!r} (want one of {BACKENDS})")


def repro_command(backend: str, campaign_seed: int, runs: int, run_index: int) -> str:
    return (
        f"PYTHONPATH=src python -m repro.cli chaos run"
        f" --backend {backend} --seed {campaign_seed}"
        f" --runs {runs} --run-index {run_index}"
    )


class ChaosFailure(AssertionError):
    """A run that could not be verified — always carries the seeds and
    the exact command line that reproduces it."""

    def __init__(
        self,
        message: str,
        backend: str,
        campaign_seed: int,
        runs: int,
        run_index: int,
        run_seed: int,
    ) -> None:
        super().__init__(
            f"{message}\n"
            f"  backend={backend} campaign_seed={campaign_seed}"
            f" run_index={run_index} run_seed={run_seed}\n"
            f"  repro: {repro_command(backend, campaign_seed, runs, run_index)}"
        )
        self.backend = backend
        self.campaign_seed = campaign_seed
        self.run_index = run_index
        self.run_seed = run_seed


class SeamInjector:
    """The ``fault_hook`` a campaign installs on a store.

    Counts every seam hit (``seen``), and when armed raises
    :class:`CrashInjected` at the matching hit: either a named seam's
    ``nth`` firing, or the ``nth`` hit of :data:`ANY` seam.  One arm =
    at most one kill; recovery runs with the injector disarmed unless
    the run plan re-arms it.
    """

    def __init__(self) -> None:
        self.seen: Counter = Counter()
        self.kills: List[Tuple[str, str]] = []  # (armed target, actual seam)
        self.enabled = True
        self._target: Optional[str] = None
        self._countdown = 0

    def arm(self, target: str, nth: int = 1) -> None:
        if nth < 1:
            raise ValueError("nth must be >= 1")
        self._target = target
        self._countdown = nth

    def disarm(self) -> None:
        self._target = None

    @property
    def armed(self) -> bool:
        return self._target is not None

    def __call__(self, point: str) -> None:
        self.seen[point] += 1
        if not self.enabled or self._target is None:
            return
        if self._target != ANY and self._target != point:
            return
        self._countdown -= 1
        if self._countdown > 0:
            return
        target = self._target
        self._target = None
        self.kills.append((target, point))
        raise CrashInjected(f"chaos kill at {point} (armed {target})")


# ---------------------------------------------------------------------------
# Expected-state model: what the store must contain after recovery.
# ---------------------------------------------------------------------------


def _entry_for(run_seed: int, key: str, version: int) -> Dict[str, np.ndarray]:
    # Stable across processes (str.hash is salted per interpreter).
    key_token = int.from_bytes(hashlib.sha256(key.encode()).digest()[:2], "big")
    rng = np.random.default_rng((run_seed, key_token, version))
    size = int(rng.integers(200, 900))
    return {"p": rng.integers(0, 256, size=size, endpoint=False).astype(np.uint8)}


@dataclass
class _KeyState:
    """One key's acknowledged state plus in-flight uncertainty.

    ``committed`` is the version known durable (None = absent);
    ``maybe`` lists versions that were accepted but whose durability a
    crash left undecided (``None`` in the list means "may be absent").
    Sync stores have at most one in-flight op; the async pipeline can
    leave everything since the last flush undecided.
    """

    committed: Optional[int] = None
    maybe: List[Optional[int]] = field(default_factory=list)

    @property
    def allowed(self) -> List[Optional[int]]:
        out: List[Optional[int]] = [self.committed]
        for version in self.maybe:
            if version not in out:
                out.append(version)
        return out

    def settle(self, observed: Optional[int]) -> None:
        self.committed = observed
        self.maybe.clear()


class _StateModel:
    """Expected logical contents of the store under test."""

    def __init__(self, run_seed: int) -> None:
        self.run_seed = run_seed
        self.keys: Dict[str, _KeyState] = {}

    def state(self, key: str) -> _KeyState:
        return self.keys.setdefault(key, _KeyState())

    def begin_put(self, key: str, version: int) -> None:
        self.state(key).maybe.append(version)

    def ack_put(self, key: str, version: int, flushed: bool) -> None:
        state = self.state(key)
        if flushed:
            state.settle(version)
        # Unflushed (async) acks stay in ``maybe`` until a barrier.

    def begin_delete(self, key: str) -> None:
        self.state(key).maybe.append(None)

    def ack_delete(self, key: str, flushed: bool) -> None:
        if flushed:
            self.state(key).settle(None)

    def ack_flush(self) -> None:
        for state in self.keys.values():
            if state.maybe:
                state.settle(state.maybe[-1])

    def observe(self, store) -> List[str]:
        """Reconcile uncertainty against the recovered store.

        Every key must hold one of its allowed versions, byte-exact with
        the matching stamp; keys whose only allowed state is a concrete
        version must be present.  Returns human-readable violations.
        """
        problems: List[str] = []
        for key, state in sorted(self.keys.items()):
            allowed = state.allowed
            present = store.has(key)
            if not present:
                if None in allowed:
                    state.settle(None)
                    continue
                problems.append(
                    f"key {key!r} missing (allowed versions {allowed})"
                )
                continue
            try:
                stamp = store.stamp_of(key)
                entry = store.get(key)
            except (KVStoreError, RemoteUnavailable) as exc:
                problems.append(f"key {key!r} unreadable: {exc}")
                continue
            matched = None
            for version in allowed:
                if version is None or version != stamp:
                    continue
                expected = _entry_for(self.run_seed, key, version)
                if set(entry) == set(expected) and all(
                    np.array_equal(entry[f], expected[f]) for f in expected
                ):
                    matched = version
                    break
            if matched is None:
                problems.append(
                    f"key {key!r} holds stamp {stamp}, not byte-exact with any"
                    f" allowed version {allowed}"
                )
                continue
            state.settle(matched)
        return problems


# ---------------------------------------------------------------------------
# Store construction / teardown per run
# ---------------------------------------------------------------------------


@dataclass
class _Stack:
    """One run's store plus the handles recovery needs."""

    store: object  # what the op plan talks to
    base: object  # the tiered/dedup store underneath (fsck/gc live here)
    injector: SeamInjector

    def fsck(self, repair: bool = False):
        return self.base.fsck(repair=repair)

    def gc(self):
        return self.base.gc()

    def abandon(self) -> None:
        """The "process" died: drop the instance without flushing."""
        if isinstance(self.store, AsyncWriteBackend):
            self.store.abort()
        # Sync stores with inline uploads hold no threads; the instance
        # is simply dropped, like the crash batteries do.


def _build_stack(
    backend: str,
    root: str,
    run_seed: int,
    injector: SeamInjector,
    remote_fault_rate: float = 0.04,
    local_keep_stamps: Optional[int] = 2,
) -> _Stack:
    """Construct a fresh (or reopened) stack over ``root``.

    Construction runs with the injector detached — reopen replays
    journals and re-schedules pending uploads, and those are *recovery*,
    not operations the campaign is trying to kill (the seams still get
    exercised there by later runs' ops).  ``upload_workers=0`` keeps
    every tiered seam on the caller thread, which is what makes a
    seeded kill schedule deterministic.
    """
    dedup_opts = dict(
        # Small chunks so every entry spans several chunks (chunk seams
        # fire repeatedly); tiny compaction thresholds so journal
        # rewrites happen inside short runs.
        chunk_bytes=256,
        compact_min_records=4,
        compact_garbage_ratio=1.5,
    )
    if backend == "dedup":
        store = DedupBackend(root, **dedup_opts)
        store.fault_hook = injector
        return _Stack(store=store, base=store, injector=injector)
    if backend in ("tiered", "async-tiered"):
        local = DedupBackend(os.path.join(root, "local"), **dedup_opts)
        remote = SimulatedObjectStore(
            ShardedDiskKVStore(
                os.path.join(root, "remote"),
                compact_min_records=4,
                compact_garbage_ratio=1.5,
            ),
            fault_rate=remote_fault_rate,
            seed=run_seed,
        )
        tiered = TieredBackend(
            local,
            remote,
            journal_path=os.path.join(root, "tier.jsonl"),
            upload_workers=0,
            upload_max_retries=4,
            backoff_base_seconds=1e-4,
            backoff_max_seconds=1e-3,
            backoff_seed=run_seed,
            hedge_after_seconds=None,
            local_keep_stamps=local_keep_stamps,
        )
        tiered.fault_hook = injector
        if backend == "tiered":
            return _Stack(store=tiered, base=tiered, injector=injector)
        wrapper = AsyncWriteBackend(tiered, max_pending=8, arena_bytes=1 << 20)
        return _Stack(store=wrapper, base=tiered, injector=injector)
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of one chaos run."""

    index: int
    seed: int
    target: Optional[str]  # armed seam, ANY, or None
    kills: List[Tuple[str, str]] = field(default_factory=list)
    seams_seen: int = 0
    recovery_actions: List[str] = field(default_factory=list)
    escalations: int = 0
    circular: bool = False
    ok: bool = False

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "target": self.target,
            "kills": [list(k) for k in self.kills],
            "seams_seen": self.seams_seen,
            "recovery_actions": list(self.recovery_actions),
            "escalations": self.escalations,
            "circular": self.circular,
            "ok": self.ok,
        }


def run_seed_for(campaign_seed: int, run_index: int) -> int:
    token = f"{campaign_seed}:{run_index}".encode()
    return int.from_bytes(hashlib.sha256(token).digest()[:4], "big")


class _RunAborted(Exception):
    """Internal: a crash episode needs the recovery ladder."""

    def __init__(self, kind: str, original: BaseException) -> None:
        super().__init__(kind)
        self.kind = kind  # "crash" or "transient"
        self.original = original


class ChaosRun:
    """Executes one seeded run: plan, kill(s), recovery ladder, verify."""

    def __init__(
        self,
        backend: str,
        campaign_seed: int,
        runs: int,
        run_index: int,
        root: str,
        ops: int = 12,
        max_kills: int = 3,
        target: Optional[str] = None,
        nth: int = 1,
        remote_fault_rate: float = 0.04,
        local_keep_stamps: Optional[int] = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.backend = backend
        self.campaign_seed = campaign_seed
        self.runs = runs
        self.index = run_index
        self.seed = run_seed_for(campaign_seed, run_index)
        self.root = root
        self.ops = ops
        self.max_kills = max_kills
        self.target = target
        self.nth = nth
        self.remote_fault_rate = remote_fault_rate
        self.local_keep_stamps = local_keep_stamps
        self.registry = registry if registry is not None else get_registry()
        self.rng = random.Random(f"{campaign_seed}:run:{run_index}")
        self.model = _StateModel(self.seed)
        self.result = RunResult(index=run_index, seed=self.seed, target=target)
        self._episode_counter: Counter = Counter()
        self._c_faults = self.registry.counter(
            "moc_chaos_faults_injected_total",
            "Chaos kills injected, by seam",
            labelnames=("seam",),
        )
        self._c_recovery = self.registry.counter(
            "moc_chaos_recovery_actions_total",
            "Recovery ladder actions taken, by rung",
            labelnames=("action",),
        )
        self._c_escalations = self.registry.counter(
            "moc_chaos_escalations_total",
            "Recoveries that needed more than their first rung",
        )

    def _fail(self, message: str) -> ChaosFailure:
        return ChaosFailure(
            message,
            backend=self.backend,
            campaign_seed=self.campaign_seed,
            runs=self.runs,
            run_index=self.index,
            run_seed=self.seed,
        )

    # -- plan ------------------------------------------------------------
    def _plan(self) -> List[Tuple]:
        """The op sequence.  A fixed prefix walks every mutation path
        (novel puts, dedup overwrite, delete, gc, flush) so a targeted
        seam is guaranteed traffic; the seeded tail randomizes order and
        key pressure.  Async stacks replace deletes with overwrites
        (queued delete-vs-put ordering is the writer's concern, not this
        campaign's) — the extra churn keeps remote-compaction seams in
        reach of their targeted runs."""
        plan: List[Tuple] = [
            ("put", "k0", 1),
            ("put", "k1", 1),
            ("put", "k0", 2),
            ("put", "k2", 1),
            ("flush",),
            ("delete", "k1"),
            ("gc",),
            ("iosched",),
            ("put", "k3", 1),
            ("get", "k0"),
        ]
        versions = {"k0": 2, "k1": 1, "k2": 1, "k3": 1}
        if self.backend == "async-tiered":
            def overwrite(key):
                versions[key] = versions.get(key, 0) + 1
                return ("put", key, versions[key])

            plan = [
                overwrite(op[1]) if op[0] == "delete" else op for op in plan
            ]
        keys = ["k0", "k1", "k2", "k3", "k4", "k5"]
        for _ in range(max(0, self.ops - len(plan))):
            roll = self.rng.random()
            key = self.rng.choice(keys)
            if roll < 0.55:
                versions[key] = versions.get(key, 0) + 1
                plan.append(("put", key, versions[key]))
            elif roll < 0.65:
                if self.backend == "async-tiered":
                    plan.append(overwrite(key))
                else:
                    plan.append(("delete", key))
            elif roll < 0.8:
                plan.append(("get", key))
            elif roll < 0.9:
                plan.append(("flush",))
            else:
                plan.append(("gc",))
        plan.append(("flush",))
        plan.append(("gc",))
        plan.append(("flush",))
        return plan

    # -- op execution ----------------------------------------------------
    def _is_async(self) -> bool:
        return self.backend == "async-tiered"

    def _classify(self, exc: BaseException) -> Optional[str]:
        """Map an exception to an episode kind (None = not ours)."""
        seen = set()
        cause: Optional[BaseException] = exc
        while cause is not None and id(cause) not in seen:
            seen.add(id(cause))
            if isinstance(cause, CrashInjected):
                return "crash"
            cause = cause.__cause__ or cause.__context__
        if isinstance(exc, (RemoteUnavailable, AsyncWriteError, OSError)):
            return "transient"
        return None

    def _execute(self, stack: _Stack, op: Tuple) -> None:
        kind = op[0]
        flushed_ack = not self._is_async()
        if kind == "put":
            _, key, version = op
            self.model.begin_put(key, version)
            stack.store.put(key, _entry_for(self.seed, key, version), stamp=version)
            self.model.ack_put(key, version, flushed=flushed_ack)
        elif kind == "delete":
            _, key = op
            if not stack.store.has(op[1]):
                return
            self.model.begin_delete(key)
            stack.store.delete(key)
            self.model.ack_delete(key, flushed=flushed_ack)
        elif kind == "get":
            _, key = op
            try:
                stack.store.get(key)
            except KVStoreError:
                pass  # plan may read a deleted / never-written key
        elif kind == "flush":
            stack.store.flush()
            self.model.ack_flush()
        elif kind == "gc":
            if self._is_async():
                stack.store.flush()
                self.model.ack_flush()
            stack.gc()
        elif kind == "iosched":
            self._iosched_churn(stack)
        else:  # pragma: no cover - plan generator bug
            raise AssertionError(f"unknown op {op!r}")

    def _iosched_churn(self, stack: _Stack) -> None:
        """Exercise the I/O-scheduler seams the store ops cannot reach.

        ``iosched:dispatch`` already fires whenever a gc pass dispatches
        its MAINTENANCE task, but nothing in the op plan cancels a task
        or fills the byte budget — so this op drives both against a
        short-lived private scheduler: a running hold task pins the
        whole (tiny) budget, a queued victim is cancelled
        (``iosched:cancel``), and a further admission blocks on bytes
        (``iosched:budget-exhausted``).  The injector rides in as each
        task's ``fault``, so an armed seam kills the run mid-churn; the
        store itself is untouched, making every recovery rung trivially
        fsck-clean — which is exactly the contract: scheduler death must
        never corrupt a tier.
        """
        injector = stack.injector
        gate = threading.Event()

        def fault(point: str) -> None:
            # The budget seam firing IS the signal that the probe below
            # is blocked on bytes: release the hold so the churn settles
            # immediately (no timed sleep, no race — the probe cannot be
            # admitted until the hold's 64 bytes come back).
            try:
                injector(point)
            finally:
                if point == "iosched:budget-exhausted":
                    gate.set()

        with IOScheduler(
            workers=1, byte_budget=64, name=f"chaos-io-{self.index}"
        ) as sched:
            try:
                hold = sched.submit(
                    lambda: gate.wait(5.0),
                    QoS.MAINTENANCE,
                    nbytes=64,
                    label="chaos-hold",
                    fault=fault,
                )
                victim = sched.submit(
                    lambda: None,
                    QoS.MAINTENANCE,
                    label="chaos-victim",
                    fault=fault,
                )
                victim.cancel()
                probe = sched.submit(
                    lambda: None,
                    QoS.SAVE,
                    nbytes=1,
                    label="chaos-probe",
                    fault=fault,
                )
                probe.result(timeout=10.0)
                hold.result(timeout=10.0)
            finally:
                gate.set()

    # -- recovery ladder -------------------------------------------------
    def _record_action(self, action: str) -> None:
        self.result.recovery_actions.append(action)
        self._c_recovery.labels(action=action).inc()

    def _reopen(self, stack: _Stack) -> _Stack:
        stack.abandon()
        injector = stack.injector
        armed = injector.armed
        injector.disarm()  # recovery is not a kill target
        fresh = _build_stack(
            self.backend,
            self.root,
            self.seed,
            injector,
            remote_fault_rate=self.remote_fault_rate,
            local_keep_stamps=self.local_keep_stamps,
        )
        if armed:
            # An armed-but-unfired injector stays disarmed: the plan
            # resumes and the run ends without that kill (counted as a
            # no-fire by the campaign).
            pass
        return fresh

    def _verify(self, stack: _Stack, stage: str) -> Optional[str]:
        report = stack.fsck(repair=False)
        if report.errors:
            return f"fsck errors after {stage}: {report.errors}"
        problems = self.model.observe(stack.base)
        if problems:
            return f"state divergence after {stage}: {problems}"
        return None

    def _recover(self, stack: _Stack, episode: _RunAborted, op: Tuple) -> _Stack:
        """Walk the ladder until verification passes or rungs run out."""
        seam = stack.injector.kills[-1][1] if episode.kind == "crash" and stack.injector.kills else str(op[0])
        self._episode_counter[seam] += 1
        if self._episode_counter[seam] > CIRCULAR_THRESHOLD:
            # Circular failure: the same seam keeps killing this run's
            # recovery attempts.  Stop injecting and take the heavy rung
            # directly.
            self.result.circular = True
            stack.injector.enabled = False
            rungs = [RUNG_FSCK_REPAIR]
        elif episode.kind == "transient":
            rungs = [RUNG_RETRY, RUNG_REOPEN, RUNG_FSCK_REPAIR]
        else:
            rungs = [RUNG_REOPEN, RUNG_FSCK_REPAIR]

        failure: Optional[str] = None
        for step, rung in enumerate(rungs):
            if step > 0:
                self.result.escalations += 1
                self._c_escalations.inc()
            with _span("chaos-recovery", rung=rung, seam=seam):
                try:
                    if rung == RUNG_RETRY:
                        self._record_action(RUNG_RETRY)
                        self._execute(stack, op)
                        failure = self._verify(stack, f"retry of {op[0]}")
                    elif rung == RUNG_REOPEN:
                        self._record_action(RUNG_REOPEN)
                        stack = self._reopen(stack)
                        failure = self._verify(stack, "reopen")
                    elif rung == RUNG_FSCK_REPAIR:
                        self._record_action(RUNG_FSCK_REPAIR)
                        stack = self._reopen(stack)
                        stack.fsck(repair=True)
                        failure = self._verify(stack, "fsck --repair")
                except Exception as exc:  # noqa: BLE001
                    kind = self._classify(exc)
                    if kind is None:
                        raise
                    # The recovery attempt itself died (e.g. a retried
                    # op hit the still-armed injector, or the remote
                    # flapped): that is a failed rung, escalate.
                    failure = f"rung {rung} died: {exc}"
                    continue
            if failure is None:
                return stack
        self._record_action(RUNG_REPORT)
        raise self._fail(f"recovery ladder exhausted: {failure}")

    # -- entry point -----------------------------------------------------
    def execute(self) -> RunResult:
        injector = SeamInjector()
        stack = _build_stack(
            self.backend,
            self.root,
            self.seed,
            injector,
            remote_fault_rate=self.remote_fault_rate,
            local_keep_stamps=self.local_keep_stamps,
        )
        plan = self._plan()
        kills_left = self.max_kills
        if self.target is not None:
            injector.arm(self.target, self.nth)
            kills_left -= 1

        with _span(
            "chaos-run", backend=self.backend, index=self.index, seed=self.seed
        ):
            for op in plan:
                try:
                    self._execute(stack, op)
                except Exception as exc:  # noqa: BLE001
                    kind = self._classify(exc)
                    if kind is None:
                        raise
                    if kind == "crash":
                        self._c_faults.labels(
                            seam=injector.kills[-1][1] if injector.kills else "?"
                        ).inc()
                    stack = self._recover(stack, _RunAborted(kind, exc), op)
                    # Re-arm for multi-kill runs targeting ANY seam.
                    if kills_left > 0 and self.target == ANY:
                        injector.arm(ANY, self.rng.randint(1, 10))
                        kills_left -= 1

            # An armed target that never fired stays a no-fire run; the
            # verification reads below must not become the kill.
            injector.disarm()
            failure = self._verify(stack, "final flush")
            if failure is not None:
                # End-of-run divergence without a crash episode: give
                # the ladder's heavy rung one chance before reporting.
                self.result.escalations += 1
                self._c_escalations.inc()
                self._record_action(RUNG_FSCK_REPAIR)
                stack = self._reopen(stack)
                stack.fsck(repair=True)
                failure = self._verify(stack, "final fsck --repair")
            if failure is not None:
                self._record_action(RUNG_REPORT)
                raise self._fail(failure)
            # Clean teardown (the run survived; this is not a crash).
            try:
                stack.store.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

        self.result.kills = list(injector.kills)
        self.result.seams_seen = sum(injector.seen.values())
        self.result.ok = True
        return self.result


# ---------------------------------------------------------------------------
# The campaign controller
# ---------------------------------------------------------------------------


@dataclass
class CampaignConfig:
    """Everything a campaign derives its behaviour from."""

    backend: str = "tiered"
    runs: int = 100
    seed: int = 0
    ops_per_run: int = 12
    max_kills: int = 3
    remote_fault_rate: float = 0.04
    #: Virtual-clock fault-rate schedule: ``base_rate`` kills per unit
    #: time, stepping to ``step_rate`` after ``step_at`` of the runs —
    #: the step change the online adaptive loop must react to.
    base_rate: float = 0.5
    step_rate: Optional[float] = None
    step_at: float = 0.5
    adaptive: bool = True
    o_save: float = 0.05

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0.0 < self.step_at <= 1.0:
            raise ValueError("step_at must be in (0, 1]")

    def rate_at(self, run_index: int) -> float:
        if self.step_rate is not None and run_index >= int(self.runs * self.step_at):
            return self.step_rate
        return self.base_rate


@dataclass
class CampaignResult:
    """Campaign outcome: aggregate counts, the fault trace, and the
    adaptive decision timeline.  ``digest()`` is a deterministic
    fingerprint — two same-seed campaigns must produce equal digests."""

    config: CampaignConfig
    runs_ok: int = 0
    runs_failed: int = 0
    kills_total: int = 0
    seam_kills: Counter = field(default_factory=Counter)
    recovery_actions: Counter = field(default_factory=Counter)
    escalations: int = 0
    circular_detections: int = 0
    no_fire_runs: int = 0
    fault_times: List[float] = field(default_factory=list)
    decisions: List[dict] = field(default_factory=list)
    run_results: List[dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.runs_failed == 0

    def trace(self) -> FaultTrace:
        horizon = max(self.fault_times, default=0.0) or float(self.config.runs)
        return trace_from_times(self.fault_times, horizon=horizon)

    def as_dict(self) -> dict:
        return {
            "config": {
                "backend": self.config.backend,
                "runs": self.config.runs,
                "seed": self.config.seed,
                "ops_per_run": self.config.ops_per_run,
                "max_kills": self.config.max_kills,
                "remote_fault_rate": self.config.remote_fault_rate,
                "base_rate": self.config.base_rate,
                "step_rate": self.config.step_rate,
                "step_at": self.config.step_at,
                "adaptive": self.config.adaptive,
                "o_save": self.config.o_save,
            },
            "runs_ok": self.runs_ok,
            "runs_failed": self.runs_failed,
            "kills_total": self.kills_total,
            "seam_kills": dict(sorted(self.seam_kills.items())),
            "recovery_actions": dict(sorted(self.recovery_actions.items())),
            "escalations": self.escalations,
            "circular_detections": self.circular_detections,
            "no_fire_runs": self.no_fire_runs,
            "fault_times": self.fault_times,
            "decisions": self.decisions,
            "run_results": self.run_results,
            "wall_seconds": self.wall_seconds,
        }

    def digest(self) -> str:
        """Deterministic fingerprint (wall-clock excluded)."""
        payload = self.as_dict()
        payload.pop("wall_seconds", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def save(self, path: str) -> None:
        payload = self.as_dict()
        payload["digest"] = self.digest()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


def _plan_run(
    config: CampaignConfig, run_index: int, seams: Tuple[str, ...]
) -> Tuple[Optional[str], int]:
    """Decide (target, nth) for one run — pure function of the campaign
    seed and index.

    The first ``len(seams)`` runs target each registered seam in order
    (guaranteed coverage); the rest draw from the seeded mix, with the
    kill *probability* following the campaign's virtual fault-rate
    schedule so the adaptive loop sees a realistic stream.
    """
    rng = random.Random(f"{config.seed}:target:{run_index}")
    if run_index < len(seams):
        return seams[run_index], 1
    p_kill = 1.0 - float(np.exp(-config.rate_at(run_index)))
    if rng.random() >= p_kill:
        return None, 0
    roll = rng.random()
    if roll < 0.7:
        return rng.choice(seams), rng.randint(1, 3)
    return ANY, rng.randint(1, 30)


def run_campaign(
    config: CampaignConfig,
    root: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    controller: Optional[OnlineAdaptiveController] = None,
    run_index: Optional[int] = None,
    progress=None,
) -> CampaignResult:
    """Run a full campaign (or a single ``run_index`` repro).

    Raises :class:`ChaosFailure` — seeds and repro command included —
    the moment a run cannot be verified; a completed return means every
    run ended reopen-able, fsck-clean and byte-exact.
    """
    seams = seams_for(config.backend)
    registry = registry if registry is not None else get_registry()
    c_runs = registry.counter(
        "moc_chaos_runs_total", "Chaos runs executed, by status", labelnames=("status",)
    )
    if controller is None and config.adaptive:
        controller = OnlineAdaptiveController(
            o_save=config.o_save,
            estimator=OnlineFaultRateEstimator(window=30.0, min_events=3),
            min_interval=1.0,
            max_interval=200.0,
        )
    result = CampaignResult(config=config)
    indices = range(config.runs) if run_index is None else [run_index]
    started = time.perf_counter()
    owned_root = root is None
    if owned_root:
        root = tempfile.mkdtemp(prefix="chaos-campaign-")
    try:
        virtual_now = 0.0
        local_keep = 2
        for index in indices:
            virtual_now += 1.0  # one run = one unit of virtual fleet time
            target, nth = _plan_run(config, index, seams)
            run_root = os.path.join(root, f"run-{index:05d}")
            run = ChaosRun(
                backend=config.backend,
                campaign_seed=config.seed,
                runs=config.runs,
                run_index=index,
                root=run_root,
                ops=config.ops_per_run,
                max_kills=config.max_kills,
                target=target,
                nth=nth,
                remote_fault_rate=config.remote_fault_rate,
                local_keep_stamps=local_keep,
                registry=registry,
            )
            try:
                run_result = run.execute()
            except ChaosFailure:
                c_runs.labels(status="failed").inc()
                result.runs_failed += 1
                raise
            finally:
                shutil.rmtree(run_root, ignore_errors=True)
            c_runs.labels(status="ok").inc()
            result.runs_ok += 1
            result.kills_total += len(run_result.kills)
            for _target, seam in run_result.kills:
                result.seam_kills[seam] += 1
            for action in run_result.recovery_actions:
                result.recovery_actions[action] += 1
            result.escalations += run_result.escalations
            result.circular_detections += int(run_result.circular)
            if target is not None and not run_result.kills:
                result.no_fire_runs += 1
            result.run_results.append(run_result.as_dict())
            if run_result.kills:
                result.fault_times.append(virtual_now)
            # Close the loop: feed the fault stream to the controller
            # and let its decision retune the *next* runs.
            if controller is not None:
                if run_result.kills:
                    controller.observe_fault(virtual_now)
                decision = controller.decide(virtual_now)
                result.decisions.append(decision.as_dict())
                local_keep = (
                    max(1, min(4, decision.k_persist))
                    if decision.persist_tier == "two-level"
                    else 1
                )
            if progress is not None:
                progress(index, run_result)
    finally:
        if owned_root:
            shutil.rmtree(root, ignore_errors=True)
    result.wall_seconds = time.perf_counter() - started
    return result
