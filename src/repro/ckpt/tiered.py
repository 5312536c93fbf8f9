"""Two-level tiered checkpoint backend: write-back local + remote object tier.

The paper's two-level scheme — a fast local tier absorbing every
checkpoint write, a durable remote object tier holding every stamp —
existed here only as a cost model.  :class:`TieredBackend` makes it a
real :class:`~repro.ckpt.backend.CheckpointBackend` composing any two
existing backends:

* **Write-back puts.**  A put lands in the local tier synchronously and
  returns; a bounded background upload pipeline drains it to the remote
  tier with retry / per-upload timeout / jittered backoff.  Training
  never waits on remote latency.
* **Crash-consistent promotion/demotion journal** (``tier.jsonl``, a
  :class:`~repro.ckpt.journal.Journal`).  The ordering is leak-only,
  mirroring the dedup engine's: the ``up`` record claiming a remote
  copy is appended strictly *after* the remote put returns, and local
  eviction happens strictly *after* that claim is durable.  Every crash window therefore
  leaks at most a redundant upload or an unclaimed remote copy
  (*warnings* ``fsck`` reports and ``gc`` reclaims) — never a claimed
  copy that does not exist (the only *error*), and never an evicted
  entry without a durable remote copy.
* **Read-through with hedged remote reads.**  A get serves from local;
  on a local miss (an evicted stamp) it reads remote, launching a
  second, hedged request when the first exceeds ``hedge_after_seconds``
  — first success wins.  Remote reads retry transient
  :class:`RemoteUnavailable` faults with the same backoff policy as
  uploads, and (by default) promote the payload back into the local
  tier.
* **Per-tier retention.**  ``local_keep_stamps=k`` keeps the newest k
  stamps locally and every stamp remote: ``flush()`` demotes older,
  remote-durable entries (journal record first, local delete second).

:class:`SimulatedObjectStore` wraps any backend into a remote-object
tier with configurable per-op latency and a seeded fault-injection rate
(raising :class:`RemoteUnavailable`), so retry/backoff behaviour and
the write-back latency win are testable — and benchmarkable —
deterministically on a laptop.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..io.scheduler import (
    IOLane,
    IOScheduler,
    IOTaskCancelled,
    IOTaskTimeout,
    QoS,
    get_scheduler,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span as _span
from .backend import CheckpointBackend, CrashInjected, KVStoreError, Payload
from .journal import Journal


class RemoteUnavailable(RuntimeError):
    """A transient remote-tier failure (the retryable kind)."""


class DecorrelatedJitterBackoff:
    """Decorrelated-jitter retry delays (the AWS architecture-blog recipe).

    Pure ``base * 2**n`` backoff synchronizes retry storms: when the
    remote flaps, every upload worker that failed in the same window
    sleeps the same deterministic delay and they all stampede back at
    once.  Decorrelated jitter breaks the phase lock —

        ``delay = min(cap, uniform(base, prev * 3))``

    — each worker's next delay is drawn around its own previous one, so
    a cohort of simultaneous failures spreads out instead of re-colliding.
    ``seed`` makes the schedule reproducible.  Thread-safe: the RNG draw
    is guarded so concurrent upload workers do not interleave the stream
    mid-draw (each still gets an independent draw, which is the point).
    """

    def __init__(
        self,
        base_seconds: float,
        cap_seconds: float,
        seed: Optional[int] = None,
    ) -> None:
        if base_seconds < 0 or cap_seconds < 0:
            raise ValueError("backoff durations must be non-negative")
        self.base_seconds = base_seconds
        self.cap_seconds = cap_seconds
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def next_delay(self, previous: Optional[float]) -> float:
        """Delay before the next retry; ``previous`` is the last delay
        this caller slept, or ``None`` on its first retry."""
        anchor = self.base_seconds if previous is None else previous
        with self._lock:
            draw = self._rng.uniform(
                self.base_seconds, max(self.base_seconds, anchor * 3.0)
            )
        return min(self.cap_seconds, draw)


class SimulatedObjectStore(CheckpointBackend):
    """Decorate a backend into a latency/fault-injectable remote tier.

    Payload operations (put / read / delete) sleep ``latency_seconds``
    and then fail with :class:`RemoteUnavailable` at ``fault_rate``
    probability.  Fault placement is *interleaving-independent*: each
    draw is derived by hashing ``(seed, op, key, attempt#)`` rather
    than consumed from a shared RNG stream, so whether the Nth ``put``
    of a given key faults does not depend on which upload worker thread
    got there first — two same-seed runs inject the identical fault
    set even under concurrent workers (the historical shared
    ``random.Random`` made seeded runs racy).  The per-(op, key)
    attempt counter and the ``fault_log`` are guarded by the store
    lock.  Metadata queries (stamps, sizes, listings) delegate
    directly: object stores serve those from their index tier.
    """

    def __init__(
        self,
        inner: CheckpointBackend,
        latency_seconds: float = 0.0,
        fault_rate: float = 0.0,
        seed: int = 0x5EED,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        self.inner = inner
        self.latency_seconds = latency_seconds
        self.fault_rate = fault_rate
        self.seed = seed
        self._sim_lock = threading.Lock()
        self._attempts: Dict[Tuple[str, str], int] = {}
        #: Every injected fault as ``(op, key, attempt#)`` — sorted, this
        #: is identical across same-seed runs regardless of threading.
        self.fault_log: List[Tuple[str, str, int]] = []
        if registry is None:
            registry = MetricsRegistry()
        self._c_ops = registry.counter(
            "moc_remote_ops_total", "Simulated remote-tier payload operations"
        )
        self._c_faults = registry.counter(
            "moc_remote_faults_total", "Injected transient remote faults"
        )

    @property
    def ops(self) -> int:
        return int(self._c_ops.value)

    @property
    def faults_injected(self) -> int:
        return int(self._c_faults.value)

    def _draw(self, op: str, key: str, attempt: int) -> float:
        token = f"{self.seed}:{op}:{key}:{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _simulate(self, op: str, key: str) -> None:
        if self.latency_seconds > 0:
            time.sleep(self.latency_seconds)
        self._c_ops.inc()
        with self._sim_lock:
            attempt = self._attempts.get((op, key), 0) + 1
            self._attempts[(op, key)] = attempt
            inject = self._draw(op, key, attempt) < self.fault_rate
            if inject:
                self.fault_log.append((op, key, attempt))
        if inject:
            self._c_faults.inc()
            raise RemoteUnavailable(
                f"injected remote fault during {op} of {key!r} (attempt {attempt})"
            )

    # -- payload ops (latency + faults) ---------------------------------
    def _write(self, key: str, payload: Payload, stamp: int, node) -> None:
        self._simulate("put", key)
        self.inner.put_serialized(key, payload, stamp, node)

    def _read(self, key: str) -> bytes:
        self._simulate("get", key)
        return self.inner._read(key)

    def delete(self, key: str) -> None:
        self._simulate("delete", key)
        self.inner.delete(key)

    # -- metadata (direct) ----------------------------------------------
    def stamp_of(self, key: str) -> int:
        return self.inner.stamp_of(key)

    def nbytes_of(self, key: str) -> int:
        return self.inner.nbytes_of(key)

    def has(self, key: str) -> bool:
        return self.inner.has(key)

    def keys(self) -> List[str]:
        return self.inner.keys()

    def total_bytes(self) -> int:
        return self.inner.total_bytes()

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()


@dataclass
class TieredFsckReport:
    """Outcome of a :meth:`TieredBackend.fsck` pass over both tiers.

    A journal claim whose remote copy is missing or stale is an
    *error* — it is exactly the window the write ordering exists to
    close (eviction trusts claims).  Pending uploads (local ahead of
    remote) and unclaimed remote copies are *warnings*: every crash
    window in the upload pipeline leaks at most those, and
    ``flush``/``gc`` reclaims them.  Nested per-tier reports (when a
    tier supports ``fsck``) roll up into ``errors``/``warnings``.
    """

    keys_checked: int = 0
    claims_checked: int = 0
    lost_remote_copies: List[str] = field(default_factory=list)
    stale_remote_copies: List[str] = field(default_factory=list)
    pending_uploads: List[str] = field(default_factory=list)
    orphan_remote_keys: List[str] = field(default_factory=list)
    local_report: Optional[object] = None
    remote_report: Optional[object] = None
    repaired: bool = False

    @property
    def errors(self) -> List[str]:
        out = [f"claimed remote copy missing: {key}" for key in self.lost_remote_copies]
        out += [f"claimed remote copy stale: {key}" for key in self.stale_remote_copies]
        for report in (self.local_report, self.remote_report):
            if report is not None:
                out += list(report.errors)
        return out

    @property
    def warnings(self) -> List[str]:
        out = [f"pending upload: {key}" for key in self.pending_uploads]
        out += [f"unclaimed remote copy: {key}" for key in self.orphan_remote_keys]
        for report in (self.local_report, self.remote_report):
            if report is not None:
                out += list(report.warnings)
        return out

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class TieredGCReport:
    """What one :meth:`TieredBackend.gc` pass reclaimed."""

    remote_keys_reclaimed: int
    remote_bytes_reclaimed: int
    journal_records_compacted: int
    local_report: Optional[object] = None


class TieredBackend(CheckpointBackend):
    """Write-back local tier + retrying remote tier behind one contract.

    ``upload_workers >= 1`` runs the upload pipeline as ``UPLOAD``-class
    tasks on the shared I/O scheduler, fan-out bounded by a lane (puts
    block only when ``upload_queue_depth`` *distinct* keys are already
    waiting — backpressure, not loss);
    ``upload_workers=0`` uploads inline during the put, which is what
    the crash-injection battery uses: every seam then fires on the
    caller thread, so the arm-hook/abandon/reopen pattern is
    deterministic.

    Upload claim discipline (the leak-only ordering)::

        local put (tier's own durability)        <- put returns here
          -> remote put (retry w/ backoff)
            -> journal {"op": "up", ...}         <- claim: remote IS durable
              -> journal {"op": "demote", ...}
                -> local delete                  <- eviction: claim IS durable

    Crashing between any two steps leaks at most a pending upload or an
    unclaimed remote copy — fsck warnings — never a claim without a
    remote copy and never an evicted entry that was not claimed.
    """

    _fault_hook_value: Optional[Callable[[str], None]] = None

    def __init__(
        self,
        local: CheckpointBackend,
        remote: CheckpointBackend,
        journal_path: str,
        upload_workers: int = 1,
        upload_queue_depth: int = 64,
        upload_max_retries: int = 8,
        upload_timeout_seconds: float = 120.0,
        backoff_base_seconds: float = 0.02,
        backoff_max_seconds: float = 1.0,
        backoff_seed: Optional[int] = None,
        hedge_after_seconds: Optional[float] = 0.25,
        remote_read_retries: int = 4,
        local_keep_stamps: Optional[int] = None,
        promote_on_read: bool = True,
        meters: Optional[object] = None,
        registry: Optional[MetricsRegistry] = None,
        scheduler: Optional[IOScheduler] = None,
    ) -> None:
        super().__init__()
        if upload_workers < 0:
            raise ValueError("upload_workers must be >= 0")
        if upload_queue_depth < 1:
            raise ValueError("upload_queue_depth must be >= 1")
        if local_keep_stamps is not None and local_keep_stamps < 1:
            raise ValueError("local_keep_stamps must be >= 1")
        self.local = local
        self.remote = remote
        self.upload_workers = upload_workers
        self.upload_queue_depth = upload_queue_depth
        self.upload_max_retries = upload_max_retries
        self.upload_timeout_seconds = upload_timeout_seconds
        self.backoff_base_seconds = backoff_base_seconds
        self.backoff_max_seconds = backoff_max_seconds
        self.backoff = DecorrelatedJitterBackoff(
            backoff_base_seconds,
            backoff_max_seconds,
            seed=backoff_seed,
        )
        self.hedge_after_seconds = hedge_after_seconds
        self.remote_read_retries = remote_read_retries
        self.local_keep_stamps = local_keep_stamps
        self.promote_on_read = promote_on_read

        # All tier state below is guarded by _state_lock; journal appends
        # take it too, which serializes them against the delete/claim
        # race (see _upload_once).
        self._state_lock = threading.RLock()
        self._cond = threading.Condition(self._state_lock)
        self._journal = Journal(journal_path, "tier", self._fault)
        #: key -> (stamp, nbytes) claimed durable on the remote tier.
        self._remote_claims: Dict[str, Tuple[int, int]] = {}
        #: Keys sitting in the upload queue (dedupe) / being uploaded.
        self._queued: Set[str] = set()
        self._inflight: Set[str] = set()
        #: key -> last exhausted-retries error (still pending; flush retries).
        self._upload_failures: Dict[str, str] = {}
        self._closed = False

        # Counters live on a metrics registry (a private one unless the
        # caller shares one), so increments from concurrent upload
        # workers are atomic by construction — no bare ints under (or
        # escaping) the state lock.  The historical attribute names
        # (``self.upload_retries`` etc.) are read-only properties.
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._c_uploads_completed = registry.counter(
            "moc_tier_uploads_completed_total", "Uploads claimed remote-durable"
        )
        self._c_upload_retries = registry.counter(
            "moc_tier_upload_retries_total",
            "Retried (backed-off) remote-tier upload attempts",
        )
        self._c_uploads_failed = registry.counter(
            "moc_tier_uploads_failed_total", "Uploads that exhausted their retries"
        )
        self._c_bytes_uploaded = registry.counter(
            "moc_tier_bytes_uploaded_total",
            "Bytes uploaded to the remote tier (single source of truth)",
        )
        self._c_remote_reads = registry.counter(
            "moc_tier_remote_reads_total", "Remote-tier read attempts"
        )
        self._c_hedged_reads = registry.counter(
            "moc_tier_hedged_reads_total", "Remote reads that launched a hedge"
        )
        self._c_read_retries = registry.counter(
            "moc_tier_read_retries_total", "Retried remote-tier reads"
        )
        self._c_promotions = registry.counter(
            "moc_tier_promotions_total", "Read-through promotions into the local tier"
        )
        self._c_demotions = registry.counter(
            "moc_tier_demotions_total", "Retention demotions out of the local tier"
        )
        #: Optional :class:`~repro.ckpt.serializer.PipelineMeters`; the
        #: manager attaches its own, which *re-homes* the upload
        #: byte/retry counters onto the meters' registry so ``demo
        #: --profile``, ``tier_stats()`` and a ``--metrics-dump`` all
        #: read the very same counter objects.
        self._meters: Optional[object] = None
        self.meters = meters

        for record in self._journal.replay():
            op = record.get("op")
            if op == "up":
                self._remote_claims[str(record["key"])] = (
                    int(record["stamp"]),
                    int(record["nbytes"]),
                )
            elif op == "del":
                self._remote_claims.pop(str(record["key"]), None)
            # "demote"/"promote" records are movement history only: the
            # local tier's own index is the source of truth for what is
            # local, so replay does not need them.

        # Upload pipeline: `UPLOAD`-class submissions on the shared
        # :class:`~repro.io.scheduler.IOScheduler`, fan-out bounded by a
        # named lane (was: private daemon threads + a bounded key
        # queue).  The scheduler is resolved lazily when neither the
        # upload pipeline nor a hedged read needs it — inline mode with
        # hedging off never touches it.
        self._scheduler: Optional[IOScheduler] = scheduler
        self._upload_lane: Optional[IOLane] = None
        if upload_workers > 0:
            self._upload_lane = self._io_scheduler().lane(
                f"tier-upload-{id(self):x}", upload_workers
            )

        # Resume: anything local that crashed before its claim became
        # durable re-enters the pipeline (idempotent re-upload).
        for key in self.pending_uploads():
            self._schedule_upload(key)

    # -- counters (registry-backed; attribute names are the legacy API) --
    @property
    def uploads_completed(self) -> int:
        return int(self._c_uploads_completed.value)

    @property
    def upload_retries(self) -> int:
        return int(self._c_upload_retries.value)

    @property
    def uploads_failed(self) -> int:
        return int(self._c_uploads_failed.value)

    @property
    def bytes_uploaded(self) -> int:
        return int(self._c_bytes_uploaded.value)

    @property
    def remote_reads(self) -> int:
        return int(self._c_remote_reads.value)

    @property
    def hedged_reads(self) -> int:
        return int(self._c_hedged_reads.value)

    @property
    def read_retries(self) -> int:
        return int(self._c_read_retries.value)

    @property
    def promotions(self) -> int:
        return int(self._c_promotions.value)

    @property
    def demotions(self) -> int:
        return int(self._c_demotions.value)

    @property
    def meters(self) -> Optional[object]:
        return self._meters

    @meters.setter
    def meters(self, value: Optional[object]) -> None:
        """Attach pipeline meters — and adopt their upload counters.

        Attaching meters swaps the tier's upload byte/retry counters for
        the meters' own registry counters (carrying over anything already
        accumulated), so there is exactly one accumulator per total no
        matter who reads it.
        """
        self._meters = value
        counters_of = getattr(value, "upload_counters", None)
        if counters_of is None:
            return
        bytes_counter, retries_counter = counters_of()
        with self._state_lock:
            if bytes_counter is not self._c_bytes_uploaded:
                carried = self._c_bytes_uploaded.value
                if carried:
                    bytes_counter.inc(carried)
                self._c_bytes_uploaded = bytes_counter
            if retries_counter is not self._c_upload_retries:
                carried = self._c_upload_retries.value
                if carried:
                    retries_counter.inc(carried)
                self._c_upload_retries = retries_counter

    # -- fault-hook propagation -----------------------------------------
    @property
    def fault_hook(self):
        return self._fault_hook_value

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        # The crash battery sets one hook on the composed store; the
        # tiers' own seams (chunk/manifest/journal/payload points) must
        # fire through it too.
        self._fault_hook_value = hook
        self.local.fault_hook = hook
        self.remote.fault_hook = hook
        inner = getattr(self.remote, "inner", None)
        if inner is not None:
            inner.fault_hook = hook

    # -- delegated surface ----------------------------------------------
    @property
    def digest_chunk_bytes(self) -> int:
        return self.local.digest_chunk_bytes

    # -- write path ------------------------------------------------------
    def _write(self, key: str, payload: Payload, stamp: int, node) -> None:
        self.local.put_serialized(key, payload, stamp, node)
        self._schedule_upload(key)

    def put_many_serialized(self, items) -> List[int]:
        try:
            sizes = self.local.put_many_serialized(items)
        finally:
            # On a mid-batch error the local tier journals the completed
            # prefix; schedule uploads for whatever actually landed.
            for key, _payload, _stamp, _node in items:
                if self.local.has(key):
                    self._schedule_upload(key)
        with self._meter_lock:
            for nbytes in sizes:
                self.bytes_written += nbytes
                self.put_count += 1
        return sizes

    # -- upload pipeline -------------------------------------------------
    def pending_uploads(self) -> List[str]:
        """Keys whose local content is not yet claimed remote-durable."""
        return sorted(key for key in self.local.keys() if self._pending(key))

    def _pending(self, key: str) -> bool:
        try:
            state = (self.local.stamp_of(key), self.local.nbytes_of(key))
        except KVStoreError:
            return False
        with self._state_lock:
            return self._remote_claims.get(key) != state

    def _io_scheduler(self) -> IOScheduler:
        scheduler = self._scheduler
        if scheduler is None:
            scheduler = self._scheduler = get_scheduler()
        return scheduler

    def _schedule_upload(self, key: str, requeue: bool = False) -> None:
        if self.upload_workers == 0:
            # Inline mode: upload now, on the caller thread.  A crash
            # seam firing here propagates out of the put — the process
            # died mid-upload, exactly what the battery models.
            self._upload_with_retry(key)
            return
        scheduler = self._io_scheduler()
        with self._cond:
            if not requeue and not scheduler.is_worker_thread():
                # Backpressure: block the producer while
                # ``upload_queue_depth`` distinct keys are already
                # waiting.  Never block a scheduler worker against its
                # own pool, and never block the self-requeue path — an
                # upload that finished but left the key pending.
                while (
                    not self._closed
                    and key not in self._queued
                    and key not in self._inflight
                    and len(self._queued) >= self.upload_queue_depth
                ):
                    self._cond.wait(0.05)
            if self._closed or key in self._queued or key in self._inflight:
                # An inflight upload re-checks pending state when it
                # finishes and requeues itself if this put outran it.
                return
            self._queued.add(key)
        try:
            nbytes = self.local.nbytes_of(key)
        except KVStoreError:
            nbytes = 0
        try:
            scheduler.submit(
                lambda: self._run_upload(key),
                QoS.UPLOAD,
                nbytes=nbytes,
                label="tier-upload",
                lane=self._upload_lane,
                fault=self._fault,
                on_abandon=lambda _error: self._abandon_upload(key),
            )
        except BaseException:
            self._abandon_upload(key)
            raise

    def _abandon_upload(self, key: str) -> None:
        """An upload task died before its body ran (cancelled queued
        task, shutdown, or a crash seam at dispatch): the key simply
        stays pending — the next flush re-drives it."""
        with self._cond:
            self._queued.discard(key)
            self._cond.notify_all()

    def _run_upload(self, key: str) -> None:
        with self._cond:
            self._queued.discard(key)
            if self._closed:
                self._cond.notify_all()
                return
            self._inflight.add(key)
        try:
            self._upload_with_retry(key)
        except Exception:  # noqa: BLE001 - task must settle quietly
            pass
        finally:
            requeue = False
            with self._cond:
                self._inflight.discard(key)
                if (
                    not self._closed
                    and key not in self._queued
                    and key not in self._upload_failures
                    and self._pending_locked(key)
                ):
                    requeue = True
                self._cond.notify_all()
            if requeue:
                self._schedule_upload(key, requeue=True)

    def _pending_locked(self, key: str) -> bool:
        try:
            state = (self.local.stamp_of(key), self.local.nbytes_of(key))
        except KVStoreError:
            return False
        return self._remote_claims.get(key) != state

    def _upload_with_retry(self, key: str) -> bool:
        """Upload ``key`` with exponential backoff; True when settled.

        Exhausting ``upload_max_retries`` (or the per-upload timeout)
        records the failure and leaves the key pending — the next
        ``flush`` retries it.  :class:`CrashInjected` always propagates:
        a crash is process death, never a retryable fault.
        """
        attempt = 0
        delay: Optional[float] = None
        started = time.monotonic()
        with _span("upload", key=key):
            while True:
                try:
                    with _span("upload-attempt", key=key, attempt=attempt):
                        self._upload_once(key)
                except CrashInjected:
                    raise
                except Exception as exc:  # noqa: BLE001 - transient remote fault
                    if isinstance(exc, KVStoreError) and not self.local.has(key):
                        return True  # deleted underneath the pipeline: settled
                    # A local entry that is there but does not read (an
                    # undecodable chunk) fails like a remote fault would.
                    attempt += 1
                    elapsed = time.monotonic() - started
                    if (
                        attempt > self.upload_max_retries
                        or elapsed > self.upload_timeout_seconds
                    ):
                        self._c_uploads_failed.inc()
                        with self._state_lock:
                            self._upload_failures[key] = f"{type(exc).__name__}: {exc}"
                        return False
                    self._c_upload_retries.inc()
                    delay = self.backoff.next_delay(delay)
                    with _span("upload-backoff", key=key, attempt=attempt):
                        time.sleep(delay)
                    continue
                return True

    def _upload_once(self, key: str) -> None:
        stamp = self.local.stamp_of(key)  # KVStoreError -> deleted, settled
        payload = self.local._read(key)
        nbytes = len(payload)
        with self._state_lock:
            if self._remote_claims.get(key) == (stamp, nbytes):
                return  # a concurrent upload already claimed this state
        self.remote.put_serialized(key, payload, stamp)
        self._fault("upload:remote-durable")
        with self._state_lock:
            if not self.local.has(key):
                # Deleted while the remote put was in flight: claiming
                # now would resurrect the key on replay.  The remote
                # copy stays an unclaimed orphan for gc.
                return
            # The claim is durable strictly after the remote copy is.
            self._journal.append(
                [{"op": "up", "key": key, "stamp": stamp, "nbytes": nbytes}]
            )
            self._remote_claims[key] = (stamp, nbytes)
            self._upload_failures.pop(key, None)
        # One accumulator per total: after a meters attach these ARE the
        # pipeline meters' counters, so no second count lands anywhere.
        self._c_uploads_completed.inc()
        self._c_bytes_uploaded.inc(nbytes)

    def drain_uploads(self) -> None:
        """Block until the background pipeline has settled every key it
        currently knows about (failures stay pending; see ``flush``)."""
        if self.upload_workers == 0:
            return
        scheduler = self._io_scheduler()
        while True:
            with self._cond:
                if not self._queued and not self._inflight:
                    return
            # On a scheduler worker thread, run queued work instead of
            # parking the very pool slot this drain is waiting on.
            if scheduler.help_once():
                continue
            with self._cond:
                if self._queued or self._inflight:
                    self._cond.wait(0.05)

    def flush(self) -> None:
        self.local.flush()
        self.drain_uploads()
        # Exhausted-retry failures get exactly one more bounded attempt
        # per flush, synchronously; still-failing keys stay pending
        # (locally durable — the barrier contract holds regardless).
        with self._state_lock:
            retry_keys = sorted(self._upload_failures)
            self._upload_failures.clear()
        for key in retry_keys:
            if self._pending(key):
                self._upload_with_retry(key)
        for key in self.pending_uploads():
            if self.upload_workers == 0:
                self._upload_with_retry(key)
        with _span("tier-retention"):
            self._apply_local_retention()
        self.remote.flush()

    # -- retention (demotion) -------------------------------------------
    def _apply_local_retention(self) -> None:
        """Evict local copies beyond the newest ``local_keep_stamps``
        distinct stamps — but only entries whose exact (stamp, nbytes)
        is claimed remote-durable, and only after journaling the move."""
        if self.local_keep_stamps is None:
            return
        local_keys = self.local.keys()
        stamps = set()
        states: Dict[str, Tuple[int, int]] = {}
        for key in local_keys:
            try:
                state = (self.local.stamp_of(key), self.local.nbytes_of(key))
            except KVStoreError:  # pragma: no cover - concurrent delete
                continue
            states[key] = state
            stamps.add(state[0])
        keep = set(sorted(stamps, reverse=True)[: self.local_keep_stamps])
        for key, (stamp, nbytes) in sorted(states.items()):
            if stamp in keep:
                continue
            with self._state_lock:
                if self._remote_claims.get(key) != (stamp, nbytes):
                    continue  # not remote-durable: never evict
                self._journal.append([{"op": "demote", "key": key, "stamp": stamp}])
            self._c_demotions.inc()
            try:
                with _span("demote", key=key, stamp=stamp):
                    self.local.delete(key)
            except KVStoreError:  # pragma: no cover - concurrent delete
                pass

    # -- read path -------------------------------------------------------
    def _read(self, key: str) -> bytes:
        try:
            return self.local._read(key)
        except KVStoreError:
            pass
        with self._state_lock:
            claim = self._remote_claims.get(key)
        if claim is None:
            raise KVStoreError(key)
        payload = self._remote_read(key)
        if self.promote_on_read:
            self._promote(key, payload, claim[0])
        return payload

    def _promote(self, key: str, payload: bytes, stamp: int) -> None:
        """Best-effort read-through promotion back into the local tier."""
        try:
            with _span("promote", key=key, stamp=stamp):
                self.local.put_serialized(key, payload, stamp)
                with self._state_lock:
                    self._journal.append(
                        [{"op": "promote", "key": key, "stamp": stamp}]
                    )
            self._c_promotions.inc()
        except CrashInjected:
            raise
        except Exception:  # pragma: no cover - promotion must never fail a read
            pass

    def _remote_read(self, key: str) -> bytes:
        last_error: Optional[Exception] = None
        delay: Optional[float] = None
        for attempt in range(self.remote_read_retries + 1):
            if attempt:
                self._c_read_retries.inc()
                delay = self.backoff.next_delay(delay)
                with _span("read-backoff", key=key, attempt=attempt):
                    time.sleep(delay)
            try:
                self._c_remote_reads.inc()
                with _span("remote-read", key=key, attempt=attempt):
                    if self.hedge_after_seconds is not None:
                        return self._remote_read_hedged(key)
                    return self.remote._read(key)
            except (RemoteUnavailable, OSError) as exc:
                last_error = exc
        raise KVStoreError(
            f"remote read failed for {key!r} after "
            f"{self.remote_read_retries + 1} attempts: {last_error}"
        )

    def _remote_read_hedged(self, key: str) -> bytes:
        """One read attempt, hedged: if the primary request has not
        completed within ``hedge_after_seconds``, race a second request
        and take the first success (tail-latency cut, not a retry — the
        slow primary may still win).  Both legs run as ``RESTORE``-class
        tasks on the shared scheduler; the losing leg is cancelled
        cooperatively (a still-queued loser never starts, a running one
        checks its cancel flag before touching the remote)."""
        scheduler = self._io_scheduler()

        def leg() -> bytes:
            if scheduler.current_cancelled():
                raise IOTaskCancelled(key)
            return self.remote._read(key)

        primary = scheduler.submit(leg, QoS.RESTORE, label="tier-read")
        try:
            return primary.result(timeout=self.hedge_after_seconds)
        except IOTaskTimeout:
            pass
        except Exception:
            raise  # a fast failure is the retry loop's business
        self._c_hedged_reads.inc()
        with _span("hedged-read", key=key):
            secondary = scheduler.submit(leg, QoS.RESTORE, label="tier-read-hedge")
            racers = [primary, secondary]
            first_error: Optional[BaseException] = None
            while racers:
                for task in scheduler.wait_any(racers):
                    racers.remove(task)
                    try:
                        value = task.result()
                    except IOTaskCancelled:
                        continue
                    except BaseException as exc:  # noqa: BLE001 - leg error
                        if first_error is None:
                            first_error = exc
                        continue
                    for loser in racers:
                        loser.cancel()
                    return value
            raise first_error  # both legs failed

    # -- metadata --------------------------------------------------------
    def stamp_of(self, key: str) -> int:
        try:
            return self.local.stamp_of(key)
        except KVStoreError:
            pass
        with self._state_lock:
            claim = self._remote_claims.get(key)
        if claim is None:
            raise KVStoreError(key)
        return claim[0]

    def nbytes_of(self, key: str) -> int:
        try:
            return self.local.nbytes_of(key)
        except KVStoreError:
            pass
        with self._state_lock:
            claim = self._remote_claims.get(key)
        if claim is None:
            raise KVStoreError(key)
        return claim[1]

    def has(self, key: str) -> bool:
        if self.local.has(key):
            return True
        with self._state_lock:
            return key in self._remote_claims

    def keys(self) -> List[str]:
        with self._state_lock:
            claimed = set(self._remote_claims)
        return sorted(set(self.local.keys()) | claimed)

    def total_bytes(self) -> int:
        with self._state_lock:
            claims = dict(self._remote_claims)
        total = 0
        local_keys = self.local.keys()
        for key in local_keys:
            try:
                total += self.local.nbytes_of(key)
            except KVStoreError:  # pragma: no cover - concurrent delete
                continue
        seen = set(local_keys)
        for key, (_stamp, nbytes) in claims.items():
            if key not in seen:
                total += nbytes
        return total

    # -- delete ----------------------------------------------------------
    def delete(self, key: str) -> None:
        with self._state_lock:
            claim = self._remote_claims.get(key)
            has_local = self.local.has(key)
            if claim is None and not has_local:
                raise KVStoreError(key)
            if claim is not None:
                # Tombstone first: once the record is durable, replay
                # never resurrects the key even if the physical deletes
                # below die — the copies leak as fsck-visible orphans.
                self._journal.append([{"op": "del", "key": key}])
                self._remote_claims.pop(key, None)
        if has_local:
            try:
                self.local.delete(key)
            except KVStoreError:  # pragma: no cover - concurrent delete
                pass
        if claim is not None:
            try:
                self.remote.delete(key)
            except (KVStoreError, RemoteUnavailable, OSError):
                pass  # unclaimed orphan; gc reclaims it

    def delete_many(self, keys: Sequence[str]) -> None:
        for key in keys:
            self.delete(key)

    # -- fsck / gc -------------------------------------------------------
    def fsck(self, repair: bool = False) -> TieredFsckReport:
        """Cross-check the claim journal against both tiers.

        With ``repair=True``, claims whose remote copy is missing or
        stale are dropped (the key re-enters the upload pipeline if its
        bytes are still local) and the journal is compacted to the
        verified claim set; per-tier ``fsck(repair=True)`` runs when a
        tier supports it.
        """
        report = TieredFsckReport()
        with self._state_lock:
            claims = dict(self._remote_claims)
        remote_keys = set(self.remote.keys())
        for key, (stamp, nbytes) in sorted(claims.items()):
            report.claims_checked += 1
            if key not in remote_keys:
                report.lost_remote_copies.append(key)
                continue
            try:
                ok = (
                    self.remote.stamp_of(key) == stamp
                    and self.remote.nbytes_of(key) == nbytes
                )
            except KVStoreError:  # pragma: no cover - racing delete
                ok = False
            if not ok:
                report.stale_remote_copies.append(key)
        for key in self.local.keys():
            report.keys_checked += 1
            if self._pending(key):
                report.pending_uploads.append(key)
        for key in sorted(remote_keys - set(claims)):
            report.orphan_remote_keys.append(key)
        local_fsck = getattr(self.local, "fsck", None)
        if callable(local_fsck):
            report.local_report = local_fsck(repair=repair)
        remote_target = getattr(self.remote, "inner", self.remote)
        remote_fsck = getattr(remote_target, "fsck", None)
        if callable(remote_fsck):
            report.remote_report = remote_fsck(repair=repair)
        if repair and (report.lost_remote_copies or report.stale_remote_copies):
            bad = set(report.lost_remote_copies) | set(report.stale_remote_copies)
            with self._state_lock:
                for key in bad:
                    self._remote_claims.pop(key, None)
                self._compact_journal_locked()
            for key in sorted(bad):
                if self.local.has(key):
                    self._schedule_upload(key)
            report.repaired = True
        return report

    def gc(self) -> TieredGCReport:
        """Reclaim unclaimed remote copies and compact the tier journal
        (plus the local tier's own gc when it has one)."""
        with self._state_lock:
            claims = dict(self._remote_claims)
        reclaimed = 0
        reclaimed_bytes = 0
        for key in sorted(set(self.remote.keys()) - set(claims)):
            try:
                nbytes = self.remote.nbytes_of(key)
                self.remote.delete(key)
            except (KVStoreError, RemoteUnavailable, OSError):
                continue
            reclaimed += 1
            reclaimed_bytes += nbytes
        with self._state_lock:
            before = self._journal.records
            self._compact_journal_locked()
            compacted = before - self._journal.records
        local_gc = getattr(self.local, "gc", None)
        local_report = local_gc() if callable(local_gc) else None
        return TieredGCReport(
            remote_keys_reclaimed=reclaimed,
            remote_bytes_reclaimed=reclaimed_bytes,
            journal_records_compacted=compacted,
            local_report=local_report,
        )

    def _compact_journal_locked(self) -> None:
        self._journal.rewrite(
            [
                {"op": "up", "key": key, "stamp": stamp, "nbytes": nbytes}
                for key, (stamp, nbytes) in sorted(self._remote_claims.items())
            ]
        )

    # -- stats / lifecycle ----------------------------------------------
    def tier_stats(self) -> Dict[str, int]:
        """Counters for the CLI's stats block (and tests).

        These read the registry counters directly — after a meters
        attach, ``bytes_uploaded``/``upload_retries`` here and in
        ``PipelineMeters.snapshot()`` are the same accumulators, so the
        two views cannot drift.
        """
        stats = {
            "uploads_completed": self.uploads_completed,
            "upload_retries": self.upload_retries,
            "uploads_failed": self.uploads_failed,
            "bytes_uploaded": self.bytes_uploaded,
            "remote_reads": self.remote_reads,
            "hedged_reads": self.hedged_reads,
            "read_retries": self.read_retries,
            "promotions": self.promotions,
            "demotions": self.demotions,
        }
        with self._state_lock:
            stats["remote_claims"] = len(self._remote_claims)
        stats["pending_uploads"] = len(self.pending_uploads())
        stats["local_keys"] = len(self.local.keys())
        stats["remote_faults"] = int(getattr(self.remote, "faults_injected", 0))
        return stats

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.flush()
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()
            if self._upload_lane is not None:
                # A clean close drained the pipeline in flush(); a
                # crashed one leaves tasks that see _closed and settle
                # as no-ops.  Either way the lane name is released so
                # repeated open/close cycles (chaos campaigns) do not
                # accumulate lane entries on the shared scheduler.
                self._io_scheduler().release_lane(self._upload_lane.name)
                self._upload_lane = None
            self.local.close()
            self.remote.close()


def open_tiered_root(
    root: str,
    codec: Optional[object] = None,
    parallel_workers: int = 0,
    remote_latency: float = 0.0,
    remote_fault_rate: float = 0.0,
    remote_seed: int = 0x5EED,
    upload_workers: int = 1,
    local_keep_stamps: Optional[int] = None,
    hedge_after_seconds: Optional[float] = 0.25,
    backoff_seed: Optional[int] = None,
    registry: Optional[MetricsRegistry] = None,
) -> TieredBackend:
    """Open the standard tiered layout under ``root``.

    ``<root>/local`` is a :class:`~repro.ckpt.dedup.DedupBackend` (so
    ``codec``/``parallel_workers`` apply to the tier that absorbs every
    write), ``<root>/remote`` a :class:`~repro.ckpt.sharded.
    ShardedDiskKVStore` behind :class:`SimulatedObjectStore`, and
    ``<root>/tier.jsonl`` the promotion/demotion journal.
    """
    from .dedup import DedupBackend
    from .sharded import ShardedDiskKVStore

    os.makedirs(root, exist_ok=True)
    local = DedupBackend(
        os.path.join(root, "local"), codec=codec, parallel_workers=parallel_workers
    )
    remote = SimulatedObjectStore(
        ShardedDiskKVStore(os.path.join(root, "remote")),
        latency_seconds=remote_latency,
        fault_rate=remote_fault_rate,
        seed=remote_seed,
        registry=registry,
    )
    return TieredBackend(
        local,
        remote,
        journal_path=os.path.join(root, "tier.jsonl"),
        upload_workers=upload_workers,
        local_keep_stamps=local_keep_stamps,
        hedge_after_seconds=hedge_after_seconds,
        backoff_seed=backoff_seed,
        registry=registry,
    )


def is_tiered_root(root: str) -> bool:
    """Heuristic marker check for the standard tiered layout."""
    return os.path.exists(os.path.join(root, "tier.jsonl")) or (
        os.path.isdir(os.path.join(root, "local"))
        and os.path.isdir(os.path.join(root, "remote"))
    )
