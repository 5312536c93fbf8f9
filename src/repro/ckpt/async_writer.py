"""Asynchronous double-buffered write pipeline for any backend.

:class:`AsyncWriteBackend` decorates a :class:`CheckpointBackend` so the
training loop's checkpoint call returns as soon as entries are
*serialized and staged*, while the shared I/O scheduler drains them to
the inner backend (``SAVE`` class, serial lane) — the software analogue
of the paper's two-phase asynchronous persist (snapshot into a buffer,
persist overlapped with compute).

Semantics
---------
* ``put`` serializes in the caller's thread (the "snapshot": after it
  returns the caller may freely mutate the arrays) and stages the
  payload on a bounded queue.  Zero-copy frame ropes are snapshotted
  into a buffer from the :class:`StagingPool` — **one copy**, into
  memory that is reused across checkpoints instead of freshly allocated
  ``bytes`` per put.  When the queue is full (or the pool's arena is
  exhausted) the caller blocks until the worker frees a slot — the
  backpressure that bounds staging memory, exactly like the paper's
  buffer pool.
* Writes drain **in submission order**, so the inner store's state is
  always a prefix of the accepted puts.  Meta/commit entries written
  last therefore land last.
* ``flush`` is a barrier: it returns once every accepted put has been
  written by the inner backend (or raises the first worker error).
* Reads (``get``/``stamp_of``/``has``/``keys``/``total_bytes``/
  ``nbytes_of``/``delete``) flush first, so readers always observe every
  accepted write — recovery never races the pipeline.
* A write error in the worker is captured and re-raised from the *next*
  ``put`` or ``flush`` — i.e. at the next checkpoint boundary, where the
  manager can surface it.  Until then the worker *discards* queued
  writes rather than executing them, preserving the prefix property: a
  later commit entry can never become durable over a hole left by the
  failure.  Writing resumes once the error has been raised.  Discarded
  or not, staged buffers always return to the pool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..io.scheduler import IOScheduler, IOTask, QoS, get_scheduler
from ..obs import trace as _trace
from ..obs.metrics import get_registry
from ..obs.trace import span as _span, trace_counter as _trace_counter
from .backend import CheckpointBackend
from .serializer import PayloadFrames

#: Default staging arena: comfortably double-buffers two checkpoints of
#: every model this repo runs while still bounding a runaway producer.
DEFAULT_ARENA_BYTES = 64 * 1024 * 1024

# Pipeline-health instruments on the process-wide registry.  The queue
# depth gauge is sampled at every enqueue/dequeue (plus a Perfetto "C"
# track when tracing); the flush-stall counters only move when a flush
# barrier actually waited on a non-empty queue.
_QUEUE_DEPTH = get_registry().gauge(
    "moc_async_queue_depth", "Accepted-but-unwritten entries in the async pipeline"
)
_QUEUE_DEPTH_HIGHWATER = get_registry().gauge(
    "moc_async_queue_depth_highwater", "Max observed async queue depth"
)
_FLUSH_STALLS = get_registry().counter(
    "moc_async_flush_stalls_total", "Flush barriers that waited on pending writes"
)
_FLUSH_STALL_SECONDS = get_registry().counter(
    "moc_async_flush_stall_seconds_total", "Seconds spent waiting at flush barriers"
)
_STAGING_WAITS = get_registry().counter(
    "moc_staging_exhaustion_waits_total",
    "Staging-pool acquires that blocked on arena exhaustion",
)
_STAGING_WAIT_SECONDS = get_registry().counter(
    "moc_staging_wait_seconds_total", "Seconds spent blocked in staging admission"
)


class AsyncWriteError(RuntimeError):
    """A deferred write failed; raised at the next put/flush boundary."""


class StagingPool:
    """A bounded arena of reusable staging buffers.

    ``acquire(nbytes)`` returns a ``bytearray`` of at least ``nbytes``
    — preferring an idle pooled buffer (best fit) over allocating, and
    **blocking** when the arena budget is exhausted until ``release``
    returns capacity (the byte-granular half of the pipeline's
    backpressure; the entry semaphore is the count-granular half).

    Liveness rule: a payload larger than the whole arena may allocate
    an oversize buffer, but only while nothing else is in flight (so
    the bound degrades to "one oversize payload at a time" instead of
    deadlocking); oversize buffers are dropped on release rather than
    pooled.  Steady state therefore allocates nothing: the same arena
    bytes stage every checkpoint, which is the allocation-rate fix this
    pool exists for.
    """

    def __init__(self, arena_bytes: int = DEFAULT_ARENA_BYTES) -> None:
        if arena_bytes < 1:
            raise ValueError("arena_bytes must be >= 1")
        self.arena_bytes = arena_bytes
        self._cond = threading.Condition()
        self._free: List[bytearray] = []
        self._allocated = 0  # bytes across free + in-use buffers
        self._in_use = 0  # buffers currently acquired
        # FIFO admission: acquires are granted strictly in arrival
        # order.  Without this, a stream of small acquires that each fit
        # the arena can starve a large (or oversize) acquire forever —
        # capacity frees, a newcomer grabs it first, repeat.  Tickets
        # are monotonically increasing; only the queue head may claim.
        self._waiters: "deque[int]" = deque()
        self._next_ticket = 0
        # Meters (read under the condition lock or after quiescence).
        self.buffers_allocated = 0
        self.buffers_reused = 0
        self.exhaustion_waits = 0

    def _try_acquire(self, nbytes: int):
        """Attempt one allocation under the lock; ``None`` if starved
        (best-fit reuse, evict-then-allocate, oversize liveness rule)."""
        best = None
        for index, buf in enumerate(self._free):
            if len(buf) >= nbytes and (
                best is None or len(buf) < len(self._free[best])
            ):
                best = index
        if best is not None:
            buf = self._free.pop(best)
            self._in_use += 1
            self.buffers_reused += 1
            return buf
        # No reusable buffer: allocate if the budget allows, evicting
        # idle buffers first so the arena bound holds.
        while self._free and self._allocated + nbytes > self.arena_bytes:
            dropped = self._free.pop()
            self._allocated -= len(dropped)
        if (
            self._allocated + nbytes <= self.arena_bytes
            or self._in_use == 0  # oversize liveness rule
        ):
            self._allocated += nbytes
            self._in_use += 1
            self.buffers_allocated += 1
            return bytearray(nbytes)
        return None

    def acquire(self, nbytes: int):
        """Return a buffer of capacity >= ``nbytes`` (blocking, FIFO)."""
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._waiters.append(ticket)
            wait_started: Optional[float] = None
            try:
                while True:
                    if self._waiters[0] == ticket:
                        buffer = self._try_acquire(nbytes)
                        if buffer is not None:
                            return buffer
                    if wait_started is None:
                        self.exhaustion_waits += 1
                        _STAGING_WAITS.inc()
                        wait_started = time.perf_counter()
                    self._cond.wait()
            finally:
                self._waiters.remove(ticket)
                # Wake the next ticket in line (a successful head
                # acquire may have left capacity for it).
                self._cond.notify_all()
                if wait_started is not None:
                    waited_seconds = time.perf_counter() - wait_started
                    _STAGING_WAIT_SECONDS.inc(waited_seconds)
                    if _trace.tracing():
                        end_us = _trace.now_us()
                        _trace.merge_spans(
                            [
                                _trace.complete_span_dict(
                                    "staging-wait",
                                    end_us - int(waited_seconds * 1e6),
                                    end_us,
                                    {"nbytes": nbytes},
                                )
                            ]
                        )

    def release(self, buffer) -> None:
        """Return a buffer to the pool (wakes blocked acquirers)."""
        with self._cond:
            self._in_use -= 1
            if len(buffer) <= self.arena_bytes:
                self._free.append(buffer)
            else:
                self._allocated -= len(buffer)
            self._cond.notify_all()

    @property
    def idle_buffers(self) -> int:
        with self._cond:
            return len(self._free)


class _Staged(NamedTuple):
    """One staged put: the mutation-safe payload plus the pool buffer
    backing it (``None`` when the payload was already immutable)."""

    key: str
    payload: object
    stamp: int
    node: object
    buffer: Optional[bytearray]


class _Batch(NamedTuple):
    """A put_many staged as one unit so the inner backend can amortise
    index maintenance over the whole batch."""

    items: List[_Staged]


class AsyncWriteBackend(CheckpointBackend):
    """Stage serialized entries through a worker thread.

    Parameters
    ----------
    inner:
        The backend that actually stores entries.
    max_pending:
        Queue bound, in entries.  The default comfortably double-buffers
        two checkpoints' worth of entries for the models we run; lower it
        to model tighter staging memory (more backpressure stalls).
    arena_bytes:
        Byte budget of the :class:`StagingPool` the pipeline snapshots
        frame payloads into.  Lower it to model tight staging memory:
        producers block once the arena is full of in-flight payloads.
    scheduler:
        The :class:`~repro.io.scheduler.IOScheduler` persist batches are
        submitted to (``SAVE`` class, on a serial lane so the inner
        store's state stays a prefix of the accepted puts).  Defaults to
        the process-wide scheduler.
    """

    def __init__(
        self,
        inner: CheckpointBackend,
        max_pending: int = 256,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        scheduler: Optional[IOScheduler] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        # No super().__init__(): bytes_read is a delegating property here
        # and must not be shadowed by an instance attribute.
        self.inner = inner
        self.max_pending = max_pending
        self.staging = StagingPool(arena_bytes)
        self.bytes_written = 0  # accepted (staged) payload bytes
        self.put_count = 0
        # Backpressure is accounted per ENTRY (via the semaphore), not
        # per queue item: a staged batch holds one permit per entry, so
        # max_pending bounds staging memory even on the batched path.
        self._slots = threading.Semaphore(max_pending)
        self._closed = False
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()
        # Persist items drain through the shared scheduler on a serial
        # lane: exact submission order, one at a time — the same prefix
        # property the dedicated drain thread used to provide.
        self._scheduler = scheduler if scheduler is not None else get_scheduler()
        self._lane = self._scheduler.lane(f"async-writer-{id(self):x}", 1)
        self._pending_cond = threading.Condition()
        self._unfinished = 0  # submitted-but-unwritten queue items
        self._tasks: "deque[IOTask]" = deque()  # in submission order

    @property
    def digest_chunk_bytes(self) -> int:
        return self.inner.digest_chunk_bytes

    def _sample_queue_depth(self) -> None:
        """Sample the accepted-but-unwritten depth into the gauge pair.

        Called at every enqueue and dequeue so the gauge tracks the
        live depth and the high-water mark records the worst
        backpressure the pipeline built up.
        """
        depth = self._unfinished
        _QUEUE_DEPTH.set(depth)
        _QUEUE_DEPTH_HIGHWATER.set_max(depth)
        _trace_counter("async_queue_depth", depth)

    # -- staging --------------------------------------------------------
    def _stage(self, key: str, payload, stamp: int, node) -> _Staged:
        """Snapshot a payload so the caller may mutate its arrays.

        ``bytes`` are immutable — staged as-is, no copy (they *are* the
        snapshot).  Frame ropes alias live arrays, so they are copied
        once into a pooled buffer; the copy carries the rope's chunk-
        digest cache, so digests computed before staging (the manager's
        delta-save sweep) are never recomputed by the inner backend.
        """
        if isinstance(payload, PayloadFrames) and payload.nbytes:
            buffer = self.staging.acquire(payload.nbytes)
            return _Staged(key, payload.snapshot_into(buffer), stamp, node, buffer)
        return _Staged(key, payload, stamp, node, None)

    def _release(self, item: _Staged) -> None:
        if item.buffer is not None:
            self.staging.release(item.buffer)

    # -- scheduler drain -------------------------------------------------
    def _submit_item(self, item, nbytes: int) -> None:
        """Hand one staged item (or batch) to the scheduler's SAVE lane.

        The byte-budget seam (``iosched:budget-exhausted``) can crash
        the submission before it queues; staged buffers and permits are
        returned before the crash propagates — exactly the put-boundary
        crash the battery models.
        """
        with self._pending_cond:
            self._unfinished += 1
        try:
            task = self._scheduler.submit(
                lambda: self._write_item(item),
                QoS.SAVE,
                nbytes=nbytes,
                label="async-persist",
                lane=self._lane,
                fault=self._seam,
                on_abandon=lambda error, item=item: self._abandon_item(item, error),
            )
        except BaseException:
            # The submission itself failed (budget-seam crash, closed
            # scheduler): the error reaches the caller synchronously,
            # so settle without poisoning the deferred-error channel.
            self._settle_item(item)
            raise
        with self._pending_cond:
            while self._tasks and self._tasks[0].done:
                self._tasks.popleft()
            self._tasks.append(task)
        self._sample_queue_depth()

    def _seam(self, point: str) -> None:
        """Fire scheduler crash seams through whichever hook is armed —
        this layer's own, or (the chaos campaign's case) the decorated
        store's."""
        hook = self.fault_hook or getattr(self.inner, "fault_hook", None)
        if hook is not None:
            hook(point)

    def _write_item(self, item) -> None:
        try:
            # Once a write has failed, discard queued writes instead
            # of executing them: otherwise a later meta/commit entry
            # could become durable over a hole left by the failure,
            # and recovery would trust an incomplete checkpoint.
            # Writing resumes after the error is surfaced (consumed)
            # at a put/flush boundary.
            with self._error_lock:
                poisoned = self._error is not None
            if not poisoned:
                try:
                    if isinstance(item, _Batch):
                        self.inner.put_many_serialized(
                            [(s.key, s.payload, s.stamp, s.node)
                             for s in item.items]
                        )
                    else:
                        self.inner.put_serialized(
                            item.key, item.payload, item.stamp, item.node
                        )
                except BaseException as exc:  # noqa: BLE001 - propagate later
                    with self._error_lock:
                        if self._error is None:
                            self._error = exc
        finally:
            self._settle_item(item)

    def _abandon_item(self, item, error: Optional[BaseException]) -> None:
        """A staged item whose write body will never run (scheduler
        cancel/shutdown, or a dispatch-seam crash): record the error so
        the next barrier surfaces it, then settle as usual."""
        if error is None:
            error = AsyncWriteError("async write abandoned before execution")
        with self._error_lock:
            if self._error is None:
                self._error = error
        self._settle_item(item)

    def _settle_item(self, item) -> None:
        # Buffers and permits return whether the write ran, failed, or
        # was discarded — staging memory can never leak past a fault.
        staged = item.items if isinstance(item, _Batch) else [item]
        for entry in staged:
            self._release(entry)
            self._slots.release()
        with self._pending_cond:
            self._unfinished -= 1
            self._pending_cond.notify_all()
        self._sample_queue_depth()

    def _wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted put has settled.

        Helper-aware: waiting happens through ``IOTask.result()``, so a
        barrier reached *from a scheduler worker thread* (a restore
        task reading through this backend) executes queued tasks while
        it waits instead of deadlocking the pool.  Returns False on
        timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._pending_cond:
                if self._unfinished == 0:
                    self._tasks.clear()
                    return True
                task = self._tasks[0] if self._tasks else None
            if task is None:
                # Settlement is mid-flight on another thread; the count
                # drops as soon as it finishes.
                with self._pending_cond:
                    if self._unfinished:
                        self._pending_cond.wait(0.005)
                continue
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            try:
                task.result(timeout=remaining)
            except TimeoutError:
                return False
            except BaseException:  # noqa: BLE001 - recorded via _error
                pass
            with self._pending_cond:
                if self._tasks and self._tasks[0] is task:
                    self._tasks.popleft()

    def _raise_pending(self) -> None:
        with self._error_lock:
            failed = self._error is not None
        if not failed:
            return
        # Let the drain finish discarding everything staged behind the
        # failure before the error is consumed — clearing it earlier
        # would let stale queued items be written over the hole.
        self._wait_drained()
        with self._error_lock:
            error, self._error = self._error, None
        raise AsyncWriteError("deferred checkpoint write failed") from error

    # -- writes ---------------------------------------------------------
    # put()/put_many() come from the base class: they serialize in the
    # caller's thread and land here with the payload frames.
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("AsyncWriteBackend is closed")

    def put_serialized(self, key: str, payload, stamp: int, node=0) -> int:
        self._check_open()
        self._raise_pending()
        nbytes = len(payload)
        self._slots.acquire()
        self._submit_item(self._stage(key, payload, stamp, node), nbytes)
        self.bytes_written += nbytes
        self.put_count += 1
        return nbytes

    def put_many_serialized(self, items) -> List[int]:
        """Stage batches that the worker hands to
        ``inner.put_many_serialized``, preserving the inner backend's
        batched index maintenance (one journal append per checkpoint,
        not per entry).

        Batches are split on two bounds before staging would block on
        either backpressure valve: ``max_pending`` entries (acquiring
        more permits than exist would deadlock) and half the staging
        arena in bytes — queueing the first half lets the worker drain
        it while the second half stages, and guarantees every buffer a
        blocked ``acquire`` waits on is already visible to the worker.
        """
        self._check_open()
        self._raise_pending()
        sizes: List[int] = []
        byte_budget = max(1, self.staging.arena_bytes // 2)
        staged: List[_Staged] = []
        staged_bytes = 0
        for key, payload, stamp, node in items:
            nbytes = len(payload)
            # Only frame payloads occupy pool buffers; plain bytes are
            # staged as-is and must not trigger a byte-budget split
            # (which would forfeit the inner store's batched index
            # maintenance for nothing).
            pool_bytes = nbytes if isinstance(payload, PayloadFrames) else 0
            if staged and (
                len(staged) >= self.max_pending
                or (pool_bytes and staged_bytes + pool_bytes > byte_budget)
            ):
                self._submit_item(_Batch(staged), sum(len(s.payload) for s in staged))
                staged = []
                staged_bytes = 0
            self._slots.acquire()
            staged.append(self._stage(key, payload, stamp, node))
            staged_bytes += pool_bytes
            self.bytes_written += nbytes
            self.put_count += 1
            sizes.append(nbytes)
        if staged:
            self._submit_item(_Batch(staged), sum(len(s.payload) for s in staged))
        return sizes

    def _barrier(self) -> None:
        """Block until every accepted put is written; raise worker errors.

        A barrier that finds work still queued is a *flush stall* — the
        caller is now paying for write latency the pipeline was hiding.
        Those (and only those) barriers are counted, timed, and traced;
        the common already-drained drain costs one queue check.
        """
        if self._unfinished:
            stall_started = time.perf_counter()
            with _span("async-flush", depth=self._unfinished):
                self._wait_drained()
            _FLUSH_STALLS.inc()
            _FLUSH_STALL_SECONDS.inc(time.perf_counter() - stall_started)
        else:
            self._wait_drained()
        self._raise_pending()

    def flush(self) -> None:
        """Durability barrier: drain the pipeline, then flush the inner
        store.  The inner flush is what lets a decorated tiered backend
        drain its upload queue and apply local retention at a barrier —
        reads use :meth:`_barrier` instead, so a ``get`` never pays for
        (or triggers) the inner store's own barrier work.
        """
        self._barrier()
        self.inner.flush()

    def pending(self) -> int:
        """Entries accepted but not yet written (approximate)."""
        return self._unfinished

    def close(self) -> None:
        """Flush, release the scheduler lane, and close the inner
        backend.

        Further writes raise ``RuntimeError`` (they would otherwise
        queue with no consumer and deadlock the next flush)."""
        self._closed = True
        self._wait_drained()
        self._scheduler.release_lane(self._lane.name)
        self.inner.close()
        self._raise_pending()

    def abort(self) -> None:
        """Stop the pipeline *without* flushing — simulated process death.

        The deferred-error channel is poisoned first, so every queued
        item the scheduler subsequently drains *discards* itself (its
        staging buffer returns to the arena) instead of writing — the
        inner backend is left exactly as the drain left it; ``close``
        would first make every accepted write durable, which is
        precisely what a dying process cannot do.  The chaos campaign
        uses this to abandon an async instance after an injected crash
        without leaking a staging arena per run.  Idempotent; never
        raises the deferred write error (the "process" is dead —
        recovery learns the truth from reopen + fsck).
        """
        self._closed = True
        with self._error_lock:
            if self._error is None:
                self._error = AsyncWriteError("aborted")
        self._wait_drained(timeout=10.0)
        self._scheduler.release_lane(self._lane.name)

    def __enter__(self) -> "AsyncWriteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reads (flush-first so readers see all accepted writes) ---------
    @property
    def bytes_read(self) -> int:
        return self.inner.bytes_read

    def _write(self, key: str, payload, stamp: int, node) -> None:
        raise AssertionError("unused: put/put_serialized are overridden")

    def _read(self, key: str) -> bytes:
        raise AssertionError("unused: get is overridden")

    def get(self, key: str, copy: bool = True) -> Dict[str, np.ndarray]:
        self._barrier()
        return self.inner.get(key, copy=copy)

    def stamp_of(self, key: str) -> int:
        self._barrier()
        return self.inner.stamp_of(key)

    def nbytes_of(self, key: str) -> int:
        self._barrier()
        return self.inner.nbytes_of(key)

    def has(self, key: str) -> bool:
        self._barrier()
        return self.inner.has(key)

    def keys(self) -> List[str]:
        self._barrier()
        return self.inner.keys()

    def total_bytes(self) -> int:
        self._barrier()
        return self.inner.total_bytes()

    def delete(self, key: str) -> None:
        self._barrier()
        self.inner.delete(key)

    def delete_many(self, keys: Sequence[str]) -> None:
        self._barrier()
        self.inner.delete_many(keys)
