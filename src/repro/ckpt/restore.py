"""Parallel restore pipeline: worker-pool reads over ``CheckpointBackend.get``.

The write path got its async double-buffered pipeline in the backend
refactor; this is the read-side counterpart.  Recovery — especially the
elastic resharded resume, where every entry of the model must come back
from the persist tier — is dominated by per-entry read latency on real
storage (networked FS, object store).  :class:`ParallelRestorer` drains a
sequence of read requests through a bounded worker pool, preserving the
caller's *prefetch order* (requests are submitted in the given order, so
interleaving reads per target rank keeps every rank's restore stream
progressing), and returns the fetched entries plus wall-clock stats.

Restore now has profiling parity with save: each fetch builds a
:class:`RestoreProfile` — a per-worker-lane breakdown (entries, bytes,
busy vs. stall seconds) — carried on :class:`RestoreStats` and rendered
by ``demo --profile``.  A *stall* is lane wall time not spent inside
``get``: time the lane sat waiting for work to be scheduled to it
(prefetch starvation) rather than reading.

The pool relies only on the backend contract: ``get`` must be safe to
call concurrently with other reads (and with a concurrent ``put_many``
writer for *unrelated* keys) — pinned by the concurrent-reader cases in
``tests/test_backend_contract.py``.  Byte meters stay exact because the
backend base class serializes meter updates.

``workers=1`` degenerates to a plain serial loop with no thread-pool
overhead, which is also the path used when comparing serial vs parallel
restore wall-clock in ``benchmarks/bench_restore_parallel.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..io.scheduler import IOScheduler, QoS, get_scheduler
from ..obs.trace import span as _span
from .backend import CheckpointBackend


@dataclass(frozen=True)
class ReadRequest:
    """One entry to fetch from one backend (tier already resolved)."""

    key: str
    store: CheckpointBackend


@dataclass(frozen=True)
class LaneProfile:
    """One reader lane's share of a restore drain."""

    lane: int
    entries: int
    payload_bytes: int
    busy_seconds: float  # summed time inside store.get / nbytes_of
    wall_seconds: float  # first request start -> last request end

    @property
    def stall_seconds(self) -> float:
        """Lane wall time spent waiting for work, not reading."""
        return max(0.0, self.wall_seconds - self.busy_seconds)


@dataclass(frozen=True)
class RestoreProfile:
    """Per-worker breakdown of one restore drain (save-profile parity)."""

    lanes: Tuple[LaneProfile, ...]

    @property
    def busy_seconds(self) -> float:
        return sum(lane.busy_seconds for lane in self.lanes)

    @property
    def stall_seconds(self) -> float:
        return sum(lane.stall_seconds for lane in self.lanes)


@dataclass(frozen=True)
class RestoreStats:
    """What one restore drain cost."""

    entries: int
    payload_bytes: int
    workers: int
    wall_seconds: float
    profile: Optional[RestoreProfile] = None


class _LaneRecorder:
    """Accumulates per-read timings during one fetch.

    Lanes are *virtual concurrency slots*, not thread identities: reads
    now run on the shared I/O scheduler's pooled workers, so one
    restore's requests may touch more distinct threads than its
    ``workers`` bound even though at most ``workers`` are ever in
    flight.  ``profile()`` packs the recorded read intervals greedily
    (classic interval partitioning), which reconstructs exactly the
    occupancy picture the old one-thread-per-lane pool produced: lane
    count == peak read concurrency <= ``workers``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reads: List[Tuple[float, float, int]] = []

    def record(self, start: float, end: float, nbytes: int) -> None:
        with self._lock:
            self._reads.append((start, end, nbytes))

    def profile(self) -> RestoreProfile:
        with self._lock:
            ordered = sorted(self._reads)
        # [entries, bytes, busy, first_start, last_end] per virtual lane.
        slots: List[List[float]] = []
        for start, end, nbytes in ordered:
            best = None
            for index, slot in enumerate(slots):
                if slot[4] <= start and (best is None or slot[4] > slots[best][4]):
                    best = index
            if best is None:
                slots.append([1.0, float(nbytes), end - start, start, end])
            else:
                slot = slots[best]
                slot[0] += 1
                slot[1] += nbytes
                slot[2] += end - start
                slot[4] = max(slot[4], end)
        lanes = []
        for index, slot in enumerate(sorted(slots, key=lambda slot: slot[3])):
            lanes.append(
                LaneProfile(
                    lane=index,
                    entries=int(slot[0]),
                    payload_bytes=int(slot[1]),
                    busy_seconds=slot[2],
                    wall_seconds=slot[4] - slot[3],
                )
            )
        return RestoreProfile(lanes=tuple(lanes))


class ParallelRestorer:
    """Fetch checkpoint entries through a bounded reader pool.

    ``copy=False`` decodes entries as zero-copy ``frombuffer`` views
    over the read payloads — no per-field allocation on the restore
    path.  The views inherit the payload buffer's mutability (read-only
    for ``bytes``), so callers that hand arrays to training must route
    them through a writability guard: the manager's entry loader copies
    into the optimizer's own arrays, and standalone consumers can use
    :func:`repro.ckpt.serializer.writable_entry`.

    Reads run as ``RESTORE``-class tasks on the shared
    :class:`~repro.io.scheduler.IOScheduler` — the highest QoS class,
    so a recovery drain preempts queued saves/uploads for free workers
    instead of fighting a private pool for cores.  ``workers`` bounds
    this restorer's fan-out via a scheduler lane; no thread is ever
    created per ``fetch`` call (the historical per-call
    ``ThreadPoolExecutor`` churn).
    """

    def __init__(
        self,
        workers: int = 4,
        copy: bool = True,
        scheduler: Optional[IOScheduler] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.copy = copy
        self._scheduler = scheduler

    def fetch(
        self, requests: Iterable[ReadRequest]
    ) -> Tuple[Dict[str, Dict[str, np.ndarray]], RestoreStats]:
        """Read every request; returns ``(entries_by_key, stats)``.

        Requests are consumed in order — pass them in per-rank prefetch
        order so every rank's stream is serviced fairly.  A missing key
        raises the backend's ``KVStoreError`` (the first failure wins;
        remaining in-flight reads are drained).
        """
        request_list = list(requests)
        recorder = _LaneRecorder()

        def pull(request: ReadRequest) -> Tuple[Dict[str, np.ndarray], int]:
            start = time.perf_counter()
            with _span("restore-read", key=request.key):
                entry = request.store.get(request.key, copy=self.copy)
                nbytes = request.store.nbytes_of(request.key)
            recorder.record(start, time.perf_counter(), nbytes)
            return entry, nbytes

        begin = time.perf_counter()
        entries: Dict[str, Dict[str, np.ndarray]] = {}
        payload_bytes = 0
        if self.workers == 1 or len(request_list) <= 1:
            for request in request_list:
                entries[request.key], nbytes = pull(request)
                payload_bytes += nbytes
        else:
            scheduler = self._scheduler if self._scheduler is not None else get_scheduler()
            lane = scheduler.lane(f"restore-{id(self):x}", self.workers)
            first_error: Optional[BaseException] = None
            try:
                tasks = [
                    (
                        request.key,
                        scheduler.submit(
                            lambda request=request: pull(request),
                            QoS.RESTORE,
                            label="restore-read",
                            lane=lane,
                        ),
                    )
                    for request in request_list
                ]
                # First failure wins; remaining in-flight reads drain.
                for key, task in tasks:
                    try:
                        entries[key], nbytes = task.result()
                        payload_bytes += nbytes
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        if first_error is None:
                            first_error = exc
            finally:
                scheduler.release_lane(lane.name)
            if first_error is not None:
                raise first_error
        wall = time.perf_counter() - begin
        return entries, RestoreStats(
            entries=len(request_list),
            payload_bytes=payload_bytes,
            workers=self.workers,
            wall_seconds=wall,
            profile=recorder.profile(),
        )
