"""Multi-process chunk hash/compress engine — escaping the GIL.

PR 4 drove the save path to one SHA-256 pass and at most one staging
copy per persisted byte, but every pass still ran on a single
interpreter thread.  This module fans the *chunk-granularity* work —
SHA-256 digests, chunk compression, and decompression on restore — out
to per-core worker processes, communicating through shared memory so
payload bytes are **never pickled**:

.. code-block:: text

      caller thread, per window of a batch         worker processes
   ┌──────────────────────────┐        ┌───────────────────────────┐
   │ serialize → frame ropes  │        │  attach(arena) once       │
   │ snapshot_into(SharedSlice)──────▶ │                           │
   │      (the ONE copy)      │ tasks  │  view = arena[off:off+n]  │
   │ digest round: submit all │        │                           │
   │   (seg, off, len) spans ─┼──────▶ │  sha256 over chunk slices │
   │   then collect once      │ ◀──────┼─ digests, bytes hashed    │
   │ encode round: submit all │        │                           │
   │   novel chunks ──────────┼──────▶ │  codec.encode → out region│
   │   then collect once      │ ◀──────┼─ (rel_off, enc_len, raw,  │
   │ fold counts into meters  │results │    cpu_s, bytes counted)  │
   │ write chunk files / refs │        └───────────────────────────┘
   └──────────────────────────┘

Components
----------
* :class:`SharedStagingPool` — the :class:`~repro.ckpt.async_writer.
  StagingPool` generalized to a ``multiprocessing.shared_memory`` arena.
  ``acquire`` returns a :class:`SharedSlice` whose :class:`SharedRegion`
  is a picklable (segment, offset, nbytes) address; the FIFO admission
  discipline (and its starvation fix) is inherited from the base pool.
* :class:`ChunkWorkerPool` — a lazily started pool of worker processes
  consuming digest/encode/decode tasks from a queue.  Workers report
  per-task CPU seconds and byte counts so :class:`~repro.ckpt.
  serializer.PipelineMeters` invariants (1 hash pass, ≤1 staging copy,
  ≤1 compression pass per persisted byte) stay *measured* across the
  process boundary.
* :class:`ParallelChunkEngine` — the orchestrator the dedup backend
  calls once per round of a window (a run of one batch's payloads):
  stages each payload once, splits the window's chunks across workers
  by bytes, seeds each rope's digest cache with the results, and hands
  back framed encoded chunk bodies for exactly the novel chunks being
  persisted.  Every worker is busy on a window's chunks at once,
  instead of one worker on one small entry at a time.

Graceful degradation
--------------------
Worker-pool spawn failure, a worker killed mid-chunk, and a poisoned
(unlinked / corrupted) shared-memory segment all degrade the same way:
the engine emits a :class:`RuntimeWarning`, disables itself, and the
caller recomputes in-process — a checkpoint may save slower, never
corrupt.  The crash-injection suite pins each of these seams.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import queue as queue_module
import threading
import time
import warnings
import weakref
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs import trace as _trace
from ..obs.metrics import get_registry
from .async_writer import DEFAULT_ARENA_BYTES, StagingPool
from .codec import ChunkCodec, encode_chunk_file, make_chunk_codec
from .serializer import PayloadFrames

try:  # pragma: no cover - stdlib, but keep tier-1 importable anywhere
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

#: Default worker count when the caller asks for "auto".
DEFAULT_WORKERS = max(1, (os.cpu_count() or 1))

#: How long the collector waits without a result before checking worker
#: liveness, and the absolute per-batch deadline before declaring the
#: pool wedged.  Generous: a loaded CI box must never trip it.
_HEARTBEAT_SECONDS = 0.5
_DEADLINE_SECONDS = 300.0

# Pool-health instruments, re-homed from implicit bookkeeping onto the
# process-wide registry so heartbeat/deadline behaviour is observable.
_POOL_TASKS = get_registry().counter(
    "moc_worker_tasks_total", "Tasks submitted to the chunk worker pool",
    labelnames=("kind",),
)
_POOL_HEARTBEAT_TIMEOUTS = get_registry().counter(
    "moc_worker_heartbeat_timeouts_total",
    "Collector heartbeat intervals that elapsed without a result",
)
_POOL_DEADLINE_EXCEEDED = get_registry().counter(
    "moc_worker_deadline_exceeded_total", "Batches that hit the wedge deadline"
)
_POOL_WORKER_DEATHS = get_registry().counter(
    "moc_worker_deaths_total", "Worker processes observed dead mid-batch"
)
_POOL_DEGRADATIONS = get_registry().counter(
    "moc_worker_pool_degradations_total",
    "Engine fallbacks to in-process execution after a pool failure",
)


class WorkerPoolError(RuntimeError):
    """The worker pool failed (spawn, death, or poisoned segment)."""


#: Every live shared-memory owner (staging pools and scratch segments)
#: registers here so one atexit sweep can unlink whatever a process
#: failed to close.  ``__del__`` alone is GC-timing dependent: a pool
#: still referenced from an abandoned store instance at interpreter
#: shutdown would leak its ``/dev/shm`` segments to the machine.
_LIVE_SEGMENT_OWNERS: "weakref.WeakSet" = weakref.WeakSet()


def _cleanup_segments_at_exit() -> None:  # pragma: no cover - exit path
    for owner in list(_LIVE_SEGMENT_OWNERS):
        try:
            owner.close()
        except Exception:
            pass


atexit.register(_cleanup_segments_at_exit)


class SharedRegion(NamedTuple):
    """Picklable address of staged bytes inside a shared-memory segment."""

    segment: str
    offset: int
    nbytes: int


class SharedSlice:
    """A carved extent of a :class:`SharedStagingPool` arena.

    Duck-compatible with the pooled ``bytearray`` where it matters:
    ``len()`` works and :meth:`PayloadFrames.snapshot_into` copies into
    ``.view``.  ``.region`` is the cross-process address workers attach.
    """

    __slots__ = ("region", "view")

    def __init__(self, region: SharedRegion, view: memoryview) -> None:
        self.region = region
        self.view = view

    def __len__(self) -> int:
        return self.region.nbytes


class SharedStagingPool(StagingPool):
    """A :class:`StagingPool` whose arena lives in shared memory.

    One ``multiprocessing.shared_memory`` segment backs the whole arena
    (created lazily on first acquire); ``acquire`` carves extents from a
    first-fit free list instead of handing out heap ``bytearray``\\ s.
    Payloads larger than the arena follow the same oversize liveness
    rule as the base pool, each in a dedicated throwaway segment.
    Blocking, FIFO admission, and the meters all come from the base
    class — only the storage substrate changes.

    Meter mapping: ``buffers_reused`` counts arena carves (steady
    state), ``buffers_allocated`` counts segment creations (the arena
    itself plus any oversize segments).
    """

    def __init__(self, arena_bytes: int = DEFAULT_ARENA_BYTES) -> None:
        if shared_memory is None:  # pragma: no cover - ancient stdlib only
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        super().__init__(arena_bytes)
        self._shm: Optional["shared_memory.SharedMemory"] = None
        self._arena_view: Optional[memoryview] = None
        # Sorted (offset, size) free extents of the arena.
        self._extents: List[List[int]] = []
        # Live oversize segments: name -> SharedMemory.
        self._oversize: Dict[str, "shared_memory.SharedMemory"] = {}
        self._closed = False
        _LIVE_SEGMENT_OWNERS.add(self)

    # -- substrate ------------------------------------------------------
    def _ensure_arena(self) -> None:
        if self._shm is None:
            if self._closed:
                raise RuntimeError("SharedStagingPool is closed")
            self._shm = shared_memory.SharedMemory(create=True, size=self.arena_bytes)
            self._arena_view = memoryview(self._shm.buf)
            self._extents = [[0, self.arena_bytes]]
            self.buffers_allocated += 1

    @property
    def segment_name(self) -> Optional[str]:
        return self._shm.name if self._shm is not None else None

    def _try_acquire(self, nbytes: int):
        if self._closed:
            raise RuntimeError("SharedStagingPool is closed")
        nbytes = max(1, nbytes)
        if nbytes > self.arena_bytes:
            if self._in_use != 0:
                return None  # oversize liveness rule (see base class)
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
            self._oversize[segment.name] = segment
            self._in_use += 1
            self.buffers_allocated += 1
            region = SharedRegion(segment.name, 0, nbytes)
            return SharedSlice(region, memoryview(segment.buf)[:nbytes])
        self._ensure_arena()
        for index, (offset, size) in enumerate(self._extents):
            if size >= nbytes:
                if size == nbytes:
                    self._extents.pop(index)
                else:
                    self._extents[index] = [offset + nbytes, size - nbytes]
                self._in_use += 1
                self.buffers_reused += 1
                region = SharedRegion(self._shm.name, offset, nbytes)
                return SharedSlice(region, self._arena_view[offset:offset + nbytes])
        return None

    def release(self, buffer: SharedSlice) -> None:
        with self._cond:
            self._in_use -= 1
            region = buffer.region
            try:
                # Drop the slice's memoryview so the segment can really
                # close; a rope still holding sub-views is tolerated
                # (the mapping then lives until those views die).
                buffer.view.release()
            except BufferError:  # pragma: no cover - exported sub-views
                pass
            if region.segment in self._oversize:
                segment = self._oversize.pop(region.segment)
                _close_segment(segment, unlink=True)
            else:
                self._free_extent(region.offset, region.nbytes)
            self._cond.notify_all()

    def _free_extent(self, offset: int, size: int) -> None:
        """Insert a freed extent, coalescing with its neighbours."""
        extents = self._extents
        index = 0
        while index < len(extents) and extents[index][0] < offset:
            index += 1
        extents.insert(index, [offset, size])
        # Coalesce with successor, then predecessor.
        if index + 1 < len(extents) and offset + size == extents[index + 1][0]:
            extents[index][1] += extents[index + 1][1]
            extents.pop(index + 1)
        if index > 0 and extents[index - 1][0] + extents[index - 1][1] == offset:
            extents[index - 1][1] += extents[index][1]
            extents.pop(index)

    @property
    def idle_buffers(self) -> int:
        with self._cond:
            return len(self._extents)

    @property
    def arena_in_use(self) -> int:
        with self._cond:
            if self._shm is None:
                return 0
            return self.arena_bytes - sum(size for _, size in self._extents)

    def close(self) -> None:
        """Unlink every segment.  Safe to call more than once."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for segment in self._oversize.values():
                _close_segment(segment, unlink=True)
            self._oversize.clear()
            if self._arena_view is not None:
                self._arena_view.release()
                self._arena_view = None
            if self._shm is not None:
                _close_segment(self._shm, unlink=True)
                self._shm = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def _close_segment(segment, unlink: bool) -> None:
    """Close (and optionally unlink) a segment, tolerating exported views.

    ``SharedMemory.close`` raises ``BufferError`` while any memoryview
    into the mapping is still alive; a lingering read-only rope view is
    harmless (the mapping just lives until process exit), so the unlink
    — which actually frees the name — must still happen.
    """
    try:
        segment.close()
    except BufferError:
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def _reap_processes(procs: Sequence[multiprocessing.Process], grace_seconds: float) -> None:
    """Tear worker processes down with bounded escalation.

    ``terminate()`` (SIGTERM) → ``join(grace)`` → ``kill()`` (SIGKILL,
    uncatchable) → ``join(grace)``.  A worker that masks or ignores
    SIGTERM therefore cannot wedge teardown past ``2 * grace_seconds``;
    without the kill step it would linger as a zombie holding the
    half-closed queues forever.
    """
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        if proc.pid is not None:
            proc.join(timeout=grace_seconds)
    survivors = [proc for proc in procs if proc.is_alive()]
    for proc in survivors:
        kill = getattr(proc, "kill", None)  # Process.kill is 3.7+
        if kill is not None:
            kill()
        else:  # pragma: no cover - ancient stdlib only
            proc.terminate()
    for proc in survivors:
        proc.join(timeout=grace_seconds)


def _attach_segment(cache: Dict[str, "shared_memory.SharedMemory"], name: str):
    """Worker-side attach with caching and resource-tracker hygiene."""
    segment = cache.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name, create=False)
        # NB: attaching re-registers the name with the resource tracker,
        # but workers share the parent's tracker process (its fd is
        # inherited under fork and passed explicitly under spawn) and
        # the tracker's cache is a set — the re-register is a no-op and
        # the parent's close/unlink stays the single cleanup point.
        # Unregistering here would strip the parent's registration.
        cache[name] = segment
    return segment


def _chunk_range_bytes(length: int, chunk_bytes: int, start: int, stop: int) -> Tuple[int, int]:
    """Byte span of chunk indices [start, stop) in a payload of ``length``."""
    return start * chunk_bytes, min(length, stop * chunk_bytes)


def _digest_spans(units) -> Tuple[List[list], List[int]]:
    """Merge ``(owner, region, chunk index, _)`` units — in owner, then
    index order — into one ``[segment, offset, length, start, stop]``
    digest span per run of an owner's chunks, plus each span's owner."""
    spans: List[list] = []
    owners: List[int] = []
    for owner, region, index, _ in units:
        if owners and owners[-1] == owner:
            spans[-1][4] = index + 1
        else:
            spans.append([region.segment, region.offset, region.nbytes, index, index + 1])
            owners.append(owner)
    return spans, owners


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(tasks, results, codec_spec, dict_dir) -> None:
    """Worker loop: digest / encode / decode tasks over shared memory.

    Payload bytes are only ever read through attached segments; the
    queues carry addresses, digests, and (for restore) compressed
    chunks.  Every result includes the CPU seconds and byte counts the
    engine folds back into the main process's meters — and a completed
    span dict (wall time, worker pid/tid) the engine merges into the
    tracer when tracing is on, so worker activity lands on its own
    pid/tid track in the exported timeline.
    """
    codec: Optional[ChunkCodec] = None
    if codec_spec is not None:
        codec = make_chunk_codec(
            codec_spec["name"], codec_spec["level"], codec_spec["dictionary"]
        )
    attachments: Dict[str, "shared_memory.SharedMemory"] = {}
    decode_cache: Dict[tuple, ChunkCodec] = {}

    def load_dictionary(digest: str) -> bytes:
        if not dict_dir:
            raise KeyError(digest)
        with open(os.path.join(dict_dir, digest), "rb") as handle:
            return handle.read()

    while True:
        task = tasks.get()
        if task is None:
            break
        kind, task_id = task[0], task[1]
        started = time.process_time()
        started_us = _trace.now_us()

        def task_span(nbytes: int) -> List[dict]:
            return [
                _trace.complete_span_dict(
                    f"worker-{kind}",
                    started_us,
                    _trace.now_us(),
                    {"task_id": task_id, "bytes": nbytes},
                )
            ]

        try:
            if kind == "digest":
                # spans: (segment, offset, length, start, stop) chunk
                # ranges, possibly of several payloads.
                _, _, chunk_bytes, spans = task
                parts = []
                for name, offset, length, start, stop in spans:
                    segment = _attach_segment(attachments, name)
                    lo, hi = _chunk_range_bytes(length, chunk_bytes, start, stop)
                    view = segment.buf[offset + lo:offset + hi]
                    digests = []
                    for pos in range(0, max(1, hi - lo), chunk_bytes) if hi > lo else [0]:
                        chunk = view[pos:pos + chunk_bytes]
                        digests.append(hashlib.sha256(chunk).hexdigest())
                    view.release()
                    parts.append((digests, hi - lo))
                cpu = time.process_time() - started
                hashed = sum(nbytes for _, nbytes in parts)
                results.put(("digest", task_id, parts, cpu, task_span(hashed)))
            elif kind == "encode":
                # chunks: (segment, offset, length, index), possibly of
                # several payloads; bodies are packed into the out region.
                _, _, chunk_bytes, chunks, out_name, out_offset = task
                out_segment = _attach_segment(attachments, out_name)
                entries = []
                raw_in = 0
                cursor = 0
                for name, offset, length, index in chunks:
                    segment = _attach_segment(attachments, name)
                    lo, hi = _chunk_range_bytes(length, chunk_bytes, index, index + 1)
                    chunk = segment.buf[offset + lo:offset + hi]
                    encoded = encode_chunk_file(codec, [chunk]) if codec else None
                    raw_in += hi - lo
                    if encoded is None:
                        entries.append((-1, 0, hi - lo))
                    else:
                        out_segment.buf[out_offset + cursor:
                                        out_offset + cursor + len(encoded)] = encoded
                        entries.append((cursor, len(encoded), hi - lo))
                        cursor += len(encoded)
                    chunk.release()
                cpu = time.process_time() - started
                results.put(("encode", task_id, entries, cpu, task_span(raw_in)))
            elif kind == "decode":
                _, _, blobs = task
                from .codec import decode_chunk_file

                raws = [decode_chunk_file(blob, load_dictionary, decode_cache)
                        for blob in blobs]
                cpu = time.process_time() - started
                nbytes = sum(len(raw) for raw in raws)
                results.put(("decode", task_id, raws, cpu, task_span(nbytes)))
            else:
                results.put(("error", task_id, f"unknown task kind {kind!r}"))
        except Exception as exc:  # noqa: BLE001 - reported to the engine
            try:
                results.put(("error", task_id, f"{type(exc).__name__}: {exc}"))
            except Exception:  # pragma: no cover - result queue gone
                break
    for segment in attachments.values():  # pragma: no cover - exit path
        try:
            segment.close()
        except BufferError:
            pass


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


class ChunkWorkerPool:
    """A small process pool speaking the digest/encode/decode protocol.

    Lazily started; ``process_batch`` submits a list of tasks and
    gathers their results, raising :class:`WorkerPoolError` when a
    worker dies, reports an error, or the pool cannot start at all —
    the engine catches that and falls back in-process.
    """

    def __init__(
        self,
        workers: int,
        codec_spec: Optional[Dict[str, object]] = None,
        dict_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.codec_spec = codec_spec
        self.dict_dir = dict_dir
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._tasks = None
        self._results = None
        self._procs: List[multiprocessing.Process] = []
        self._next_id = 0
        self._started = False
        self._closed = False
        # Several threads may collect at once (restore lanes over one
        # store) while all results arrive on one queue.  One collector at
        # a time reads the queue and files every result here by task id;
        # the others wait on the condition for theirs.
        self._submit_lock = threading.Lock()
        self._mail = threading.Condition()
        self._mailbox: Dict[int, tuple] = {}
        self._reading = False

    # -- lifecycle ------------------------------------------------------
    def _spawn_one(self) -> multiprocessing.Process:
        """Start one worker (the seam degradation tests patch)."""
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results, self.codec_spec, self.dict_dir),
            name="ckpt-chunk-worker",
            daemon=True,
        )
        with warnings.catch_warnings():
            # Python 3.12+ deprecation-warns fork in multi-threaded
            # processes; the forked child only runs _worker_main, which
            # touches nothing inherited, so the classic pattern is safe.
            warnings.simplefilter("ignore", DeprecationWarning)
            proc.start()
        return proc

    def start(self) -> None:
        if self._started:
            return
        if self._closed:
            raise WorkerPoolError("pool is closed")
        try:
            self._tasks = self._ctx.Queue()
            self._results = self._ctx.Queue()
            self._procs = [self._spawn_one() for _ in range(self.workers)]
        except Exception as exc:
            self._abort()
            raise WorkerPoolError(f"worker pool failed to start: {exc}") from exc
        self._started = True

    def alive(self) -> int:
        return sum(1 for proc in self._procs if proc.is_alive())

    def _abort(self) -> None:
        _reap_processes(self._procs, grace_seconds=5.0)
        self._procs = []
        for q in (self._tasks, self._results):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._tasks = self._results = None
        self._started = False
        with self._mail:
            self._mailbox.clear()
            self._mail.notify_all()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._started:
            try:
                for _ in self._procs:
                    self._tasks.put(None)
                for proc in self._procs:
                    proc.join(timeout=5)
            except Exception:  # pragma: no cover - queues already broken
                pass
            # _abort escalates terminate → join → kill → join for any
            # worker that ignored the sentinel (or masks SIGTERM).
            self._abort()

    # -- batched request/response --------------------------------------
    def submit(self, kind: str, *payload) -> int:
        with self._submit_lock:
            self.start()
            task_id = self._next_id
            self._next_id += 1
            self._tasks.put((kind, task_id) + payload)
        _POOL_TASKS.labels(kind=kind).inc()
        return task_id

    def collect(self, task_ids: Sequence[int]) -> Dict[int, tuple]:
        """Gather results for ``task_ids``, watching worker liveness.

        Safe under concurrent callers: whoever holds the queue files
        every result it reads into the mailbox, including other callers'
        results, and wakes them.
        """
        pending = set(task_ids)
        gathered: Dict[int, tuple] = {}
        deadline = time.monotonic() + _DEADLINE_SECONDS
        while True:
            with self._mail:
                for task_id in pending.intersection(self._mailbox):
                    result = self._mailbox.pop(task_id)
                    if result[0] == "error":
                        raise WorkerPoolError(f"worker task failed: {result[2]}")
                    gathered[task_id] = result
                pending.difference_update(gathered)
                if not pending:
                    return gathered
                # Deadline every iteration: other callers' results keep
                # arriving, so checking only on an empty queue could spin.
                if time.monotonic() > deadline:
                    _POOL_DEADLINE_EXCEEDED.inc()
                    raise WorkerPoolError("worker pool wedged: batch deadline exceeded")
                if self._reading:
                    self._mail.wait(_HEARTBEAT_SECONDS)
                    continue
                results = self._results
                if results is None:
                    raise WorkerPoolError("pool is closed")
                self._reading = True
            result = None
            try:
                result = results.get(timeout=_HEARTBEAT_SECONDS)
            except queue_module.Empty:
                pass
            except (OSError, ValueError) as exc:  # closed under us
                raise WorkerPoolError(f"result queue failed: {exc}") from exc
            finally:
                with self._mail:
                    self._reading = False
                    if result is not None:
                        self._mailbox[result[1]] = result
                    self._mail.notify_all()
            if result is None:
                _POOL_HEARTBEAT_TIMEOUTS.inc()
                if self.alive() < len(self._procs):
                    _POOL_WORKER_DEATHS.inc(len(self._procs) - self.alive())
                    raise WorkerPoolError(
                        f"worker died mid-batch ({self.alive()}/{len(self._procs)} alive)"
                    )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class _ScratchSegment:
    """A one-shot output segment for encode results.

    Used when the staging arena cannot lend an output region without
    blocking (the input region already occupies it) — a dedicated
    segment avoids the self-deadlock a blocking acquire would be.
    """

    def __init__(self, nbytes: int) -> None:
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self.region = SharedRegion(self._shm.name, 0, nbytes)
        self._view: Optional[memoryview] = None
        self._closed = False
        _LIVE_SEGMENT_OWNERS.add(self)

    def view(self) -> memoryview:
        if self._view is None:
            self._view = memoryview(self._shm.buf)
        return self._view

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._view is not None:
            try:
                self._view.release()
            except BufferError:  # pragma: no cover - exported sub-views
                pass
            self._view = None
        _close_segment(self._shm, unlink=True)


class ParallelChunkEngine:
    """Fan chunk digest/encode/decode work out to worker processes.

    The dedup backend drives it per *window* — a run of a batch's
    payloads — with one pool round trip per step, however many payloads
    the window holds:

    1. :meth:`chunk_digests` — stage each payload into shared memory if
       it is not already there (the async pipeline's staging copy lands
       in the same pool, so usually it is), split the window's chunks
       across workers by bytes, and seed each rope's digest cache with
       the results.  Payloads whose digests are already cached (the
       manager's delta-save sweep) cost nothing — one hash pass,
       wherever it runs.
    2. :meth:`encode_chunks` — compress exactly the novel chunk indices
       of every job into one output region; returns framed encoded file
       bodies (or ``None`` per chunk for incompressible ones).
    3. :meth:`finish` — release any staging the engine acquired for a
       payload.

    Any failure — spawn, worker death, poisoned segment — disables the
    engine with a :class:`RuntimeWarning`; callers observe ``None`` /
    a cold cache and recompute in-process.  Correctness never depends
    on the pool.
    """

    def __init__(
        self,
        workers: int,
        codec: Optional[ChunkCodec] = None,
        staging: Optional[SharedStagingPool] = None,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        dict_dir: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.codec = codec
        self.staging = staging if staging is not None else SharedStagingPool(arena_bytes)
        self._owns_staging = staging is None
        self.enabled = True
        self.fallback_reason: Optional[str] = None
        self.pool = ChunkWorkerPool(
            workers,
            codec_spec=codec.spec() if codec is not None else None,
            dict_dir=dict_dir,
            start_method=start_method,
        )
        # Payloads the engine staged itself (sync path): id -> slice.
        self._staged: Dict[int, SharedSlice] = {}
        # Aggregate worker-side accounting (inspectable by tests/bench).
        self.worker_cpu_seconds = 0.0
        self.tasks_dispatched = 0

    @staticmethod
    def _merge_worker_spans(wspans) -> None:
        """Fold a task's worker-side spans into the tracer (if tracing)."""
        if wspans and _trace.tracing():
            _trace.merge_spans(wspans)

    # -- degradation ----------------------------------------------------
    def _disable(self, what: str, exc: Exception) -> None:
        self.enabled = False
        self.fallback_reason = f"{what}: {exc}"
        _POOL_DEGRADATIONS.inc()
        warnings.warn(
            f"parallel save engine disabled ({what}: {exc}); "
            f"falling back to the in-process save path",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            self.pool.close()
        except Exception:  # pragma: no cover - best effort
            pass

    def _plan(
        self, n_items: int, sizes: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, int]]:
        """Split ``n_items`` into ≤workers non-empty contiguous index
        ranges of near-equal total ``sizes`` (one unit per item if
        omitted).  No items, no ranges."""
        tasks = min(self.workers, n_items)
        if tasks <= 0:
            return []
        if sizes is None:
            sizes = [1] * n_items
        total = sum(sizes)
        ranges: List[Tuple[int, int]] = []
        start = filled = 0
        for index, size in enumerate(sizes):
            filled += size
            cuts_left = tasks - 1 - len(ranges)
            if (
                cuts_left
                and n_items - index - 1 >= cuts_left
                and filled * tasks >= total * (len(ranges) + 1)
            ):
                ranges.append((start, index + 1))
                start = index + 1
        ranges.append((start, n_items))
        return ranges

    # -- staging --------------------------------------------------------
    def _region_of(self, payload: PayloadFrames) -> Optional[SharedRegion]:
        """Address of the payload in shared memory, staging if needed.

        Payloads that came through the async pipeline's
        :class:`SharedStagingPool` already carry a region (zero extra
        copies); the sync path stages here — the one staging copy the
        meter budget allows.  ``None`` when the arena is contended (not
        worth blocking for) or poisoned (the engine is then disabled).
        """
        if payload.region is not None:
            return payload.region
        try:
            slice_ = self.staging.try_acquire(payload.nbytes)
            if slice_ is None:
                return None
            staged = payload.snapshot_into(slice_)  # counts bytes_copied
        except Exception as exc:  # poisoned arena / segment
            self._disable("shared-memory staging failed", exc)
            return None
        self._staged[id(payload)] = slice_
        payload.region = staged.region
        return staged.region

    def finish(self, payload: PayloadFrames) -> None:
        """Release engine-owned staging for ``payload`` (idempotent)."""
        slice_ = self._staged.pop(id(payload), None)
        if slice_ is not None:
            payload.region = None
            self.staging.release(slice_)

    # -- digest ---------------------------------------------------------
    def chunk_digests(
        self, payloads: Sequence[PayloadFrames], chunk_bytes: int
    ) -> List[List[str]]:
        """Chunk digests of each payload, from one worker-pool round trip.

        Cached digests are returned as they are.  Payloads of at least
        one chunk are staged and their chunks split across the workers
        by bytes; the rest are hashed in-process by the rope's own
        single-sweep :meth:`~repro.ckpt.serializer.PayloadFrames.
        chunk_digests` while the workers run.  A disabled engine, a
        contended arena or a failed round falls back the same way.
        Either way the digests land in each rope's cache — downstream
        layers cannot tell the difference.
        """
        digests: List[Optional[List[str]]] = [
            payload.peek_digests(chunk_bytes) for payload in payloads
        ]
        units = []  # (payload position, region, chunk index, chunk bytes)
        for pos, payload in enumerate(payloads):
            if not self.enabled:
                break
            if digests[pos] is not None or payload.nbytes < chunk_bytes:
                continue
            region = self._region_of(payload)
            if region is not None:
                units.extend(
                    (pos, region, index, min(chunk_bytes, payload.nbytes - offset))
                    for index, offset in enumerate(range(0, payload.nbytes, chunk_bytes))
                )
        if not self.enabled:  # staging poisoned mid-window
            units = []
        pooled = {unit[0] for unit in units}
        ids: List[int] = []
        owners: List[List[int]] = []
        try:
            for start, stop in self._plan(len(units), [unit[3] for unit in units]):
                spans, span_owners = _digest_spans(units[start:stop])
                ids.append(self.pool.submit("digest", chunk_bytes, spans))
                owners.append(span_owners)
            self.tasks_dispatched += len(ids)
        except WorkerPoolError as exc:
            self._disable("digest fan-out failed", exc)
            pooled = set()
        # Hash what the pool does not while the pool works.
        for pos, payload in enumerate(payloads):
            if digests[pos] is None and pos not in pooled:
                digests[pos] = payload.chunk_digests(chunk_bytes)
        if pooled:
            try:
                results = self.pool.collect(ids)
            except WorkerPoolError as exc:
                self._disable("digest fan-out failed", exc)
            else:
                parts: Dict[int, List[str]] = {pos: [] for pos in pooled}
                hashed = dict.fromkeys(pooled, 0)
                for task_id, span_owners in zip(ids, owners):
                    _, _, spans, cpu, wspans = results[task_id]
                    self.worker_cpu_seconds += cpu
                    self._merge_worker_spans(wspans)
                    for pos, (part, nbytes) in zip(span_owners, spans):
                        parts[pos].extend(part)
                        hashed[pos] += nbytes
                for pos, part in parts.items():
                    payload = payloads[pos]
                    payload.seed_digests(chunk_bytes, part)
                    if payload.meters is not None:
                        payload.meters.count_hashed(hashed[pos])
                    digests[pos] = part
        return [
            found if found is not None else payload.chunk_digests(chunk_bytes)
            for found, payload in zip(digests, payloads)
        ]

    # -- encode ---------------------------------------------------------
    def encode_chunks(
        self,
        jobs: Sequence[Tuple[PayloadFrames, Sequence[int]]],
        chunk_bytes: int,
    ) -> List[Optional[Dict[int, Optional[bytes]]]]:
        """Encode each job's chunk indices, in one worker-pool round trip.

        ``jobs`` are ``(payload, chunk indices)`` pairs.  Returns, per
        job, ``{index: framed encoded body or None (store raw)}`` — or
        ``None`` where the engine cannot help (disabled, no codec, no
        indices, no shared region for the payload, a failed round); the
        caller then encodes that job in-process.  Byte counts reported
        by the workers are folded into each payload's meters, keeping
        the "≤1 compression pass per persisted byte" invariant
        measurable end-to-end.
        """
        encoded: List[Optional[Dict[int, Optional[bytes]]]] = [None] * len(jobs)
        if self.codec is None:
            return encoded
        units = []  # (job position, region, chunk index, raw chunk bytes)
        for pos, (payload, indices) in enumerate(jobs):
            if not self.enabled:
                return encoded
            region = self._region_of(payload) if indices else None
            if region is None:
                continue
            for index in indices:
                lo, hi = _chunk_range_bytes(region.nbytes, chunk_bytes, index, index + 1)
                units.append((pos, region, index, hi - lo))
        if not self.enabled or not units:
            return encoded
        out_needed = sum(unit[3] for unit in units)
        out_slice = self.staging.try_acquire(out_needed)
        scratch = None
        if out_slice is not None:
            out_region, out_view = out_slice.region, out_slice.view
        else:
            try:
                scratch = _ScratchSegment(out_needed)
            except Exception as exc:
                self._disable("scratch segment allocation failed", exc)
                return encoded
            out_region, out_view = scratch.region, scratch.view()
        try:
            plans = self._plan(len(units), [unit[3] for unit in units])
            ids = []
            bases = []
            cursor = 0
            for start, stop in plans:
                group = units[start:stop]
                ids.append(self.pool.submit(
                    "encode", chunk_bytes,
                    [(region.segment, region.offset, region.nbytes, index)
                     for _, region, index, _ in group],
                    out_region.segment, out_region.offset + cursor,
                ))
                bases.append(cursor)
                cursor += sum(unit[3] for unit in group)
            self.tasks_dispatched += len(ids)
            results = self.pool.collect(ids)
            counts: Dict[int, List[int]] = {}
            for (start, stop), task_id, base in zip(plans, ids, bases):
                _, _, entries, cpu, wspans = results[task_id]
                self.worker_cpu_seconds += cpu
                self._merge_worker_spans(wspans)
                for (pos, _, index, _), (rel_off, enc_len, raw_len) in zip(
                    units[start:stop], entries
                ):
                    body = None
                    if enc_len > 0:
                        body = bytes(out_view[base + rel_off:base + rel_off + enc_len])
                    if encoded[pos] is None:
                        encoded[pos] = {}
                    encoded[pos][index] = body
                    # Incompressible chunks count raw-in with themselves
                    # as "out" (they hit the wire raw): the pass still
                    # ran once.
                    tally = counts.setdefault(pos, [0, 0])
                    tally[0] += raw_len
                    tally[1] += enc_len if body is not None else raw_len
            for pos, (raw_in, raw_out) in counts.items():
                meters = jobs[pos][0].meters
                if meters is not None:
                    meters.count_compressed(raw_in, raw_out)
            return encoded
        except WorkerPoolError as exc:
            self._disable("encode fan-out failed", exc)
            return [None] * len(jobs)
        finally:
            if out_slice is not None:
                self.staging.release(out_slice)
            if scratch is not None:
                scratch.close()

    # -- decode (restore fan-out) ---------------------------------------
    def decode_chunks(self, blobs: Sequence[bytes]) -> Optional[List[bytes]]:
        """Decompress encoded chunk bodies in the worker pool.

        Restore-side fan-out: compressed bodies travel over the queue
        (they are already small), raw bytes come back.  Returns ``None``
        when the engine is unavailable — the caller decodes serially.
        """
        if not self.enabled or not blobs:
            return None
        try:
            plans = self._plan(len(blobs))
            ids = [
                self.pool.submit("decode", [bytes(blob) for blob in blobs[start:stop]])
                for start, stop in plans
            ]
            self.tasks_dispatched += len(ids)
            results = self.pool.collect(ids)
        except WorkerPoolError as exc:
            self._disable("decode fan-out failed", exc)
            return None
        raws: List[bytes] = []
        for task_id in ids:
            _, _, part, cpu, wspans = results[task_id]
            raws.extend(part)
            self.worker_cpu_seconds += cpu
            self._merge_worker_spans(wspans)
        return raws

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        self.pool.close()
        for slice_ in self._staged.values():  # pragma: no cover - leak guard
            self.staging.release(slice_)
        self._staged.clear()
        if self._owns_staging:
            self.staging.close()

    def __enter__(self) -> "ParallelChunkEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
