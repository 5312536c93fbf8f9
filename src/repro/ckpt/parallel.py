"""Chunk codec engine: compression on I/O-scheduler threads.

zlib releases the GIL while it compresses, so the chunk codec scales
across plain threads — no worker processes, no shared memory, no
pickling.  :class:`ParallelChunkEngine` is what a
:class:`~repro.ckpt.dedup.DedupBackend` with ``parallel_workers > 0``
drives once per window (a run of one batch's payloads), before any of
the window's chunk writes:

* **Digests** stay on the saving thread (SHA-256 does not scale across
  threads); a rope's cached digests are reused as they are.
* **Encode** reads zero-copy ``chunk_slices`` views — no staging copy.
  Tasks carry the owner's ``fault`` hook, so the ``iosched:dispatch``
  seam can kill an encode round like any other write step.  No task
  outlives its window: on any error every sibling finishes before the
  error is re-raised, and no chunk of the window has been written yet.
* **Decode** runs on the reader's own thread (a restore lane already is
  one), which beat fanning decode out to tasks.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..io.scheduler import QoS, get_scheduler
from .codec import ChunkCodec, decode_chunk_file, encode_chunk_file
from .serializer import PayloadFrames

#: ``(job position, chunk index, zero-copy chunk parts, raw bytes)``
_Unit = Tuple[int, int, list, int]


def _encode_units(codec: ChunkCodec, units: Sequence[_Unit]) -> List[Optional[bytes]]:
    return [encode_chunk_file(codec, parts) for _, _, parts, _ in units]


def encode_jobs(
    codec: Optional[ChunkCodec],
    jobs: Sequence[Tuple[PayloadFrames, Sequence[int]]],
    chunk_bytes: int,
    encode: Callable[[ChunkCodec, Sequence[_Unit]], List[Optional[bytes]]] = _encode_units,
) -> List[Dict[int, Optional[bytes]]]:
    """Per ``(payload, chunk indices)`` job, ``{index: framed encoded
    body or None (store raw)}`` — empty without a codec.  ``encode``
    maps the units to their bodies in order (on the calling thread by
    default).  Byte counts are folded into each payload's meters once
    every body is back: the "≤1 compression pass per persisted byte"
    invariant stays measurable."""
    encoded: List[Dict[int, Optional[bytes]]] = [{} for _ in jobs]
    if codec is None:
        return encoded
    units: List[_Unit] = []
    for pos, (payload, indices) in enumerate(jobs):
        if indices:
            slices = list(payload.chunk_slices(chunk_bytes))
            for index in indices:
                parts = slices[index]
                units.append((pos, index, parts, sum(map(len, parts))))
    if not units:
        return encoded
    counts: Dict[int, List[int]] = {}
    for (pos, index, _, raw_len), body in zip(units, encode(codec, units)):
        encoded[pos][index] = body
        # Incompressible chunks count raw-in with themselves as "out"
        # (they hit disk raw): the pass still ran once.
        tally = counts.setdefault(pos, [0, 0])
        tally[0] += raw_len
        tally[1] += len(body) if body is not None else raw_len
    for pos, (raw_in, raw_out) in counts.items():
        meters = jobs[pos][0].meters
        if meters is not None:
            meters.count_compressed(raw_in, raw_out)
    return encoded


class ParallelChunkEngine:
    """Digest, encode and decode chunks for one dedup store.

    A window's novel chunks are split into at most ``workers`` shares of
    near-equal bytes; the saving thread encodes the first, scheduler
    tasks the rest.  ``decode`` and ``fault`` are the owning store's
    chunk decoder and crash seam."""

    def __init__(
        self,
        workers: int,
        codec: Optional[ChunkCodec] = None,
        decode: Callable[[bytes], bytes] = decode_chunk_file,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.codec = codec
        self.decode = decode
        self.fault: Optional[Callable[[str], None]] = None
        #: Always True (threads do not die); reports count downgrades.
        self.enabled = True
        #: Thread CPU seconds spent encoding and decoding.
        self.worker_cpu_seconds = 0.0
        #: Scheduler tasks submitted (the saving thread's own shares excluded).
        self.tasks_dispatched = 0
        self._lock = threading.Lock()

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

    def _count_cpu(self, started: float) -> None:
        with self._lock:
            self.worker_cpu_seconds += time.thread_time() - started

    # -- digest ---------------------------------------------------------
    def chunk_digests(
        self, payloads: Sequence[PayloadFrames], chunk_bytes: int
    ) -> List[List[str]]:
        """Chunk digests of each payload: one cached sweep per rope."""
        return [payload.chunk_digests(chunk_bytes) for payload in payloads]

    # -- encode ---------------------------------------------------------
    def _encode_share(
        self, codec: ChunkCodec, share: Sequence[_Unit]
    ) -> List[Optional[bytes]]:
        started = time.thread_time()
        bodies = _encode_units(codec, share)
        self._count_cpu(started)
        return bodies

    def _encode_split(
        self, codec: ChunkCodec, units: Sequence[_Unit]
    ) -> List[Optional[bytes]]:
        """Bodies of ``units`` in order: the first share on this thread,
        the others as ``QoS.SAVE`` tasks.  Every task has finished before
        this returns or raises (the first error wins)."""
        plan = self._plan(len(units), [unit[3] for unit in units])
        shares = [units[start:stop] for start, stop in plan]
        scheduler = get_scheduler()
        tasks = []
        results: List[List[Optional[bytes]]] = []
        error: Optional[BaseException] = None
        try:
            for share in shares[1:]:
                tasks.append(scheduler.submit(
                    functools.partial(self._encode_share, codec, share),
                    QoS.SAVE, label="chunk-encode", fault=self.fault,
                ))
            results.append(self._encode_share(codec, shares[0]))
        except BaseException as exc:  # noqa: BLE001 - raised after the siblings
            error = exc
        self.tasks_dispatched += len(tasks)
        for task in tasks:
            try:
                results.append(task.result())
            except BaseException as exc:  # noqa: BLE001 - the first error wins
                error = error or exc
        if error is not None:
            raise error
        return [body for bodies in results for body in bodies]

    def encode_chunks(
        self,
        jobs: Sequence[Tuple[PayloadFrames, Sequence[int]]],
        chunk_bytes: int,
    ) -> List[Dict[int, Optional[bytes]]]:
        """:func:`encode_jobs` with the window split across threads."""
        return encode_jobs(self.codec, jobs, chunk_bytes, self._encode_split)

    # -- decode ---------------------------------------------------------
    def decode_chunks(self, blobs: Sequence[bytes]) -> List[bytes]:
        """Decompress encoded chunk bodies on the calling thread."""
        started = time.thread_time()
        raws = [self.decode(blob) for blob in blobs]
        self._count_cpu(started)
        return raws
