"""Binary serialization of checkpoint entries — the zero-copy save path.

A checkpoint *entry* is a mapping from field names ("master", "m", "v",
"step", ...) to numpy arrays.  We use a small self-describing binary
format rather than pickle so the format is stable, portable, and the byte
counts (which the paper's results are all about) are deterministic:

``MOC1`` magic | u32 field count | per field:
u16 name length | name utf-8 | u8 dtype-string length | dtype utf-8 |
u8 ndim | u64 * ndim shape | u64 payload bytes | raw array bytes.

Save-path data flow
-------------------
The hot path never materializes the serialized stream.
:func:`serialize_entry_frames` yields *frames* — small header ``bytes``
objects interleaved with zero-copy ``memoryview``s over the arrays'
buffers — and :class:`PayloadFrames` wraps them as a rope that the
storage layer consumes directly:

* disk stores write frames with one buffered ``writelines`` (no
  concatenation);
* chunk digests are computed in a **single SHA-256 sweep** over the
  frames (:meth:`PayloadFrames.chunk_digests`), and the entry's content
  digest is derived from the chunk digests
  (:meth:`PayloadFrames.entry_digest`) — so the manager's delta-save
  check and the dedup backend's chunk addressing share one hash pass;
* the async write pipeline snapshots frames into a pooled staging
  buffer with one copy (:meth:`PayloadFrames.snapshot_into`).

:class:`PipelineMeters` counts the bytes serialized / hashed / copied so
tests and ``demo --profile`` can pin the "touch each byte once"
property instead of assuming it.

``serialize_entry`` remains the materializing compatibility wrapper and
is byte-identical to the frame path by construction (the property suite
pins this).
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..obs.metrics import MetricsRegistry

_MAGIC = b"MOC1"

#: Canonical chunking granularity for content digests and the dedup
#: store.  Small enough that a TINY model's entries span several chunks
#: (so partial overlap dedups), large enough that chunk metadata stays a
#: rounding error at GB scale.  (Canonical home; ``repro.ckpt.dedup``
#: re-exports it.)
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Buffers a frame may be: immutable header bytes or array views.
Frame = Union[bytes, memoryview]


class SerializationError(ValueError):
    """Raised for malformed checkpoint payloads."""


class PipelineMeters:
    """Byte counters for the serialize→digest→stage→write pipeline.

    ``bytes_serialized`` counts payload bytes represented as frames
    (headers included — the whole persisted stream), ``bytes_hashed``
    counts bytes fed through SHA-256, and ``bytes_copied`` counts bytes
    memcpy'd (async staging snapshots, materializations).  The save
    pipeline's regression tests pin ``bytes_hashed == bytes_serialized``
    (one hash pass) and one staging copy per persisted byte — counters,
    not assumptions.  Read them with :meth:`snapshot`.

    The counters live in a :class:`repro.obs.metrics.MetricsRegistry`
    (a private one by default; pass ``registry=`` to share — the
    manager passes its observer's registry, so a ``--metrics-dump``
    exposes every pinned invariant straight from the registry).

    The upload counters (``bytes_uploaded``/``upload_retries``) are the
    *single source of truth* for the tiered backend: attaching these
    meters to a :class:`~repro.ckpt.tiered.TieredBackend` re-homes the
    tier's own upload accounting onto the same counter objects, so
    ``tier_stats()`` and ``snapshot()`` can never disagree.

    Behind an async write pipeline, increments landing in the *worker*
    thread (e.g. a store hashing an entry the caller didn't pre-digest)
    settle only at a ``flush()`` barrier — snapshot after flushing when
    asserting exact totals.
    """

    #: snapshot field -> (registry counter name, help text)
    _COUNTERS = {
        "bytes_serialized": (
            "moc_pipeline_bytes_serialized_total",
            "Payload bytes represented as frames (headers included)",
        ),
        "bytes_hashed": ("moc_pipeline_bytes_hashed_total", "Bytes fed through SHA-256"),
        "bytes_copied": (
            "moc_pipeline_bytes_copied_total",
            "Bytes memcpy'd (staging snapshots, materializations)",
        ),
        "bytes_compressed": (
            "moc_pipeline_bytes_compressed_total", "Raw bytes fed through the chunk codec"
        ),
        "bytes_compressed_out": (
            "moc_pipeline_bytes_compressed_out_total", "Encoded bytes the chunk codec produced"
        ),
        "entries_serialized": ("moc_pipeline_entries_serialized_total", "Entries serialized"),
        "bytes_uploaded": (
            "moc_tier_bytes_uploaded_total",
            "Bytes uploaded to the remote tier (single source of truth)",
        ),
        "upload_retries": (
            "moc_tier_upload_retries_total", "Retried (backed-off) remote-tier upload attempts"
        ),
    }

    def __init__(self, registry: Optional["MetricsRegistry"] = None) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._counters = {
            field: registry.counter(name, help)
            for field, (name, help) in self._COUNTERS.items()
        }

    def upload_counters(self):
        """The (bytes_uploaded, upload_retries) counter objects.

        :class:`~repro.ckpt.tiered.TieredBackend` adopts these as its
        own accumulators when meters are attached — one source of truth
        for upload totals.
        """
        return self._counters["bytes_uploaded"], self._counters["upload_retries"]

    def count_serialized(self, nbytes: int) -> None:
        self._counters["bytes_serialized"].inc(nbytes)
        self._counters["entries_serialized"].inc()

    def count_hashed(self, nbytes: int) -> None:
        self._counters["bytes_hashed"].inc(nbytes)

    def count_copied(self, nbytes: int) -> None:
        self._counters["bytes_copied"].inc(nbytes)

    def count_compressed(self, raw_nbytes: int, encoded_nbytes: int) -> None:
        """Record one codec pass: ``raw_nbytes`` in, ``encoded_nbytes`` out.

        ``bytes_compressed`` counts raw bytes fed through the chunk
        codec (the "≤1 compression pass per persisted byte" invariant
        meters this against ``bytes_serialized``); the ``_out`` counter
        is what actually hit the wire, so ratio = in/out.  The encode loop
        folds each payload's counts in here once every body is back, so
        the invariant holds however the work is split across codec
        threads.
        """
        self._counters["bytes_compressed"].inc(raw_nbytes)
        self._counters["bytes_compressed_out"].inc(encoded_nbytes)

    def snapshot(self) -> Dict[str, int]:
        return {field: int(counter.value) for field, counter in self._counters.items()}


def _array_data(array: np.ndarray) -> Frame:
    """Zero-copy byte view over a C-contiguous array's buffer.

    0-d arrays materialize their handful of bytes (``memoryview.cast``
    on numpy 0-d buffers is not portable across versions and the copy
    is a few bytes).  Dtypes the buffer protocol refuses to export
    (datetime64/timedelta64) also materialize — the frame path must
    accept everything ``serialize_entry`` always has.
    """
    if array.ndim == 0 or array.nbytes == 0:
        return array.tobytes()
    try:
        return memoryview(array).cast("B")
    except (ValueError, TypeError, BufferError):
        return array.tobytes()


def serialize_entry_frames(entry: Mapping[str, np.ndarray]) -> Iterator[Frame]:
    """Stream an entry as frames: header bytes + zero-copy array views.

    Consecutive header fields coalesce into one ``bytes`` frame; each
    non-empty array contributes a ``memoryview`` aliasing its buffer.
    Frames are valid only while the caller keeps the arrays alive and
    unmutated — the storage layer consumes them synchronously, and the
    async pipeline snapshots them into a staging buffer before
    returning to the caller.

    Concatenated, the frames are byte-identical to
    :func:`serialize_entry`'s output.
    """
    header = bytearray()
    header += _MAGIC
    header += struct.pack("<I", len(entry))
    for name in sorted(entry):
        array = np.asarray(entry[name])
        if array.ndim:
            # ascontiguousarray promotes 0-d to 1-d — only call it when
            # there is a layout to normalize, so scalars keep shape ().
            array = np.ascontiguousarray(array)
        name_bytes = name.encode("utf-8")
        dtype_bytes = array.dtype.str.encode("ascii")
        header += struct.pack("<H", len(name_bytes))
        header += name_bytes
        header += struct.pack("<B", len(dtype_bytes))
        header += dtype_bytes
        header += struct.pack("<B", array.ndim)
        for dim in array.shape:
            header += struct.pack("<Q", dim)
        data = _array_data(array)
        header += struct.pack("<Q", len(data))
        if isinstance(data, bytes):
            header += data  # scalar / empty: folded into the header run
        else:
            yield bytes(header)
            header = bytearray()
            yield data
    if header:
        yield bytes(header)


def serialized_nbytes(entry: Mapping[str, np.ndarray]) -> int:
    """Exact size of ``serialize_entry(entry)``, by arithmetic alone.

    Mirrors the header layout :func:`serialize_entry_frames` writes, so
    a store that retains arrays instead of bytes records the same size
    a byte store would, without serializing.
    """
    total = len(_MAGIC) + 4
    for name, value in entry.items():
        array = np.asarray(value)
        total += (
            2 + len(name.encode("utf-8"))
            + 1 + len(array.dtype.str)
            + 1 + 8 * array.ndim
            + 8 + array.nbytes
        )
    return total


class PayloadFrames:
    """A serialized entry as a rope of buffers, never concatenated.

    Wraps the output of :func:`serialize_entry_frames` (or any sequence
    of byte buffers) and offers the single-pass operations the storage
    layer needs: chunked SHA-256 digests (cached per chunk size, so the
    delta-save check and the dedup backend share one sweep), windowed
    chunk slices for chunk-file writes, a one-copy snapshot into a
    staging buffer, and materialization for stores that must own bytes.

    ``len(frames)`` is the payload size in bytes, so code metering
    ``len(payload)`` works unchanged for ``bytes`` and frames alike.
    """

    __slots__ = ("frames", "nbytes", "meters", "_digest_cache")

    def __init__(
        self,
        frames: Sequence[Frame],
        meters: Optional[PipelineMeters] = None,
        _digest_cache: Optional[Dict[int, List[str]]] = None,
    ) -> None:
        normalized: List[Frame] = []
        nbytes = 0
        for frame in frames:
            if not isinstance(frame, (bytes, memoryview)):
                frame = memoryview(frame)
            if isinstance(frame, memoryview) and (
                frame.format != "B" or frame.ndim != 1
            ):
                frame = frame.cast("B")
            if len(frame) == 0:
                continue
            normalized.append(frame)
            nbytes += len(frame)
        self.frames = tuple(normalized)
        self.nbytes = nbytes
        self.meters = meters
        # chunk size -> chunk digests, computed at most once per size.
        self._digest_cache: Dict[int, List[str]] = (
            _digest_cache if _digest_cache is not None else {}
        )

    @classmethod
    def from_entry(
        cls,
        entry: Mapping[str, np.ndarray],
        meters: Optional[PipelineMeters] = None,
    ) -> "PayloadFrames":
        frames = cls(list(serialize_entry_frames(entry)), meters=meters)
        if meters is not None:
            meters.count_serialized(frames.nbytes)
        return frames

    def __len__(self) -> int:
        return self.nbytes

    def tobytes(self) -> bytes:
        """Materialize the payload (a copy — off the hot path)."""
        data = b"".join(self.frames)
        if self.meters is not None:
            self.meters.count_copied(len(data))
        return data

    def chunk_digests(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> List[str]:
        """SHA-256 hex digest per fixed-size chunk, in one sweep.

        Matches ``[chunk_digest(c) for c in chunk_payload(payload)]``
        exactly (an empty payload has one empty chunk).  Results are
        cached per chunk size and shared across copies made by
        :meth:`snapshot_into`, so a payload is hashed **once** no matter
        how many layers (delta-save check, dedup chunking) need the
        digests.
        """
        cached = self._digest_cache.get(chunk_bytes)
        if cached is not None:
            return cached
        # One sweep over the same windows the write path uses — sharing
        # :meth:`chunk_slices` keeps digest and chunk-data boundaries
        # aligned by construction.
        digests: List[str] = []
        for parts in self.chunk_slices(chunk_bytes):
            digest = hashlib.sha256()
            for part in parts:
                digest.update(part)
            digests.append(digest.hexdigest())
        if self.meters is not None:
            self.meters.count_hashed(self.nbytes)
        self._digest_cache[chunk_bytes] = digests
        return digests

    def entry_digest(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> str:
        """Content digest derived from the chunk digests.

        A digest-of-chunk-digests, so deriving it after
        :meth:`chunk_digests` costs ~32 bytes of hashing per chunk
        instead of a second pass over the payload.  Two entries share a
        digest iff their serialized payloads are identical (at a fixed
        chunk size).
        """
        digest = hashlib.sha256()
        for chunk in self.chunk_digests(chunk_bytes):
            digest.update(bytes.fromhex(chunk))
        return digest.hexdigest()

    def chunk_slices(
        self, chunk_bytes: int = DEFAULT_CHUNK_BYTES
    ) -> Iterator[List[Frame]]:
        """Yield each fixed-size chunk as a list of zero-copy buffer parts.

        Windows align with :meth:`chunk_digests`; a chunk spanning a
        frame boundary is several parts (``writelines`` them).  An empty
        payload yields one empty chunk.
        """
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        parts: List[Frame] = []
        filled = 0
        yielded = False
        for frame in self.frames:
            view = frame if isinstance(frame, memoryview) else memoryview(frame)
            while len(view):
                take = min(chunk_bytes - filled, len(view))
                parts.append(view[:take])
                filled += take
                view = view[take:]
                if filled == chunk_bytes:
                    yield parts
                    yielded = True
                    parts = []
                    filled = 0
        if parts or not yielded:
            yield parts

    def snapshot_into(self, buffer) -> "PayloadFrames":
        """Copy the frames into ``buffer`` (one pass) and return a new
        rope over the copy.

        The staging copy of the async write pipeline: the returned rope
        no longer aliases the caller's arrays (mutation-safe), is
        read-only, and **shares the digest cache**, so digests computed
        before staging are never recomputed downstream.  ``buffer`` is
        anything exporting the buffer protocol (the pooled ``bytearray``).
        """
        view = memoryview(buffer)
        if len(view) < self.nbytes:
            raise ValueError(
                f"staging buffer too small: {len(view)} < {self.nbytes}"
            )
        offset = 0
        for frame in self.frames:
            end = offset + len(frame)
            view[offset:end] = frame
            offset = end
        if self.meters is not None:
            self.meters.count_copied(self.nbytes)
        return PayloadFrames(
            [view[: self.nbytes].toreadonly()],
            meters=self.meters,
            _digest_cache=self._digest_cache,
        )


def payload_bytes(payload: Union[bytes, bytearray, memoryview, PayloadFrames]) -> bytes:
    """Materialize any accepted payload form as immutable bytes."""
    if isinstance(payload, PayloadFrames):
        return payload.tobytes()
    if isinstance(payload, bytes):
        return payload
    return bytes(payload)


def serialize_entry(entry: Mapping[str, np.ndarray]) -> bytes:
    """Encode a field->array mapping to bytes.

    Compatibility wrapper over the frame path; byte-identical to the
    concatenated output of :func:`serialize_entry_frames`.
    """
    return b"".join(serialize_entry_frames(entry))


def deserialize_entry(
    data: Union[bytes, bytearray, memoryview], copy: bool = True
) -> Dict[str, np.ndarray]:
    """Decode bytes produced by :func:`serialize_entry`.

    ``copy=True`` (default) returns arrays owning their data — always
    writable.  ``copy=False`` returns zero-copy ``frombuffer`` views
    into ``data``: no per-field allocation, but the arrays inherit the
    buffer's mutability (read-only for ``bytes``), so callers that
    write them in place must go through a writability guard
    (:func:`writable_entry`, or any copying assignment).
    """
    view = memoryview(data)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    size = len(view)
    pos = 4
    if size < 4 or bytes(view[:4]) != _MAGIC:
        magic = bytes(view[: min(4, size)])
        raise SerializationError(f"bad magic {magic!r}")

    def take(nbytes: int) -> memoryview:
        nonlocal pos
        if pos + nbytes > size:
            raise SerializationError(
                f"truncated payload: wanted {nbytes}, got {size - pos}"
            )
        out = view[pos : pos + nbytes]
        pos += nbytes
        return out

    (count,) = struct.unpack("<I", take(4))
    result: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("utf-8")
        (dtype_len,) = struct.unpack("<B", take(1))
        dtype = np.dtype(bytes(take(dtype_len)).decode("ascii"))
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        (nbytes,) = struct.unpack("<Q", take(8))
        payload = take(nbytes)
        array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        result[name] = array.copy() if copy else array
    if pos != size:
        raise SerializationError("trailing bytes after final field")
    return result


def writable_entry(entry: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Guard for zero-copy reads: copy exactly the read-only arrays.

    Arrays from ``deserialize_entry(..., copy=False)`` view an immutable
    buffer; for a consumer that mutates restored state in place,
    anything non-writable is copied here (and nothing else — the guard
    costs bytes only where mutability is actually missing).
    """
    guarded: Dict[str, np.ndarray] = {}
    for name, value in entry.items():
        array = np.asarray(value)
        guarded[name] = array if array.flags.writeable else array.copy()
    return guarded


def entry_nbytes(entry: Mapping[str, np.ndarray]) -> int:
    """Raw payload bytes of an entry (excluding format framing)."""
    return int(sum(np.asarray(v).nbytes for v in entry.values()))


def entry_digest(entry: Mapping[str, np.ndarray]) -> str:
    """SHA-256 content digest of an entry, without materializing it.

    Runs the single-pass frame pipeline at the canonical chunk size:
    the digest covers exactly the bytes :func:`serialize_entry` would
    emit, so two entries share a digest iff their serialized payloads
    are identical.  Callers that will also *store* the entry should
    prefer :meth:`PayloadFrames.entry_digest` on a shared rope so the
    same sweep feeds the storage layer's chunk addressing.
    """
    return PayloadFrames.from_entry(entry).entry_digest()
