"""The pluggable checkpoint-backend layer.

Every storage tier — CPU-memory snapshots, the sharded journal store, the
dedup and tiered stores built on the same journal, or the async write
pipeline that decorates any of them — implements one contract,
:class:`CheckpointBackend`.  The manager, recovery planner, retention
auditor and resume path all program against this interface only, so new
tiers (remote object stores, compression stages, parallel shard writers)
drop in without touching the core.

Contract highlights
-------------------
* ``put`` serializes an entry (field -> ndarray mapping) and stores it
  under a key with an iteration *stamp*; it returns the payload size.
* ``put_many`` is the batched form — backends may amortise index
  maintenance over the batch (the sharded store appends one journal
  write per batch).
* ``get`` / ``stamp_of`` / ``nbytes_of`` raise :class:`KVStoreError`
  (a ``KeyError`` subclass) for missing keys.
* Byte meters (``bytes_written`` / ``bytes_read`` / ``put_count``) count
  serialized payload bytes exactly; tests and benches assert transfer
  volumes against them, so backends must not double- or under-count.
* ``flush`` is a write barrier: after it returns, every previously
  accepted ``put`` is durable (synchronous backends are trivially
  flushed).  ``delete`` removes a key outright.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .serializer import (
    DEFAULT_CHUNK_BYTES,
    PayloadFrames,
    deserialize_entry,
)

#: Payload forms the write path accepts: materialized bytes or the
#: zero-copy frame rope.  ``len(payload)`` is the size for both.
Payload = Union[bytes, PayloadFrames]


class KVStoreError(KeyError):
    """Raised when a requested entry is missing."""


class CrashInjected(RuntimeError):
    """Raised by a test fault hook to model a process dying mid-operation.

    The crash-injection suite installs a ``fault_hook`` on a disk-backed
    store, raises this at a chosen fault point, abandons the instance
    (the "process" is dead) and reopens the directory to assert what
    replay recovers.
    """


# One put_many work item: (key, entry, stamp, node).
PutItem = Tuple[str, Mapping[str, np.ndarray], int, Union[int, Sequence[int]]]


class CheckpointBackend(abc.ABC):
    """Abstract storage tier for checkpoint entries.

    Concrete backends implement the ``_write``/``_read`` payload hooks
    plus the metadata queries; the base class owns serialization and the
    byte meters so accounting is uniform across tiers.
    """

    #: Test seam for crash injection: when set, disk-backed stores call it
    #: at named fault points ("payload:durable", "journal:mid-append", …)
    #: so a test can raise :class:`CrashInjected` mid-operation.
    fault_hook: Optional[Callable[[str], None]] = None

    #: Chunk granularity at which a caller should precompute
    #: :meth:`~repro.ckpt.serializer.PayloadFrames.chunk_digests` so the
    #: backend can reuse them instead of rehashing (the dedup tier
    #: overrides this with its configured chunk size; decorators
    #: delegate to the tier they wrap).  The manager's delta-save check
    #: digests at this granularity, which is what makes the whole save
    #: path a single SHA-256 sweep.
    digest_chunk_bytes: int = DEFAULT_CHUNK_BYTES

    def __init__(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.put_count = 0
        # Byte meters must stay exact under the parallel restore
        # pipeline's concurrent readers (and a reader racing a writer).
        self._meter_lock = threading.Lock()

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    # -- payload hooks --------------------------------------------------
    @abc.abstractmethod
    def _write(self, key: str, payload: Payload, stamp: int, node) -> None:
        """Store ``payload`` under ``key`` (metadata included).

        ``payload`` may be materialized ``bytes`` or a zero-copy
        :class:`~repro.ckpt.serializer.PayloadFrames` rope; disk-backed
        stores hand the frames to the kernel without concatenating them
        (the sharded store gathers a batch into ``os.writev`` calls) and
        stores that must *retain* bytes materialize exactly once.
        Frames alias the caller's arrays and must be consumed before the
        put (or the batched put it belongs to) returns.
        """

    @abc.abstractmethod
    def _read(self, key: str) -> bytes:
        """Return the payload for ``key`` or raise :class:`KVStoreError`."""

    # -- public interface ----------------------------------------------
    def put(self, key: str, entry: Mapping[str, np.ndarray], stamp: int, node=0) -> int:
        """Serialize and store one entry; returns payload bytes."""
        return self.put_serialized(key, PayloadFrames.from_entry(entry), stamp, node)

    def put_serialized(self, key: str, payload: Payload, stamp: int, node=0) -> int:
        """Store an already-serialized payload (meters included)."""
        self._write(key, payload, stamp, node)
        with self._meter_lock:
            self.bytes_written += len(payload)
            self.put_count += 1
        return len(payload)

    def put_many(self, items: Sequence[PutItem]) -> List[int]:
        """Store a batch of entries; backends may amortise index work."""
        return self.put_many_serialized(
            [(key, PayloadFrames.from_entry(entry), stamp, node)
             for key, entry, stamp, node in items]
        )

    def put_many_serialized(
        self, items: Sequence[Tuple[str, Payload, int, Union[int, Sequence[int]]]]
    ) -> List[int]:
        """Batched form of :meth:`put_serialized` — the override point
        for backends that amortise index maintenance over a batch."""
        return [self.put_serialized(key, payload, stamp, node)
                for key, payload, stamp, node in items]

    def get(self, key: str, copy: bool = True) -> Dict[str, np.ndarray]:
        """Read and decode one entry.

        ``copy=False`` decodes zero-copy views over the read payload
        (read-only for immutable buffers) — the restore pipeline's fast
        path; see :func:`~repro.ckpt.serializer.deserialize_entry`.
        """
        payload = self._read(key)
        with self._meter_lock:
            self.bytes_read += len(payload)
        return deserialize_entry(payload, copy=copy)

    @abc.abstractmethod
    def stamp_of(self, key: str) -> int:
        """Iteration stamp of ``key``; raises :class:`KVStoreError`."""

    @abc.abstractmethod
    def nbytes_of(self, key: str) -> int:
        """Payload size of ``key`` without reading it."""

    @abc.abstractmethod
    def has(self, key: str) -> bool:
        ...

    @abc.abstractmethod
    def keys(self) -> List[str]:
        """All stored keys, sorted."""

    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Sum of stored payload sizes."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key``; raises :class:`KVStoreError` if missing."""

    def delete_many(self, keys: Sequence[str]) -> None:
        """Remove a batch of keys; backends may amortise index work."""
        for key in keys:
            self.delete(key)

    def flush(self) -> None:
        """Write barrier: block until accepted puts are durable."""

    def close(self) -> None:
        """Release resources (worker threads, handles)."""
        self.flush()


def make_backend(
    kind: str,
    root: Optional[str] = None,
    codec: Optional[object] = None,
    parallel_workers: int = 0,
    remote_latency: float = 0.0,
    remote_fault_rate: float = 0.0,
    upload_workers: int = 1,
    local_keep_stamps: Optional[int] = None,
    hedge_after_seconds: Optional[float] = 0.25,
    registry: Optional[object] = None,
) -> CheckpointBackend:
    """Construct a persist-tier backend by name.

    The one place storage options are parsed: the manager's
    ``disk_store`` and ``resume_training``'s ``store`` take its result.
    ``memory`` ignores ``root`` (useful for demos and tests);
    ``sharded`` (the default persist tier), ``dedup`` and ``tiered``
    require a directory.  ``codec`` (a chunk codec name or instance)
    and ``parallel_workers`` (chunk-codec threads) apply at the chunk
    boundary, so they require a dedup tier: the ``dedup`` backend
    itself, or ``tiered`` (whose local tier is a dedup store and
    inherits both).  The ``remote_*``/``upload_workers``/
    ``local_keep_stamps``/``hedge_after_seconds`` knobs configure the
    tiered backend's simulated remote tier, upload pipeline, local
    retention and hedged reads, and are rejected for every other kind.
    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`) re-homes
    the tiered backend's upload/fault/hedge counters onto a shared
    registry — the CLI passes its observer's so ``--metrics-dump`` sees
    them; backends without private counters ignore it.
    """
    from .dedup import DedupBackend
    from .kvstore import InMemoryKVStore
    from .sharded import ShardedDiskKVStore

    if (codec is not None or parallel_workers) and kind not in ("dedup", "tiered"):
        raise ValueError(
            f"codec/parallel_workers require the dedup backend, not {kind!r}"
        )
    if (
        remote_latency or remote_fault_rate or local_keep_stamps is not None
    ) and kind != "tiered":
        raise ValueError(
            f"remote-tier options require the tiered backend, not {kind!r}"
        )
    if kind == "memory":
        return InMemoryKVStore()
    if root is None:
        raise ValueError(f"backend {kind!r} requires a root directory")
    if kind == "sharded":
        return ShardedDiskKVStore(root)
    if kind == "dedup":
        return DedupBackend(root, codec=codec, parallel_workers=parallel_workers)
    if kind == "tiered":
        from .tiered import open_tiered_root

        return open_tiered_root(
            root,
            codec=codec,
            parallel_workers=parallel_workers,
            remote_latency=remote_latency,
            remote_fault_rate=remote_fault_rate,
            upload_workers=upload_workers,
            local_keep_stamps=local_keep_stamps,
            hedge_after_seconds=hedge_after_seconds,
            registry=registry,
        )
    raise ValueError(f"unknown backend kind {kind!r}")
