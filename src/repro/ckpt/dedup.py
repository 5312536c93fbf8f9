"""Content-addressed deduplicating delta-checkpoint engine.

PEC's core insight is that only a small, rotating subset of experts
needs fresh bytes per checkpoint — yet a conventional persist tier
still writes every *selected* entry in full, even when its content is
bit-identical to the last stamp (untouched experts under sparse
routing, frozen fine-tune layers, zero-initialised moments shared by
every expert).  This module turns that insight into storage-layer wins:

* :class:`ChunkStore` — a SHA-256-addressed store of immutable,
  fixed-size chunks with **refcounted garbage collection**.  Chunk
  files are written once and never mutated; liveness is tracked by an
  append-only refcount journal (``refs.jsonl``, a
  :class:`~repro.ckpt.journal.Journal`) replayed on open.
* :class:`DedupBackend` — a :class:`~repro.ckpt.backend.
  CheckpointBackend` whose ``put`` chunks the serialized payload,
  stores only *novel* chunks, and journals a **manifest** (the entry's
  chunk-hash list) in ``manifests.jsonl``.  Identical payloads across
  stamps, entries or tiers share chunks; a re-put of unchanged content
  writes zero new chunk bytes.
* :meth:`DedupBackend.gc` — reclaim chunks whose refcount dropped to
  zero (retention deleting a stamp decrements refs; nothing is
  unlinked inline).
* :meth:`DedupBackend.fsck` — verify every chunk's hash matches its
  address, every manifest reference resolves, and journal refcounts
  agree with the counts derived from live manifests; orphans and
  over-counted refs are *warnings* (crash windows leak at most those),
  while corruption, missing chunks and under-counted refs are errors.

Durable-write ordering
----------------------
A put appends three records, in an order chosen so every crash window
over-counts refs (a leak fsck detects and gc/repair reclaims) and never
under-counts them (which could reclaim a referenced chunk):

1. novel chunk files (atomic tmp + ``os.replace`` each);
2. ``refs.jsonl``  — incref the new manifest's chunks;
3. ``manifests.jsonl`` — the manifest record (the commit point);
4. ``refs.jsonl``  — decref the superseded manifest's chunks.

Batched puts amortise each journal append over the whole batch while
preserving the same order (all increfs, then all manifests, then all
decrefs).  Their chunk work runs per *window* of at most
:data:`WINDOW_BYTES` of payload: every digest of the window, then
every novel chunk's encoding, then the window's chunk writes — so all
encoding of a window happens before its first chunk write, and the
codec threads split one round per window instead of one per entry.
Deletes append the tombstone first, then the decref.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.metrics import get_registry
from ..obs.trace import span as _span
from .backend import CheckpointBackend, CrashInjected, KVStoreError
from .codec import (
    ENCODED_CHUNK_SUFFIX,
    ChunkCodec,
    ChunkCodecError,
    decode_chunk_file,
    encode_chunk_file,
    make_chunk_codec,
)
from .journal import Journal
from .parallel import ParallelChunkEngine, encode_jobs
from .serializer import DEFAULT_CHUNK_BYTES, PayloadFrames

# Maintenance instruments on the process-wide registry.
_GC_RUNS = get_registry().counter(
    "moc_dedup_gc_runs_total", "Dedup garbage-collection passes"
)
_GC_RECLAIMED_CHUNKS = get_registry().counter(
    "moc_dedup_gc_reclaimed_chunks_total", "Chunks reclaimed by gc"
)
_GC_RECLAIMED_BYTES = get_registry().counter(
    "moc_dedup_gc_reclaimed_bytes_total", "Bytes reclaimed by gc"
)

#: Serialized payload bytes per ``put_many`` window (an entry larger
#: than this is a window of its own).  A window's encoded chunks are
#: held until its writes finish, so the window bounds that memory.
WINDOW_BYTES = 2 * 1024 * 1024


def _windows(items: Sequence[tuple]) -> List[List[tuple]]:
    """Cut ``(key, payload, stamp, node)`` items into consecutive runs
    of at most :data:`WINDOW_BYTES` of payload."""
    windows: List[List[tuple]] = []
    filled = 0
    for item in items:
        size = len(item[1])
        if not windows or filled + size > WINDOW_BYTES:
            windows.append([])
            filled = 0
        windows[-1].append(item)
        filled += size
    return windows


def chunk_payload(payload: bytes, chunk_bytes: int) -> List[bytes]:
    """Split a serialized payload into fixed-size chunks (last may be
    short).  An empty payload still occupies one (empty) chunk so every
    manifest references at least one address."""
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be >= 1")
    if not payload:
        return [b""]
    return [payload[i : i + chunk_bytes] for i in range(0, len(payload), chunk_bytes)]


def chunk_digest(chunk: bytes) -> str:
    return hashlib.sha256(chunk).hexdigest()


@dataclass(frozen=True)
class GCReport:
    """What one :meth:`DedupBackend.gc` pass reclaimed and kept."""

    reclaimed_chunks: int
    reclaimed_bytes: int
    live_chunks: int
    live_bytes: int


@dataclass
class FsckReport:
    """Outcome of a :meth:`DedupBackend.fsck` verification pass.

    ``errors`` are integrity violations (corrupt or missing chunks,
    refcounts *below* the count live manifests require — the window gc
    could exploit to reclaim referenced data).  Orphan chunk files and
    *over*-counted refs are warnings: every crash window in the write
    ordering leaks at most those, and ``gc``/``repair`` reclaims them.
    """

    chunks_checked: int = 0
    encoded_chunks: int = 0
    manifests_checked: int = 0
    corrupt_chunks: List[str] = field(default_factory=list)
    missing_chunks: List[str] = field(default_factory=list)
    orphan_chunks: List[str] = field(default_factory=list)
    overcounted_refs: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    undercounted_refs: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    repaired: bool = False

    @property
    def errors(self) -> List[str]:
        out = [f"corrupt chunk {digest}" for digest in self.corrupt_chunks]
        out += [f"missing chunk {digest}" for digest in self.missing_chunks]
        out += [
            f"refcount underflow {digest}: journal={journal} < live={live}"
            for digest, (journal, live) in self.undercounted_refs.items()
        ]
        return out

    @property
    def warnings(self) -> List[str]:
        out = [f"orphan chunk {digest}" for digest in self.orphan_chunks]
        out += [
            f"refcount leak {digest}: journal={journal} > live={live}"
            for digest, (journal, live) in self.overcounted_refs.items()
        ]
        return out

    @property
    def ok(self) -> bool:
        return not self.errors


class ChunkStore:
    """SHA-256-addressed immutable chunks with a refcount journal.

    Layout: ``<root>/objects/<hh>/<sha256 hex>`` (two-hex-char shard
    prefix keeps directories small) plus
    ``<root>/refs.jsonl`` holding ``{"op": "ref", "inc": {...},
    "dec": {...}}`` records.  Refcounts are replayed on open; a count
    never goes below zero in memory (an underflow is recorded for fsck
    rather than corrupting liveness).
    """

    def __init__(self, root: str, fault: Callable[[str], None]) -> None:
        self.root = root
        self._objects_dir = os.path.join(root, "objects")
        os.makedirs(self._objects_dir, exist_ok=True)
        self._fault = fault
        self._shard_dirs_made: set = set()
        self.refs: Dict[str, int] = {}
        self._journal = Journal(os.path.join(root, "refs.jsonl"), "refs", fault)
        # Meters: physical (novel-chunk) bytes vs dedup hits.  With a
        # chunk codec, ``chunk_bytes_written`` counts *encoded* bytes —
        # it is the physical meter — and ``chunks_encoded`` says how
        # many chunk files landed in compressed form.
        self.chunks_written = 0
        self.chunk_bytes_written = 0
        self.chunks_encoded = 0
        self.dedup_hits = 0
        self.dedup_bytes_saved = 0
        for record in self._journal.replay():
            self._apply_record(record)

    def _apply_record(self, record: dict) -> None:
        for digest, n in record.get("inc", {}).items():
            self.refs[digest] = self.refs.get(digest, 0) + int(n)
        for digest, n in record.get("dec", {}).items():
            self.refs[digest] = self.refs.get(digest, 0) - int(n)
            if self.refs[digest] <= 0:
                # Keep zero-ref chunks addressable until gc reclaims
                # them; negative counts clamp (fsck reports underflow
                # from the manifests, the durable source of truth).
                self.refs[digest] = max(self.refs[digest], 0)

    def _path(self, digest: str) -> str:
        return os.path.join(self._objects_dir, digest[:2], digest)

    def _encoded_path(self, digest: str) -> str:
        return self._path(digest) + ENCODED_CHUNK_SUFFIX

    def _existing_path(self, digest: str) -> Optional[str]:
        """On-disk path of a chunk in whichever form it was stored."""
        for path in (self._path(digest), self._encoded_path(digest)):
            if os.path.exists(path):
                return path
        return None

    def _ensure_shard_dir(self, path: str) -> None:
        shard = os.path.dirname(path)
        if shard not in self._shard_dirs_made:
            os.makedirs(shard, exist_ok=True)
            self._shard_dirs_made.add(shard)

    def has_chunk(self, digest: str) -> bool:
        return self._existing_path(digest) is not None

    def write_chunk(self, digest: str, data, encoded: Optional[bytes] = None) -> bool:
        """Store ``data`` under its address; returns True when novel.

        ``data`` is ``bytes`` or a sequence of zero-copy buffer parts
        (a chunk window spanning frame boundaries — see
        :meth:`~repro.ckpt.serializer.PayloadFrames.chunk_slices`);
        parts are written with one buffered ``writelines``, never
        concatenated.  Chunk files are immutable: if the address
        already exists the bytes are identical by construction
        (collision-free within SHA-256), so a duplicate write is a pure
        metadata no-op.

        ``encoded`` is an optional framed compressed body (see
        :func:`~repro.ckpt.codec.encode_chunk_file`) of the *same*
        chunk: when given, the encoded form is what hits disk — under
        ``<digest>.z``, the digest still addressing the uncompressed
        content, so dedup hits are codec-independent.  A dedup hit in
        either form short-circuits both.
        """
        parts = (data,) if isinstance(data, (bytes, memoryview)) else data
        size = sum(len(part) for part in parts)
        if self.has_chunk(digest):
            self.dedup_hits += 1
            self.dedup_bytes_saved += size
            return False
        if encoded is not None:
            path = self._encoded_path(digest)
            write_parts: Sequence = (encoded,)
            physical = len(encoded)
        else:
            path = self._path(digest)
            write_parts = parts
            physical = size
        self._ensure_shard_dir(path)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.writelines(write_parts)
        self._fault("chunk:tmp-written")
        os.replace(tmp, path)
        self._fault("chunk:durable")
        self.chunks_written += 1
        self.chunk_bytes_written += physical
        if encoded is not None:
            self.chunks_encoded += 1
        return True

    def read_chunk_stored(self, digest: str) -> Tuple[bytes, bool]:
        """Raw file body of a chunk plus whether it is an encoded frame."""
        try:
            with open(self._path(digest), "rb") as handle:
                return handle.read(), False
        except FileNotFoundError:
            pass
        try:
            with open(self._encoded_path(digest), "rb") as handle:
                return handle.read(), True
        except FileNotFoundError:
            raise KVStoreError(f"chunk {digest} missing") from None

    def read_chunk(self, digest: str) -> bytes:
        data, encoded = self.read_chunk_stored(digest)
        return self.decode_chunk(data) if encoded else data

    def decode_chunk(self, data: bytes) -> bytes:
        """Raw bytes of an encoded chunk file body.  A frame that does
        not decode raises :class:`KVStoreError` like a missing chunk, so
        a tiered store reads its remote copy instead."""
        try:
            return decode_chunk_file(data)
        except ChunkCodecError as exc:
            raise KVStoreError(str(exc)) from exc

    def load_dictionary(self, digest: str) -> bytes:
        # No chunk frame references a dictionary.  Kept only because
        # ``benchmarks/e2e/lifecycle.py:codec_drill`` passes this method
        # to ``decode_chunk_file``, which ignores it.
        raise KVStoreError(f"codec dictionary {digest} missing")

    def apply_refs(self, inc: Mapping[str, int], dec: Mapping[str, int]) -> None:
        """Journal one atomic refcount mutation, then apply it."""
        record = {"op": "ref"}
        if inc:
            record["inc"] = dict(inc)
        if dec:
            record["dec"] = dict(dec)
        if len(record) == 1:
            return
        self._journal.append([record])
        self._apply_record(record)

    def disk_chunks(self) -> Dict[str, int]:
        """Every chunk file on disk: digest -> *physical* size in bytes.

        Raw and encoded forms map to the same digest key (the encoded
        file's suffix is stripped); the size is whatever the file
        occupies, so compression shows up directly in the physical
        accounting (``unique_bytes``, gc reports, the benches).
        """
        found: Dict[str, int] = {}
        for shard in sorted(os.listdir(self._objects_dir)):
            shard_dir = os.path.join(self._objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".tmp"):
                    continue
                digest = name[:-len(ENCODED_CHUNK_SUFFIX)] if name.endswith(
                    ENCODED_CHUNK_SUFFIX) else name
                found[digest] = os.path.getsize(os.path.join(shard_dir, name))
        return found

    def encoded_digests(self) -> List[str]:
        """Digests currently stored in encoded (compressed) form."""
        out: List[str] = []
        for shard in sorted(os.listdir(self._objects_dir)):
            shard_dir = os.path.join(self._objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(ENCODED_CHUNK_SUFFIX):
                    out.append(name[:-len(ENCODED_CHUNK_SUFFIX)])
        return out

    def stray_tmp_files(self) -> List[str]:
        """Chunk ``.tmp`` files left by a write that died before its
        ``os.replace`` — never referenced by anything durable."""
        strays: List[str] = []
        for shard in sorted(os.listdir(self._objects_dir)):
            shard_dir = os.path.join(self._objects_dir, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".tmp"):
                    strays.append(os.path.join(shard_dir, name))
        return strays

    def gc(self) -> GCReport:
        """Unlink every chunk whose refcount is zero (or that no ref
        record mentions at all — a crash-window orphan), plus ``.tmp``
        files from dead writes, then compact the refs journal to one
        record holding the live counts."""
        reclaimed_chunks = 0
        reclaimed_bytes = 0
        live_chunks = 0
        live_bytes = 0
        for digest, size in self.disk_chunks().items():
            if self.refs.get(digest, 0) > 0:
                live_chunks += 1
                live_bytes += size
                continue
            path = self._existing_path(digest)
            if path is not None:
                os.remove(path)
            reclaimed_chunks += 1
            reclaimed_bytes += size
        for path in self.stray_tmp_files():
            reclaimed_bytes += os.path.getsize(path)
            reclaimed_chunks += 1
            os.remove(path)
        self.refs = {d: n for d, n in self.refs.items() if n > 0}
        self._journal.rewrite(
            [{"op": "ref", "inc": self.refs}] if self.refs else []
        )
        return GCReport(
            reclaimed_chunks=reclaimed_chunks,
            reclaimed_bytes=reclaimed_bytes,
            live_chunks=live_chunks,
            live_bytes=live_bytes,
        )


class DedupBackend(CheckpointBackend):
    """Content-addressed persist tier: every entry is a chunk manifest.

    Layout under ``root``::

        manifests.jsonl        entry metadata + chunk-hash lists
        chunks/refs.jsonl      refcount journal
        chunks/objects/<hh>/   immutable chunk files

    The backend honours the full :class:`CheckpointBackend` contract —
    ``bytes_written``/``nbytes_of``/``total_bytes`` count *logical*
    serialized payload bytes, exactly like every other backend, so the
    manager's manifests and the recovery planner's byte accounting stay
    uniform.  The physical story lives on :attr:`chunks`:
    ``chunk_bytes_written`` is what actually hit disk.
    """

    def __init__(
        self,
        root: str,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        compact_min_records: int = 256,
        compact_garbage_ratio: float = 4.0,
        codec: Optional[object] = None,
        parallel_workers: int = 0,
    ) -> None:
        super().__init__()
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if compact_garbage_ratio <= 1.0:
            raise ValueError("compact_garbage_ratio must be > 1")
        if parallel_workers < 0:
            raise ValueError("parallel_workers must be >= 0")
        self.root = root
        self.chunk_bytes = chunk_bytes
        self.compact_min_records = compact_min_records
        self.compact_garbage_ratio = compact_garbage_ratio
        os.makedirs(root, exist_ok=True)
        self.chunks = ChunkStore(os.path.join(root, "chunks"), self._fault)
        # Chunk codec: a ChunkCodec instance, "zlib", "none" or None.
        self.codec: Optional[ChunkCodec] = (
            make_chunk_codec(codec) if isinstance(codec, str) else codec
        )
        # Chunk codec threads: >0 splits each window's novel-chunk
        # encodes across that many threads (zlib releases the
        # GIL); 0 encodes on the saving thread alone.
        self.engine: Optional[ParallelChunkEngine] = None
        if parallel_workers > 0:
            self.engine = ParallelChunkEngine(
                parallel_workers, codec=self.codec, decode=self.chunks.decode_chunk
            )
            self.engine.fault = self._fault
        self._manifests = Journal(
            os.path.join(root, "manifests.jsonl"), "manifest", self._fault
        )
        self._index: Dict[str, Dict[str, object]] = {}
        for record in self._manifests.replay():
            if record["op"] == "put":
                self._index[record["key"]] = {
                    "stamp": int(record["stamp"]),
                    "nbytes": int(record["nbytes"]),
                    "chunks": list(record["chunks"]),
                }
            elif record["op"] == "del":
                self._index.pop(record["key"], None)
        # Batched-put deferral: increfs land before manifest records,
        # decrefs after — for the whole batch.
        self._defer = False
        self._pending_incs: Counter = Counter()
        self._pending_records: List[dict] = []
        self._pending_decs: Counter = Counter()
        # The open window's chunk work, consumed by _write:
        # id(rope) -> (chunk digests, {chunk index: encoded body}).
        self._prepared: Dict[int, Tuple[List[str], Dict[int, Optional[bytes]]]] = {}

    # -- write path -----------------------------------------------------
    @property
    def digest_chunk_bytes(self) -> int:
        """Callers precomputing chunk digests must use this granularity
        for :meth:`_write` to reuse them (one shared SHA-256 sweep)."""
        return self.chunk_bytes

    def _novel_indices(self, digest_lists: Sequence[List[str]]) -> List[List[int]]:
        """Per list, the indices of first occurrences — across *all*
        the lists, in order — of digests not yet on disk."""
        seen: set = set()
        novel: List[List[int]] = []
        for digests in digest_lists:
            novel.append([])
            for index, digest in enumerate(digests):
                if digest in seen:
                    continue
                seen.add(digest)
                if not self.chunks.has_chunk(digest):
                    novel[-1].append(index)
        return novel

    def _encode_novel(
        self, ropes: Sequence[PayloadFrames], digests: Sequence[List[str]]
    ) -> List[Dict[int, Optional[bytes]]]:
        """Framed encoded bodies for the novel chunks of each rope.

        Split across the engine's codec threads when one is attached,
        encoded on this thread otherwise.  Only chunks that will
        actually hit disk are encoded — dedup hits and chunks repeated
        anywhere in the window never cost a compression pass, which is
        how the "≤1 compression pass per persisted byte" invariant stays
        an inequality.
        """
        if self.codec is None:
            return [{} for _ in ropes]
        jobs = list(zip(ropes, self._novel_indices(digests)))
        if self.engine is not None:
            return self.engine.encode_chunks(jobs, self.chunk_bytes)
        return encode_jobs(self.codec, jobs, self.chunk_bytes)

    @contextlib.contextmanager
    def _chunk_window(self, payloads: Sequence[object]):
        """Digest and encode a window's rope payloads before any write.

        Single-hash-pass path: digests come from each rope's cache when
        the manager's delta-save check already computed them, and from
        the rope's own single sweep otherwise; the novel chunks of the
        whole window are then encoded in one round.  :meth:`_write`
        consumes the results, which are dropped however the window ends.
        """
        ropes = list({
            id(payload): payload for payload in payloads
            if isinstance(payload, PayloadFrames)
        }.values())
        try:
            if ropes:
                if self.engine is not None:
                    digests = self.engine.chunk_digests(ropes, self.chunk_bytes)
                else:
                    digests = [rope.chunk_digests(self.chunk_bytes) for rope in ropes]
                encoded = self._encode_novel(ropes, digests)
                for rope, rope_digests, rope_encoded in zip(ropes, digests, encoded):
                    self._prepared[id(rope)] = (rope_digests, rope_encoded)
            yield
        finally:
            for rope in ropes:
                self._prepared.pop(id(rope), None)

    def _write(self, key: str, payload, stamp: int, node) -> None:
        if isinstance(payload, PayloadFrames):
            prepared = self._prepared.pop(id(payload), None)
            if prepared is None:  # a lone put is a window of one
                with self._chunk_window([payload]):
                    self._write(key, payload, stamp, node)
                return
            # Chunk data is written as zero-copy frame slices.
            digests, encoded = prepared
            for index, (digest, parts) in enumerate(
                zip(digests, payload.chunk_slices(self.chunk_bytes))
            ):
                self.chunks.write_chunk(digest, parts, encoded=encoded.get(index))
        else:
            chunks = chunk_payload(payload, self.chunk_bytes)
            digests = [chunk_digest(chunk) for chunk in chunks]
            novel = set(self._novel_indices([digests])[0])
            for index, (digest, chunk) in enumerate(zip(digests, chunks)):
                body = None
                if self.codec is not None and index in novel:
                    body = encode_chunk_file(self.codec, [chunk])
                self.chunks.write_chunk(digest, chunk, encoded=body)
        inc = Counter(digests)
        old = self._index.get(key)
        record = {
            "op": "put", "key": key, "stamp": stamp,
            "nbytes": len(payload), "chunks": digests,
        }
        if self._defer:
            self._pending_incs.update(inc)
            self._pending_records.append(record)
        else:
            self.chunks.apply_refs(inc, {})
            self._manifests.append([record])
        self._index[key] = {
            "stamp": stamp, "nbytes": len(payload), "chunks": digests,
        }
        if old is not None:
            dec = Counter(old["chunks"])
            if self._defer:
                self._pending_decs.update(dec)
            else:
                self.chunks.apply_refs({}, dec)
                self._maybe_compact()

    def _finish_batch(self, crashed: bool = False) -> None:
        """Drain the deferred incref / manifest / decref appends.

        A :class:`CrashInjected` mid-batch models process death: the
        dead process appends nothing further, so deferred work is
        discarded — replay must recover only what was durable at the
        fault point (at worst orphan chunks and over-counted refs,
        which fsck reports and gc reclaims).
        """
        incs, self._pending_incs = self._pending_incs, Counter()
        records, self._pending_records = self._pending_records, []
        decs, self._pending_decs = self._pending_decs, Counter()
        self._defer = False
        if crashed:
            return
        if incs:
            self.chunks.apply_refs(incs, {})
        if records:
            self._manifests.append(records)
        if decs:
            self.chunks.apply_refs({}, decs)
        if records or decs:
            self._maybe_compact()

    def put_many_serialized(self, items) -> List[int]:
        """Batched puts: one incref append, one manifest append, one
        decref append for the whole batch (ordering preserved), and one
        digest + one encode round per window of chunk work.  An item
        failing mid-batch still journals the completed prefix — the
        manifests never lag chunks already written."""
        self._defer = True
        sizes: List[int] = []
        try:
            for window in _windows(items):
                with self._chunk_window([payload for _, payload, _, _ in window]):
                    sizes.extend(self.put_serialized(key, payload, stamp, node)
                                 for key, payload, stamp, node in window)
        except BaseException as exc:
            # The prefix's in-memory index entries are already updated;
            # drop the ones whose records are being discarded on crash.
            crashed = isinstance(exc, CrashInjected)
            if crashed:
                for record in self._pending_records:
                    self._index.pop(record["key"], None)
            self._finish_batch(crashed=crashed)
            raise
        self._finish_batch()
        return sizes

    def _maybe_compact(self) -> None:
        threshold = max(
            self.compact_min_records,
            self.compact_garbage_ratio * max(len(self._index), 1),
        )
        if self._manifests.records < threshold:
            return
        self._manifests.rewrite([
            {
                "op": "put", "key": key, "stamp": meta["stamp"],
                "nbytes": meta["nbytes"], "chunks": meta["chunks"],
            }
            for key, meta in sorted(self._index.items())
        ])

    # -- read path ------------------------------------------------------
    def _read(self, key: str) -> bytes:
        if key not in self._index:
            raise KVStoreError(key)
        meta = self._index[key]
        payload = b"".join(self._read_chunks(meta["chunks"]))
        if len(payload) != int(meta["nbytes"]):
            raise KVStoreError(
                f"{key}: reassembled {len(payload)} bytes, manifest says "
                f"{meta['nbytes']}"
            )
        return payload

    def _read_chunks(self, digests: Sequence[str]) -> List[bytes]:
        """Chunk bodies in manifest order, decompressed on the calling
        thread (through the engine's ``decode_chunks`` when attached)."""
        if self.engine is None:
            return [self.chunks.read_chunk(digest) for digest in digests]
        stored = [self.chunks.read_chunk_stored(digest) for digest in digests]
        decoded = iter(self.engine.decode_chunks(
            [data for data, is_encoded in stored if is_encoded]
        ))
        return [next(decoded) if is_encoded else data for data, is_encoded in stored]

    # -- metadata -------------------------------------------------------
    def stamp_of(self, key: str) -> int:
        if key not in self._index:
            raise KVStoreError(key)
        return int(self._index[key]["stamp"])

    def nbytes_of(self, key: str) -> int:
        if key not in self._index:
            raise KVStoreError(key)
        return int(self._index[key]["nbytes"])

    def chunks_of(self, key: str) -> List[str]:
        """The chunk-hash manifest backing ``key``."""
        if key not in self._index:
            raise KVStoreError(key)
        return list(self._index[key]["chunks"])

    def has(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> List[str]:
        return sorted(self._index)

    def total_bytes(self) -> int:
        return sum(int(meta["nbytes"]) for meta in self._index.values())

    def unique_bytes(self) -> int:
        """Physical bytes held by the chunk files currently on disk."""
        return sum(self.chunks.disk_chunks().values())

    def delete(self, key: str) -> None:
        """Tombstone the manifest, then decref its chunks.

        Nothing is unlinked: retention dropping a stamp only decrements
        refs; a later :meth:`gc` pass reclaims zero-ref chunks.  The
        tombstone-first order means a crash between the two appends
        over-counts refs (a leak) rather than freeing referenced data.
        """
        if key not in self._index:
            raise KVStoreError(key)
        old = self._index.pop(key)
        record = {"op": "del", "key": key}
        dec = Counter(old["chunks"])
        if self._defer:
            self._pending_records.append(record)
            self._pending_decs.update(dec)
        else:
            self._manifests.append([record])
            self.chunks.apply_refs({}, dec)
            self._maybe_compact()

    def delete_many(self, keys) -> None:
        """Batched deletes: one tombstone append, one decref append."""
        self._defer = True
        try:
            for key in keys:
                self.delete(key)
        except BaseException as exc:
            self._finish_batch(crashed=isinstance(exc, CrashInjected))
            raise
        self._finish_batch()

    # -- maintenance ----------------------------------------------------
    def gc(self) -> GCReport:
        """Reclaim zero-ref and orphaned chunks; compact both journals.

        The pass runs as one ``MAINTENANCE``-class task on the shared
        I/O scheduler — the lowest QoS class, so a background gc never
        outranks queued restores, saves, or uploads for a worker — while
        this call blocks on its result (callers keep synchronous
        semantics; a caller already on a scheduler worker runs it inline
        via worker helping, so nesting cannot deadlock the pool).
        """
        from ..io.scheduler import QoS, get_scheduler

        def run() -> GCReport:
            with _span("dedup-gc"):
                report = self.chunks.gc()
                self._maybe_compact()
            return report

        report = get_scheduler().submit(
            run, QoS.MAINTENANCE, label="dedup-gc", fault=self._fault
        ).result()
        _GC_RUNS.inc()
        _GC_RECLAIMED_CHUNKS.inc(report.reclaimed_chunks)
        _GC_RECLAIMED_BYTES.inc(report.reclaimed_bytes)
        return report

    def fsck(self, repair: bool = False) -> FsckReport:
        """Verify chunk integrity and refcount agreement.

        Checks, in order:

        1. every chunk file's SHA-256 matches its address (corruption);
        2. every live manifest's chunk references resolve to a file
           (missing chunks);
        3. journal refcounts match the counts derived from live
           manifests — under-counts are errors (gc could reclaim
           referenced data), over-counts and unreferenced files are
           crash-window leaks (warnings).

        ``repair=True`` rewrites the refs journal to the derived
        counts, clearing drift (orphan *files* are left for ``gc``).
        """
        report = FsckReport()
        on_disk = self.chunks.disk_chunks()
        report.encoded_chunks = len(self.chunks.encoded_digests())
        for digest in on_disk:
            report.chunks_checked += 1
            # Encoded chunks are decompressed before hashing — the
            # address is always the digest of the *uncompressed* bytes,
            # and a frame that fails to decode is corruption too.
            try:
                if chunk_digest(self.chunks.read_chunk(digest)) != digest:
                    report.corrupt_chunks.append(digest)
            except KVStoreError:
                report.corrupt_chunks.append(digest)
        live: Counter = Counter()
        for key, meta in sorted(self._index.items()):
            report.manifests_checked += 1
            for digest in meta["chunks"]:
                live[digest] += 1
                if digest not in on_disk:
                    report.missing_chunks.append(f"{digest} (entry {key})")
        for digest in sorted(set(self.chunks.refs) | set(live)):
            journal = self.chunks.refs.get(digest, 0)
            derived = live.get(digest, 0)
            if journal < derived:
                report.undercounted_refs[digest] = (journal, derived)
            elif journal > derived:
                report.overcounted_refs[digest] = (journal, derived)
        for digest in sorted(on_disk):
            if live.get(digest, 0) == 0:
                report.orphan_chunks.append(digest)
        for path in self.chunks.stray_tmp_files():
            report.orphan_chunks.append(os.path.basename(path))
        if repair:
            self.chunks.refs = dict(live)
            self.chunks._journal.rewrite(
                [{"op": "ref", "inc": dict(live)}] if live else []
            )
            report.repaired = True
        return report
