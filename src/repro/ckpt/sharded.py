"""Pack-file persistent store: one file per batch group, indexed by a journal.

The persist tier of Section 5 keeps checkpoint entries as key-value
pairs on disk.  A batch of puts is grouped by the pack each entry's
predecessor lives in, and each group is gathered into a new file
``<root>/packs/<n>.pack`` with ``os.writev``; an entry is addressed by
``(pack, off)`` in the append-only :class:`~repro.ckpt.journal.Journal`
``<root>/index.jsonl``.  PEC rewrites together the entries it wrote
together, so packs die whole and are unlinked without copying; sparse
packs are merged by compaction or :meth:`ShardedDiskKVStore.gc`.

A pack is never modified once written, its records are appended only
after it is complete, and it is unlinked only after the records that
stop referencing it, so every crash window leaks at most an unreferenced
pack file (``tests/test_crash_injection.py`` drives each window).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .backend import CheckpointBackend, CrashInjected, KVStoreError, Payload
from .journal import Journal
from .serializer import PayloadFrames

#: (layout, files marking it, file the current layout has instead).
_RETIRED_LAYOUTS = (
    ("flat-store layout (index.json, entries/)", ("index.json", "entries"), "index.jsonl"),
    ("file-per-entry layout (shards/)", ("shards",), "packs"),
)

_IOV_MAX = os.sysconf("SC_IOV_MAX")


class _Entry(NamedTuple):
    stamp: int
    nbytes: int
    pack: int
    off: int


@dataclass
class _Pack:
    extent: int = 0
    live: int = 0
    live_bytes: int = 0


class ShardedDiskKVStore(CheckpointBackend):
    """Persistent tier: append-only pack files + JSONL journal index.

    One store lock guards all state, so writers on several threads (the
    tiered backend's upload workers) cannot interleave a batch.  A read
    holds it only for the lookup, and looks up again once if a
    concurrent overwrite unlinked the pack first.
    """

    def __init__(self, root: str, compact_min_records: int = 256,
                 compact_garbage_ratio: float = 4.0) -> None:
        super().__init__()
        if compact_garbage_ratio <= 1.0:
            raise ValueError("compact_garbage_ratio must be > 1")
        # Read as an empty store, a retired layout would restart a resume.
        for layout, markers, current in _RETIRED_LAYOUTS:
            if not os.path.exists(os.path.join(root, current)) and any(
                os.path.exists(os.path.join(root, name)) for name in markers
            ):
                raise KVStoreError(f"{root!r} holds the {layout}, which is no longer supported")
        self.root = root
        self.compact_min_records = compact_min_records
        self.compact_garbage_ratio = compact_garbage_ratio
        self._packs_dir = os.path.join(root, "packs")
        os.makedirs(self._packs_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._journal = Journal(os.path.join(root, "index.jsonl"), "journal", self._fault)
        self._index: Dict[str, _Entry] = {}
        self._packs: Dict[int, _Pack] = {}
        self._live_bytes = 0
        # The open batch's puts and deletes, and the packs emptied since
        # the last journal append.
        self._batching = False
        self._queued: Dict[str, Tuple[int, Payload]] = {}
        self._deleted: List[Tuple[str, Optional[_Entry]]] = []
        self._emptied: List[int] = []
        self.compactions = 0
        # Never reuse a pack number that a file or a record still names.
        highest = max(map(_pack_number, os.listdir(self._packs_dir)), default=-1)
        for record in self._journal.replay():
            if record["op"] == "put":
                entry = _Entry(record["stamp"], record["nbytes"], record["pack"], record["off"])
                self._place(record["key"], entry)
                highest = max(highest, entry.pack)
            elif record["op"] == "del":
                self._release(self._index.pop(record["key"], None))
        self._next_pack = highest + 1
        # Packs every record stopped referencing are orphans for gc().
        for pack in self._emptied:
            del self._packs[pack]
        self._emptied = []

    @property
    def journal_records(self) -> int:
        """Records currently in the journal file."""
        return self._journal.records

    @property
    def journal_appends(self) -> int:
        """Records appended by this instance."""
        return self._journal.appends

    # -- index bookkeeping ----------------------------------------------
    def _pack_path(self, pack: int) -> str:
        return os.path.join(self._packs_dir, f"{pack}.pack")

    def _place(self, key: str, entry: _Entry) -> None:
        """Point ``key`` at ``entry``, releasing its previous version."""
        self._release(self._index.get(key))
        self._index[key] = entry
        info = self._packs.get(entry.pack) or self._packs.setdefault(entry.pack, _Pack())
        if entry.off + entry.nbytes > info.extent:
            info.extent = entry.off + entry.nbytes
        info.live += 1
        info.live_bytes += entry.nbytes
        self._live_bytes += entry.nbytes

    def _release(self, entry: Optional[_Entry]) -> None:
        if entry is None:
            return
        info = self._packs[entry.pack]
        info.live -= 1
        info.live_bytes -= entry.nbytes
        self._live_bytes -= entry.nbytes
        if not info.live:
            self._emptied.append(entry.pack)

    # -- pack I/O -------------------------------------------------------
    def _write_pack(self, parts: Sequence) -> int:
        """Write buffers and ranges to a fresh pack file; returns its number."""
        pack = self._next_pack
        self._next_pack += 1
        parts = [part if isinstance(part, _Range) else memoryview(part) for part in parts]
        head, tail = _split(parts, sum(map(len, parts)) // 2)
        fd = os.open(self._pack_path(pack), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            _write_all(fd, head)
            self._fault("payload:mid-write")  # a death here leaves a torn orphan
            _write_all(fd, tail)
        finally:
            os.close(fd)
        return pack

    def _commit(self, groups: Sequence[Sequence[Tuple[str, int, Payload]]]) -> None:
        """Write each ``(key, stamp, payload)`` group to a new pack, append
        the batch's records (deletes first), then unlink emptied packs."""
        deleted, self._deleted = self._deleted, []
        records = [{"op": "del", "key": key} for key, _old in deleted]
        placed: List[Tuple[str, _Entry]] = []
        for group in groups:
            pack = self._write_pack([
                frame for _key, _stamp, payload in group
                for frame in (payload.frames if isinstance(payload, PayloadFrames)
                              else (payload,))
            ])
            self._fault("payload:durable")
            off = 0
            for key, stamp, payload in group:
                entry = _Entry(stamp, len(payload), pack, off)
                placed.append((key, entry))
                records.append({"op": "put", "key": key, **entry._asdict()})
                off += entry.nbytes
        self._journal.append(records)
        for _key, old in deleted:
            self._release(old)
        for key, entry in placed:
            self._place(key, entry)
        self._maybe_compact_journal()
        for pack in self._emptied:
            del self._packs[pack]
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._pack_path(pack))
        self._emptied = []

    def _repack(self, pack_groups: Sequence[Sequence[int]]) -> None:
        """Copy (in the kernel) the live entries of each group of packs
        into one new pack per group; the emptied sources are unlinked."""
        by_pack: Dict[int, List[Tuple[str, _Entry]]] = {}
        for key, entry in self._index.items():
            by_pack.setdefault(entry.pack, []).append((key, entry))
        with contextlib.ExitStack() as stack:
            groups = []
            for packs in pack_groups:
                group = []
                for pack in packs:
                    fd = os.open(self._pack_path(pack), os.O_RDONLY)
                    stack.callback(os.close, fd)
                    group.extend(
                        (key, entry.stamp, _Range(fd, entry.off, entry.nbytes))
                        for key, entry in sorted(by_pack[pack], key=lambda item: item[1].off)
                    )
                groups.append(group)
            self._commit(groups)

    def _maybe_compact_journal(self) -> None:
        live = max(len(self._index), 1)
        if self._journal.records < max(self.compact_min_records, self.compact_garbage_ratio * live):
            return
        self._journal.rewrite([
            {"op": "put", "key": key, **entry._asdict()}
            for key, entry in sorted(self._index.items())
        ])
        self.compactions += 1

    # -- batching -------------------------------------------------------
    @contextlib.contextmanager
    def _batch(self) -> Iterator[None]:
        """Hold the lock and queue puts/deletes for one commit at the end
        (a nested batch joins the outer one).  A failure part-way still
        commits the prefix; a :class:`CrashInjected` discards the queue."""
        with self._lock:
            if self._batching:
                yield
                return
            self._batching = True
            try:
                yield
            except BaseException as exc:
                self._finish_batch(crashed=isinstance(exc, CrashInjected))
                raise
            self._finish_batch()

    def _finish_batch(self, crashed: bool = False) -> None:
        queued, self._queued = self._queued, {}
        self._batching = False
        if crashed:
            self._deleted = []
            return
        # Group by the predecessor's pack (new keys share one group):
        # entries written together are superseded together.
        groups: Dict[Optional[int], List[Tuple[str, int, Payload]]] = {}
        for key, (stamp, payload) in queued.items():
            old = self._index.get(key)
            groups.setdefault(old and old.pack, []).append((key, stamp, payload))
        if groups or self._deleted:
            self._commit(list(groups.values()))
        ratio = self.compact_garbage_ratio
        if sum(info.extent for info in self._packs.values()) > ratio * self._live_bytes:
            # Some pack is then sparser than 1/ratio; merging every such
            # pack brings the total back under the threshold.
            self._repack([[
                pack for pack, info in self._packs.items()
                if info.extent > ratio * info.live_bytes
            ]])

    # -- backend contract -----------------------------------------------
    def _write(self, key: str, payload: Payload, stamp: int, node) -> None:
        with self._batch():
            self._queued[key] = (stamp, payload)

    def put_many_serialized(self, items) -> List[int]:
        """Every entry through the ``_write`` hook, one journal append."""
        with self._batch():
            return [self.put_serialized(key, payload, stamp, node)
                    for key, payload, stamp, node in items]

    def _meta(self, key: str) -> _Entry:
        with self._lock:
            entry = self._index.get(key)
        if entry is None:
            raise KVStoreError(key)
        return entry

    def _read(self, key: str) -> bytes:
        for _ in range(2):
            entry = self._meta(key)
            try:
                fd = os.open(self._pack_path(entry.pack), os.O_RDONLY)
            except FileNotFoundError:
                continue  # a concurrent overwrite may have unlinked it
            try:
                data = os.pread(fd, entry.nbytes, entry.off)
            finally:
                os.close(fd)
            if len(data) != entry.nbytes:
                raise KVStoreError(f"{key}: pack {entry.pack} is truncated")
            return data
        raise KVStoreError(key)

    def stamp_of(self, key: str) -> int:
        return self._meta(key).stamp

    def nbytes_of(self, key: str) -> int:
        return self._meta(key).nbytes

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._index)

    def total_bytes(self) -> int:
        with self._lock:
            return self._live_bytes

    def delete(self, key: str) -> None:
        with self._batch():
            queued = self._queued.pop(key, None)
            old = self._index.pop(key, None)
            if queued is None and old is None:
                raise KVStoreError(key)
            self._deleted.append((key, old))

    def delete_many(self, keys) -> None:
        """Batched deletes: one journal append for all tombstones."""
        with self._batch():
            for key in keys:
                self.delete(key)

    def gc(self) -> int:
        """Delete pack files no record references (what a crash leaves
        behind) and rewrite every pack holding dead bytes into a pack of
        its own.  Returns the bytes reclaimed."""
        with self._lock, os.scandir(self._packs_dir) as listing:
            sizes = {_pack_number(item.name): item.stat().st_size for item in listing}
            sizes.pop(-1, None)
            for orphan in sizes.keys() - self._packs.keys():
                os.remove(self._pack_path(orphan))
            live = {pack: info.live_bytes for pack, info in self._packs.items() if pack in sizes}
            dirty = [pack for pack, nbytes in live.items() if sizes[pack] > nbytes]
            if dirty:
                self._repack([[pack] for pack in dirty])
            return sum(sizes.values()) - sum(live.values())


class _Range:
    """``nbytes`` of an open file from ``off``, which the kernel copies
    (``os.copy_file_range``); sliceable like a buffer."""

    __slots__ = ("fd", "off", "nbytes")

    def __init__(self, fd: int, off: int, nbytes: int) -> None:
        self.fd, self.off, self.nbytes = fd, off, nbytes

    def __len__(self) -> int:
        return self.nbytes

    def __getitem__(self, cut: slice) -> "_Range":
        start, stop, _step = cut.indices(self.nbytes)
        return _Range(self.fd, self.off + start, stop - start)


def _pack_number(name: str) -> int:
    """The number of pack file ``name``; -1 for any other file."""
    stem = name.removesuffix(".pack")
    return int(stem) if stem != name and stem.isdigit() else -1


def _split(parts: list, at: int) -> Tuple[list, list]:
    """Split a list of buffers and ranges ``at`` a byte offset."""
    for i, part in enumerate(parts):
        if at < len(part):
            return parts[:i] + [part[:at]], [part[at:]] + parts[i + 1:]
        at -= len(part)
    return parts, []


def _write_all(fd: int, parts: list) -> None:
    """Gather runs of buffers into ``os.writev`` calls (``IOV_MAX`` at a
    time) and copy ranges in the kernel, resuming after short writes."""
    while parts:
        if isinstance(parts[0], _Range):
            head = parts[0]
            written = os.copy_file_range(head.fd, fd, head.nbytes, head.off)
            if not written:
                raise OSError(f"source pack ends before offset {head.off + head.nbytes}")
        else:
            run = itertools.takewhile(lambda part: not isinstance(part, _Range), parts)
            written = os.writev(fd, list(itertools.islice(run, _IOV_MAX)))
        parts = _split(parts, written)[1]
