"""Sharded persistent store: versioned entry files indexed by a journal.

The persist tier of Section 5 keeps checkpoint entries as key-value
pairs on disk:

* **Sharded layout** — entries live under ``<root>/shards/<hh>/`` where
  ``hh`` is a hash prefix of the key, keeping directories small and
  letting parallel readers/writers fan out across shards.
* **Journal index** — metadata is the append-only
  :class:`~repro.ckpt.journal.Journal` ``<root>/index.jsonl``.  A put
  appends one record (O(1)); opening the store replays the journal,
  last record per key winning.  Deletes append tombstones.
* **Periodic compaction** — when the journal holds far more records
  than live keys, it is rewritten to one record per key.

Crash consistency
-----------------
Payload files are *versioned*: entry ``k`` at stamp ``s`` lives in
``<escaped k>@<s>.bin`` (``<escaped k>@<s>.<gen>.bin`` for repeated
writes at the same stamp — see :meth:`ShardedDiskKVStore._path` for why
the ``@`` separator matters), and the journal record for a put names
the stamp whose file it refers to.  An overwrite therefore writes a **new**
file and only then appends the journal record; the previous version's
file is unlinked only after the record naming its successor is durable.
Every crash window leaves the store consistent:

* crash before the new payload's ``os.replace`` — old file + old record
  intact, a stray ``.tmp`` is ignored;
* crash after the payload lands but before the journal append — the new
  file is an invisible orphan; replay serves the previous version with
  matching metadata (stamp, nbytes and bytes all agree);
* crash mid-append — the torn journal line is truncated on replay;
* crash mid-compaction — the compacted file is still a ``.tmp``; the
  original journal is untouched.

Batched puts defer both the journal append and superseded-file removal
to the end of the batch, so payloads never outlive the records that
reference them in the wrong order.  The crash-injection test suite
(``tests/test_crash_injection.py``) drives every window above through
the ``fault_hook`` seam on :class:`~repro.ckpt.backend.CheckpointBackend`.

Concurrency
-----------
One store lock guards the index, the batch deferral, journal appends,
compaction and unlinks, so writers on several threads (the tiered
backend's upload workers) cannot interleave a batch or race two
compactions.  A read takes the lock only to look up the entry's
metadata and reads the file outside it; if a concurrent overwrite
unlinked that file first, the read looks up again once.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import threading
from typing import Dict, Iterator, List, Tuple

from .backend import CheckpointBackend, CrashInjected, KVStoreError, escape_key
from .journal import Journal
from .serializer import write_payload

#: Files of the retired flat store; a root holding them is not ours.
_FLAT_LAYOUT = ("index.json", "entries")


class ShardedDiskKVStore(CheckpointBackend):
    """Persistent tier: hash-sharded versioned entry files + JSONL journal."""

    def __init__(
        self,
        root: str,
        shard_width: int = 2,
        compact_min_records: int = 256,
        compact_garbage_ratio: float = 4.0,
    ) -> None:
        super().__init__()
        if shard_width < 1:
            raise ValueError("shard_width must be >= 1")
        if compact_garbage_ratio <= 1.0:
            raise ValueError("compact_garbage_ratio must be > 1")
        journal_path = os.path.join(root, "index.jsonl")
        if not os.path.exists(journal_path) and any(
            os.path.exists(os.path.join(root, name)) for name in _FLAT_LAYOUT
        ):
            # Reading it as an empty store would make a resume silently
            # start over from scratch.
            raise KVStoreError(
                f"{root!r} holds the flat-store layout (index.json, entries/), "
                "which is no longer supported"
            )
        self.root = root
        self.shard_width = shard_width
        self.compact_min_records = compact_min_records
        self.compact_garbage_ratio = compact_garbage_ratio
        self._shards_dir = os.path.join(root, "shards")
        os.makedirs(self._shards_dir, exist_ok=True)
        self._lock = threading.RLock()
        self._journal = Journal(journal_path, "journal", self._fault)
        #: key -> (stamp, nbytes, gen) of the version the journal names.
        self._index: Dict[str, Tuple[int, int, int]] = {}
        self._shard_dirs_made: set = set()
        self._defer_journal = False
        self._pending_records: List[dict] = []
        # Superseded / deleted payload files whose removal must wait for
        # the journal records that stop referencing them (batched path).
        self._pending_unlinks: List[str] = []
        self.compactions = 0
        for record in self._journal.replay():
            if record["op"] == "put":
                self._index[record["key"]] = (
                    int(record["stamp"]),
                    int(record["nbytes"]),
                    int(record.get("gen", 0)),
                )
            elif record["op"] == "del":
                self._index.pop(record["key"], None)

    @property
    def journal_records(self) -> int:
        """Records currently in the journal file."""
        return self._journal.records

    @property
    def journal_appends(self) -> int:
        """Records appended by this instance."""
        return self._journal.appends

    # -- journal --------------------------------------------------------
    def _journal_record(self, record: dict) -> None:
        """Record one index mutation — buffered inside a batch."""
        if self._defer_journal:
            self._pending_records.append(record)
        else:
            self._append_records([record])

    def _append_records(self, records: List[dict]) -> None:
        """Append journal records in one write, then maybe compact."""
        self._journal.append(records)
        threshold = max(
            self.compact_min_records,
            self.compact_garbage_ratio * max(len(self._index), 1),
        )
        if self._journal.records < threshold:
            return
        self._journal.rewrite([
            _put_record(key, *meta) for key, meta in sorted(self._index.items())
        ])
        self.compactions += 1

    # -- layout ---------------------------------------------------------
    def _shard_of(self, key: str) -> str:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return os.path.join(self._shards_dir, digest[: self.shard_width])

    def _path(self, key: str, stamp: int, gen: int = 0) -> str:
        """Versioned payload path — pure computation, no side effects.

        ``gen`` disambiguates successive writes of the *same* key at the
        *same* stamp: without it, such an overwrite would replace the
        referenced payload in place, reopening the torn-overwrite window
        the stamp-versioned names exist to close.

        The version suffix is joined with ``@`` — a character
        :func:`escape_key` never emits — so distinct ``(key, stamp,
        gen)`` triples can never compose to the same file name (a ``.``
        separator would let ``k`` at stamp 5/gen 3 collide with key
        ``k.5`` at stamp 3).
        """
        suffix = f"@{stamp}.bin" if gen == 0 else f"@{stamp}.{gen}.bin"
        return os.path.join(self._shard_of(key), escape_key(key) + suffix)

    def _write_payload(self, path: str, payload) -> None:
        """Atomic payload replace: a torn write never clobbers any
        version a journal record can reference.  Frame ropes go out in
        one buffered ``writelines`` — no concatenation."""
        shard = os.path.dirname(path)
        if shard not in self._shard_dirs_made:
            os.makedirs(shard, exist_ok=True)
            self._shard_dirs_made.add(shard)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            write_payload(handle, payload)
        self._fault("payload:tmp-written")
        os.replace(tmp, path)

    def _unlink_after_journal(self, path: str) -> None:
        """Remove a no-longer-referenced payload file.

        Deferred inside a batch: the file must survive until the journal
        records that stop referencing it are durable, or a crash would
        leave the index pointing at a deleted payload.
        """
        if self._defer_journal:
            self._pending_unlinks.append(path)
            return
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)

    # -- backend contract -----------------------------------------------
    def _write(self, key: str, payload, stamp: int, node) -> None:
        with self._lock:
            old_meta = self._index.get(key)
            gen = 0
            if old_meta is not None and old_meta[0] == stamp:
                # Same-key same-stamp overwrite: bump the generation so
                # the new payload lands in a fresh file and the journaled
                # old version survives a crash before the new record is
                # durable.
                gen = old_meta[2] + 1
            self._write_payload(self._path(key, stamp, gen), payload)
            self._fault("payload:durable")
            self._index[key] = (stamp, len(payload), gen)
            self._journal_record(_put_record(key, stamp, len(payload), gen))
            if old_meta is not None:
                self._unlink_after_journal(self._path(key, old_meta[0], old_meta[2]))

    @contextlib.contextmanager
    def _batch(self) -> Iterator[None]:
        """Hold the lock for a batch and defer its journal records and
        unlinks to one append at the end.

        If the batch fails part-way, the records of the completed prefix
        are still appended before the error propagates — the journal
        never lags payloads that were already written.  A
        :class:`CrashInjected` models process death instead: a dead
        process appends nothing and unlinks nothing, so the deferred
        work is *discarded* and the reopened store sees only what was
        durable at the fault point (orphan payload files, the old
        journal).
        """
        with self._lock:
            self._defer_journal = True
            try:
                yield
            except BaseException as exc:
                self._finish_batch(crashed=isinstance(exc, CrashInjected))
                raise
            self._finish_batch()

    def _finish_batch(self, crashed: bool = False) -> None:
        records, self._pending_records = self._pending_records, []
        unlinks, self._pending_unlinks = self._pending_unlinks, []
        self._defer_journal = False
        if crashed:
            return
        if records:
            self._append_records(records)
        for path in unlinks:
            self._unlink_after_journal(path)

    def put_many_serialized(self, items) -> List[int]:
        """Batched puts: one journal append for the whole batch.

        Routes through ``put_serialized`` (and thus the ``_write`` hook,
        so subclasses see every entry).  Superseded payload files are
        unlinked only after the batch's records are durable.
        """
        with self._batch():
            return [self.put_serialized(key, payload, stamp, node)
                    for key, payload, stamp, node in items]

    def _meta(self, key: str) -> Tuple[int, int, int]:
        with self._lock:
            meta = self._index.get(key)
        if meta is None:
            raise KVStoreError(key)
        return meta

    def _read(self, key: str) -> bytes:
        for _ in range(2):
            stamp, _nbytes, gen = self._meta(key)
            try:
                with open(self._path(key, stamp, gen), "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                continue  # a concurrent overwrite may have unlinked it
        raise KVStoreError(key)

    def stamp_of(self, key: str) -> int:
        return self._meta(key)[0]

    def nbytes_of(self, key: str) -> int:
        return self._meta(key)[1]

    def has(self, key: str) -> bool:
        with self._lock:
            return key in self._index

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._index)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(nbytes for _stamp, nbytes, _gen in self._index.values())

    def delete(self, key: str) -> None:
        with self._lock:
            if key not in self._index:
                raise KVStoreError(key)
            # Tombstone first: a crash after the journal append merely
            # leaks an orphan payload file (invisible to the index),
            # while the reverse order would leave a journal that still
            # indexes a key whose payload is gone.
            stamp, _nbytes, gen = self._index.pop(key)
            self._journal_record({"op": "del", "key": key})
            self._unlink_after_journal(self._path(key, stamp, gen))

    def delete_many(self, keys) -> None:
        """Batched deletes: one journal append for all tombstones."""
        with self._batch():
            for key in keys:
                self.delete(key)


def _put_record(key: str, stamp: int, nbytes: int, gen: int) -> dict:
    record = {"op": "put", "key": key, "stamp": stamp, "nbytes": nbytes}
    if gen:
        record["gen"] = gen
    return record
