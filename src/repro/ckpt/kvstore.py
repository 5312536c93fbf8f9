"""The CPU-memory snapshot tier of Section 5.

The paper stores checkpointed modules as key-value pairs "for efficient
retrieval from both memory and distributed storage".
:class:`InMemoryKVStore` is the memory tier; the persistent tier is
:class:`~repro.ckpt.sharded.ShardedDiskKVStore` (or a store built on it).
Both implement the :class:`~repro.ckpt.backend.CheckpointBackend`
contract.

Every ``put`` records an iteration *stamp*; recovery uses stamps to pick
the freshest available version of each entry and the PLT tracker uses
them to charge update loss.  Stores meter bytes written/read so the tests
and benches can assert transfer volumes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .backend import CheckpointBackend, KVStoreError, PutItem
from .serializer import (
    deserialize_entry,
    payload_bytes,
    serialize_entry,
    serialized_nbytes,
)

#: A retained entry: field name -> read-only array.
Entry = Dict[str, np.ndarray]


@dataclass
class StoredEntry:
    """An entry version held by a store."""

    key: str
    stamp: int  # iteration number the entry was captured at
    nbytes: int
    # Nodes whose CPU memory holds a copy (memory tier only).  An expert
    # replicated across EP groups is snapshotted on every replica's node,
    # so its in-memory copy survives until ALL hosting nodes fail.
    nodes: Tuple[int, ...] = (0,)


class InMemoryKVStore(CheckpointBackend):
    """CPU-memory snapshot tier.

    Keeps only the latest version of each key (snapshots supersede).
    ``drop_node`` models a node failure losing its in-memory snapshots.

    Entries are held in one form: dicts of read-only arrays, in field
    order.  :meth:`put` keeps an array by reference when nothing can
    write it any more (:func:`_immutable` — what ``Adam`` binds, and
    zero-copy reads over ``bytes``) and copies anything else once, so a
    retained snapshot never changes after its put returns.  A
    serialized payload (:meth:`put_serialized`) is materialized once
    and retained as zero-copy views over those bytes.  ``nbytes`` is
    the serialized size either way.
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, Entry] = {}
        self._meta: Dict[str, StoredEntry] = {}

    @staticmethod
    def _nodes(node) -> Tuple[int, ...]:
        return (node,) if isinstance(node, int) else tuple(node)

    def _retain(self, key: str, entry: Entry, nbytes: int, stamp: int, node) -> int:
        self._data[key] = entry
        self._meta[key] = StoredEntry(
            key=key, stamp=stamp, nbytes=nbytes, nodes=self._nodes(node)
        )
        with self._meter_lock:
            self.bytes_written += nbytes
            self.put_count += 1
        return nbytes

    def put(self, key: str, entry: Mapping[str, np.ndarray], stamp: int, node=0) -> int:
        """Retain ``entry`` by reference where it is immutable; returns
        its serialized size."""
        frozen = {name: _frozen(entry[name]) for name in sorted(entry)}
        return self._retain(key, frozen, serialized_nbytes(frozen), stamp, node)

    def put_many(self, items: Sequence[PutItem]) -> List[int]:
        return [self.put(key, entry, stamp, node) for key, entry, stamp, node in items]

    def put_serialized(self, key: str, payload, stamp: int, node=0) -> int:
        # A frame rope aliases caller arrays and a pooled staging view
        # is reused, so the bytes are materialized here (the tier's one
        # copy) and the entry is kept as read-only views over them.
        data = payload_bytes(payload)
        return self._retain(key, deserialize_entry(data, copy=False), len(data), stamp, node)

    def _write(self, key: str, payload, stamp: int, node) -> None:
        self.put_serialized(key, payload, stamp, node)

    def get(self, key: str, copy: bool = True) -> Entry:
        """The retained arrays (``copy=False``: the read-only arrays
        themselves; ``copy=True``: writable copies)."""
        if key not in self._data:
            raise KVStoreError(key)
        with self._meter_lock:
            self.bytes_read += self._meta[key].nbytes
        entry = self._data[key]
        if copy:
            return {name: array.copy() for name, array in entry.items()}
        return dict(entry)

    def restamp(self, key: str, stamp: int, nodes) -> int:
        """Relabel the retained entry of ``key`` as captured at ``stamp``
        on ``nodes``; metadata only, the arrays stay as they are.  Returns
        the payload's size, as a put would.

        For a snapshot whose source state has not changed since it was
        materialized: re-putting it would store identical bytes.
        """
        if key not in self._meta:
            raise KVStoreError(key)
        meta = self._meta[key]
        meta.stamp = stamp
        meta.nodes = self._nodes(nodes)
        return meta.nbytes

    def _read(self, key: str) -> bytes:
        """The serialized payload of ``key`` (built on demand)."""
        if key not in self._data:
            raise KVStoreError(key)
        return serialize_entry(self._data[key])

    def stamp_of(self, key: str) -> int:
        if key not in self._meta:
            raise KVStoreError(key)
        return self._meta[key].stamp

    def nbytes_of(self, key: str) -> int:
        if key not in self._meta:
            raise KVStoreError(key)
        return self._meta[key].nbytes

    def nodes_of(self, key: str) -> Tuple[int, ...]:
        if key not in self._meta:
            raise KVStoreError(key)
        return self._meta[key].nodes

    def has(self, key: str) -> bool:
        return key in self._data

    def keys(self) -> List[str]:
        return sorted(self._data)

    def total_bytes(self) -> int:
        return sum(meta.nbytes for meta in self._meta.values())

    def delete(self, key: str) -> None:
        if key not in self._data:
            raise KVStoreError(key)
        del self._data[key]
        del self._meta[key]

    def drop_node(self, node: int) -> List[str]:
        """A node fault: its memory copies vanish.

        Entries replicated on other (surviving) nodes remain readable;
        an entry is deleted only when its last hosting node fails.
        Returns the keys that became fully unavailable.
        """
        lost = []
        for key, meta in list(self._meta.items()):
            if node not in meta.nodes:
                continue
            remaining = tuple(n for n in meta.nodes if n != node)
            if remaining:
                meta.nodes = remaining
            else:
                lost.append(key)
                del self._data[key]
                del self._meta[key]
        return sorted(lost)

    def clear(self) -> None:
        self._data.clear()
        self._meta.clear()


def _immutable(array: np.ndarray) -> bool:
    """True when nothing can write ``array``'s memory any more: it and
    every array it views are read-only, down to an owner that is
    ``None`` (numpy-owned) or ``bytes``."""
    base = array
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    if isinstance(base, memoryview):
        base = base.obj
    return base is None or isinstance(base, bytes)


def _frozen(value) -> np.ndarray:
    """``value`` itself when it is an immutable array in serialized
    layout (C-contiguous), else a read-only copy of it."""
    array = np.asarray(value)
    if _immutable(array) and (array.ndim == 0 or array.flags.c_contiguous):
        return array
    copied = np.array(array, order="C")
    copied.flags.writeable = False
    return copied
