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
from typing import Dict, List, Tuple

from .backend import CheckpointBackend, KVStoreError
from .serializer import payload_bytes


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
    """

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, bytes] = {}
        self._meta: Dict[str, StoredEntry] = {}

    @staticmethod
    def _nodes(node) -> Tuple[int, ...]:
        return (node,) if isinstance(node, int) else tuple(node)

    def _write(self, key: str, payload, stamp: int, node) -> None:
        # The memory tier *retains* the payload, so a frame rope (which
        # aliases caller arrays) or a pooled staging view (whose buffer
        # is reused) must be materialized here — the tier's one copy.
        data = payload_bytes(payload)
        self._data[key] = data
        self._meta[key] = StoredEntry(
            key=key, stamp=stamp, nbytes=len(data), nodes=self._nodes(node)
        )

    def restamp(self, key: str, stamp: int, nodes) -> int:
        """Relabel the retained payload of ``key`` as captured at ``stamp``
        on ``nodes``; metadata only, the bytes stay as they are.  Returns
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
        if key not in self._data:
            raise KVStoreError(key)
        return self._data[key]

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
