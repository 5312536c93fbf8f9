"""Checkpoint version retention for the persist tier.

PEC complicates garbage collection: the newest checkpoint alone is NOT
recoverable, because unselected experts' latest durable versions live in
*older* checkpoints.  A retention policy must therefore keep, for every
entry key, at least the newest stored version — and delete only versions
that have been fully superseded.

Every persist backend keeps exactly one (the latest) version per key —
:class:`~repro.ckpt.sharded.ShardedDiskKVStore` reclaims a superseded
version once its successor is journaled — so per-key supersession is
implicit; what
remains is bounding *metadata* growth and answering the operational
question "which iterations are still recoverable, and what is the
oldest stamp recovery would pull in?".  :class:`RetentionAuditor`
answers it, and :func:`prune_stale_entries` removes entries that no
longer belong to any tracked population (e.g. after an expert-count
change on resume).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..obs.metrics import get_registry
from ..obs.trace import span as _span
from .backend import CheckpointBackend
from .manifest import parse_entry_key

_PRUNED_ENTRIES = get_registry().counter(
    "moc_retention_pruned_entries_total",
    "Orphan entries deleted by prune_stale_entries.",
)


@dataclass
class RecoveryFootprint:
    """What a recovery from the store's current contents would read."""

    newest_stamp: int
    oldest_stamp: int
    total_entries: int
    stale_entries: int  # entries older than the newest stamp

    @property
    def staleness_span(self) -> int:
        """Iterations between the freshest and stalest restored entry."""
        return self.newest_stamp - self.oldest_stamp


@dataclass
class TieredFootprint:
    """Per-tier accounting of a two-level (local + remote) store."""

    local_entries: int
    local_bytes: int
    remote_entries: int
    remote_bytes: int
    pending_uploads: int  # entries not yet claimed remote-durable

    @property
    def local_fraction(self) -> float:
        """Share of logical entries still resident on the local tier."""
        total = max(self.local_entries, self.remote_entries)
        return self.local_entries / total if total else 1.0


@dataclass
class DedupFootprint:
    """Chunk-level accounting of a content-addressed store."""

    logical_bytes: int  # sum of entry payload sizes (what recovery reads)
    physical_bytes: int  # chunk file bytes on disk
    reclaimable_bytes: int  # zero-ref / orphan chunk bytes a gc would free
    live_chunks: int

    @property
    def dedup_ratio(self) -> float:
        """Logical bytes per physical live byte (>= 1 under sharing)."""
        live = self.physical_bytes - self.reclaimable_bytes
        return self.logical_bytes / live if live > 0 else 1.0


class RetentionAuditor:
    """Inspect a store's recoverability under PEC versioning."""

    def __init__(self, store: CheckpointBackend) -> None:
        self.store = store

    def footprint(self) -> RecoveryFootprint:
        """Audit all non-meta entries in the store."""
        stamps: List[int] = []
        for key in self.store.keys():
            kind, _, _ = parse_entry_key(key)
            if kind == "meta":
                continue
            stamps.append(self.store.stamp_of(key))
        if not stamps:
            raise ValueError("store holds no checkpoint entries")
        newest = max(stamps)
        oldest = min(stamps)
        stale = sum(1 for stamp in stamps if stamp < newest)
        return RecoveryFootprint(
            newest_stamp=newest,
            oldest_stamp=oldest,
            total_entries=len(stamps),
            stale_entries=stale,
        )

    def stale_experts(self) -> Dict[Tuple[int, int], int]:
        """Per-(layer, expert): the oldest stamp among its entries."""
        result: Dict[Tuple[int, int], int] = {}
        for key in self.store.keys():
            kind, expert_key, _ = parse_entry_key(key)
            if kind != "expert" or expert_key is None:
                continue
            identity = (expert_key.moe_layer, expert_key.expert)
            stamp = self.store.stamp_of(key)
            if identity not in result or stamp < result[identity]:
                result[identity] = stamp
        return result

    def dedup_footprint(self) -> Optional["DedupFootprint"]:
        """Physical-vs-logical byte accounting for a dedup store.

        Returns ``None`` for stores without content-addressed chunks.
        ``reclaimable_bytes`` is what a ``gc`` pass would free right
        now (zero-ref and orphaned chunk files).
        """
        from .dedup import DedupBackend
        from .tiered import TieredBackend

        store = getattr(self.store, "inner", self.store)  # unwrap async
        if isinstance(store, TieredBackend):
            store = store.local  # the chunk store is the local tier
        if not isinstance(store, DedupBackend):
            return None
        self.store.flush()
        logical = store.total_bytes()
        refs = store.chunks.refs
        physical = 0
        reclaimable = 0
        for digest, size in store.chunks.disk_chunks().items():
            physical += size
            if refs.get(digest, 0) <= 0:
                reclaimable += size
        return DedupFootprint(
            logical_bytes=logical,
            physical_bytes=physical,
            reclaimable_bytes=reclaimable,
            live_chunks=sum(1 for count in refs.values() if count > 0),
        )

    def tiered_footprint(self) -> Optional["TieredFootprint"]:
        """Per-tier byte/entry accounting for a tiered store.

        Returns ``None`` for non-tiered stores.  ``pending_uploads``
        counts entries whose local content is not yet claimed durable
        on the remote tier — nonzero means a crash right now would
        recover from the local tier only.
        """
        from .tiered import TieredBackend

        store = getattr(self.store, "inner", self.store)  # unwrap async
        if not isinstance(store, TieredBackend):
            return None
        self.store.flush()
        local_keys = store.local.keys()
        remote_keys = store.remote.keys()
        return TieredFootprint(
            local_entries=len(local_keys),
            local_bytes=store.local.total_bytes(),
            remote_entries=len(remote_keys),
            remote_bytes=store.remote.total_bytes(),
            pending_uploads=len(store.pending_uploads()),
        )


def expected_entry_keys(
    non_expert_names: Iterable[str],
    expert_entry_keys: Iterable[str],
    meta_names: Iterable[str] = ("iteration", "topology"),
) -> Set[str]:
    """The full set of keys a live manager population owns."""
    from .manifest import meta_entry_key, non_expert_entry_key

    keys: Set[str] = {non_expert_entry_key(name) for name in non_expert_names}
    keys.update(expert_entry_keys)
    keys.update(meta_entry_key(name) for name in meta_names)
    return keys


def prune_stale_entries(store, expected_keys: Set[str], gc: bool = False) -> List[str]:
    """Delete entries not in ``expected_keys`` (orphans from an old run).

    Works on any :class:`~repro.ckpt.backend.CheckpointBackend` via its
    ``delete`` method.  On a refcounted store (the dedup backend, or an
    async pipeline wrapping one) each delete only *decrements* chunk
    refs; pass ``gc=True`` to follow up with the store's ``gc`` pass so
    chunks orphaned by the prune are physically reclaimed (a no-op for
    backends without one).  Returns the deleted keys.
    """
    from .backend import CheckpointBackend

    if not isinstance(store, CheckpointBackend):
        raise TypeError(f"unsupported store type {type(store).__name__}")
    orphans = [key for key in store.keys() if key not in expected_keys]
    with _span("retention-prune", orphans=len(orphans), gc=gc):
        store.delete_many(orphans)
        if gc:
            target = getattr(store, "inner", store)  # unwrap the async pipeline
            collect = getattr(target, "gc", None)
            if callable(collect):
                store.flush()
                collect()
    _PRUNED_ENTRIES.inc(len(orphans))
    return sorted(orphans)
