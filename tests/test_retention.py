"""Retention / recoverability auditing tests.

The auditor and pruning paths are exercised across every backend —
memory, sharded journal, dedup, and the async pipeline —
plus the dedup backend's refcount semantics: pruning decrements chunk
refs, and the optional gc pass physically reclaims what the prune
orphaned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    DedupBackend,
    InMemoryKVStore,
    RetentionAuditor,
    ShardedDiskKVStore,
    expected_entry_keys,
    expert_entry_key,
    make_backend,
    meta_entry_key,
    non_expert_entry_key,
    prune_stale_entries,
)
from repro.models.serial import ExpertKey

BACKENDS = ["memory", "sharded", "dedup", "async", "async-dedup"]


def open_backend(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryKVStore()
    if kind == "sharded":
        return ShardedDiskKVStore(str(tmp_path / kind))
    if kind == "dedup":
        return DedupBackend(str(tmp_path / kind))
    if kind == "async":
        return AsyncWriteBackend(ShardedDiskKVStore(str(tmp_path / kind)))
    return AsyncWriteBackend(DedupBackend(str(tmp_path / kind)))


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    backend = seeded_store(open_backend(request.param, tmp_path))
    yield backend
    backend.close()


def seeded_store(store):
    store.put(non_expert_entry_key("attn.weight"), {"x": np.ones(2)}, stamp=20)
    store.put(expert_entry_key(ExpertKey(0, 0), "w") + ":w", {"x": np.ones(2)}, stamp=20)
    store.put(expert_entry_key(ExpertKey(0, 1), "w") + ":w", {"x": np.ones(2)}, stamp=10)
    store.put(meta_entry_key("iteration"), {"iteration": np.asarray(20)}, stamp=20)
    return store


EXPECTED = expected_entry_keys(
    ["attn.weight"],
    [
        expert_entry_key(ExpertKey(0, 0), "w") + ":w",
        expert_entry_key(ExpertKey(0, 1), "w") + ":w",
    ],
)


class TestAuditor:
    def test_footprint(self, store):
        footprint = RetentionAuditor(store).footprint()
        assert footprint.newest_stamp == 20
        assert footprint.oldest_stamp == 10
        assert footprint.staleness_span == 10
        assert footprint.total_entries == 3  # meta excluded
        assert footprint.stale_entries == 1

    def test_footprint_empty_store_raises(self):
        with pytest.raises(ValueError):
            RetentionAuditor(InMemoryKVStore()).footprint()

    def test_stale_experts(self, store):
        stale = RetentionAuditor(store).stale_experts()
        assert stale[(0, 0)] == 20
        assert stale[(0, 1)] == 10


class TestPruning:
    def test_prune_orphans(self, store):
        store.put(non_expert_entry_key("ghost.weight"), {"x": np.ones(1)}, stamp=1)
        removed = prune_stale_entries(store, EXPECTED)
        assert removed == [non_expert_entry_key("ghost.weight")]
        assert not store.has(non_expert_entry_key("ghost.weight"))
        assert store.has(non_expert_entry_key("attn.weight"))

    @pytest.mark.parametrize("kind", ["sharded", "dedup"])
    def test_prune_survives_reopen(self, kind, tmp_path):
        store = seeded_store(open_backend(kind, tmp_path))
        store.put("ne:old.param", {"x": np.ones(1)}, stamp=1)
        removed = prune_stale_entries(store, EXPECTED)
        assert removed == ["ne:old.param"]
        store.close()
        reopened = open_backend(kind, tmp_path)
        assert not reopened.has("ne:old.param")
        assert reopened.has(non_expert_entry_key("attn.weight"))

    def test_prune_unsupported_store(self):
        with pytest.raises(TypeError):
            prune_stale_entries(object(), set())

    def test_prune_noop_when_all_expected(self, store):
        expected = set(store.keys())
        assert prune_stale_entries(store, expected) == []


class TestDedupRefcountSemantics:
    """What retention means on a content-addressed tier: dropping a key
    decrements its chunks' refs; physical reclaim is gc's job."""

    def test_prune_decrefs_without_unlinking(self, tmp_path):
        store = seeded_store(open_backend("dedup", tmp_path))
        store.put("ne:old.param", {"x": np.full(64, 3.0)}, stamp=1)
        orphan_chunks = store.chunks_of("ne:old.param")
        physical = store.unique_bytes()
        prune_stale_entries(store, EXPECTED)
        # refs dropped to zero, chunk files still on disk
        for digest in orphan_chunks:
            assert store.chunks.refs.get(digest, 0) == 0
            assert store.chunks.has_chunk(digest)
        assert store.unique_bytes() == physical
        assert store.fsck().ok  # orphans are warnings, not errors

    def test_prune_with_gc_reclaims_orphaned_chunks(self, tmp_path):
        store = seeded_store(open_backend("dedup", tmp_path))
        store.put("ne:old.param", {"x": np.full(64, 3.0)}, stamp=1)
        orphan_chunks = store.chunks_of("ne:old.param")
        removed = prune_stale_entries(store, EXPECTED, gc=True)
        assert removed == ["ne:old.param"]
        for digest in set(orphan_chunks):
            assert not store.chunks.has_chunk(digest)
        report = store.fsck()
        assert report.ok and not report.warnings

    def test_prune_keeps_chunks_shared_with_live_entries(self, tmp_path):
        store = seeded_store(open_backend("dedup", tmp_path))
        live_key = non_expert_entry_key("attn.weight")
        # the orphan's content equals a live entry's: chunks are shared
        store.put("ne:old.param", store.get(live_key), stamp=1)
        prune_stale_entries(store, EXPECTED, gc=True)
        assert np.array_equal(store.get(live_key)["x"], np.ones(2))
        assert store.fsck().ok

    def test_gc_flag_is_noop_on_plain_backends(self, tmp_path):
        store = seeded_store(open_backend("sharded", tmp_path))
        store.put("ne:old.param", {"x": np.ones(1)}, stamp=1)
        removed = prune_stale_entries(store, EXPECTED, gc=True)
        assert removed == ["ne:old.param"]
        assert store.has(non_expert_entry_key("attn.weight"))

    def test_prune_with_gc_through_async_pipeline(self, tmp_path):
        store = seeded_store(open_backend("async-dedup", tmp_path))
        store.put("ne:old.param", {"x": np.full(64, 3.0)}, stamp=1)
        removed = prune_stale_entries(store, EXPECTED, gc=True)
        assert removed == ["ne:old.param"]
        inner = store.inner
        report = inner.fsck()
        assert report.ok and not report.orphan_chunks
        store.close()


class TestManagerIntegration:
    def test_pec_store_staleness_matches_cycle(self, tmp_path):
        """After several PEC checkpoints, the auditor's staleness span is
        bounded by a full selection cycle of intervals."""
        from repro.testing import TINY, train_steps
        from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
        from repro.models import Adam, MoETransformerLM
        from repro.train import MarkovCorpus

        model = MoETransformerLM(TINY)
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        manager = MoCCheckpointManager(
            model, optimizer,
            MoCConfig(
                pec=PECConfig(k_snapshot=1, k_persist=1),
                two_level=TwoLevelConfig(checkpoint_interval=2),
            ),
            disk_store=make_backend("sharded", str(tmp_path)),
        )
        corpus = MarkovCorpus(vocab_size=TINY.vocab_size, seq_len=12, seed=2)
        manager.save_initial(0)
        for iteration in range(1, 13):
            train_steps(model, optimizer, corpus, 1, start=iteration)
            manager.note_model_routing()
            manager.maybe_checkpoint(iteration)
        footprint = RetentionAuditor(manager.disk_store).footprint()
        # cycle = 4 experts / k=1 => span <= 4 intervals * 2 iters
        assert footprint.newest_stamp == 12
        assert footprint.staleness_span <= 4 * 2
