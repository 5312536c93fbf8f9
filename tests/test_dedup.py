"""Dedup engine suite: chunking, refcounts, GC, fsck, delta saves.

The backend-contract behaviour (puts, deletes, meters, concurrency) is
covered by the shared suite in ``test_backend_contract.py``, which the
dedup backend participates in; this file pins what is *specific* to the
content-addressed engine — byte-level dedup evidence, the refcount
lifecycle, integrity checking, and the manager's delta-save path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    AsyncWriteError,
    DedupBackend,
    KVStoreError,
    ParallelRestorer,
    ReadRequest,
    RetentionAuditor,
    chunk_digest,
    chunk_payload,
    entry_digest,
    make_backend,
    serialize_entry,
)


def entry(value: float, size: int = 64) -> dict:
    return {"x": np.full(size, value)}


class TestChunking:
    def test_fixed_size_chunks(self):
        payload = bytes(range(10)) * 100
        chunks = chunk_payload(payload, 256)
        assert b"".join(chunks) == payload
        assert all(len(chunk) == 256 for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) <= 256

    def test_empty_payload_has_one_chunk(self):
        assert chunk_payload(b"", 64) == [b""]

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_payload(b"abc", 0)
        with pytest.raises(ValueError):
            DedupBackend("/tmp/unused", chunk_bytes=0)

    def test_digest_is_content_address(self):
        assert chunk_digest(b"abc") == chunk_digest(b"abc")
        assert chunk_digest(b"abc") != chunk_digest(b"abd")

    def test_entry_digest_matches_serialized_identity(self):
        # Two entries share a digest iff their serialized bytes agree —
        # the property the manager's delta-save skip relies on.
        a = {"x": np.arange(5.0), "y": np.ones(3, dtype=np.float32)}
        b = {"y": np.ones(3, dtype=np.float32), "x": np.arange(5.0)}
        assert entry_digest(a) == entry_digest(b)
        assert serialize_entry(a) == serialize_entry(b)
        c = {"x": np.arange(5.0), "y": np.ones(3, dtype=np.float64)}
        assert entry_digest(a) != entry_digest(c)
        d = {"x": np.arange(6.0).reshape(2, 3)}
        e = {"x": np.arange(6.0).reshape(3, 2)}
        assert entry_digest(d) != entry_digest(e)


class TestDedupBehaviour:
    def test_identical_reput_writes_zero_chunk_bytes(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("k", entry(1.0), stamp=1)
        physical = store.chunks.chunk_bytes_written
        store.put("k", entry(1.0), stamp=2)  # same content, new stamp
        assert store.chunks.chunk_bytes_written == physical
        assert store.stamp_of("k") == 2
        assert store.chunks.dedup_hits > 0

    def test_identical_content_across_keys_shares_chunks(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("a", entry(7.0), stamp=1)
        physical = store.chunks.chunk_bytes_written
        store.put("b", entry(7.0), stamp=1)
        assert store.chunks.chunk_bytes_written == physical
        # both manifests reference the same chunk addresses
        assert store.chunks_of("a") == store.chunks_of("b")

    def test_partial_overlap_dedups_shared_prefix(self, tmp_path):
        # Entries sharing a long identical prefix share its chunks; only
        # the divergent tail costs new bytes.
        store = DedupBackend(str(tmp_path), chunk_bytes=64)
        base = np.zeros(512)
        changed = base.copy()
        changed[-4:] = 9.0
        store.put("a", {"x": base}, stamp=1)
        physical = store.chunks.chunk_bytes_written
        store.put("b", {"x": changed}, stamp=1)
        tail_bytes = store.chunks.chunk_bytes_written - physical
        assert 0 < tail_bytes < len(serialize_entry({"x": changed}))

    def test_logical_meters_physical_story_split(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        n1 = store.put("a", entry(3.0), stamp=1)
        n2 = store.put("b", entry(3.0), stamp=1)
        # contract meters stay logical (uniform with every backend)
        assert store.bytes_written == n1 + n2
        assert store.total_bytes() == n1 + n2
        # the physical story: one copy of the content on disk
        assert store.unique_bytes() < n1 + n2
        assert store.chunks.dedup_bytes_saved > 0

    def test_reassembly_roundtrip_multi_field(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=32)
        original = {
            "master": np.arange(100.0),
            "m": np.zeros(100),
            "v": np.full(100, 1e-8),
            "step": np.asarray(7),
        }
        store.put("opt", original, stamp=5)
        loaded = store.get("opt")
        for name, array in original.items():
            assert np.array_equal(loaded[name], array)

    def test_reopen_preserves_manifests_and_refs(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(1.0), stamp=2)
        refs_before = dict(store.chunks.refs)
        reopened = DedupBackend(str(tmp_path), chunk_bytes=128)
        assert reopened.keys() == ["a", "b"]
        assert reopened.chunks.refs == refs_before
        assert np.array_equal(reopened.get("b")["x"], np.full(64, 1.0))

    def test_make_backend_constructs_dedup(self, tmp_path):
        store = make_backend("dedup", str(tmp_path))
        assert isinstance(store, DedupBackend)
        with pytest.raises(ValueError):
            make_backend("dedup", None)

    def test_manifest_compaction_bounds_journal(self, tmp_path):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=128, compact_min_records=16
        )
        for stamp in range(100):
            store.put("hot", entry(float(stamp % 3)), stamp=stamp)
        assert store._manifests.records < 100
        reopened = DedupBackend(str(tmp_path), chunk_bytes=128)
        assert reopened.stamp_of("hot") == 99


class TestRefcountLifecycle:
    def test_overwrite_decrefs_old_chunks(self, tmp_path):
        from collections import Counter

        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("k", entry(1.0), stamp=1)
        old_chunks = set(store.chunks_of("k"))
        store.put("k", entry(2.0), stamp=2)
        new_counts = Counter(store.chunks_of("k"))
        for digest in old_chunks - set(new_counts):
            assert store.chunks.refs.get(digest, 0) == 0
        # refs count *references*: a chunk repeated inside one manifest
        # (e.g. interior blocks of a constant array) carries its
        # multiplicity, so one decref per reference balances exactly
        for digest, count in new_counts.items():
            assert store.chunks.refs[digest] == count

    def test_shared_chunk_survives_one_owner_deletion(self, tmp_path):
        from collections import Counter

        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("a", entry(5.0), stamp=1)
        store.put("b", entry(5.0), stamp=1)
        store.delete("a")
        store.gc()
        # b still owns the content: nothing was reclaimed
        assert np.array_equal(store.get("b")["x"], np.full(64, 5.0))
        for digest, count in Counter(store.chunks_of("b")).items():
            assert store.chunks.refs[digest] == count

    def test_gc_reclaims_zero_ref_chunks(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("k", entry(1.0), stamp=1)
        store.put("k", entry(2.0), stamp=2)  # superseded content
        assert store.unique_bytes() > store.total_bytes()
        report = store.gc()
        assert report.reclaimed_chunks > 0
        assert store.unique_bytes() == report.live_bytes
        assert np.array_equal(store.get("k")["x"], np.full(64, 2.0))

    def test_gc_reclaims_stray_tmp_files(self, tmp_path):
        """Regression: a write dying between the tmp write and its
        os.replace leaves a .tmp the refcounts never mention; fsck must
        surface it as an orphan warning and gc must unlink it."""
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("k", entry(1.0), stamp=1)
        digest = store.chunks_of("k")[0]
        stray = store.chunks._path(digest)[: -len(digest)] + ("f" * 64) + ".tmp"
        with open(stray, "wb") as handle:
            handle.write(b"dead write")
        report = store.fsck()
        assert report.ok
        assert any(name.endswith(".tmp") for name in report.orphan_chunks)
        store.gc()
        assert not os.path.exists(stray)
        assert not store.fsck().warnings
        assert np.array_equal(store.get("k")["x"], np.full(64, 1.0))

    def test_gc_is_idempotent(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("k", entry(1.0), stamp=1)
        store.delete("k")
        first = store.gc()
        second = store.gc()
        assert first.reclaimed_chunks > 0
        assert second.reclaimed_chunks == 0
        assert second.live_chunks == 0

    def test_gc_compacts_refs_journal(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        for stamp in range(20):
            store.put("hot", entry(float(stamp)), stamp=stamp)
        size_before = os.path.getsize(store.chunks._journal.path)
        store.gc()
        assert os.path.getsize(store.chunks._journal.path) < size_before
        reopened = DedupBackend(str(tmp_path), chunk_bytes=128)
        assert np.array_equal(reopened.get("hot")["x"], np.full(64, 19.0))

    def test_batched_delete_decrefs_once_per_reference(self, tmp_path):
        from collections import Counter

        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        for name in ("a", "b", "c"):
            store.put(name, entry(4.0), stamp=1)
        store.delete_many(["a", "b"])
        for digest, count in Counter(store.chunks_of("c")).items():
            assert store.chunks.refs[digest] == count
        store.gc()
        assert np.array_equal(store.get("c")["x"], np.full(64, 4.0))


class TestFsck:
    def seeded(self, tmp_path) -> DedupBackend:
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0, size=200), stamp=2)
        return store

    def test_clean_store_passes(self, tmp_path):
        report = self.seeded(tmp_path).fsck()
        assert report.ok
        assert report.chunks_checked > 0
        assert report.manifests_checked == 2
        assert not report.warnings

    def test_detects_corrupt_chunk(self, tmp_path):
        store = self.seeded(tmp_path)
        digest = store.chunks_of("a")[0]
        path = store.chunks._path(digest)
        with open(path, "r+b") as handle:
            handle.seek(2)
            handle.write(b"\xff")
        report = store.fsck()
        assert not report.ok
        assert digest in report.corrupt_chunks

    def test_detects_missing_chunk(self, tmp_path):
        store = self.seeded(tmp_path)
        digest = store.chunks_of("b")[0]
        os.remove(store.chunks._path(digest))
        report = store.fsck()
        assert not report.ok
        assert any(digest in line for line in report.errors)

    def test_orphan_chunks_are_warnings_not_errors(self, tmp_path):
        store = self.seeded(tmp_path)
        store.delete("a")  # decref'd but not yet collected
        report = store.fsck()
        assert report.ok
        assert report.orphan_chunks

    def test_refcount_drift_detected_and_repaired(self, tmp_path):
        store = self.seeded(tmp_path)
        # model a crash window: an incref became durable whose manifest
        # never did
        leaked = store.chunks_of("a")[0]
        store.chunks.apply_refs({leaked: 1}, {})
        report = store.fsck()
        assert report.ok  # over-count is a leak, not an integrity error
        assert leaked in report.overcounted_refs
        repaired = store.fsck(repair=True)
        assert repaired.repaired
        after = store.fsck()
        assert not after.overcounted_refs

    def test_underflow_is_an_error(self, tmp_path):
        store = self.seeded(tmp_path)
        victim = store.chunks_of("a")[0]
        store.chunks.apply_refs({}, {victim: 1})
        report = store.fsck()
        assert not report.ok
        assert victim in report.undercounted_refs

    def test_missing_payload_read_raises_typed_error(self, tmp_path):
        store = self.seeded(tmp_path)
        os.remove(store.chunks._path(store.chunks_of("a")[0]))
        with pytest.raises(KVStoreError):
            store.get("a")


class TestParallelRestoreThroughChunks:
    def test_restorer_reassembles_concurrently(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=64)
        for i in range(24):
            store.put(f"k{i}", entry(float(i % 5), size=100), stamp=i)
        requests = [ReadRequest(key=f"k{i}", store=store) for i in range(24)]
        entries, stats = ParallelRestorer(workers=6).fetch(requests)
        assert stats.entries == 24
        for i in range(24):
            assert np.array_equal(entries[f"k{i}"]["x"], np.full(100, float(i % 5)))


class TestDedupFootprint:
    def test_auditor_reports_chunk_accounting(self, tmp_path):
        store = DedupBackend(str(tmp_path), chunk_bytes=128)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(1.0), stamp=1)  # shared content
        footprint = RetentionAuditor(store).dedup_footprint()
        assert footprint is not None
        assert footprint.logical_bytes == store.total_bytes()
        assert footprint.physical_bytes < footprint.logical_bytes
        assert footprint.dedup_ratio > 1.0
        assert footprint.reclaimable_bytes == 0
        store.delete("a")
        store.delete("b")
        footprint = RetentionAuditor(store).dedup_footprint()
        assert footprint.reclaimable_bytes == footprint.physical_bytes

    def test_none_for_non_dedup_store(self, tmp_path):
        from repro.ckpt import ShardedDiskKVStore

        store = ShardedDiskKVStore(str(tmp_path))
        store.put("a", entry(1.0), stamp=1)
        assert RetentionAuditor(store).dedup_footprint() is None

    def test_unwraps_async_pipeline(self, tmp_path):
        with AsyncWriteBackend(DedupBackend(str(tmp_path))) as store:
            store.put("a", entry(1.0), stamp=1)
            footprint = RetentionAuditor(store).dedup_footprint()
            assert footprint is not None
            assert footprint.logical_bytes > 0


def _tiny_manager(tmp_path, kind: str = "sharded", full_pec: bool = False, **kwargs):
    from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
    from repro.testing import TINY, tiny_model_and_optimizer

    model, optimizer = tiny_model_and_optimizer()
    config = MoCConfig(
        pec=(PECConfig.full(TINY.num_experts) if full_pec
             else PECConfig(k_snapshot=2, k_persist=1)),
        two_level=TwoLevelConfig(checkpoint_interval=2),
    )
    manager = MoCCheckpointManager(
        model, optimizer, config, disk_store=make_backend(kind, str(tmp_path)), **kwargs
    )
    return model, optimizer, manager


class TestManagerDeltaSaves:
    def _freeze_and_checkpoint(self, model, optimizer, manager, iterations):
        """Checkpoint repeatedly without touching parameters: every
        persist-tier entry is content-identical after the first save."""
        import numpy as np

        counts = [np.full(4, 2)] * manager.num_moe_layers
        for iteration in iterations:
            manager.note_routing(counts)
            manager.checkpoint(iteration)

    def test_unchanged_entries_skipped_and_reported(self, tmp_path):
        model, optimizer, manager = _tiny_manager(
            tmp_path, kind="dedup", delta_saves=True
        )
        manager.save_initial(0)
        self._freeze_and_checkpoint(model, optimizer, manager, [2, 4])
        manifest = manager.manifests[-1]
        assert manifest.persist_entries == []  # everything unchanged
        assert manifest.persist_skipped
        assert manifest.persist_skipped_bytes() > 0
        # skip records carry the stored version's stamp
        assert all(r.stamp == 0 for r in manifest.persist_skipped)
        manager.close()

    def test_changed_entries_still_written(self, tmp_path):
        from repro.testing import train_steps
        from repro.train import MarkovCorpus

        model, optimizer, manager = _tiny_manager(
            tmp_path, kind="dedup", delta_saves=True
        )
        manager.save_initial(0)
        corpus = MarkovCorpus(vocab_size=32, seq_len=12, seed=2)
        train_steps(model, optimizer, corpus, 2)
        manager.note_model_routing()
        manifest = manager.checkpoint(2)
        assert manifest.persist_entries  # training changed content
        manager.close()

    @pytest.mark.parametrize("backend", ["sharded", "dedup"])
    def test_delta_recovery_is_bit_exact(self, tmp_path, backend):
        """Recovery through a delta-skipped checkpoint restores the
        exact state — a skip must be indistinguishable from a write.
        Full PEC isolates the delta-skip property from ordinary PEC
        staleness (with K<N, unselected experts are stale by design)."""
        from repro.testing import params_equal, snapshot_params, train_steps
        from repro.train import MarkovCorpus

        model, optimizer, manager = _tiny_manager(
            tmp_path, kind=backend, delta_saves=True, full_pec=True
        )
        manager.save_initial(0)
        corpus = MarkovCorpus(vocab_size=32, seq_len=12, seed=2)
        train_steps(model, optimizer, corpus, 2)
        manager.note_model_routing()
        manager.checkpoint(2)
        # second checkpoint with no intervening updates: all skips
        self._freeze_and_checkpoint(model, optimizer, manager, [4])
        assert manager.manifests[-1].persist_skipped
        saved = snapshot_params(model)
        # clobber live state, then recover from storage alone
        for _name, param in model.named_parameters():
            param.data = np.zeros_like(param.data)
        result = manager.recover(failed_nodes=[0, 1])
        assert result.resume_iteration == 4
        assert params_equal(saved, snapshot_params(model))
        manager.close()

    def test_digest_cache_cleared_on_recover(self, tmp_path):
        model, optimizer, manager = _tiny_manager(
            tmp_path, kind="dedup", delta_saves=True
        )
        manager.save_initial(0)
        self._freeze_and_checkpoint(model, optimizer, manager, [2])
        assert manager._persist_digests
        manager.recover(failed_nodes=[0])
        assert manager._persist_digests == {}
        # the next checkpoint re-writes (no stale-skip after recovery)
        self._freeze_and_checkpoint(model, optimizer, manager, [4])
        assert manager.manifests[-1].persist_entries
        manager.close()

    def test_deferred_async_error_at_meta_put_drops_digest_cache(self, tmp_path):
        """Regression: a deferred AsyncWriteError surfaces at the
        checkpoint's *meta* put (the write after the discarded batch) —
        the digest cache must be dropped there too, or the next
        checkpoint would delta-skip entries whose bytes the failed
        pipeline threw away, and recovery would restore stale state."""
        model, optimizer, manager = _tiny_manager(
            tmp_path, delta_saves=True, async_writes=True
        )
        manager.save_initial(0)
        manager.flush()
        inner = manager.disk_store.inner
        original = type(inner).put_serialized.__get__(inner)

        def fail_batch(key, payload, stamp, node=0):
            raise OSError("disk full")

        inner.put_serialized = fail_batch
        counts = [np.full(4, 2)] * manager.num_moe_layers
        manager.note_routing(counts)
        with pytest.raises(AsyncWriteError):
            # the batch stages fine; the worker fails it and the error
            # surfaces at a later single put in the same checkpoint
            manager.checkpoint(2)
            manager.flush()
        assert manager._persist_digests == {}
        inner.put_serialized = original
        # with the cache dropped, the next checkpoint re-writes
        manager.note_routing(counts)
        manifest = manager.checkpoint(4)
        manager.flush()
        assert manifest.persist_entries
        manager.close()

    def test_write_failure_drops_digest_cache(self, tmp_path):
        model, optimizer, manager = _tiny_manager(
            tmp_path, kind="dedup", delta_saves=True
        )
        manager.save_initial(0)
        self._freeze_and_checkpoint(model, optimizer, manager, [2])
        assert manager._persist_digests
        original = manager.disk_store.put_many_serialized

        def explode(items):
            raise OSError("disk full")

        manager.disk_store.put_many_serialized = explode
        with pytest.raises(OSError):
            manager.checkpoint(4)
        assert manager._persist_digests == {}
        manager.disk_store.put_many_serialized = original
        manager.close()


class TestManagerContextManager:
    def test_with_block_flushes_and_closes(self, tmp_path):
        model, optimizer, manager = _tiny_manager(
            tmp_path, async_writes=True
        )
        with manager:
            manager.save_initial(0)
        # worker thread stopped; store rejects further writes
        with pytest.raises(RuntimeError):
            manager.disk_store.put("late", entry(1.0), stamp=1)
        # the data is durable in the inner store
        reopened = make_backend("sharded", str(tmp_path))
        assert reopened.has("meta:iteration")

    def test_exit_surfaces_deferred_async_error(self, tmp_path):
        model, optimizer, manager = _tiny_manager(
            tmp_path, async_writes=True
        )

        def explode(key, payload, stamp, node=0):
            raise OSError("disk full")

        manager.disk_store.inner.put_serialized = explode
        with pytest.raises(AsyncWriteError):
            with manager:
                manager.save_initial(0)

    def test_exit_closes_even_when_body_raises(self, tmp_path):
        model, optimizer, manager = _tiny_manager(tmp_path, kind="dedup")
        with pytest.raises(KeyError):
            with manager:
                raise KeyError("body failure")
        # close() ran: flush is a no-op and further use is well-defined
        assert manager.disk_store.keys() == []


class TestDedupWriteCostModel:
    def test_full_change_has_no_dedup_win(self):
        from repro.distsim import dedup_write_cost, gpt_350m_16e

        cost = dedup_write_cost(gpt_350m_16e(), k_persist=4)
        assert cost.unique_bytes == cost.logical_bytes
        assert cost.dedup_ratio < 1.01  # only manifest overhead

    def test_unchanged_entries_reduce_bytes_and_manifests(self):
        from repro.distsim import dedup_write_cost, gpt_350m_16e

        spec = gpt_350m_16e()
        dense = dedup_write_cost(spec, k_persist=4)
        sparse = dedup_write_cost(spec, k_persist=4, unchanged_entry_fraction=0.75)
        assert sparse.logical_bytes == dense.logical_bytes
        assert sparse.persisted_bytes < dense.persisted_bytes / 3
        assert sparse.manifest_bytes < dense.manifest_bytes
        assert sparse.dedup_ratio > 3.0

    def test_chunk_granularity_tax(self):
        from repro.distsim import dedup_write_cost, gpt_350m_16e

        spec = gpt_350m_16e()
        fine = dedup_write_cost(
            spec, k_persist=4, chunk_bytes=4096, changed_chunk_fraction=0.1
        )
        coarse = dedup_write_cost(
            spec, k_persist=4, chunk_bytes=1 << 26, changed_chunk_fraction=0.1
        )
        # same dirty fraction costs the same chunk share, but coarse
        # chunks pay far less manifest overhead
        assert coarse.manifest_bytes < fine.manifest_bytes
        assert fine.chunks_referenced > coarse.chunks_referenced

    def test_validation(self):
        from repro.distsim import dedup_write_cost, gpt_350m_16e

        spec = gpt_350m_16e()
        with pytest.raises(ValueError):
            dedup_write_cost(spec, chunk_bytes=0)
        with pytest.raises(ValueError):
            dedup_write_cost(spec, changed_chunk_fraction=1.5)
        with pytest.raises(ValueError):
            dedup_write_cost(spec, unchanged_entry_fraction=-0.1)
        with pytest.raises(ValueError):
            dedup_write_cost(spec, digest_bytes=-1)
