"""Tiered-backend behaviour beyond the shared contract suite.

``test_backend_contract.py`` proves the tiered store is a well-behaved
:class:`~repro.ckpt.backend.CheckpointBackend` (alone and under the
async pipeline); this file pins what makes it *tiered*: the write-back
upload pipeline and its retry/backoff policy, keep-last-k local
retention with read-through promotion, hedged remote reads, two-tier
fsck/gc semantics, and the retention-auditor / prune integration.
Crash seams are covered in ``test_crash_injection.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.ckpt import (
    DecorrelatedJitterBackoff,
    DedupBackend,
    InMemoryKVStore,
    KVStoreError,
    PipelineMeters,
    RemoteUnavailable,
    RetentionAuditor,
    ShardedDiskKVStore,
    SimulatedObjectStore,
    TieredBackend,
    is_tiered_root,
    make_backend,
    open_tiered_root,
    prune_stale_entries,
)


def entry(value: float, size: int = 16) -> dict:
    return {"x": np.full(size, value, dtype=np.float32)}


def open_store(tmp_path, **kwargs) -> TieredBackend:
    return open_tiered_root(str(tmp_path / "tier"), **kwargs)


class FlakyRemote(ShardedDiskKVStore):
    """Remote tier that fails the first ``fail_times`` ops per key."""

    def __init__(self, root: str, fail_times: int = 0) -> None:
        super().__init__(root)
        self.fail_times = fail_times
        self.attempts: dict = {}

    def put_serialized(self, key, payload, stamp, node=0):
        count = self.attempts.get(key, 0)
        self.attempts[key] = count + 1
        if count < self.fail_times:
            raise RemoteUnavailable(f"transient #{count} for {key}")
        return super().put_serialized(key, payload, stamp, node)


class TestUploadPipeline:
    def test_put_returns_before_remote_is_durable(self, tmp_path):
        release = threading.Event()
        entered = threading.Event()

        class Gated(ShardedDiskKVStore):
            def put_serialized(self, key, payload, stamp, node=0):
                entered.set()
                assert release.wait(timeout=10)
                return super().put_serialized(key, payload, stamp, node)

        local = DedupBackend(str(tmp_path / "local"))
        store = TieredBackend(
            local, Gated(str(tmp_path / "remote")),
            str(tmp_path / "tier.jsonl"), upload_workers=1,
        )
        try:
            store.put("k", entry(1.0), stamp=1)  # returns while upload blocks
            assert entered.wait(timeout=10)
            assert store.local.has("k")
            assert store.pending_uploads() == ["k"]
        finally:
            release.set()
            store.close()
        assert store.pending_uploads() == []

    def test_flush_drains_and_claims_everything(self, tmp_path):
        store = open_store(tmp_path, upload_workers=2)
        try:
            for i in range(20):
                store.put(f"k{i}", entry(float(i)), stamp=i)
            store.flush()
            assert store.pending_uploads() == []
            assert sorted(store.remote.keys()) == sorted(f"k{i}" for i in range(20))
            assert store.tier_stats()["uploads_completed"] >= 20
        finally:
            store.close()

    def test_transient_remote_faults_are_retried_with_backoff(self, tmp_path):
        local = DedupBackend(str(tmp_path / "local"))
        remote = FlakyRemote(str(tmp_path / "remote"), fail_times=3)
        store = TieredBackend(
            local, remote, str(tmp_path / "tier.jsonl"),
            upload_workers=1, backoff_base_seconds=0.001,
        )
        try:
            store.put("k", entry(2.0), stamp=5)
            store.flush()
            assert store.pending_uploads() == []
            assert remote.attempts["k"] == 4  # 3 failures + 1 success
            assert store.tier_stats()["upload_retries"] == 3
            assert store.tier_stats()["uploads_failed"] == 0
        finally:
            store.close()

    def test_simulated_fault_rate_forces_observable_retries(self, tmp_path):
        store = open_store(
            tmp_path, remote_fault_rate=0.4, upload_workers=2,
        )
        try:
            for i in range(24):
                store.put(f"k{i}", entry(float(i)), stamp=1)
            store.flush()
            stats = store.tier_stats()
            assert stats["remote_faults"] > 0
            assert stats["upload_retries"] > 0
            assert stats["pending_uploads"] == 0
            assert store.fsck().ok
        finally:
            store.close()

    def test_exhausted_retries_record_failure_and_flush_retries_once(self, tmp_path):
        local = DedupBackend(str(tmp_path / "local"))
        remote = FlakyRemote(str(tmp_path / "remote"), fail_times=3)
        store = TieredBackend(
            local, remote, str(tmp_path / "tier.jsonl"),
            upload_workers=0, upload_max_retries=1,
            backoff_base_seconds=0.001,
        )
        try:
            store.put("k", entry(3.0), stamp=1)  # inline: 2 attempts, fails
            assert store.tier_stats()["uploads_failed"] == 1
            assert store.pending_uploads() == ["k"]
            store.flush()  # retry round: attempts 3 (fail) then 4 (success)
            assert store.pending_uploads() == []
            assert remote.attempts["k"] == 4
        finally:
            store.close()

    def test_upload_bytes_and_retries_land_in_pipeline_meters(self, tmp_path):
        meters = PipelineMeters()
        local = DedupBackend(str(tmp_path / "local"))
        remote = FlakyRemote(str(tmp_path / "remote"), fail_times=1)
        store = TieredBackend(
            local, remote, str(tmp_path / "tier.jsonl"),
            upload_workers=0, backoff_base_seconds=0.001, meters=meters,
        )
        try:
            n = store.put("k", entry(4.0), stamp=1)
            snapshot = meters.snapshot()
            assert snapshot["bytes_uploaded"] == n
            assert snapshot["upload_retries"] == 1
        finally:
            store.close()

    def test_pending_uploads_resume_after_reopen(self, tmp_path):
        class Refusing(ShardedDiskKVStore):
            def put_serialized(self, key, payload, stamp, node=0):
                raise RemoteUnavailable("remote down")

        local_root = str(tmp_path / "local")
        remote_root = str(tmp_path / "remote")
        journal = str(tmp_path / "tier.jsonl")
        store = TieredBackend(
            DedupBackend(local_root), Refusing(remote_root), journal,
            upload_workers=0, upload_max_retries=0,
        )
        store.put("k", entry(5.0), stamp=9)
        assert store.pending_uploads() == ["k"]
        store.close()
        # Remote is healthy on reopen: the resume scan re-schedules the
        # unclaimed key (and sync mode uploads it inline right there).
        reopened = TieredBackend(
            DedupBackend(local_root), ShardedDiskKVStore(remote_root), journal,
            upload_workers=0,
        )
        try:
            reopened.flush()
            assert reopened.pending_uploads() == []
            assert reopened.remote.has("k")
            assert reopened._remote_claims["k"] == (9, reopened.local.nbytes_of("k"))
        finally:
            reopened.close()


class TestRetentionAndReads:
    def write_pec_stamps(self, store, keys_per_stamp=2, stamps=4):
        # Round-robin persist: each key written at exactly one stamp, so
        # the local population spans stamps (what retention demotes).
        for stamp in range(1, stamps + 1):
            for j in range(keys_per_stamp):
                store.put(f"s{stamp}k{j}", entry(stamp + 0.1 * j), stamp=stamp)
        store.flush()

    def test_keep_last_k_demotes_old_stamps_locally_only(self, tmp_path):
        store = open_store(tmp_path, local_keep_stamps=2, upload_workers=1)
        try:
            self.write_pec_stamps(store)
            local = set(store.local.keys())
            assert local == {"s3k0", "s3k1", "s4k0", "s4k1"}
            # every key still readable; nothing lost, all remote-claimed
            assert len(store.keys()) == 8
            assert store.tier_stats()["demotions"] == 4
            assert store.total_bytes() == sum(
                store.nbytes_of(key) for key in store.keys()
            )
        finally:
            store.close()

    def test_local_miss_reads_through_and_promotes(self, tmp_path):
        store = open_store(tmp_path, local_keep_stamps=1, upload_workers=1)
        try:
            self.write_pec_stamps(store, stamps=3)
            assert not store.local.has("s1k0")
            value = store.get("s1k0")["x"]
            assert np.allclose(value, np.full(16, 1.0, dtype=np.float32))
            stats = store.tier_stats()
            assert stats["remote_reads"] >= 1
            assert stats["promotions"] == 1
            assert store.local.has("s1k0")  # promoted back
            assert store.stamp_of("s1k0") == 1
        finally:
            store.close()

    def test_promotion_can_be_disabled(self, tmp_path):
        local = DedupBackend(str(tmp_path / "local"))
        remote = ShardedDiskKVStore(str(tmp_path / "remote"))
        store = TieredBackend(
            local, remote, str(tmp_path / "tier.jsonl"),
            upload_workers=0, local_keep_stamps=1, promote_on_read=False,
        )
        try:
            self.write_pec_stamps(store, stamps=3)
            store.get("s1k0")
            assert not store.local.has("s1k0")
        finally:
            store.close()

    def test_never_demotes_unclaimed_entries(self, tmp_path):
        class Refusing(ShardedDiskKVStore):
            def put_serialized(self, key, payload, stamp, node=0):
                raise RemoteUnavailable("remote down")

        store = TieredBackend(
            DedupBackend(str(tmp_path / "local")),
            Refusing(str(tmp_path / "remote")),
            str(tmp_path / "tier.jsonl"),
            upload_workers=0, upload_max_retries=0, local_keep_stamps=1,
        )
        try:
            for stamp in (1, 2, 3):
                store.put(f"k{stamp}", entry(float(stamp)), stamp=stamp)
            store.flush()
            # Nothing was claimed remote-durable, so eviction would lose
            # data — retention must keep everything local.
            assert sorted(store.local.keys()) == ["k1", "k2", "k3"]
            assert store.tier_stats()["demotions"] == 0
        finally:
            store.close()

    def test_hedged_read_fires_on_slow_primary(self, tmp_path):
        calls = {"n": 0}

        class SlowFirst(ShardedDiskKVStore):
            def _read(self, key):
                calls["n"] += 1
                if calls["n"] == 1:
                    time.sleep(0.3)
                return super()._read(key)

        store = TieredBackend(
            DedupBackend(str(tmp_path / "local")),
            SlowFirst(str(tmp_path / "remote")),
            str(tmp_path / "tier.jsonl"),
            upload_workers=0, local_keep_stamps=1,
            hedge_after_seconds=0.02,
        )
        try:
            for stamp in (1, 2):
                store.put(f"k{stamp}", entry(float(stamp)), stamp=stamp)
            store.flush()
            assert not store.local.has("k1")
            value = store.get("k1")["x"]
            assert np.allclose(value, np.full(16, 1.0, dtype=np.float32))
            assert store.tier_stats()["hedged_reads"] == 1
        finally:
            store.close()

    def test_remote_read_retries_then_raises_typed_error(self, tmp_path):
        class DeadRemote(ShardedDiskKVStore):
            def __init__(self, root):
                super().__init__(root)
                self.reads = 0

            def _read(self, key):
                self.reads += 1
                raise RemoteUnavailable("remote down")

        remote = DeadRemote(str(tmp_path / "remote"))
        store = TieredBackend(
            DedupBackend(str(tmp_path / "local")), remote,
            str(tmp_path / "tier.jsonl"),
            upload_workers=0, local_keep_stamps=1,
            hedge_after_seconds=None, remote_read_retries=2,
            backoff_base_seconds=0.001,
        )
        try:
            store.put("k1", entry(1.0), stamp=1)
            store.put("k2", entry(2.0), stamp=2)
            store.flush()  # k1 demoted; its only durable copy is "remote"
            remote.fault_hook = None
            with pytest.raises(KVStoreError):
                store.get("k1")
            assert remote.reads == 3  # initial + 2 retries
        finally:
            store.close()


class TestTwoTierMaintenance:
    def test_delete_removes_from_both_tiers_and_survives_reopen(self, tmp_path):
        root = tmp_path / "tier"
        store = open_tiered_root(str(root), upload_workers=0)
        store.put("gone", entry(1.0), stamp=1)
        store.put("kept", entry(2.0), stamp=1)
        store.flush()
        store.delete("gone")
        assert not store.remote.has("gone")
        store.close()
        reopened = open_tiered_root(str(root), upload_workers=0)
        try:
            assert reopened.keys() == ["kept"]
            with pytest.raises(KVStoreError):
                reopened.get("gone")
        finally:
            reopened.close()

    def test_fsck_flags_lost_remote_copy_and_repair_reschedules(self, tmp_path):
        store = open_store(tmp_path, upload_workers=0)
        try:
            store.put("k", entry(1.0), stamp=1)
            store.flush()
            # Sabotage: the remote copy vanishes behind the claim.
            store.remote.inner.delete("k")
            report = store.fsck()
            assert not report.ok
            assert report.lost_remote_copies == ["k"]
            repaired = store.fsck(repair=True)
            assert repaired.repaired
            # The claim was dropped and the key rescheduled: sync mode
            # re-uploads on flush, after which everything is clean.
            store.flush()
            final = store.fsck()
            assert final.ok
            assert final.warnings == []
            assert store.remote.has("k")
        finally:
            store.close()

    def test_gc_reclaims_orphan_remote_keys(self, tmp_path):
        store = open_store(tmp_path, upload_workers=0)
        try:
            store.put("k", entry(1.0), stamp=1)
            store.flush()
            # An orphan: remote object without a journal claim.
            store.remote.inner.put("orphan", entry(9.0), stamp=9)
            assert store.fsck().ok  # orphans warn, not error
            report = store.gc()
            assert report.remote_keys_reclaimed == 1
            assert not store.remote.inner.has("orphan")
            assert store.fsck().warnings == []
        finally:
            store.close()

    def test_gc_compacts_the_tier_journal(self, tmp_path):
        store = open_store(tmp_path, upload_workers=0)
        try:
            for stamp in range(6):
                store.put("hot", entry(float(stamp)), stamp=stamp)
            store.flush()
            records_before = store._journal.records
            report = store.gc()
            assert report.journal_records_compacted > 0
            assert store._journal.records < records_before
            assert store.fsck().ok
        finally:
            store.close()

    def test_is_tiered_root_detection(self, tmp_path):
        assert not is_tiered_root(str(tmp_path / "tier"))
        store = open_store(tmp_path, upload_workers=0)
        store.put("k", entry(1.0), stamp=1)
        store.close()
        assert is_tiered_root(str(tmp_path / "tier"))

    def test_simulated_object_store_latency_and_fault_counters(self, tmp_path):
        remote = SimulatedObjectStore(
            InMemoryKVStore(), latency_seconds=0.0, fault_rate=0.5, seed=7
        )
        faults = successes = 0
        for i in range(64):
            try:
                remote.put(f"k{i}", entry(float(i)), stamp=i)
                successes += 1
            except RemoteUnavailable:
                faults += 1
        assert faults > 0 and successes > 0
        assert remote.faults_injected == faults
        assert remote.ops == 64
        with pytest.raises(ValueError):
            SimulatedObjectStore(InMemoryKVStore(), fault_rate=1.0)


class TestIntegration:
    def test_make_backend_rejects_remote_options_elsewhere(self, tmp_path):
        with pytest.raises(ValueError):
            make_backend("dedup", str(tmp_path), remote_fault_rate=0.1)
        with pytest.raises(ValueError):
            make_backend("sharded", str(tmp_path), local_keep_stamps=2)

    def test_make_backend_builds_dedup_local_tier(self, tmp_path):
        store = make_backend("tiered", str(tmp_path), codec="zlib")
        try:
            assert isinstance(store, TieredBackend)
            assert isinstance(store.local, DedupBackend)
            assert store.local.codec is not None
            assert store.digest_chunk_bytes == store.local.digest_chunk_bytes
        finally:
            store.close()

    def test_retention_auditor_tiered_footprint(self, tmp_path):
        store = open_store(tmp_path, local_keep_stamps=1, upload_workers=1)
        try:
            for stamp in (1, 2, 3):
                store.put(f"ne:w{stamp}", entry(float(stamp)), stamp=stamp)
            store.flush()
            auditor = RetentionAuditor(store)
            footprint = auditor.tiered_footprint()
            assert footprint is not None
            assert footprint.remote_entries == 3
            assert footprint.local_entries == 1
            assert footprint.pending_uploads == 0
            assert footprint.local_fraction == pytest.approx(1 / 3)
            # the dedup accounting sees through to the local tier
            assert auditor.dedup_footprint() is not None
            # non-tiered stores answer None
            assert RetentionAuditor(InMemoryKVStore()).tiered_footprint() is None
        finally:
            store.close()

    def test_prune_stale_entries_gc_chains_through_tiers(self, tmp_path):
        store = open_store(tmp_path, upload_workers=0)
        try:
            store.put("ne:keep", entry(1.0), stamp=1)
            store.put("ne:orphan", entry(2.0), stamp=1)
            store.flush()
            deleted = prune_stale_entries(store, {"ne:keep"}, gc=True)
            assert deleted == ["ne:orphan"]
            assert store.keys() == ["ne:keep"]
            assert not store.remote.has("ne:orphan")
            assert store.fsck().ok
        finally:
            store.close()

    def test_manager_attaches_meters_and_recovers(self, tmp_path):
        from repro.core import (
            MoCConfig,
            MoCCheckpointManager,
            PECConfig,
            TwoLevelConfig,
        )
        from repro.testing import tiny_model_and_optimizer

        model, optimizer = tiny_model_and_optimizer()
        config = MoCConfig(
            pec=PECConfig(k_snapshot=2, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=2),
        )
        manager = MoCCheckpointManager(
            model, optimizer, config,
            disk_store=make_backend(
                "tiered", str(tmp_path), remote_fault_rate=0.3, upload_workers=2
            ),
        )
        manager.save_initial(0)
        counts = [np.full(4, 2)] * manager.num_moe_layers
        for iteration in (2, 4):
            manager.note_routing(counts)
            manager.checkpoint(iteration)
        manager.flush()
        total = manager.pipeline_meters.snapshot()
        assert total["bytes_uploaded"] > 0
        stats = manager.disk_store.tier_stats()
        assert stats["pending_uploads"] == 0
        assert stats["remote_faults"] > 0
        result = manager.recover(failed_nodes=[0])
        assert result.resume_iteration == 4
        manager.close()


class TestDecorrelatedJitterBackoff:
    def test_jittered_delays_stay_in_envelope(self):
        backoff = DecorrelatedJitterBackoff(0.1, 2.0, seed=3)
        previous = None
        for _ in range(29):
            delay = backoff.next_delay(previous)
            anchor = 0.1 if previous is None else previous
            assert 0.1 <= delay <= min(2.0, max(0.1, anchor * 3.0)) + 1e-12
            previous = delay

    def test_seeded_schedule_reproducible(self):
        def schedule(seed):
            backoff = DecorrelatedJitterBackoff(0.1, 2.0, seed=seed)
            delays, previous = [], None
            for _ in range(9):
                previous = backoff.next_delay(previous)
                delays.append(previous)
            return delays

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_cohort_spreads_instead_of_phase_locking(self):
        """The point of the jitter: simultaneous failures draw distinct
        delays instead of all sleeping the same exponential step."""
        backoff = DecorrelatedJitterBackoff(0.1, 5.0, seed=7)
        cohort = [backoff.next_delay(0.4) for _ in range(16)]
        assert len(set(cohort)) > 8

    def test_rejects_negative_durations(self):
        with pytest.raises(ValueError):
            DecorrelatedJitterBackoff(-0.1, 1.0)


class TestSimulatedStoreDeterminism:
    def test_fault_placement_independent_of_interleaving(self):
        """Two same-seed runs must inject the identical fault set even
        when payload ops race across threads (the regression: a shared
        RNG stream made fault placement depend on thread arrival order)."""

        def run(barrier_count=4):
            remote = SimulatedObjectStore(
                InMemoryKVStore(), fault_rate=0.3, seed=99
            )
            keys = [f"k{i}" for i in range(12)]
            barrier = threading.Barrier(barrier_count)

            def worker(shard):
                barrier.wait()
                for key in keys[shard::barrier_count]:
                    for _ in range(3):  # three attempts per key
                        try:
                            remote.put(key, entry(1.0), stamp=1)
                            break
                        except RemoteUnavailable:
                            continue

            threads = [
                threading.Thread(target=worker, args=(shard,))
                for shard in range(barrier_count)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return sorted(remote.fault_log)

        first, second = run(), run()
        assert first == second
        assert first, "fault_rate=0.3 over 36 attempts must inject something"

    def test_fault_log_records_op_key_attempt(self):
        remote = SimulatedObjectStore(InMemoryKVStore(), fault_rate=0.5, seed=1)
        injected = 0
        for attempt in range(1, 9):
            try:
                remote.put("k", entry(float(attempt)), stamp=attempt)
            except RemoteUnavailable:
                injected += 1
        assert len(remote.fault_log) == injected
        assert all(op == "put" and key == "k" for op, key, _ in remote.fault_log)
        attempts = [a for _, _, a in remote.fault_log]
        assert attempts == sorted(attempts)

    def test_different_seeds_place_faults_differently(self):
        def log_for(seed):
            remote = SimulatedObjectStore(InMemoryKVStore(), fault_rate=0.4, seed=seed)
            for i in range(20):
                try:
                    remote.put(f"k{i}", entry(1.0), stamp=1)
                except RemoteUnavailable:
                    pass
            return remote.fault_log

        assert log_for(1) != log_for(2)
