"""Shared contract suite: every backend honours the same storage rules.

Parametrized over every backend (memory, sharded journal — also with
compaction after nearly every append — the content-addressed dedup
store, the tiered store, and the async pipeline wrapping the
journal-backed stores).  Backend-specific behaviour — journal
crash-consistency, async error propagation, the no-index-rewrite
property, chunk refcounting — is covered in dedicated classes below
and in ``test_dedup.py``.
"""

from __future__ import annotations

import glob
import os
import threading

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    AsyncWriteError,
    CheckpointBackend,
    DedupBackend,
    InMemoryKVStore,
    KVStoreError,
    ShardedDiskKVStore,
    make_backend,
    open_tiered_root,
)
from repro.ckpt.journal import Journal
from repro.obs.metrics import get_registry

BACKENDS = [
    "memory", "sharded", "sharded-compacting", "dedup", "async",
    "async-dedup", "tiered", "async-tiered",
]


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path) -> CheckpointBackend:
    kind = request.param
    if kind == "memory":
        backend = InMemoryKVStore()
    elif kind == "sharded":
        backend = ShardedDiskKVStore(str(tmp_path / "sharded"))
    elif kind == "sharded-compacting":
        # Compacts once the journal holds 1.5x its live keys: the
        # contract must hold with rewrites interleaved among its appends.
        backend = ShardedDiskKVStore(
            str(tmp_path / "sharded-compacting"),
            compact_min_records=1, compact_garbage_ratio=1.5,
        )
    elif kind == "dedup":
        backend = DedupBackend(str(tmp_path / "dedup"))
    elif kind == "async-dedup":
        backend = AsyncWriteBackend(DedupBackend(str(tmp_path / "async-dedup")))
    elif kind == "tiered":
        # Dedup local tier + background upload pipeline: the contract
        # must hold while uploads drain underneath it.
        backend = open_tiered_root(str(tmp_path / "tiered"))
    elif kind == "async-tiered":
        backend = AsyncWriteBackend(open_tiered_root(str(tmp_path / "async-tiered")))
    else:
        backend = AsyncWriteBackend(ShardedDiskKVStore(str(tmp_path / "async")))
    yield backend
    backend.close()


class TestContract:
    def test_put_get_roundtrip(self, store):
        store.put("ne:layer.weight", {"x": np.arange(4.0)}, stamp=3)
        assert np.array_equal(store.get("ne:layer.weight")["x"], np.arange(4.0))
        assert store.stamp_of("ne:layer.weight") == 3

    def test_overwrite_updates_stamp(self, store):
        store.put("k", {"x": np.ones(2)}, stamp=1)
        store.put("k", {"x": np.zeros(2)}, stamp=9)
        assert store.stamp_of("k") == 9
        assert np.array_equal(store.get("k")["x"], np.zeros(2))

    def test_missing_key_raises(self, store):
        for accessor in (store.get, store.stamp_of, store.nbytes_of, store.delete):
            with pytest.raises(KVStoreError):
                accessor("nope")

    def test_byte_meters(self, store):
        n = store.put("k", {"x": np.ones(8)}, stamp=0)
        assert store.bytes_written == n
        store.get("k")
        assert store.bytes_read == n
        assert store.total_bytes() == n
        assert store.nbytes_of("k") == n
        assert store.put_count == 1

    def test_put_many_batches(self, store):
        items = [
            (f"k{i}", {"x": np.full(i + 1, float(i))}, 7, 0) for i in range(5)
        ]
        sizes = store.put_many(items)
        assert len(sizes) == 5
        assert store.keys() == sorted(f"k{i}" for i in range(5))
        assert store.total_bytes() == sum(sizes)
        assert store.bytes_written == sum(sizes)
        for i in range(5):
            assert store.stamp_of(f"k{i}") == 7
            assert np.array_equal(store.get(f"k{i}")["x"], np.full(i + 1, float(i)))

    def test_delete(self, store):
        store.put("a", {"x": np.ones(1)}, stamp=0)
        store.put("b", {"x": np.ones(1)}, stamp=0)
        store.delete("a")
        assert not store.has("a")
        assert store.keys() == ["b"]
        with pytest.raises(KVStoreError):
            store.get("a")

    def test_delete_many(self, store):
        for name in ("a", "b", "c"):
            store.put(name, {"x": np.ones(1)}, stamp=0)
        store.delete_many(["a", "c"])
        assert store.keys() == ["b"]

    def test_colliding_keys_stay_distinct(self, store):
        # Regression: the old escaping mapped "a/b" and "a__b" to one file.
        store.put("a/b", {"x": np.ones(1)}, stamp=1)
        store.put("a__b", {"x": np.zeros(1)}, stamp=2)
        assert np.array_equal(store.get("a/b")["x"], np.ones(1))
        assert np.array_equal(store.get("a__b")["x"], np.zeros(1))
        assert store.stamp_of("a/b") == 1
        assert store.stamp_of("a__b") == 2

    def test_flush_is_idempotent_barrier(self, store):
        store.put("k", {"x": np.ones(3)}, stamp=1)
        store.flush()
        store.flush()
        assert store.has("k")


class TestConcurrentReaders:
    """The parallel restore pipeline's assumptions, pinned as contract.

    Readers may run concurrently with each other and with a writer
    working on *unrelated* keys; a flush is a barrier after which a
    reader (from any thread) observes every accepted write; byte meters
    stay exact under concurrent reads.
    """

    def test_get_during_put_many_returns_stable_values(self, store):
        import threading

        stable = np.arange(16.0)
        store.put("stable", {"x": stable}, stamp=1)
        store.flush()
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    value = store.get("stable")["x"]
                    if not np.array_equal(value, stable):
                        errors.append("corrupt read")
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for batch in range(8):
                store.put_many([
                    (f"b{batch}.k{i}", {"x": np.ones(8)}, batch, 0)
                    for i in range(16)
                ])
        finally:
            stop.set()
            thread.join()
        assert errors == []
        assert len(store.keys()) == 1 + 8 * 16

    def test_reader_thread_sees_everything_after_flush_barrier(self, store):
        import threading

        items = [(f"k{i}", {"x": np.full(4, float(i))}, 5, 0) for i in range(32)]
        done = threading.Event()
        failures = []

        def writer():
            try:
                store.put_many(items)
                store.flush()
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        assert done.wait(timeout=10)
        thread.join()
        assert failures == []
        # the barrier has passed: every accepted put is observable here
        for i in range(32):
            assert store.has(f"k{i}")
            assert np.array_equal(store.get(f"k{i}")["x"], np.full(4, float(i)))
            assert store.stamp_of(f"k{i}") == 5

    def test_parallel_disjoint_reads_are_exact_and_metered(self, store):
        from concurrent.futures import ThreadPoolExecutor

        sizes = {}
        for i in range(16):
            key = f"k{i}"
            sizes[key] = store.put(key, {"x": np.full(i + 1, float(i))}, stamp=i)
        store.flush()
        repeats = 4

        def read(key):
            return store.get(key)["x"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(read, key) for key in sizes for _ in range(repeats)
            ]
            results = [future.result() for future in futures]
        for index, key in enumerate(key for key in sizes for _ in range(repeats)):
            expected = np.full(int(key[1:]) + 1, float(key[1:]))
            assert np.array_equal(results[index], expected)
        # meter exactness under concurrency (DESIGN invariant 1)
        assert store.bytes_read == repeats * sum(sizes.values())

    def test_parallel_restorer_drains_any_backend(self, store):
        from repro.ckpt import ParallelRestorer, ReadRequest

        for i in range(24):
            store.put(f"k{i}", {"x": np.full(3, float(i))}, stamp=i)
        requests = [ReadRequest(key=f"k{i}", store=store) for i in range(24)]
        entries, stats = ParallelRestorer(workers=6).fetch(requests)
        assert stats.entries == 24
        assert stats.workers == 6
        assert stats.payload_bytes == store.total_bytes()
        for i in range(24):
            assert np.array_equal(entries[f"k{i}"]["x"], np.full(3, float(i)))

    def test_restorer_propagates_missing_key(self, store):
        from repro.ckpt import ParallelRestorer, ReadRequest

        store.put("present", {"x": np.ones(2)}, stamp=0)
        requests = [
            ReadRequest(key="present", store=store),
            ReadRequest(key="absent", store=store),
        ]
        with pytest.raises(KVStoreError):
            ParallelRestorer(workers=4).fetch(requests)

    def test_restorer_rejects_invalid_worker_count(self):
        from repro.ckpt import ParallelRestorer

        with pytest.raises(ValueError):
            ParallelRestorer(workers=0)


class TestPersistence:
    @pytest.mark.parametrize("kind", ["sharded", "dedup", "tiered"])
    def test_survives_reopen(self, kind, tmp_path):
        store = make_backend(kind, str(tmp_path))
        store.put("a/b", {"x": np.ones(5)}, stamp=7)
        store.put("k", {"x": np.zeros(2)}, stamp=8)
        store.delete("k")
        store.close()
        reopened = make_backend(kind, str(tmp_path))
        assert reopened.keys() == ["a/b"]
        assert reopened.stamp_of("a/b") == 7
        assert np.array_equal(reopened.get("a/b")["x"], np.ones(5))
        reopened.close()

    def test_flat_disk_backend_is_gone(self, tmp_path):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("disk", str(tmp_path))


class TestShardedJournal:
    def test_partial_journal_line_ignored_on_reopen(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("a", {"x": np.ones(2)}, stamp=1)
        store.put("b", {"x": np.ones(3)}, stamp=2)
        # simulate a crash mid-append: torn trailing record
        with open(store._journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "put", "key": "c", "st')
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert reopened.keys() == ["a", "b"]
        assert reopened.stamp_of("b") == 2

    def test_torn_tail_truncated_so_post_crash_writes_survive(self, tmp_path):
        # Reopen after a torn append must truncate the fragment —
        # otherwise the next append concatenates onto it and the *next*
        # replay silently drops every post-crash record.
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("a", {"x": np.ones(2)}, stamp=1)
        with open(store._journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "put", "key": "c", "st')
        recovered = ShardedDiskKVStore(str(tmp_path))
        recovered.put("d", {"x": np.ones(3)}, stamp=2)
        final = ShardedDiskKVStore(str(tmp_path))
        assert final.keys() == ["a", "d"]
        assert final.stamp_of("d") == 2

    def test_no_index_rewrites_for_sequential_puts(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path))
        for i in range(1000):
            store.put(f"k{i}", {"x": np.ones(1)}, stamp=i)
        assert store.compactions == 0
        assert store.journal_appends == 1000

    def test_put_many_routes_through_write_hook(self, tmp_path):
        # Subclasses overriding _write (e.g. latency throttles) must see
        # every batched entry, and the batch still journals only once.
        seen = []

        class Spy(ShardedDiskKVStore):
            def _write(self, key, payload, stamp, node):
                seen.append(key)
                super()._write(key, payload, stamp, node)

        store = Spy(str(tmp_path))
        appends_before = store.journal_appends
        store.put_many([(f"k{i}", {"x": np.ones(1)}, 0, 0) for i in range(4)])
        assert seen == [f"k{i}" for i in range(4)]
        assert store.journal_appends == appends_before + 4
        # records landed in one physical append: replayable and complete
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert reopened.keys() == sorted(f"k{i}" for i in range(4))

    def test_put_many_journals_completed_prefix_on_failure(self, tmp_path):
        class Flaky(ShardedDiskKVStore):
            def _write(self, key, payload, stamp, node):
                if key == "boom":
                    raise OSError("write failed")
                super()._write(key, payload, stamp, node)

        store = Flaky(str(tmp_path))
        items = [
            ("a", {"x": np.ones(1)}, 0, 0),
            ("b", {"x": np.ones(1)}, 0, 0),
            ("boom", {"x": np.ones(1)}, 0, 0),
            ("never", {"x": np.ones(1)}, 0, 0),
        ]
        with pytest.raises(OSError):
            store.put_many(items)
        # the completed prefix survives a reopen — the journal never
        # lags payloads that were already written
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert reopened.keys() == ["a", "b"]

    def test_overwrites_trigger_compaction_and_preserve_state(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path), compact_min_records=32)
        for stamp in range(200):
            store.put("hot", {"x": np.full(2, float(stamp))}, stamp=stamp)
        assert store.compactions > 0
        assert store.stamp_of("hot") == 199
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert reopened.stamp_of("hot") == 199
        # journal was compacted down to ~one record per live key
        assert reopened.journal_records < 200

    def test_torn_payload_overwrite_preserves_old_version(self, tmp_path, monkeypatch):
        # An overwrite goes to a fresh pack file: a write error part-way
        # through it must leave the journaled version intact (an
        # in-place overwrite would have corrupted it).
        import os as os_mod

        store = ShardedDiskKVStore(str(tmp_path))
        store.put("k", {"x": np.ones(2)}, stamp=1)

        def failing_writev(fd, buffers):
            raise OSError("device error mid-write")

        monkeypatch.setattr(os_mod, "writev", failing_writev)
        with pytest.raises(OSError):
            store.put("k", {"x": np.zeros(2)}, stamp=2)
        monkeypatch.undo()
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert reopened.stamp_of("k") == 1
        assert np.array_equal(reopened.get("k")["x"], np.ones(2))

    def test_tombstone_survives_reopen(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("gone", {"x": np.ones(1)}, stamp=0)
        store.put("kept", {"x": np.ones(1)}, stamp=0)
        store.delete("gone")
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert reopened.keys() == ["kept"]

    def test_indexed_key_with_missing_payload_raises_typed_error(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("k", {"x": np.ones(1)}, stamp=0)
        os.remove(store._pack_path(store._meta("k").pack))
        with pytest.raises(KVStoreError):
            store.get("k")

    def test_truncated_pack_raises_typed_error(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("k", {"x": np.ones(8)}, stamp=0)
        os.truncate(store._pack_path(store._meta("k").pack), 10)
        with pytest.raises(KVStoreError, match="truncated"):
            store.get("k")

    @pytest.mark.parametrize("marker", ["index.json", "entries"])
    def test_flat_layout_root_is_rejected(self, tmp_path, marker):
        # A root written by the retired flat store must not read as an
        # empty store: a resume would silently start from scratch.
        path = tmp_path / marker
        if marker == "entries":
            path.mkdir()
        else:
            path.write_text("{}")
        with pytest.raises(KVStoreError, match="flat-store layout"):
            ShardedDiskKVStore(str(tmp_path))
        assert not (tmp_path / "packs").exists()

    def test_file_per_entry_layout_root_is_rejected(self, tmp_path):
        # A root of the retired file-per-entry layout (shards/<hh>/
        # payload files, put records without pack/off) is refused by
        # name rather than replayed into a broken index.
        (tmp_path / "shards" / "ab").mkdir(parents=True)
        (tmp_path / "index.jsonl").write_text(
            '{"op": "put", "key": "meta:iteration", "stamp": 4, "nbytes": 9}\n'
        )
        with pytest.raises(KVStoreError, match=r"file-per-entry layout \(shards/\)"):
            ShardedDiskKVStore(str(tmp_path))
        assert not (tmp_path / "packs").exists()


def run_threads(target, count: int) -> list:
    """Run ``target(i)`` on ``count`` threads released together;
    returns whatever they raised."""
    barrier = threading.Barrier(count)
    errors = []

    def worker(index):
        barrier.wait()
        try:
            target(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return errors


class TestShardedConcurrency:
    @pytest.mark.parametrize("seed", range(3))
    def test_concurrent_writers_lose_no_acknowledged_put(self, tmp_path, seed):
        # Two writer threads (the tiered backend's upload workers) put
        # disjoint keys into one store with default compaction: no
        # thread may fail, and a reopen must serve every key at its last
        # acknowledged stamp and bytes.
        store = ShardedDiskKVStore(str(tmp_path))
        acked = [{}, {}]

        def writer(index):
            rng = np.random.default_rng([seed, index])
            for stamp in range(400):
                key = f"w{index}/k{int(rng.integers(20))}"
                value = np.full(int(rng.integers(1, 64)), float(stamp))
                store.put(key, {"x": value}, stamp=stamp)
                acked[index][key] = (value, stamp)

        assert run_threads(writer, 2) == []
        assert store.compactions > 0
        expected = {**acked[0], **acked[1]}
        for view in (store, ShardedDiskKVStore(str(tmp_path))):
            assert view.keys() == sorted(expected)
            for key, (value, stamp) in expected.items():
                assert view.stamp_of(key) == stamp, key
                assert np.array_equal(view.get(key)["x"], value), key

    def test_concurrent_journal_appends_replay_intact(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, "test", lambda point: None)
        threads, per_thread = 4, 200
        digest = "ab" * 32

        def appender(index):
            for i in range(per_thread):
                journal.append([{
                    "op": "put", "key": f"t{index}/{i}", "stamp": i,
                    "nbytes": i, "chunks": [digest] * 8,
                }])

        assert run_threads(appender, threads) == []
        records = Journal(path, "test", lambda point: None).replay()
        assert os.path.getsize(path) > 0
        assert len(records) == threads * per_thread
        assert sorted(record["key"] for record in records) == sorted(
            f"t{index}/{i}" for index in range(threads) for i in range(per_thread)
        )
        assert all(record["chunks"] == [digest] * 8 for record in records)

    def test_concurrent_batches_and_deletes_fold_to_the_acked_state(self, tmp_path):
        # Batched puts and deletes from several threads: no batch may
        # interleave with another's deferred records or unlinks, so the
        # final index matches each thread's last round and no pack file
        # outlives its last live entry.
        store = ShardedDiskKVStore(str(tmp_path), compact_min_records=16)
        rounds = 30

        def worker(index):
            keys = [f"w{index}/k{i}" for i in range(8)]
            for stamp in range(rounds):
                store.put_many([
                    (key, {"x": np.full(4, float(stamp))}, stamp, 0) for key in keys
                ])
                store.delete_many(keys[stamp % 8:][:3])

        assert run_threads(worker, 4) == []
        assert store.compactions > 0
        last = rounds - 1
        deleted = {f"k{i}" for i in range(last % 8, 8)}
        expected = sorted(
            f"w{index}/k{i}" for index in range(4) for i in range(8)
            if f"k{i}" not in deleted
        )
        for view in (store, ShardedDiskKVStore(str(tmp_path))):
            assert view.keys() == expected
            for key in expected:
                assert view.stamp_of(key) == last
                assert np.array_equal(view.get(key)["x"], np.full(4, float(last)))
        packs = {os.path.basename(path) for path in glob.glob(str(tmp_path / "packs" / "*"))}
        assert packs == {f"{store._meta(key).pack}.pack" for key in expected}

    def test_read_retries_after_concurrent_overwrite_unlinks_its_file(self, tmp_path):
        # A read looks up the entry's version, then opens it outside the
        # store lock.  An overwrite landing in between unlinks that
        # version; the read must look up again and serve the new one.
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("k", {"x": np.ones(4)}, stamp=1)
        lookup = store._meta
        seen = []

        def racing_lookup(key):
            meta = lookup(key)
            if not seen:
                store.put("k", {"x": np.zeros(4)}, stamp=2)
            seen.append(meta[0])
            return meta

        store._meta = racing_lookup
        assert np.array_equal(store.get("k")["x"], np.zeros(4))
        assert seen == [1, 2]

    def test_read_raises_typed_error_when_overwrites_keep_winning(self, tmp_path):
        store = ShardedDiskKVStore(str(tmp_path))
        store.put("k", {"x": np.ones(4)}, stamp=0)
        lookup = store._meta

        def racing_lookup(key):
            meta = lookup(key)
            store.put("k", {"x": np.ones(4)}, stamp=meta[0] + 1)
            return meta

        store._meta = racing_lookup
        with pytest.raises(KVStoreError):
            store.get("k")
        del store._meta
        assert store.stamp_of("k") == 2
        assert np.array_equal(store.get("k")["x"], np.ones(4))

    def test_tiered_upload_workers_share_one_remote_store(self, tmp_path):
        # The tiered backend's two upload threads put into one remote
        # sharded store outside the tier's own lock; every upload must
        # land, compaction included.
        store = open_tiered_root(str(tmp_path), upload_workers=2)
        expected = {}
        for stamp in range(6):
            items = [
                (f"k{i}", {"x": np.full(8, float(100 * stamp + i))}, stamp, 0)
                for i in range(64)
            ]
            store.put_many(items)
            expected.update({key: (entry["x"], at) for key, entry, at, _ in items})
        store.flush()
        store.close()
        remote = ShardedDiskKVStore(str(tmp_path / "remote"))
        assert remote.journal_records < 6 * 64  # it compacted
        assert remote.keys() == sorted(expected)
        for key, (value, stamp) in expected.items():
            assert remote.stamp_of(key) == stamp, key
            assert np.array_equal(remote.get(key)["x"], value), key


class TestAsyncPipeline:
    def test_flush_drains_everything(self, tmp_path):
        inner = ShardedDiskKVStore(str(tmp_path))
        with AsyncWriteBackend(inner) as store:
            for i in range(50):
                store.put(f"k{i}", {"x": np.ones(4)}, stamp=i)
            store.flush()
            assert store.pending() == 0
            assert inner.put_count == 50
            assert inner.bytes_written == store.bytes_written

    def test_put_many_stays_batched_through_the_pipeline(self, tmp_path):
        # The async wrapper must hand whole batches to the inner store,
        # preserving its batched index maintenance: one journal append
        # for the whole batch, not one per entry.
        appends = get_registry().counter(
            "moc_journal_appends_total", labelnames=("journal",)
        ).labels(journal="journal")
        inner = ShardedDiskKVStore(str(tmp_path))
        with AsyncWriteBackend(inner) as store:
            before = appends.value
            store.put_many([(f"k{i}", {"x": np.ones(1)}, 0, 0) for i in range(8)])
            store.flush()
            assert inner.put_count == 8
            assert appends.value == before + 1
            assert inner.keys() == sorted(f"k{i}" for i in range(8))

    def test_writes_drain_in_submission_order(self, tmp_path):
        order = []
        inner = ShardedDiskKVStore(str(tmp_path))
        original = inner.put_serialized

        def tracking(key, payload, stamp, node=0):
            order.append(key)
            return original(key, payload, stamp, node)

        inner.put_serialized = tracking
        with AsyncWriteBackend(inner) as store:
            for i in range(20):
                store.put(f"k{i:02d}", {"x": np.ones(1)}, stamp=i)
            store.flush()
        assert order == [f"k{i:02d}" for i in range(20)]

    def test_entry_mutation_after_put_is_safe(self, tmp_path):
        # put() serializes in the caller thread: later mutation of the
        # source arrays must not corrupt the stored version.
        array = np.ones(8)
        with AsyncWriteBackend(ShardedDiskKVStore(str(tmp_path))) as store:
            store.put("k", {"x": array}, stamp=0)
            array[:] = -1.0
            assert np.array_equal(store.get("k")["x"], np.ones(8))

    def test_write_error_raised_at_next_boundary(self, tmp_path):
        inner = ShardedDiskKVStore(str(tmp_path))

        def explode(key, payload, stamp, node=0):
            raise OSError("disk full")

        inner.put_serialized = explode
        store = AsyncWriteBackend(inner)
        store.put("k", {"x": np.ones(1)}, stamp=0)  # accepted; fails async
        with pytest.raises(AsyncWriteError):
            store.flush()
        # error is consumed; pipeline is usable again afterwards
        inner.put_serialized = ShardedDiskKVStore.put_serialized.__get__(inner)
        store.put("k2", {"x": np.ones(1)}, stamp=1)
        store.flush()
        assert inner.has("k2")
        store.close()

    def test_failed_write_never_leaves_a_hole_under_later_writes(self, tmp_path):
        # After a write fails, queued writes are discarded until the
        # error is surfaced: the commit/meta entry must not become
        # durable over the hole.
        inner = ShardedDiskKVStore(str(tmp_path))
        original = ShardedDiskKVStore.put_serialized.__get__(inner)

        def fail_on_bad(key, payload, stamp, node=0):
            if key == "bad":
                raise OSError("disk full")
            return original(key, payload, stamp, node)

        inner.put_serialized = fail_on_bad
        store = AsyncWriteBackend(inner)
        with pytest.raises(AsyncWriteError):
            store.put("bad", {"x": np.ones(1)}, stamp=0)
            store.put("meta:iteration", {"iteration": np.asarray(1)}, stamp=1)
            store.flush()
        assert not inner.has("meta:iteration")
        # pipeline resumes once the error was surfaced
        store.put("k", {"x": np.ones(1)}, stamp=2)
        store.flush()
        assert inner.has("k")
        store.close()

    def test_backpressure_bounds_staging(self, tmp_path):
        with pytest.raises(ValueError):
            AsyncWriteBackend(ShardedDiskKVStore(str(tmp_path)), max_pending=0)

    def test_put_surfacing_error_discards_stale_queue_first(self, tmp_path):
        # When put() (not flush) surfaces the deferred error, items
        # staged behind the failure must be discarded before the error
        # flag clears — not written over the hole afterwards.
        import threading
        import time

        inner = ShardedDiskKVStore(str(tmp_path))
        original = ShardedDiskKVStore.put_serialized.__get__(inner)
        release = threading.Event()

        def gated(key, payload, stamp, node=0):
            if key == "bad":
                release.wait(timeout=5)
                raise OSError("boom")
            return original(key, payload, stamp, node)

        inner.put_serialized = gated
        store = AsyncWriteBackend(inner)
        store.put("bad", {"x": np.ones(1)}, stamp=0)
        store.put("stale", {"x": np.ones(1)}, stamp=1)
        release.set()
        with pytest.raises(AsyncWriteError):
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                store.put("probe", {"x": np.ones(1)}, stamp=2)
                time.sleep(0.001)
        store.flush()
        assert not inner.has("stale")
        assert not inner.has("probe")
        # pipeline is writable again after the error was consumed
        store.put("after", {"x": np.ones(1)}, stamp=3)
        store.flush()
        assert inner.has("after")
        store.close()

    def test_closed_backend_rejects_writes(self, tmp_path):
        store = AsyncWriteBackend(ShardedDiskKVStore(str(tmp_path)))
        store.put("k", {"x": np.ones(1)}, stamp=0)
        store.close()
        with pytest.raises(RuntimeError):
            store.put("late", {"x": np.ones(1)}, stamp=1)

    def test_batch_larger_than_max_pending_is_chunked(self, tmp_path):
        inner = ShardedDiskKVStore(str(tmp_path))
        with AsyncWriteBackend(inner, max_pending=4) as store:
            sizes = store.put_many(
                [(f"k{i}", {"x": np.ones(1)}, 0, 0) for i in range(11)]
            )
            assert len(sizes) == 11
            store.flush()
            assert inner.put_count == 11
            assert inner.keys() == sorted(f"k{i}" for i in range(11))

    def test_reads_see_all_accepted_writes(self, tmp_path):
        with AsyncWriteBackend(ShardedDiskKVStore(str(tmp_path))) as store:
            store.put("meta:iteration", {"iteration": np.asarray(12)}, stamp=12)
            assert store.has("meta:iteration")
            assert store.stamp_of("meta:iteration") == 12
            assert store.keys() == ["meta:iteration"]


class TestManagerIntegration:
    """The manager drives any backend pair, sync or async."""

    def _run(self, tmp_path, kind, **manager_kwargs):
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
            disk_store=make_backend(kind, str(tmp_path)), **manager_kwargs
        )
        manager.save_initial(0)
        counts = [np.full(4, 2)] * manager.num_moe_layers
        for iteration in (2, 4):
            manager.note_routing(counts)
            manager.checkpoint(iteration)
        return manager

    @pytest.mark.parametrize("backend", ["sharded", "dedup", "tiered"])
    @pytest.mark.parametrize("async_writes", [False, True])
    def test_checkpoint_and_recover(self, tmp_path, backend, async_writes):
        manager = self._run(tmp_path, backend, async_writes=async_writes)
        result = manager.recover(failed_nodes=[0])
        assert result.resume_iteration == 4
        manager.disk_store.close()

    def test_async_wraps_given_store(self, tmp_path):
        manager = self._run(tmp_path, "sharded", async_writes=True)
        assert isinstance(manager.disk_store, AsyncWriteBackend)
        assert isinstance(manager.disk_store.inner, ShardedDiskKVStore)
        manifest = manager.manifests[-1]
        manager.flush()
        # manifest byte accounting matches the inner store's meters
        assert manager.disk_store.inner.bytes_written == manager.disk_store.bytes_written
        assert manifest.persist_bytes() <= manager.disk_store.bytes_written
        manager.disk_store.close()

    def test_pec_checkpoint_creates_few_files_on_the_sharded_store(self, tmp_path):
        # A PEC checkpoint writes ~80 entries; the sharded store packs
        # them by the pack each predecessor lives in, so a checkpoint
        # creates a handful of files, not one per entry.
        from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig
        from repro.models import Adam, MoEModelConfig, MoETransformerLM
        from repro.testing import train_steps
        from repro.train.data import MarkovCorpus

        model = MoETransformerLM(MoEModelConfig(
            vocab_size=32, max_seq_len=12, dim=16, num_layers=4, num_heads=2,
            num_experts=16, top_k=2, seed=0,
        ))
        optimizer = Adam(model.named_parameters(), lr=1e-2)
        corpus = MarkovCorpus(vocab_size=32, seq_len=12, seed=1)
        manager = MoCCheckpointManager(
            model, optimizer,
            MoCConfig(pec=PECConfig(k_snapshot=4, k_persist=2),
                      two_level=TwoLevelConfig(checkpoint_interval=1)),
            disk_store=make_backend("sharded", str(tmp_path)),
        )
        manager.save_initial(0)

        def files():
            return {os.path.join(d, name) for d, _, names in os.walk(tmp_path)
                    for name in names}

        for iteration in range(1, 11):
            train_steps(model, optimizer, corpus, 1, start=iteration)
            manager.note_model_routing()
            before = files()
            manifest = manager.checkpoint(iteration)
            assert len(manifest.persist_entries) > 40
            assert len(files() - before) <= 8, iteration
        manager.disk_store.close()


class TestOverlappedWriteWindow:
    def test_fully_hidden_when_window_covers_persist(self):
        from repro.distsim import overlapped_write_window

        window = overlapped_write_window(
            persist_seconds=3.0, iteration_seconds=1.0,
            checkpoint_interval=2, queue_depth=2,
        )
        assert window.window_seconds == pytest.approx(4.0)
        assert window.stall_seconds == 0.0
        assert window.fully_overlapped
        assert window.hidden_fraction == pytest.approx(1.0)

    def test_residual_stall_when_persist_exceeds_window(self):
        from repro.distsim import overlapped_write_window

        window = overlapped_write_window(
            persist_seconds=10.0, iteration_seconds=1.0,
            checkpoint_interval=2, queue_depth=2,
        )
        assert window.stall_seconds == pytest.approx(6.0)
        assert not window.fully_overlapped
        assert window.hidden_fraction == pytest.approx(0.4)

    def test_invalid_inputs_rejected(self):
        from repro.distsim import overlapped_write_window

        with pytest.raises(ValueError):
            overlapped_write_window(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            overlapped_write_window(1.0, 1.0, 0)
