"""The multi-process chunk hash/compress save engine, pinned end to end.

Four properties this suite exists to hold:

* **shared staging** — :class:`SharedStagingPool` carves picklable
  extents from one shared-memory arena with exact free-list coalescing,
  inherits the base pool's FIFO admission, and unlinks every segment on
  close;
* **cross-process correctness** — digests, encoded chunk bodies and
  decoded chunks computed by the worker pool are bit-identical to the
  in-process path, for arbitrary entries;
* **meter invariants survive the process boundary** — with workers
  enabled the live manager still shows exactly one SHA-256 sweep, at
  most one staging copy, and at most one compression pass per persisted
  byte (worker-reported byte counts fold back into
  :class:`PipelineMeters`);
* **composition** — the engine + codec compose with dedup (chunks stay
  addressed by uncompressed digest), delta saves, the async pipeline
  (whose staging copy lands in the worker-visible arena) and recovery.
"""

from __future__ import annotations

import multiprocessing.shared_memory as shared_memory
import sys
import threading

import numpy as np
import pytest

from repro.ckpt import dedup as dedup_module
from repro.ckpt import (
    AsyncWriteBackend,
    ChunkWorkerPool,
    CrashInjected,
    DedupBackend,
    ParallelChunkEngine,
    ParallelRestorer,
    PayloadFrames,
    PipelineMeters,
    ReadRequest,
    SharedStagingPool,
    chunk_digest,
    chunk_payload,
    decode_chunk_file,
    encode_chunk_file,
    make_chunk_codec,
    serialize_entry,
)
from repro.core import MoCCheckpointManager, MoCConfig, PECConfig, TwoLevelConfig
from repro.testing import TINY, random_entry, seeded_rng, tiny_model_and_optimizer

WORKERS = 2
CHUNK = 256


def compressible_entry(size: int = 2048, seed: int = 0) -> dict:
    """Mixed-entropy payload: random floats with zeroed stretches, the
    realistic checkpoint shape (compresses, but not trivially)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    x[:: 3] = 0.0
    return {"x": x}


def incompressible_entry(size: int = 2048, seed: int = 1) -> dict:
    rng = np.random.default_rng(seed)
    return {"x": rng.integers(0, 256, size, dtype=np.uint8)}


def frames_of(entry: dict, meters: PipelineMeters = None) -> PayloadFrames:
    return PayloadFrames.from_entry(entry, meters=meters)


class TestSharedStagingPool:
    def test_acquired_slice_is_addressable_cross_attach(self):
        pool = SharedStagingPool(4096)
        try:
            buf = pool.acquire(512)
            assert len(buf) == 512
            buf.view[:] = bytes(range(256)) * 2
            region = buf.region
            assert region.segment == pool.segment_name
            # a fresh attach (what a worker does) sees the same bytes
            remote = shared_memory.SharedMemory(name=region.segment)
            seen = bytes(remote.buf[region.offset:region.offset + region.nbytes])
            remote.close()
            assert seen == bytes(range(256)) * 2
            pool.release(buf)
        finally:
            pool.close()

    def test_extents_coalesce_back_to_whole_arena(self):
        pool = SharedStagingPool(4096)
        try:
            a = pool.acquire(1024)
            b = pool.acquire(1024)
            c = pool.acquire(1024)
            # release out of order: neighbour coalescing must stitch the
            # free list back into one extent either way
            for buf in (b, a, c):
                pool.release(buf)
            assert pool.idle_buffers == 1
            assert pool.arena_in_use == 0
            whole = pool.try_acquire(4096)  # only possible if coalesced
            assert whole is not None
            pool.release(whole)
        finally:
            pool.close()

    def test_oversize_gets_dedicated_segment_and_unlinks_on_release(self):
        pool = SharedStagingPool(1024)
        try:
            big = pool.acquire(8192)
            assert big.region.segment != pool.segment_name
            name = big.region.segment
            pool.release(big)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            pool.close()

    def test_oversize_waits_for_idle_arena(self):
        pool = SharedStagingPool(1024)
        try:
            held = pool.acquire(64)
            # oversize liveness rule: nothing may be in flight
            assert pool.try_acquire(8192) is None
            pool.release(held)
            big = pool.try_acquire(8192)
            assert big is not None
            pool.release(big)
        finally:
            pool.close()

    def test_close_unlinks_arena_and_is_idempotent(self):
        pool = SharedStagingPool(1024)
        buf = pool.acquire(64)
        name = pool.segment_name
        pool.release(buf)
        pool.close()
        pool.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        with pytest.raises(RuntimeError):
            pool.acquire(16)

    def test_arena_exhaustion_returns_none_not_blocks(self):
        pool = SharedStagingPool(1024)
        try:
            held = pool.acquire(1024)
            assert pool.try_acquire(512) is None
            pool.release(held)
        finally:
            pool.close()


class TestEngineDigests:
    @pytest.mark.parametrize("seed", range(8))
    def test_worker_digests_match_in_process_sweep(self, seed):
        case = random_entry(seeded_rng(seed))
        expected = PayloadFrames.from_entry(case).chunk_digests(CHUNK)
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 20) as engine:
            payload = frames_of(case)
            (got,) = engine.chunk_digests([payload], CHUNK)
            engine.finish(payload)
        assert got == expected, f"seed={seed}"

    def test_digests_seed_rope_cache_and_count_one_hash_pass(self):
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(), meters)
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 20) as engine:
            engine.chunk_digests([payload], CHUNK)
            assert meters.bytes_hashed == payload.nbytes  # exactly one sweep
            # second ask is a cache hit: no new tasks, no rehash
            before = engine.tasks_dispatched
            engine.chunk_digests([payload], CHUNK)
            assert engine.tasks_dispatched == before
            assert meters.bytes_hashed == payload.nbytes
            engine.finish(payload)

    def test_cached_delta_save_digests_skip_the_fanout_entirely(self):
        # the manager's delta-save sweep runs first; the engine must
        # reuse it — one hash pass wherever it happens
        payload = frames_of(compressible_entry())
        cached = payload.chunk_digests(CHUNK)
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 20) as engine:
            assert engine.chunk_digests([payload], CHUNK) == [cached]
            assert engine.tasks_dispatched == 0
            engine.finish(payload)

    def test_tiny_payload_falls_back_in_process(self):
        payload = frames_of({"x": np.ones(2)})
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 20) as engine:
            (got,) = engine.chunk_digests([payload], 1 << 20)
            assert engine.tasks_dispatched == 0
        assert got == PayloadFrames.from_entry({"x": np.ones(2)}).chunk_digests(1 << 20)

    def test_engine_stages_at_most_one_copy(self):
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(), meters)
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 20) as engine:
            engine.chunk_digests([payload], CHUNK)
            assert meters.bytes_copied == payload.nbytes  # the ONE copy
            engine.finish(payload)
            assert payload.region is None  # staging released

    def test_prestaged_payload_is_not_copied_again(self):
        # the async pipeline's staging copy lands in the shared pool;
        # the engine must reuse that region with zero further copies
        pool = SharedStagingPool(1 << 20)
        meters = PipelineMeters()
        source = frames_of(compressible_entry(), meters)
        slice_ = pool.acquire(source.nbytes)
        staged = source.snapshot_into(slice_)
        copied_once = meters.bytes_copied
        assert staged.region is not None
        with ParallelChunkEngine(WORKERS, staging=pool) as engine:
            (digests,) = engine.chunk_digests([staged], CHUNK)
            engine.finish(staged)  # engine did not stage: must be a no-op
            assert staged.region is not None
        assert meters.bytes_copied == copied_once
        assert digests == PayloadFrames.from_entry(
            compressible_entry()).chunk_digests(CHUNK)
        del staged  # drop the rope's arena views so the segment can close
        pool.release(slice_)
        pool.close()


class TestEngineEncodeDecode:
    def test_encoded_chunks_decode_to_exact_raw_bytes(self):
        codec = make_chunk_codec("zlib")
        case = compressible_entry(4096)
        raw_chunks = chunk_payload(serialize_entry(case), CHUNK)
        with ParallelChunkEngine(
            WORKERS, codec=codec, arena_bytes=1 << 20
        ) as engine:
            payload = frames_of(case)
            indices = list(range(len(raw_chunks)))
            (encoded,) = engine.encode_chunks([(payload, indices)], CHUNK)
            engine.finish(payload)
        assert encoded is not None and set(encoded) == set(indices)

        def no_dict(digest):
            raise KeyError(digest)

        for index, body in encoded.items():
            if body is None:
                continue  # incompressible: stored raw
            assert len(body) < len(raw_chunks[index])
            assert decode_chunk_file(body, no_dict) == raw_chunks[index]

    def test_incompressible_chunks_come_back_none(self):
        codec = make_chunk_codec("zlib")
        case = incompressible_entry(4096)
        with ParallelChunkEngine(
            WORKERS, codec=codec, arena_bytes=1 << 20
        ) as engine:
            payload = frames_of(case)
            n_chunks = (payload.nbytes + CHUNK - 1) // CHUNK
            (encoded,) = engine.encode_chunks([(payload, list(range(n_chunks)))], CHUNK)
            engine.finish(payload)
        assert encoded is not None
        # the header chunk may squeeze, but the random body must not
        assert sum(1 for body in encoded.values() if body is None) >= n_chunks - 2

    def test_encode_counts_at_most_one_compression_pass(self):
        codec = make_chunk_codec("zlib")
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(4096), meters)
        with ParallelChunkEngine(
            WORKERS, codec=codec, arena_bytes=1 << 20
        ) as engine:
            n_chunks = (payload.nbytes + CHUNK - 1) // CHUNK
            subset = list(range(0, n_chunks, 2))  # only "novel" chunks
            engine.encode_chunks([(payload, subset)], CHUNK)
            engine.finish(payload)
        assert 0 < meters.bytes_compressed <= payload.nbytes
        # incompressible chunks count raw bytes as output (they hit the
        # wire raw), so out <= in always holds for zlib level 1 framing
        assert meters.bytes_compressed_out <= meters.bytes_compressed + 16 * len(subset)

    def test_worker_decode_matches_serial_decode(self):
        codec = make_chunk_codec("zlib")
        raw_chunks = chunk_payload(serialize_entry(compressible_entry(4096)), CHUNK)
        bodies = []
        expected = []
        from repro.ckpt import encode_chunk_file

        for chunk in raw_chunks:
            body = encode_chunk_file(codec, [chunk])
            if body is not None:
                bodies.append(body)
                expected.append(chunk)
        assert bodies
        with ParallelChunkEngine(WORKERS, codec=codec, arena_bytes=1 << 16) as engine:
            raws = engine.decode_chunks(bodies)
        assert raws == expected

    def test_no_codec_engine_returns_none_for_encode(self):
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 16) as engine:
            payload = frames_of(compressible_entry())
            assert engine.encode_chunks([(payload, [0])], CHUNK) == [None]
            engine.finish(payload)


class TestEnginePlanning:
    def test_no_items_plan_no_tasks(self):
        with ParallelChunkEngine(WORKERS, arena_bytes=1 << 16) as engine:
            assert engine._plan(0) == []
            assert engine._plan(0, []) == []

    def test_empty_rounds_dispatch_nothing(self):
        codec = make_chunk_codec("zlib")
        with ParallelChunkEngine(WORKERS, codec=codec, arena_bytes=1 << 16) as engine:
            assert engine.chunk_digests([], CHUNK) == []
            assert engine.encode_chunks([], CHUNK) == []
            payload = frames_of(compressible_entry())
            assert engine.encode_chunks([(payload, [])], CHUNK) == [None]
            assert engine.tasks_dispatched == 0
            assert payload.region is None  # nothing to encode: not staged

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_ranges_cover_items_contiguously(self, workers):
        with ParallelChunkEngine(workers, arena_bytes=1 << 16) as engine:
            for n_items in range(1, 12):
                ranges = engine._plan(n_items)
                assert len(ranges) == min(workers, n_items)
                assert ranges[0][0] == 0 and ranges[-1][1] == n_items
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start
                assert all(stop > start for start, stop in ranges)

    def test_ranges_balance_bytes_not_counts(self):
        # 40 tiny chunks, then 40 full ones: a count split would hand
        # one worker all the tiny chunks and the other all the work
        sizes = [1] * 40 + [100] * 40
        with ParallelChunkEngine(2, arena_bytes=1 << 16) as engine:
            (a_start, a_stop), (b_start, b_stop) = engine._plan(len(sizes), sizes)
        loads = [sum(sizes[a_start:a_stop]), sum(sizes[b_start:b_stop])]
        assert abs(loads[0] - loads[1]) <= max(sizes)


class TestDedupComposition:
    def open(self, root, **kwargs):
        kwargs.setdefault("chunk_bytes", CHUNK)
        kwargs.setdefault("codec", "zlib")
        kwargs.setdefault("parallel_workers", WORKERS)
        return DedupBackend(str(root), **kwargs)

    def test_roundtrip_and_fsck_with_workers_and_codec(self, tmp_path):
        store = self.open(tmp_path)
        case = compressible_entry(4096)
        store.put("k", case, stamp=1)
        got = store.get("k")
        assert np.array_equal(got["x"], case["x"])
        report = store.fsck()
        assert report.ok and report.encoded_chunks > 0
        # physical bytes beat logical: compression is really happening
        assert store.chunks.chunk_bytes_written < store.bytes_written
        store.close()

    def test_chunks_stay_addressed_by_uncompressed_digest(self, tmp_path):
        store = self.open(tmp_path)
        case = compressible_entry(4096)
        store.put("k", case, stamp=1)
        digests = store._index["k"]["chunks"]
        expected = [
            chunk_digest(chunk)
            for chunk in chunk_payload(serialize_entry(case), CHUNK)
        ]
        assert digests == expected  # codec-independent addressing
        store.close()

    def test_dedup_hit_skips_compression_entirely(self, tmp_path):
        store = self.open(tmp_path)
        case = compressible_entry(4096)
        store.put("a", case, stamp=1)
        meters = PipelineMeters()
        physical = store.chunks.chunk_bytes_written
        payload = PayloadFrames.from_entry(case, meters=meters)
        store.put_serialized("b", payload, stamp=2)
        # identical content: no new chunk files, zero compression passes
        assert store.chunks.chunk_bytes_written == physical
        assert meters.bytes_compressed == 0
        store.close()

    def test_store_written_with_engine_reads_without_one(self, tmp_path):
        store = self.open(tmp_path)
        case = compressible_entry(4096)
        store.put("k", case, stamp=1)
        store.close()
        # frames are self-describing: a plain reopen decodes fine
        plain = DedupBackend(str(tmp_path), chunk_bytes=CHUNK)
        assert np.array_equal(plain.get("k")["x"], case["x"])
        assert plain.fsck().ok
        plain.close()

    def test_trained_dictionary_roundtrips_under_workers(self, tmp_path):
        store = self.open(tmp_path)
        for index in range(4):
            store.put(f"k{index}", compressible_entry(2048, seed=index), stamp=index)
        digest = store.train_codec_dictionary()
        if digest is not None:  # corpus was rich enough to train from
            store.put("post", compressible_entry(2048, seed=9), stamp=9)
            assert np.array_equal(
                store.get("post")["x"], compressible_entry(2048, seed=9)["x"]
            )
            assert store.fsck().ok
        store.close()


#: An entry already on disk before the batch runs (its twin in the
#: batch is all dedup hits).
ON_DISK = compressible_entry(512, seed=99)


def batch_entries() -> list:
    """~80 mixed-size entries: most under one chunk, some multi-chunk,
    two that share exactly one chunk, and one already on disk."""
    rng = np.random.default_rng(7)
    entries = []
    for index in range(80):
        if index % 10 == 3:  # multi-chunk, compressible
            entries.append((f"big{index}", compressible_entry(256 + 32 * index, seed=index)))
        else:  # under one chunk; random floats mostly stay raw
            entries.append((f"small{index}", {"x": rng.standard_normal(4 + index % 21)}))
    # 40 float64 = 352 bytes: chunk 0 shared, chunk 1 differs
    twin = rng.standard_normal(40)
    other = twin.copy()
    other[-1] += 1.0
    entries.insert(20, ("twin-a", {"x": twin}))
    entries.insert(60, ("twin-b", {"x": other}))
    entries.insert(40, ("copy-of-on-disk", ON_DISK))
    return entries


class TestBatchedWindows:
    """``put_many_serialized`` makes one digest and one encode round
    trip per window, and lands exactly what the in-process path does."""

    def run_batch(self, root, workers, monkeypatch=None):
        store = DedupBackend(
            str(root), chunk_bytes=CHUNK, codec="zlib", parallel_workers=workers
        )
        store.put("on-disk", ON_DISK, stamp=0)
        meters = PipelineMeters()
        items = [
            (key, PayloadFrames.from_entry(case, meters=meters), 1, 0)
            for key, case in batch_entries()
        ]
        collects = []
        if monkeypatch is not None:
            collect = ChunkWorkerPool.collect

            def counted(pool, task_ids):
                collects.append(len(task_ids))
                return collect(pool, task_ids)

            monkeypatch.setattr(ChunkWorkerPool, "collect", counted)
        sizes = store.put_many_serialized(items)
        assert sizes == [payload.nbytes for _, payload, _, _ in items]
        return store, meters, dedup_module._windows(items), collects

    @staticmethod
    def encoded_files(root):
        objects = root / "chunks" / "objects"
        return {path.name for path in objects.glob("*/*.z")}

    @pytest.mark.parametrize("window_bytes", [dedup_module.WINDOW_BYTES, 8 * 1024])
    def test_batch_matches_in_process_path(self, tmp_path, monkeypatch, window_bytes):
        monkeypatch.setattr(dedup_module, "WINDOW_BYTES", window_bytes)
        serial, serial_meters, _, _ = self.run_batch(tmp_path / "serial", 0)
        pooled, meters, windows, collects = self.run_batch(
            tmp_path / "pooled", WORKERS, monkeypatch
        )
        try:
            assert pooled.engine.enabled, pooled.engine.fallback_reason
            assert pooled.engine.tasks_dispatched > 0
            # one digest + one encode round trip per window, not per entry
            assert 0 < len(collects) <= 2 * len(windows)
            if window_bytes < dedup_module.WINDOW_BYTES:
                assert len(windows) > 1
            assert pooled.keys() == serial.keys()
            for key in serial.keys():
                assert pooled.chunks_of(key) == serial.chunks_of(key), key
                got, want = pooled.get(key), serial.get(key)
                assert got.keys() == want.keys()
                for field in want:
                    assert got[field].dtype == want[field].dtype
                    assert got[field].tobytes() == want[field].tobytes(), key
            assert self.encoded_files(tmp_path / "pooled") == self.encoded_files(
                tmp_path / "serial"
            )
            assert self.encoded_files(tmp_path / "pooled")  # compression engaged
            assert pooled.engine.staging.arena_in_use == 0
            assert pooled.fsck().ok
        finally:
            pooled.close()
            serial.close()
        # one hash pass; one compression pass over exactly the novel
        # first-occurrence chunks, the twins' shared chunk counted once
        on_disk = set(chunk_digest(c) for c in chunk_payload(serialize_entry(ON_DISK), CHUNK))
        seen = set(on_disk)
        novel_bytes = 0
        twin_chunks = []
        for key, case in batch_entries():
            chunks = chunk_payload(serialize_entry(case), CHUNK)
            if key.startswith("twin"):
                twin_chunks.append({chunk_digest(c) for c in chunks})
            for chunk in chunks:
                if chunk_digest(chunk) not in seen:
                    seen.add(chunk_digest(chunk))
                    novel_bytes += len(chunk)
        assert len(twin_chunks[0] & twin_chunks[1]) == 1
        for snapshot in (meters, serial_meters):
            assert snapshot.bytes_hashed == snapshot.bytes_serialized
            assert snapshot.bytes_compressed == novel_bytes
        assert meters.bytes_compressed_out == serial_meters.bytes_compressed_out

    @pytest.mark.parametrize("failure", ["crash", "oserror"])
    def test_failed_window_releases_its_staging(self, tmp_path, monkeypatch, failure):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=WORKERS
        )
        try:
            items = [
                (f"k{index}", compressible_entry(512, seed=index), 1, 0)
                for index in range(6)
            ]
            # the third chunk write fails: mid-window, with every later
            # entry of the window already staged
            hits = {"count": 0}
            write_chunk = store.chunks.write_chunk

            def third(error):
                hits["count"] += 1
                if hits["count"] == 3:
                    raise error

            def failing(digest, data, encoded=None):
                third(OSError("disk full"))
                return write_chunk(digest, data, encoded=encoded)

            if failure == "crash":
                store.fault_hook = (
                    lambda point: point == "chunk:durable" and third(CrashInjected(point))
                )
                expected = CrashInjected
            else:
                monkeypatch.setattr(store.chunks, "write_chunk", failing)
                expected = OSError
            with pytest.raises(expected):
                store.put_many(items)
            assert store.engine.enabled
            # every payload the window staged is released: later saves
            # still get arena space and still reach the pool
            assert store.engine.staging.arena_in_use == 0
            store.fault_hook = None
            monkeypatch.setattr(store.chunks, "write_chunk", write_chunk)
            before = store.engine.tasks_dispatched
            store.put_many([
                (f"after{index}", compressible_entry(512, seed=50 + index), 2, 0)
                for index in range(4)
            ])
            assert store.engine.tasks_dispatched > before
            assert store.engine.staging.arena_in_use == 0
        finally:
            store.close()

    def test_empty_batch_is_a_no_op(self, tmp_path):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=WORKERS
        )
        try:
            assert store.put_many_serialized([]) == []
            assert store.keys() == []
            assert store.engine.tasks_dispatched == 0
        finally:
            store.close()


def run_concurrently(work, threads: int = 2, timeout: float = 30.0) -> None:
    """Run ``work(index)`` on ``threads`` threads; fail if any hangs or raises.

    A hang is what mis-delivered pool results look like: the collector
    that owns a swallowed result waits for it until the batch deadline.
    """
    errors = []

    def body(index):
        try:
            work(index)
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    runners = [
        threading.Thread(target=body, args=(index,), daemon=True)
        for index in range(threads)
    ]
    # Frequent thread switches interleave the collectors as finely as
    # the interpreter allows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners), (
        "a collector hung: another caller took its results off the queue"
    )
    assert not errors, errors


class TestConcurrentCollectors:
    """Regression: ``ChunkWorkerPool.collect`` used to drop results for
    task ids it did not own, so two callers sharing one pool (two restore
    lanes over one dedup store) swallowed each other's results and hung
    until the batch deadline.  Foreign results now wait in a mailbox."""

    ROUNDS = 10
    #: More collectors than the pool has workers.
    THREADS = 3

    def test_concurrent_decode_chunks_get_their_own_results(self):
        codec = make_chunk_codec("zlib")
        cases = []
        for seed in range(self.THREADS):
            raw = chunk_payload(serialize_entry(compressible_entry(4096, seed=seed)), CHUNK)
            bodies = [encode_chunk_file(codec, [chunk]) for chunk in raw]
            cases.append((
                [body for body in bodies if body is not None],
                [chunk for chunk, body in zip(raw, bodies) if body is not None],
            ))
        with ParallelChunkEngine(WORKERS, codec=codec, arena_bytes=1 << 16) as engine:

            def decode(index):
                bodies, expected = cases[index]
                for _ in range(self.ROUNDS):
                    assert engine.decode_chunks(bodies) == expected

            run_concurrently(decode, threads=self.THREADS)
            assert engine.enabled, engine.fallback_reason

    def test_two_restore_lanes_over_one_dedup_store(self, tmp_path):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=WORKERS
        )
        try:
            cases = {f"k{i}": compressible_entry(4096, seed=i) for i in range(8)}
            for key, case in cases.items():
                store.put(key, case, stamp=1)
            requests = [ReadRequest(key=key, store=store) for key in cases]

            def restore(_index):
                for _ in range(self.ROUNDS // 2):
                    entries, _stats = ParallelRestorer(workers=2).fetch(requests)
                    for key, case in cases.items():
                        assert np.array_equal(entries[key]["x"], case["x"]), key

            run_concurrently(restore)
            assert store.engine.enabled, store.engine.fallback_reason
        finally:
            store.close()


class TestManagerMeterInvariants:
    """The acceptance invariants, measured on the live manager with
    ``parallel_workers > 1``: one hash pass, ≤1 staging copy, ≤1
    compression pass per persisted byte."""

    def _manager(self, tmp_path, **kwargs):
        model, optimizer = tiny_model_and_optimizer(TINY)
        config = MoCConfig(
            pec=PECConfig(k_snapshot=2, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=1),
        )
        return model, optimizer, MoCCheckpointManager(
            model, optimizer, config, disk_root=str(tmp_path),
            backend="dedup", chunk_codec="zlib", parallel_workers=WORKERS,
            **kwargs,
        )

    def _run_checkpoints(self, model, optimizer, manager, iterations=(2, 4)):
        manager.save_initial(0)
        rng = np.random.default_rng(0)
        for iteration in iterations:
            for name, param in model.named_parameters():
                param.data += rng.standard_normal(param.data.shape) * 0.01
                optimizer.bump_version(name)  # an in-place write outside Adam
            manager.note_routing(
                [np.full(manager.num_experts, 2)] * manager.num_moe_layers
            )
            manager.checkpoint(iteration)
        manager.flush()

    def test_sync_parallel_single_hash_bounded_copy_and_compression(self, tmp_path):
        model, optimizer, manager = self._manager(tmp_path, delta_saves=True)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
        assert meters["bytes_serialized"] > 0
        # ONE sha-256 sweep per byte — the delta sweep seeds the engine
        assert meters["bytes_hashed"] == meters["bytes_serialized"]
        # at most one staging copy (only payloads with novel chunks
        # stage for the encode fan-out)
        assert meters["bytes_copied"] <= meters["bytes_serialized"]
        # at most one compression pass; dedup hits make it strict
        assert 0 < meters["bytes_compressed"] <= meters["bytes_serialized"]
        for profile in manager.save_profile:
            assert profile.hash_passes == pytest.approx(1.0)
            assert profile.copy_passes <= 1.0
            assert profile.compression_passes <= 1.0

    def test_async_parallel_stages_exactly_once_into_shared_arena(self, tmp_path):
        model, optimizer, manager = self._manager(
            tmp_path, delta_saves=True, async_writes=True
        )
        with manager:
            # the async writer must share the engine's shm staging pool
            inner = manager.disk_store.inner
            assert manager.disk_store.staging is inner.staging_pool
            assert isinstance(manager.disk_store.staging, SharedStagingPool)
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            # the async staging copy is THE copy: workers read the same
            # bytes, so copies == bytes accepted by the persist tier
            assert meters["bytes_copied"] == manager.disk_store.bytes_written
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            assert 0 < meters["bytes_compressed"] <= meters["bytes_serialized"]

    def test_parallel_workers_hash_without_delta_saves(self, tmp_path):
        # delta off: nobody hashes ahead of the store, so the sweep runs
        # in the workers — still exactly one pass per byte
        model, optimizer, manager = self._manager(tmp_path, delta_saves=False)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            engine = manager.disk_store.engine
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            if engine.enabled:
                assert engine.tasks_dispatched > 0

    def test_recovery_restores_exact_state_through_codec_and_workers(self, tmp_path):
        model, optimizer, manager = self._manager(tmp_path, delta_saves=True)
        with manager:
            manager.save_initial(0)
            saved = {
                name: param.data.copy()
                for name, param in model.named_parameters()
            }
            for _name, param in model.named_parameters():
                param.data += 1.0
            result = manager.recover(failed_nodes=[0, 1])
            assert result.resume_iteration == 0
            for name, param in model.named_parameters():
                assert np.array_equal(param.data, saved[name]), name
            assert manager.disk_store.fsck().ok
