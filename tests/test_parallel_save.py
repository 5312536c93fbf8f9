"""The chunk codec engine on I/O-scheduler threads, pinned end to end.

Four properties this suite exists to hold:

* **thread correctness** — digests, encoded chunk bodies and decoded
  chunks from the engine are bit-identical to the single-thread path,
  for arbitrary entries, and ``ChunkCodec.stats`` stays exact while
  several threads encode through one codec;
* **no task outlives its window** — a failing codec task surfaces only
  after its sibling tasks have finished, before any chunk is written;
* **meter invariants** — with codec threads the live manager still
  shows exactly one SHA-256 sweep, no staging copy on the sync path and
  exactly one on the async path, and at most one compression pass per
  persisted byte;
* **composition** — the engine + codec compose with dedup (chunks stay
  addressed by uncompressed digest), delta saves, the async pipeline,
  concurrent restore lanes and recovery.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.ckpt import dedup as dedup_module
from repro.ckpt import parallel as parallel_module
from repro.ckpt import (
    CrashInjected,
    DedupBackend,
    KVStoreError,
    ParallelChunkEngine,
    ParallelRestorer,
    PayloadFrames,
    PipelineMeters,
    ReadRequest,
    ShardedDiskKVStore,
    StagingPool,
    TieredBackend,
    chunk_digest,
    chunk_payload,
    decode_chunk_file,
    encode_chunk_file,
    make_backend,
    make_chunk_codec,
    serialize_entry,
)
from repro.core import MoCCheckpointManager, MoCConfig, PECConfig, TwoLevelConfig
from repro.io.scheduler import get_scheduler
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


def all_chunks(payload: PayloadFrames) -> list:
    """Every chunk index of ``payload`` at :data:`CHUNK` granularity."""
    return list(range((payload.nbytes + CHUNK - 1) // CHUNK))


def run_concurrently(work, threads: int = 2, timeout: float = 30.0) -> None:
    """Run ``work(index)`` on ``threads`` threads; fail if any hangs or raises."""
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
    # Frequent thread switches interleave the threads as finely as the
    # interpreter allows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(runner.is_alive() for runner in runners), "a thread hung"
    assert not errors, errors


class TestEngineDigests:
    @pytest.mark.parametrize("seed", range(8))
    def test_worker_digests_match_in_process_sweep(self, seed):
        case = random_entry(seeded_rng(seed))
        expected = PayloadFrames.from_entry(case).chunk_digests(CHUNK)
        (got,) = ParallelChunkEngine(WORKERS).chunk_digests([frames_of(case)], CHUNK)
        assert got == expected, f"seed={seed}"

    def test_digests_seed_rope_cache_and_count_one_hash_pass(self):
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(), meters)
        engine = ParallelChunkEngine(WORKERS)
        first = engine.chunk_digests([payload], CHUNK)
        assert meters.snapshot()["bytes_hashed"] == payload.nbytes  # exactly one sweep
        # second ask is a cache hit: no rehash
        assert engine.chunk_digests([payload], CHUNK) == first
        assert meters.snapshot()["bytes_hashed"] == payload.nbytes

    def test_cached_delta_save_digests_skip_the_fanout_entirely(self):
        # the manager's delta-save sweep runs first; the engine must
        # reuse it — one hash pass wherever it happens
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(), meters)
        cached = payload.chunk_digests(CHUNK)
        assert ParallelChunkEngine(WORKERS).chunk_digests([payload], CHUNK) == [cached]
        assert meters.snapshot()["bytes_hashed"] == payload.nbytes

    def test_engine_makes_no_staging_copy(self):
        # encodes read zero-copy chunk slices of the caller's rope
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(4096), meters)
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        engine.chunk_digests([payload], CHUNK)
        engine.encode_chunks([(payload, all_chunks(payload))], CHUNK)
        assert meters.snapshot()["bytes_compressed"] == payload.nbytes
        assert meters.snapshot()["bytes_copied"] == 0

    def test_prestaged_payload_is_not_copied_again(self):
        # the async pipeline's staging copy is the one copy: the engine
        # digests from the shared cache and encodes the staged bytes
        meters = PipelineMeters()
        source = frames_of(compressible_entry(), meters)
        digests = source.chunk_digests(CHUNK)
        pool = StagingPool(1 << 20)
        buffer = pool.acquire(source.nbytes)
        staged = source.snapshot_into(buffer)
        assert meters.snapshot()["bytes_copied"] == source.nbytes
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        assert engine.chunk_digests([staged], CHUNK) == [digests]
        (encoded,) = engine.encode_chunks([(staged, all_chunks(staged))], CHUNK)
        assert meters.snapshot()["bytes_copied"] == source.nbytes
        assert meters.snapshot()["bytes_hashed"] == source.nbytes
        raw_chunks = chunk_payload(serialize_entry(compressible_entry()), CHUNK)
        assert any(body is not None for body in encoded.values())
        for index, body in encoded.items():
            if body is not None:
                assert decode_chunk_file(body) == raw_chunks[index]
        pool.release(buffer)

    def test_single_chunk_encodes_on_the_saving_thread(self):
        # one unit of work is one share: no lane task is worth its hop
        payload = frames_of({"x": np.ones(2)})
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        (encoded,) = engine.encode_chunks([(payload, [0])], 1 << 20)
        assert list(encoded) == [0]
        assert encoded[0] is None  # too small to be worth framing
        assert engine.tasks_dispatched == 0


class TestEngineEncodeDecode:
    def test_encoded_chunks_decode_to_exact_raw_bytes(self):
        codec = make_chunk_codec("zlib")
        case = compressible_entry(4096)
        raw_chunks = chunk_payload(serialize_entry(case), CHUNK)
        indices = list(range(len(raw_chunks)))
        engine = ParallelChunkEngine(WORKERS, codec=codec)
        (encoded,) = engine.encode_chunks([(frames_of(case), indices)], CHUNK)
        assert set(encoded) == set(indices)
        # the saving thread encodes one share, lane tasks the others
        assert engine.tasks_dispatched == WORKERS - 1
        for index, body in encoded.items():
            if body is None:
                continue  # incompressible: stored raw
            assert len(body) < len(raw_chunks[index])
            assert decode_chunk_file(body) == raw_chunks[index]

    def test_incompressible_chunks_come_back_none(self):
        payload = frames_of(incompressible_entry(4096))
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        (encoded,) = engine.encode_chunks([(payload, all_chunks(payload))], CHUNK)
        # the header chunk may squeeze, but the random body must not
        assert sum(1 for body in encoded.values() if body is None) >= len(encoded) - 2

    def test_encode_counts_at_most_one_compression_pass(self):
        meters = PipelineMeters()
        payload = frames_of(compressible_entry(4096), meters)
        subset = all_chunks(payload)[::2]  # only "novel" chunks
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        engine.encode_chunks([(payload, subset)], CHUNK)
        counts = meters.snapshot()
        assert 0 < counts["bytes_compressed"] <= payload.nbytes
        # incompressible chunks count raw bytes as output (they hit the
        # wire raw), so out <= in always holds for zlib level 1 framing
        assert counts["bytes_compressed_out"] <= counts["bytes_compressed"] + 16 * len(subset)

    def test_worker_decode_matches_serial_decode(self):
        codec = make_chunk_codec("zlib")
        raw_chunks = chunk_payload(serialize_entry(compressible_entry(4096)), CHUNK)
        bodies = []
        expected = []
        for chunk in raw_chunks:
            body = encode_chunk_file(codec, [chunk])
            if body is not None:
                bodies.append(body)
                expected.append(chunk)
        assert bodies
        engine = ParallelChunkEngine(WORKERS, codec=codec)
        assert engine.decode_chunks(bodies) == expected
        assert engine.worker_cpu_seconds > 0.0

    def test_no_codec_engine_encodes_nothing(self):
        payload = frames_of(compressible_entry())
        assert ParallelChunkEngine(WORKERS).encode_chunks([(payload, [0])], CHUNK) == [{}]

    def test_threads_encoding_through_one_codec_keep_stats_exact(self):
        codec = make_chunk_codec("zlib")
        chunk = serialize_entry(compressible_entry(256))
        rounds = 1000
        sizes = [[] for _ in range(4)]

        def encode(index):
            for _ in range(rounds):
                sizes[index].append(len(codec.encode(chunk)))

        run_concurrently(encode, threads=len(sizes))
        assert codec.stats.raw_bytes == len(sizes) * rounds * len(chunk)
        assert codec.stats.encoded_bytes == sum(map(sum, sizes))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_encoded_bodies_match_single_thread_encode(self, workers):
        payload = frames_of(compressible_entry(4096))
        indices = all_chunks(payload)
        engine = ParallelChunkEngine(workers, codec=make_chunk_codec("zlib"))
        (encoded,) = engine.encode_chunks([(payload, indices)], CHUNK)
        serial = make_chunk_codec("zlib")
        slices = list(payload.chunk_slices(CHUNK))
        assert encoded == {
            index: encode_chunk_file(serial, slices[index]) for index in indices
        }
        assert engine.tasks_dispatched == min(workers, len(indices)) - 1

    def test_multi_job_round_folds_meters_per_payload(self):
        first_meters, second_meters = PipelineMeters(), PipelineMeters()
        first = frames_of(compressible_entry(4096, seed=1), first_meters)
        second = frames_of(compressible_entry(4096, seed=2), second_meters)
        subset = all_chunks(second)[1::3]
        engine = ParallelChunkEngine(3, codec=make_chunk_codec("zlib"))
        engine.encode_chunks(
            [(first, all_chunks(first)), (second, subset)], CHUNK
        )
        slices = list(second.chunk_slices(CHUNK))
        assert first_meters.snapshot()["bytes_compressed"] == first.nbytes
        assert second_meters.snapshot()["bytes_compressed"] == sum(
            sum(map(len, slices[index])) for index in subset
        )

    def test_encode_counts_thread_cpu_time(self):
        payload = frames_of(compressible_entry(1 << 15))
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        engine.encode_chunks([(payload, all_chunks(payload))], CHUNK)
        assert engine.worker_cpu_seconds > 0.0


class TestEngineTasks:
    """Codec tasks run on the I/O scheduler and carry the owner's crash
    seam."""

    def test_fault_hook_fires_at_each_task_dispatch(self):
        hits = []
        lock = threading.Lock()

        def record(point):
            with lock:
                hits.append(point)

        payload = frames_of(compressible_entry(4096))
        engine = ParallelChunkEngine(3, codec=make_chunk_codec("zlib"))
        engine.fault = record
        engine.encode_chunks([(payload, all_chunks(payload))], CHUNK)
        assert engine.tasks_dispatched == 2
        assert hits.count("iosched:dispatch") == engine.tasks_dispatched

    def test_two_engines_encode_concurrently_and_exactly(self):
        payloads = [frames_of(compressible_entry(4096, seed=seed)) for seed in (3, 4)]
        engines = [
            ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
            for _ in payloads
        ]
        serial = make_chunk_codec("zlib")
        wants = []
        for payload in payloads:
            slices = list(payload.chunk_slices(CHUNK))
            wants.append({
                chunk: encode_chunk_file(serial, slices[chunk])
                for chunk in all_chunks(payload)
            })

        def encode(index):
            payload = payloads[index]
            for _ in range(5):
                (got,) = engines[index].encode_chunks(
                    [(payload, all_chunks(payload))], CHUNK
                )
                assert got == wants[index]

        run_concurrently(encode, threads=len(engines))
        assert all(engine.tasks_dispatched == 5 for engine in engines)


class TestEnginePlanning:
    def test_no_items_plan_no_tasks(self):
        engine = ParallelChunkEngine(WORKERS)
        assert engine._plan(0) == []
        assert engine._plan(0, []) == []

    def test_empty_rounds_dispatch_nothing(self):
        engine = ParallelChunkEngine(WORKERS, codec=make_chunk_codec("zlib"))
        assert engine.chunk_digests([], CHUNK) == []
        assert engine.encode_chunks([], CHUNK) == []
        payload = frames_of(compressible_entry())
        assert engine.encode_chunks([(payload, [])], CHUNK) == [{}]
        assert engine.tasks_dispatched == 0

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_ranges_cover_items_contiguously(self, workers):
        engine = ParallelChunkEngine(workers)
        for n_items in range(1, 12):
            ranges = engine._plan(n_items)
            assert len(ranges) == min(workers, n_items)
            assert ranges[0][0] == 0 and ranges[-1][1] == n_items
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            assert all(stop > start for start, stop in ranges)

    def test_ranges_balance_bytes_not_counts(self):
        # 40 tiny chunks, then 40 full ones: a count split would hand
        # one thread all the tiny chunks and the other all the work
        sizes = [1] * 40 + [100] * 40
        (a_start, a_stop), (b_start, b_stop) = ParallelChunkEngine(2)._plan(
            len(sizes), sizes
        )
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
        assert meters.snapshot()["bytes_compressed"] == 0
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

    def test_store_written_without_engine_reads_with_one(self, tmp_path):
        plain = DedupBackend(str(tmp_path), chunk_bytes=CHUNK, codec="zlib")
        case = compressible_entry(4096)
        plain.put("k", case, stamp=1)
        plain.close()
        store = self.open(tmp_path)
        assert np.array_equal(store.get("k")["x"], case["x"])
        # the encoded chunks were decoded through the engine
        assert store.engine.worker_cpu_seconds > 0.0
        report = store.fsck()
        assert report.ok and report.encoded_chunks > 0
        store.close()

    def corrupt_encoded_chunks(self, store, local) -> None:
        """Put ``k``, close ``store`` and flip 8 bytes in the body of
        every encoded chunk file of ``local`` (the dedup store behind
        ``store``)."""
        store.put("k", compressible_entry(4096), stamp=1)
        assert local.chunks.chunks_encoded > 0
        store.close()
        for digest in local.chunks.encoded_digests():
            path = local.chunks._encoded_path(digest)
            with open(path, "r+b") as handle:
                handle.seek(16)
                body = handle.read(8)
                handle.seek(16)
                handle.write(bytes(b ^ 0xFF for b in body))

    @pytest.mark.parametrize("workers", [0, WORKERS])
    def test_undecodable_chunk_is_a_store_error(self, tmp_path, workers):
        store = self.open(tmp_path, parallel_workers=workers)
        self.corrupt_encoded_chunks(store, store)
        store = self.open(tmp_path, parallel_workers=workers)
        assert (store.engine is not None) == (workers > 0)
        with pytest.raises(KVStoreError, match="chunk decode"):
            store.get("k")
        assert store.fsck().corrupt_chunks
        store.close()

    def test_tiered_read_falls_back_to_remote_on_an_undecodable_chunk(self, tmp_path):
        def open_tiered():
            local = self.open(tmp_path / "local")
            remote = ShardedDiskKVStore(str(tmp_path / "remote"))
            return local, TieredBackend(
                local, remote, str(tmp_path / "tier.jsonl"), upload_workers=0
            )

        local, store = open_tiered()
        self.corrupt_encoded_chunks(store, local)
        _, store = open_tiered()
        try:
            got = store.get("k")
            assert np.array_equal(got["x"], compressible_entry(4096)["x"])
            assert store.tier_stats()["remote_reads"] >= 1
        finally:
            store.close()

    def test_upload_of_an_undecodable_chunk_counts_as_failed(self, tmp_path):
        local = self.open(tmp_path / "local")
        self.corrupt_encoded_chunks(local, local)
        store = TieredBackend(
            self.open(tmp_path / "local"), ShardedDiskKVStore(str(tmp_path / "remote")),
            str(tmp_path / "tier.jsonl"), upload_workers=0, upload_max_retries=0,
        )
        try:
            store.flush()  # uploads every pending key on this thread
            assert store.tier_stats()["uploads_failed"] >= 1
            assert store.pending_uploads() == ["k"]
            assert not store.remote.has("k")
        finally:
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
    """``put_many_serialized`` makes one encode round per window, and
    lands exactly what the single-thread path does."""

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
        rounds = []
        if monkeypatch is not None:
            encode_chunks = ParallelChunkEngine.encode_chunks

            def counted(engine, jobs, chunk_bytes):
                rounds.append(len(jobs))
                return encode_chunks(engine, jobs, chunk_bytes)

            monkeypatch.setattr(ParallelChunkEngine, "encode_chunks", counted)
        sizes = store.put_many_serialized(items)
        assert sizes == [payload.nbytes for _, payload, _, _ in items]
        return store, meters, dedup_module._windows(items), rounds

    @staticmethod
    def encoded_files(root):
        objects = root / "chunks" / "objects"
        return {path.name for path in objects.glob("*/*.z")}

    @pytest.mark.parametrize("window_bytes", [dedup_module.WINDOW_BYTES, 8 * 1024])
    def test_batch_matches_in_process_path(self, tmp_path, monkeypatch, window_bytes):
        self.check_batch(tmp_path, monkeypatch, window_bytes, WORKERS)

    @pytest.mark.parametrize("window_bytes", [dedup_module.WINDOW_BYTES, 8 * 1024])
    def test_wider_lane_lands_the_same_batch(self, tmp_path, monkeypatch, window_bytes):
        self.check_batch(tmp_path, monkeypatch, window_bytes, 4)

    def check_batch(self, tmp_path, monkeypatch, window_bytes, workers):
        monkeypatch.setattr(dedup_module, "WINDOW_BYTES", window_bytes)
        serial, serial_meters, _, _ = self.run_batch(tmp_path / "serial", 0)
        pooled, meters, windows, rounds = self.run_batch(
            tmp_path / "pooled", workers, monkeypatch
        )
        try:
            assert pooled.engine.tasks_dispatched > 0
            # one encode round per window, not per entry
            assert len(rounds) == len(windows)
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
        pooled_counts, serial_counts = meters.snapshot(), serial_meters.snapshot()
        for counts in (pooled_counts, serial_counts):
            assert counts["bytes_hashed"] == counts["bytes_serialized"]
            assert counts["bytes_compressed"] == novel_bytes
        assert pooled_counts["bytes_compressed_out"] == serial_counts["bytes_compressed_out"]

    @pytest.mark.parametrize("failure", ["crash", "oserror"])
    def test_engine_survives_a_failed_window(self, tmp_path, monkeypatch, failure):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=WORKERS
        )
        items = [
            (f"k{index}", compressible_entry(512, seed=index), 1, 0)
            for index in range(6)
        ]
        # the third chunk write fails: mid-window, after its encode round
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
        store.fault_hook = None
        monkeypatch.setattr(store.chunks, "write_chunk", write_chunk)
        # later saves still reach the lane and land intact
        before = store.engine.tasks_dispatched
        after = [
            (f"after{index}", compressible_entry(512, seed=50 + index), 2, 0)
            for index in range(4)
        ]
        store.put_many(after)
        assert store.engine.tasks_dispatched > before
        for key, case, _, _ in after:
            assert np.array_equal(store.get(key)["x"], case["x"])

    def test_failing_codec_task_raises_after_its_siblings(self, tmp_path, monkeypatch):
        """A lane task's encode raises: ``put_many`` re-raises only after
        every sibling share has finished, and nothing reached disk."""
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=3
        )
        encode = parallel_module.encode_chunk_file
        on_lane = get_scheduler().is_worker_thread
        lock = threading.Lock()
        state = {"failed": False, "running": 0, "calls": 0}

        def flaky(codec, parts):
            with lock:
                fail = on_lane() and not state["failed"]
                state["failed"] = state["failed"] or fail
                state["running"] += 1
                state["calls"] += 1
            try:
                if fail:
                    raise RuntimeError("codec task failed")
                time.sleep(0.001)  # siblings are still busy when it fails
                return encode(codec, parts)
            finally:
                with lock:
                    state["running"] -= 1

        monkeypatch.setattr(parallel_module, "encode_chunk_file", flaky)
        items = [(f"k{i}", compressible_entry(4096, seed=i), 1, 0) for i in range(4)]
        with pytest.raises(RuntimeError, match="codec task failed"):
            store.put_many(items)
        with lock:
            assert state["failed"]
            assert state["running"] == 0  # every sibling share had finished
            calls = state["calls"]
        time.sleep(0.05)
        assert state["calls"] == calls  # and none started afterwards
        monkeypatch.undo()
        assert store.keys() == []
        assert store.chunks.disk_chunks() == {}
        report = store.fsck()
        assert report.ok and not report.warnings
        # the engine is not left broken: the same batch lands next time
        store.put_many(items)
        for key, case, _, _ in items:
            assert np.array_equal(store.get(key)["x"], case["x"])

    def test_empty_batch_is_a_no_op(self, tmp_path):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=WORKERS
        )
        assert store.put_many_serialized([]) == []
        assert store.keys() == []
        assert store.engine.tasks_dispatched == 0


class TestConcurrentRestoreLanes:
    """Regression: two restore lanes over one dedup store with a codec
    and codec threads used to hang.  Each lane decodes on its own
    thread; the run must finish well inside the join timeout."""

    ROUNDS = 5

    def test_concurrent_decode_chunks_get_their_own_results(self):
        # three readers share one engine and its decode-codec cache
        codec = make_chunk_codec("zlib")
        cases = []
        for seed in range(3):
            raw = chunk_payload(serialize_entry(compressible_entry(4096, seed=seed)), CHUNK)
            bodies = [encode_chunk_file(codec, [chunk]) for chunk in raw]
            cases.append((
                [body for body in bodies if body is not None],
                [chunk for chunk, body in zip(raw, bodies) if body is not None],
            ))
        engine = ParallelChunkEngine(WORKERS, codec=codec)

        def decode(index):
            bodies, expected = cases[index]
            for _ in range(self.ROUNDS):
                assert engine.decode_chunks(bodies) == expected

        run_concurrently(decode, threads=len(cases))

    def test_two_restore_lanes_over_one_dedup_store(self, tmp_path):
        store = DedupBackend(
            str(tmp_path), chunk_bytes=CHUNK, codec="zlib", parallel_workers=WORKERS
        )
        cases = {f"k{i}": compressible_entry(4096, seed=i) for i in range(8)}
        for key, case in cases.items():
            store.put(key, case, stamp=1)
        requests = [ReadRequest(key=key, store=store) for key in cases]

        def restore(_index):
            for _ in range(self.ROUNDS):
                entries, _stats = ParallelRestorer(workers=2).fetch(requests)
                for key, case in cases.items():
                    assert np.array_equal(entries[key]["x"], case["x"]), key

        run_concurrently(restore, timeout=30.0)


class TestManagerMeterInvariants:
    """The acceptance invariants, measured on the live manager with
    ``parallel_workers > 1``: one hash pass, no staging copy on the sync
    path and exactly one on the async path, ≤1 compression pass per
    persisted byte."""

    def _manager(self, tmp_path, **kwargs):
        model, optimizer = tiny_model_and_optimizer(TINY)
        config = MoCConfig(
            pec=PECConfig(k_snapshot=2, k_persist=1),
            two_level=TwoLevelConfig(checkpoint_interval=1),
        )
        return model, optimizer, MoCCheckpointManager(
            model, optimizer, config,
            disk_store=make_backend(
                "dedup", str(tmp_path), codec="zlib", parallel_workers=WORKERS
            ),
            **kwargs,
        )

    def _run_checkpoints(self, model, optimizer, manager, iterations=(2, 4)):
        manager.save_initial(0)
        rng = np.random.default_rng(0)
        for iteration in iterations:
            for name, param in model.named_parameters():
                # A write outside Adam rebinds (bound arrays are
                # read-only) and bumps the version.
                param.data = param.data + rng.standard_normal(param.data.shape) * 0.01
                optimizer.bump_version(name)
            manager.note_routing(
                [np.full(manager.num_experts, 2)] * manager.num_moe_layers
            )
            manager.checkpoint(iteration)
        manager.flush()

    def test_sync_parallel_single_hash_no_copy_bounded_compression(self, tmp_path):
        model, optimizer, manager = self._manager(tmp_path, delta_saves=True)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
        assert meters["bytes_serialized"] > 0
        # ONE sha-256 sweep per byte — the delta sweep's cache is reused
        assert meters["bytes_hashed"] == meters["bytes_serialized"]
        # the codec threads read the rope in place: no staging copy
        assert meters["bytes_copied"] == 0
        # at most one compression pass; dedup hits make it strict
        assert 0 < meters["bytes_compressed"] <= meters["bytes_serialized"]
        for profile in manager.save_profile:
            assert profile.hash_passes == pytest.approx(1.0)
            assert profile.copy_passes == 0.0
            assert profile.compression_passes <= 1.0

    def test_async_parallel_stages_exactly_once(self, tmp_path):
        model, optimizer, manager = self._manager(
            tmp_path, delta_saves=True, async_writes=True
        )
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            # the async staging copy is the one copy: the codec threads
            # encode the staged bytes in place
            assert meters["bytes_copied"] == manager.disk_store.bytes_written > 0
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            assert 0 < meters["bytes_compressed"] <= meters["bytes_serialized"]

    def test_parallel_workers_hash_without_delta_saves(self, tmp_path):
        # delta off: nobody hashes ahead of the store, so the sweep runs
        # on the saving thread — still exactly one pass per byte
        model, optimizer, manager = self._manager(tmp_path, delta_saves=False)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            assert manager.disk_store.engine.tasks_dispatched > 0

    def test_recovery_restores_exact_state_through_codec_and_workers(self, tmp_path):
        model, optimizer, manager = self._manager(tmp_path, delta_saves=True)
        with manager:
            manager.save_initial(0)
            saved = {
                name: param.data.copy()
                for name, param in model.named_parameters()
            }
            for name, param in model.named_parameters():
                param.data = param.data + 1.0
                optimizer.bump_version(name)
            result = manager.recover(failed_nodes=[0, 1])
            assert result.resume_iteration == 0
            for name, param in model.named_parameters():
                assert np.array_equal(param.data, saved[name]), name
            assert manager.disk_store.fsck().ok
