"""The zero-copy, single-hash-pass save pipeline, pinned by meters.

Five properties this suite exists to hold:

* **frame identity** — the streaming frame serializer concatenates to
  exactly ``serialize_entry``'s bytes, and its chunk digests/slices
  match the naive ``chunk_payload``/``chunk_digest`` decomposition, for
  arbitrary entries;
* **single pass** — driving the live manager, ``PipelineMeters`` shows
  exactly one SHA-256 sweep per serialized payload byte (delta-save
  check and dedup chunk addressing *share* the sweep) and zero staging
  copies on the sync path / exactly one on the async path;
* **bounded staging** — the async pipeline's pooled arena reuses
  buffers across checkpoints and blocks producers on exhaustion
  instead of allocating past its budget;
* **zero-copy reads stay safe** — ``deserialize_entry(copy=False)``
  returns views that share the payload buffer, the writability guard
  restores mutability exactly where needed, and a recovery through the
  zero-copy restore path binds arrays of the optimizer's own;
* **checkpoint by reference** — a synchronous checkpoint leaves the
  snapshot tier holding the very arrays the optimizer bound (or the
  precision codec produced), before and after a recovery, while a
  writable caller entry is still copied.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    DedupBackend,
    InMemoryKVStore,
    PayloadFrames,
    PrecisionCodec,
    PipelineMeters,
    ShardedDiskKVStore,
    StagingPool,
    chunk_digest,
    chunk_payload,
    deserialize_entry,
    entry_digest,
    make_backend,
    serialize_entry,
    serialize_entry_frames,
    writable_entry,
)
from repro.ckpt import journal
from repro.core import MoCCheckpointManager, MoCConfig, PECConfig, TwoLevelConfig
from repro.ckpt.manifest import parse_entry_key
from repro.testing import (
    TINY,
    random_entry,
    seeded_rng,
    tiny_model_and_optimizer,
    train_steps,
)
from repro.train import MarkovCorpus

SEEDS = range(20)


def entry(value: float, size: int = 64) -> dict:
    return {"x": np.full(size, value)}


class TestFrameIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_frames_concatenate_to_serialize_entry(self, seed):
        case = random_entry(seeded_rng(seed))
        assert b"".join(serialize_entry_frames(case)) == serialize_entry(case)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunk_digests_match_naive_chunking(self, seed):
        case = random_entry(seeded_rng(seed))
        payload = serialize_entry(case)
        frames = PayloadFrames.from_entry(case)
        for chunk_bytes in (1, 13, 4096):
            expected = [
                chunk_digest(chunk) for chunk in chunk_payload(payload, chunk_bytes)
            ]
            assert frames.chunk_digests(chunk_bytes) == expected, f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chunk_slices_reassemble_to_payload(self, seed):
        case = random_entry(seeded_rng(seed))
        payload = serialize_entry(case)
        frames = PayloadFrames.from_entry(case)
        for chunk_bytes in (7, 1024):
            chunks = [
                b"".join(bytes(part) for part in parts)
                for parts in frames.chunk_slices(chunk_bytes)
            ]
            assert chunks == chunk_payload(payload, chunk_bytes), f"seed={seed}"

    def test_buffer_protocol_refusing_dtypes_still_serialize(self):
        # datetime64/timedelta64 refuse memoryview export; the frame
        # path must fall back to materializing those fields and stay
        # byte-identical to serialize_entry (which always handled them).
        case = {
            "t": np.array(["2020-01-01", "2021-06-15"], dtype="datetime64[s]"),
            "d": np.array([3600, 7200], dtype="timedelta64[s]"),
            "x": np.ones(8),
        }
        flat = serialize_entry(case)
        assert PayloadFrames.from_entry(case).tobytes() == flat
        back = deserialize_entry(flat)
        assert np.array_equal(back["t"], case["t"])
        assert np.array_equal(back["d"], case["d"])

    def test_empty_entry_has_one_empty_chunk(self):
        frames = PayloadFrames.from_entry({})
        payload = serialize_entry({})
        assert frames.tobytes() == payload
        # the header-only payload still chunks like the naive path
        assert frames.chunk_digests(4) == [
            chunk_digest(chunk) for chunk in chunk_payload(payload, 4)
        ]

    def test_entry_digest_matches_frames_digest(self):
        case = {"a": np.arange(10.0), "b": np.ones((3, 2), dtype=np.float32)}
        assert entry_digest(case) == PayloadFrames.from_entry(case).entry_digest()

    def test_digest_cache_survives_staging_snapshot(self):
        meters = PipelineMeters()
        frames = PayloadFrames.from_entry(entry(2.0, size=256), meters=meters)
        digests = frames.chunk_digests(128)
        hashed = meters.snapshot()["bytes_hashed"]
        staged = frames.snapshot_into(bytearray(frames.nbytes))
        assert staged.chunk_digests(128) == digests
        # shared cache: the staged copy never rehashes
        assert meters.snapshot()["bytes_hashed"] == hashed
        assert staged.tobytes() == frames.tobytes()

    def test_snapshot_into_rejects_short_buffer(self):
        frames = PayloadFrames.from_entry(entry(1.0))
        with pytest.raises(ValueError):
            frames.snapshot_into(bytearray(frames.nbytes - 1))

    def test_frames_alias_source_arrays_until_snapshot(self):
        # Frames are zero-copy: mutating the source array changes the
        # rope; a snapshot is insulated.  (This is why the async path
        # must stage before returning.)
        array = np.ones(64)
        frames = PayloadFrames([b"hdr"] + list(serialize_entry_frames({"x": array})))
        staged = frames.snapshot_into(bytearray(frames.nbytes))
        before = frames.tobytes()
        array[:] = -5.0
        assert frames.tobytes() != before
        assert staged.tobytes() == before


def tiny_manager(tmp_path, kind="sharded", **kwargs):
    """A tiny model, its optimizer, and a manager checkpointing it to a
    ``kind`` store under ``tmp_path`` every iteration."""
    model, optimizer = tiny_model_and_optimizer(TINY)
    config = MoCConfig(
        pec=PECConfig(k_snapshot=2, k_persist=1),
        two_level=TwoLevelConfig(checkpoint_interval=1),
    )
    return model, optimizer, MoCCheckpointManager(
        model, optimizer, config,
        disk_store=make_backend(kind, str(tmp_path)), **kwargs
    )


class TestMeterRegression:
    """Pin the pipeline's touch-each-byte-once property via counters."""

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

    def test_sync_dedup_delta_is_single_hash_pass_zero_copy(self, tmp_path):
        model, optimizer, manager = tiny_manager(
            tmp_path, kind="dedup", delta_saves=True
        )
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
        assert meters["bytes_serialized"] > 0
        # exactly ONE SHA-256 sweep per serialized payload byte: the
        # delta-save digest and the dedup chunk addressing share it
        assert meters["bytes_hashed"] == meters["bytes_serialized"]
        # and the sync path never copies a payload byte
        assert meters["bytes_copied"] == 0
        for profile in manager.save_profile:
            assert profile.hash_passes == pytest.approx(1.0)
            assert profile.copy_passes == 0.0

    def test_sync_sharded_no_delta_never_hashes(self, tmp_path):
        model, optimizer, manager = tiny_manager(tmp_path)
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
        assert meters["bytes_serialized"] > 0
        assert meters["bytes_hashed"] == 0
        assert meters["bytes_copied"] == 0

    def test_async_stages_exactly_one_copy_per_persisted_byte(self, tmp_path):
        model, optimizer, manager = tiny_manager(
            tmp_path, async_writes=True
        )
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            # every byte accepted by the persist tier was staged once —
            # the write pipeline's snapshot copy — and never re-copied
            assert meters["bytes_copied"] == manager.disk_store.bytes_written
            assert meters["bytes_copied"] == meters["bytes_serialized"]
            assert meters["bytes_hashed"] == 0

    def test_async_dedup_delta_still_single_hash_pass(self, tmp_path):
        # The staged copy carries the digest cache, so the worker-side
        # dedup store reuses the caller-side sweep across threads.
        model, optimizer, manager = tiny_manager(
            tmp_path, kind="dedup", delta_saves=True, async_writes=True
        )
        with manager:
            self._run_checkpoints(model, optimizer, manager)
            meters = manager.pipeline_meters.snapshot()
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            assert meters["bytes_copied"] == manager.disk_store.bytes_written

    def test_delta_skips_are_hashed_but_not_written(self, tmp_path):
        model, optimizer, manager = tiny_manager(
            tmp_path, kind="dedup", delta_saves=True
        )
        with manager:
            manager.save_initial(0)
            manager.note_routing(
                [np.full(manager.num_experts, 2)] * manager.num_moe_layers
            )
            written = manager.disk_store.bytes_written
            before = manager.pipeline_meters.snapshot()
            manifest = manager.checkpoint(2)  # nothing changed
            assert manifest.persist_skipped
            assert not manifest.persist_entries
            meters = manager.pipeline_meters.snapshot()
            assert meters["bytes_hashed"] == meters["bytes_serialized"]
            # no optimizer version moved, so the skipped entries were
            # never framed or hashed: only the iteration commit record
            # (whose stamp content does change) is serialized and stored
            meta_bytes = manager.disk_store.nbytes_of("meta:iteration")
            assert meters["bytes_serialized"] - before["bytes_serialized"] == meta_bytes
            assert manager.disk_store.bytes_written == written + meta_bytes


class TestStagingPool:
    def test_buffers_are_reused_across_checkpoints(self, tmp_path):
        inner = ShardedDiskKVStore(str(tmp_path))
        with AsyncWriteBackend(inner) as store:
            for stamp in range(20):
                store.put("k", entry(float(stamp), size=512), stamp=stamp)
                store.flush()
            pool = store.staging
            assert pool.buffers_allocated <= 2
            assert pool.buffers_reused >= 18

    def test_pool_exhaustion_blocks_producer_until_release(self, tmp_path):
        gate = threading.Event()
        entered = threading.Event()

        class GatedStore(ShardedDiskKVStore):
            def _write(self, key, payload, stamp, node):
                entered.set()
                assert gate.wait(timeout=10)
                super()._write(key, payload, stamp, node)

        inner = GatedStore(str(tmp_path))
        payload = entry(1.0, size=512)  # ~4KiB serialized
        nbytes = len(serialize_entry(payload))
        store = AsyncWriteBackend(inner, arena_bytes=int(nbytes * 1.5))
        try:
            store.put("a", payload, stamp=0)  # worker blocks holding buffer
            assert entered.wait(timeout=10)
            second_done = threading.Event()

            def second_put():
                store.put("b", payload, stamp=0)
                second_done.set()

            producer = threading.Thread(target=second_put, daemon=True)
            producer.start()
            # the arena cannot hold two payloads: the producer must block
            assert not second_done.wait(timeout=0.3)
            assert store.staging.exhaustion_waits >= 1
            gate.set()  # worker drains, releasing the buffer
            assert second_done.wait(timeout=10)
            store.flush()
            assert inner.has("a") and inner.has("b")
        finally:
            gate.set()
            store.close()

    def test_oversize_payload_still_makes_progress(self, tmp_path):
        inner = ShardedDiskKVStore(str(tmp_path))
        with AsyncWriteBackend(inner, arena_bytes=64) as store:
            store.put("big", entry(3.0, size=4096), stamp=1)  # >> arena
            store.flush()
            assert inner.nbytes_of("big") == len(serialize_entry(entry(3.0, size=4096)))
            # oversize buffers are dropped, not pooled
            assert store.staging.idle_buffers == 0

    def test_batched_put_larger_than_arena_drains_incrementally(self, tmp_path):
        inner = ShardedDiskKVStore(str(tmp_path))
        payload = entry(1.0, size=512)
        nbytes = len(serialize_entry(payload))
        with AsyncWriteBackend(inner, arena_bytes=3 * nbytes) as store:
            items = [(f"k{i}", payload, 1, 0) for i in range(16)]
            store.put_many(items)  # 16x the sub-batch byte budget
            store.flush()
            assert inner.put_count == 16
        assert store.staging.buffers_allocated <= 4

    def test_pool_rejects_invalid_arena(self):
        with pytest.raises(ValueError):
            StagingPool(0)

    def test_fifo_admission_prevents_small_acquires_starving_large(self):
        # Regression: capacity freed by a release used to go to whoever
        # raced to the lock first, so a stream of small acquires (each
        # fitting the arena) could starve a queued large/oversize
        # acquire forever.  Admission is now strictly arrival-ordered.
        pool = StagingPool(1024)
        held = pool.acquire(512)
        grants = []
        large_granted = threading.Event()
        small_granted = threading.Event()

        def want_large():
            buf = pool.acquire(2048)  # oversize: needs an idle arena
            grants.append("large")
            large_granted.set()
            pool.release(buf)

        def want_small():
            buf = pool.acquire(64)
            grants.append("small")
            small_granted.set()
            pool.release(buf)

        t_large = threading.Thread(target=want_large, daemon=True)
        t_large.start()
        deadline = time.monotonic() + 5
        while not pool._waiters and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool._waiters  # the large acquire is queued
        # A newcomer must queue behind the waiter even though 448 bytes
        # of arena budget are technically free right now.
        t_small = threading.Thread(target=want_small, daemon=True)
        t_small.start()
        while len(pool._waiters) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not small_granted.is_set()
        pool.release(held)  # arena idles: the queue head (large) wins
        assert large_granted.wait(timeout=5)
        assert small_granted.wait(timeout=5)
        t_large.join(timeout=5)
        t_small.join(timeout=5)
        assert grants == ["large", "small"]

    def test_mutation_after_staged_batch_is_safe(self, tmp_path):
        # put_many with frames must snapshot before returning, same as
        # the single-put contract.
        array = np.ones(256)
        inner = DedupBackend(str(tmp_path), chunk_bytes=128)
        with AsyncWriteBackend(inner) as store:
            store.put_many([("k", {"x": array}, 0, 0)])
            array[:] = 9.0
            assert np.array_equal(store.get("k")["x"], np.ones(256))


class TestZeroCopyReads:
    def test_copy_false_returns_views_over_payload(self):
        case = {"w": np.arange(32.0)}
        payload = serialize_entry(case)
        view_entry = deserialize_entry(payload, copy=False)
        assert not view_entry["w"].flags.writeable
        assert np.shares_memory(
            view_entry["w"], np.frombuffer(payload, dtype=np.uint8)
        )
        assert view_entry["w"].tobytes() == case["w"].tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_copy_bit_equal_to_copying_reads(self, seed):
        case = random_entry(seeded_rng(seed))
        payload = serialize_entry(case)
        copied = deserialize_entry(payload, copy=True)
        viewed = deserialize_entry(payload, copy=False)
        assert set(copied) == set(viewed)
        for name in copied:
            assert copied[name].dtype == viewed[name].dtype, f"seed={seed}"
            assert copied[name].shape == viewed[name].shape, f"seed={seed}"
            assert copied[name].tobytes() == viewed[name].tobytes(), f"seed={seed}"
            assert copied[name].flags.writeable

    def test_writable_entry_copies_only_readonly_arrays(self):
        payload = serialize_entry({"a": np.ones(4)})
        viewed = deserialize_entry(payload, copy=False)
        own = np.zeros(3)
        mixed = dict(viewed, b=own)
        guarded = writable_entry(mixed)
        assert guarded["a"].flags.writeable
        assert guarded["a"] is not mixed["a"]
        assert guarded["b"] is own  # already writable: passed through

    def test_recovery_through_zero_copy_restore_binds_frozen_arrays(self, tmp_path):
        model, optimizer, manager = tiny_manager(tmp_path)
        with manager:
            manager.save_initial(0)
            result = manager.recover(failed_nodes=[0], restore_workers=2)
            assert result.resume_iteration == 0
            # Restored state is bound like trained state: read-only, and
            # a training-style update rebinds every slot.
            for name, param in model.named_parameters():
                state = optimizer.state[name]
                for array in (param.data, state.master, state.m, state.v):
                    assert not array.flags.writeable
                with pytest.raises(ValueError):
                    state.m *= 0.5
                optimizer.bind(
                    name, param.data + 1.0, master=state.master + 1.0,
                    m=state.m * 0.5, v=state.v * 0.5,
                )

    @staticmethod
    def _record_reads(store, monkeypatch, transform=lambda entry: entry):
        """The state entries ``store.get`` returns from now on, by key,
        each passed through ``transform`` first."""
        fetched = {}
        get = store.get

        def recording_get(key, copy=True):
            entry = transform(get(key, copy=copy))
            if parse_entry_key(key)[0] != "meta":
                fetched[key] = entry
            return entry

        monkeypatch.setattr(store, "get", recording_get)
        return fetched

    @staticmethod
    def _shared(optimizer, key, entry):
        """Per bound array of ``key``: does it share memory with the
        fetched field?"""
        return {
            field: np.shares_memory(bound, entry[field])
            for field, bound in bound_arrays(optimizer, key).items()
        }

    def test_recovery_binds_immutable_aligned_entries_by_reference(
        self, tmp_path, monkeypatch
    ):
        def over_bytes(entry):
            # each field a read-only view over a ``bytes`` of its own
            return {
                name: np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)
                for name, array in entry.items()
            }

        model, optimizer, manager = tiny_manager(tmp_path)
        with manager:
            manager.save_initial(0)
            fetched = self._record_reads(manager.disk_store, monkeypatch, over_bytes)
            retained = self._record_reads(manager.memory_store, monkeypatch)
            manager.recover(failed_nodes=[0])
            assert fetched and retained
            for reads in (fetched, retained):
                for key, entry in reads.items():
                    assert all(array.flags.aligned for array in entry.values())
                    assert all(self._shared(optimizer, key, entry).values()), key

    def test_recovery_copies_every_field_of_an_entry_with_an_unaligned_one(
        self, tmp_path, monkeypatch
    ):
        # The payload format packs fields unpadded, so some fields of a
        # sharded entry sit at odd offsets; binding the aligned rest
        # would pin the buffer under the copied ones.
        model, optimizer, manager = tiny_manager(tmp_path)
        with manager:
            manager.save_initial(0)
            fetched = self._record_reads(manager.disk_store, monkeypatch)
            manager.recover(failed_nodes=[0, 1])
            mixed = 0
            for key, entry in fetched.items():
                aligned = {array.flags.aligned for array in entry.values()}
                if False in aligned:
                    mixed += True in aligned
                    assert not any(self._shared(optimizer, key, entry).values()), key
            assert mixed

    def test_recovery_copies_writable_fetched_arrays(self, tmp_path, monkeypatch):
        model, optimizer, manager = tiny_manager(tmp_path)
        with manager:
            manager.save_initial(0)
            fetched = self._record_reads(
                manager.disk_store, monkeypatch,
                lambda entry: {name: np.array(array) for name, array in entry.items()},
            )
            manager.recover(failed_nodes=[0, 1])
            assert fetched
            for key, entry in fetched.items():
                assert not any(self._shared(optimizer, key, entry).values()), key
                # the bind froze its own copies, not the caller's arrays
                assert all(array.flags.writeable for array in entry.values())


def bound_arrays(optimizer, key: str) -> dict:
    """The arrays the optimizer has bound for entry ``key``, by field
    (``step`` is a scalar, not a bound array)."""
    kind, _expert, name = parse_entry_key(key)
    if kind == "expert":
        name, part = name[:-2], name[-1]
    else:
        part = "wo"
    state = optimizer.state[name]
    arrays = {}
    if "w" in part:
        arrays["weights"] = optimizer.params[name].data
    if "o" in part:
        arrays.update(master=state.master, m=state.m, v=state.v)
    return arrays


class TestCheckpointByReference:
    @staticmethod
    def _state_records(manifest):
        return [
            record for record in manifest.snapshot_entries
            if parse_entry_key(record.entry_key)[0] != "meta"
        ]

    def _assert_retains_bound_arrays(self, manager, manifest):
        records = self._state_records(manifest)
        assert records
        for record in records:
            retained = manager.memory_store.get(record.entry_key, copy=False)
            for field, bound in bound_arrays(manager.optimizer, record.entry_key).items():
                assert np.shares_memory(retained[field], bound), (record.entry_key, field)

    def test_sync_checkpoint_retains_the_optimizers_arrays(self, tmp_path):
        model, optimizer, manager = tiny_manager(tmp_path)
        with manager:
            manager.save_initial(0)
            corpus = MarkovCorpus(vocab_size=TINY.vocab_size, seq_len=TINY.max_seq_len)
            train_steps(model, optimizer, corpus, 2)
            manifest = manager.checkpoint(2)
            self._assert_retains_bound_arrays(manager, manifest)
            sizes = {r.entry_key: r.nbytes for r in manifest.snapshot_entries}
            for key, nbytes in sizes.items():
                assert nbytes == len(serialize_entry(manager.memory_store.get(key)))
            assert manager.pipeline_meters.snapshot()["bytes_copied"] == 0

    def test_next_checkpoint_after_recover_still_retains_bound_arrays(self, tmp_path):
        # Recovery rebinds every parameter from restored copies; unless
        # the optimizer froze them, the snapshot tier would copy them.
        _model, _optimizer, manager = tiny_manager(tmp_path)
        with manager:
            manager.save_initial(0)
            manager.recover(failed_nodes=[0, 1])
            self._assert_retains_bound_arrays(manager, manager.checkpoint(1))

    def test_precision_codec_output_is_retained_by_reference(self, tmp_path):
        encoded = []

        class RecordingCodec(PrecisionCodec):
            def encode(self, entry):
                out = super().encode(entry)
                encoded.extend(out.values())
                return out

        _model, _optimizer, manager = tiny_manager(tmp_path, codec=RecordingCodec())
        with manager:
            manifest = manager.save_initial(0)
            produced = {id(array) for array in encoded}
            records = self._state_records(manifest)
            assert records
            for record in records:
                retained = manager.memory_store.get(record.entry_key, copy=False)
                for field, array in retained.items():
                    assert id(array) in produced, (record.entry_key, field)
                    if array.dtype != np.float64 and array.ndim:
                        assert not array.flags.writeable

    def test_writable_caller_entry_is_copied_once(self):
        store = InMemoryKVStore()
        owned = np.arange(4.0)
        frozen = np.arange(4.0)
        frozen.flags.writeable = False
        frozen_view_of_writable = owned[:2]
        frozen_view_of_writable.flags.writeable = False
        store.put("k", {"owned": owned, "frozen": frozen, "view": frozen_view_of_writable},
                  stamp=1)
        owned += 1.0
        kept = store.get("k", copy=False)
        assert np.array_equal(kept["owned"], np.arange(4.0))
        assert np.array_equal(kept["view"], np.arange(2.0))
        assert kept["frozen"] is frozen
        assert not any(array.flags.writeable for array in kept.values())
        copied = store.get("k")
        assert all(array.flags.writeable for array in copied.values())
        assert not np.shares_memory(copied["frozen"], frozen)


class TestJsonlEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_encode_record_matches_json_dumps(self, seed):
        from repro.testing import random_field_name

        rng = seeded_rng(seed)
        key = random_field_name(rng, max_len=20)
        digest = chunk_digest(key.encode("utf-8"))
        records = [
            {"op": "put", "key": key, "stamp": int(rng.integers(0, 99)),
             "nbytes": int(rng.integers(0, 10**9))},
            {"op": "put", "key": key, "stamp": 3, "nbytes": 5,
             "pack": int(rng.integers(0, 10**6)), "off": int(rng.integers(0, 10**9))},
            {"op": "put", "key": key, "stamp": 3, "nbytes": 5,
             "chunks": [digest] * int(rng.integers(0, 4))},
            {"op": "del", "key": key},
            {"op": "ref", "inc": {digest: 2}, "dec": {digest: 1}},
            {"op": "ref", "inc": {digest: int(rng.integers(1, 9))}},
            # shapes that must fall back to json.dumps untouched
            {"op": "put", "key": key, "stamp": True, "nbytes": 1},
            {"op": "put", "key": key, "stamp": 1, "nbytes": 1,
             "chunks": ['evil"digest']},
            {"op": "ref", "inc": {'a"b': 1}},
            {"op": "custom", "blob": [1, None, {"k": key}]},
            # half a location, a non-int offset, a retired field
            {"op": "put", "key": key, "stamp": 1, "nbytes": 1, "pack": 0},
            {"op": "put", "key": key, "stamp": 1, "nbytes": 1, "off": 0},
            {"op": "put", "key": key, "stamp": 1, "nbytes": 1, "pack": 2, "off": 1.5},
            {"op": "put", "key": key, "stamp": 1, "nbytes": 1, "gen": 2},
            # empty ref maps: the builder would omit the key, json.dumps
            # keeps it — must fall back so the line round-trips
            # key-for-key
            {"op": "ref", "inc": {}, "dec": {digest: 1}},
            {"op": "ref", "inc": {digest: 1}, "dec": {}},
        ]
        for record in records:
            line = journal.encode_record(record)
            assert line.endswith("\n"), record
            assert json.loads(line) == json.loads(json.dumps(record)), record

    def test_string_fast_path_boundaries(self):
        for text in ("", "plain", 'quo"te', "back\\slash", "uni漢code",
                     "ctrl\x1fchar", " spaced out ", "~tilde!"):
            assert json.loads(journal.json_string(text)) == text
