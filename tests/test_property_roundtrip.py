"""Property-based round-trips: seeded random cases, no extra deps.

The generators live in ``repro.testing`` (``random_nested_state``,
``random_entry``, …); every case is a pure function of its seed, so a
failure reproduces from the printed seed alone.  Covered properties:

* serializer: arbitrary entries survive serialize→deserialize bit-exact
  (dtype, shape and bytes), and ``serialized_nbytes`` is their exact
  serialized size;
* pack store: seeded puts, batches, deletes, reopens and gc agree with a
  dict model and leave no unreferenced pack; short writes resume exactly;
* manifest: entry-key construction parses back to the same identity;
* codec: float fields round-trip within the configured precision,
  non-float fields bit-exact, shapes/keys always preserved;
* the acceptance property: arbitrary nested state dicts survive
  save → reshard → restore bit-exactly across every backend × topology
  pair, through the real plan + parallel restore pipeline.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.testing import (
    flatten_state,
    random_array,
    random_entry,
    random_field_name,
    random_nested_state,
    seeded_rng,
    states_bit_equal,
    unflatten_state,
)
from repro.ckpt import (
    AsyncWriteBackend,
    DedupBackend,
    InMemoryKVStore,
    ParallelRestorer,
    PayloadFrames,
    ShardedDiskKVStore,
    deserialize_entry,
    entry_digest,
    serialize_entry,
    serialize_entry_frames,
)
from repro.ckpt import sharded
from repro.ckpt.serializer import serialized_nbytes
from repro.ckpt.manifest import expert_entry_key, parse_entry_key
from repro.core import grid_topology, plan_reshard, reshard_read_requests
from repro.models.serial import ExpertKey

SEEDS = range(25)


class TestSerializerProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_entries_roundtrip_bit_exact(self, seed):
        rng = seeded_rng(seed)
        entry = random_entry(rng)
        decoded = deserialize_entry(serialize_entry(entry))
        assert set(decoded) == set(entry), f"seed={seed}"
        for name, array in entry.items():
            result = decoded[name]
            assert result.dtype == np.asarray(array).dtype, f"seed={seed} {name!r}"
            assert result.shape == np.asarray(array).shape, f"seed={seed} {name!r}"
            assert result.tobytes() == np.asarray(array).tobytes(), f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialization_is_deterministic(self, seed):
        rng_a, rng_b = seeded_rng(seed), seeded_rng(seed)
        assert serialize_entry(random_entry(rng_a)) == serialize_entry(
            random_entry(rng_b)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_frame_path_is_byte_identical(self, seed):
        # The zero-copy frame serializer and the materializing wrapper
        # must emit the same stream for arbitrary entries — the frame
        # path is what every store consumes on the hot path.
        entry = random_entry(seeded_rng(seed))
        flat = serialize_entry(entry)
        assert b"".join(serialize_entry_frames(entry)) == flat, f"seed={seed}"
        assert PayloadFrames.from_entry(entry).tobytes() == flat, f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_copy_deserialize_bit_equal(self, seed):
        entry = random_entry(seeded_rng(seed))
        payload = serialize_entry(entry)
        viewed = deserialize_entry(payload, copy=False)
        copied = deserialize_entry(payload, copy=True)
        for name in entry:
            assert viewed[name].dtype == copied[name].dtype, f"seed={seed}"
            assert viewed[name].shape == copied[name].shape, f"seed={seed}"
            assert viewed[name].tobytes() == copied[name].tobytes(), f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialized_nbytes_is_the_serialized_size(self, seed):
        # The snapshot tier records sizes by arithmetic, never by
        # serializing: it must agree with the format on every layout —
        # here also the ones the generators rarely draw.
        rng = seeded_rng(seed)
        entry = random_entry(rng)
        grid = rng.standard_normal((4, 6))
        entry.update({
            "0-d": np.asarray(rng.standard_normal()),
            "empty": np.zeros((0, int(rng.integers(1, 4)))),
            "strided": grid[::2, ::3],
            "fortran": grid.T,
            "big-endian": grid.astype(">f4"),
            "datetime": rng.integers(0, 10**9, size=3).astype("datetime64[ns]"),
            "漢é " + random_field_name(rng): random_array(rng),
        })
        payload = serialize_entry(entry)
        assert serialized_nbytes(entry) == len(payload), f"seed={seed}"
        store = InMemoryKVStore()
        assert store.put("k", entry, stamp=0) == len(payload), f"seed={seed}"
        assert store._read("k") == payload, f"seed={seed}"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_entry_digest_identifies_serialized_payload(self, seed):
        # digest-of-chunk-digests still fingerprints the serialized
        # stream: equal payloads share a digest, a flipped byte differs
        rng_a, rng_b = seeded_rng(seed), seeded_rng(seed)
        a, b = random_entry(rng_a), random_entry(rng_b)
        assert entry_digest(a) == entry_digest(b), f"seed={seed}"
        name = sorted(a)[0]
        mutated = dict(a)
        array = np.asarray(mutated[name])
        if array.size:
            raw = bytearray(array.tobytes())
            raw[0] ^= 0xFF
            mutated[name] = np.frombuffer(bytes(raw), dtype=array.dtype).reshape(
                array.shape
            )
        else:
            mutated[name] = np.ones(1)
        assert entry_digest(mutated) != entry_digest(a), f"seed={seed}"


class TestPackStoreProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_operations_match_a_dict_model(self, tmp_path, seed):
        """Without a crash no pack leaks: every pack file is referenced,
        the tracked packs stay within ``compact_garbage_ratio`` of the
        live bytes, and after gc the packs hold exactly the live bytes."""
        rng = seeded_rng(seed)
        ratio = float(rng.choice([1.5, 2.0, 4.0]))
        packs_dir = os.path.join(str(tmp_path), "packs")

        def reopen():
            return ShardedDiskKVStore(
                str(tmp_path), compact_min_records=8, compact_garbage_ratio=ratio)

        def pack_bytes():
            return sum(os.path.getsize(os.path.join(packs_dir, name))
                       for name in os.listdir(packs_dir))

        store, model = reopen(), {}
        keys = [f"layer{i % 3}/k{i}" for i in range(12)]
        for stamp in range(60):
            op = int(rng.integers(6))
            if op <= 2:
                batch = map(str, rng.choice(keys, size=int(rng.integers(1, 9)), replace=False))
                sizes = {key: int(rng.integers(1, 64)) for key in batch}
                items = [(key, {"x": np.full(size, float(stamp))}, stamp, 0)
                         for key, size in sizes.items()]
                if op == 0:
                    store.put(*items[0][:3])
                    sizes = dict(list(sizes.items())[:1])
                else:
                    store.put_many(items)
                model.update({key: (size, stamp) for key, size in sizes.items()})
            elif op == 3 and model:
                doomed = [str(key) for key in rng.choice(
                    sorted(model), size=int(rng.integers(1, len(model) + 1)), replace=False)]
                store.delete_many(doomed)
                for key in doomed:
                    del model[key]
            elif op == 4:
                store = reopen()
            elif op == 5:
                store.gc()
                assert pack_bytes() == store.total_bytes(), f"seed={seed}"
            assert set(os.listdir(packs_dir)) == {
                f"{store._meta(key).pack}.pack" for key in store.keys()
            }, f"seed={seed} stamp={stamp}"
            extents = sum(info.extent for info in store._packs.values())
            assert extents <= ratio * store.total_bytes(), f"seed={seed} stamp={stamp}"
        for view in (store, reopen()):
            assert view.keys() == sorted(model), f"seed={seed}"
            for key, (size, stamp) in model.items():
                assert view.stamp_of(key) == stamp
                assert np.array_equal(view.get(key)["x"], np.full(size, float(stamp)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_short_writes_and_copies_resume_exactly(self, tmp_path, monkeypatch, seed):
        """``os.writev`` and ``os.copy_file_range`` may move fewer bytes
        than asked; the pack writer resumes where each call stopped and
        passes at most ``IOV_MAX`` buffers per call."""
        rng = seeded_rng(seed)
        writev, copy_file_range = os.writev, os.copy_file_range

        def short_writev(fd, buffers):
            assert 0 < len(buffers) <= sharded._IOV_MAX
            limit = int(rng.integers(1, sum(map(len, buffers)) + 1))
            prefix = []
            for buffer in buffers:
                prefix.append(memoryview(buffer)[:limit])
                limit -= len(prefix[-1])
                if limit <= 0:
                    break
            return writev(fd, prefix)

        def short_copy(src, dst, count, offset_src=None, offset_dst=None):
            return copy_file_range(src, dst, int(rng.integers(1, count + 1)),
                                   offset_src, offset_dst)

        monkeypatch.setattr(sharded, "_IOV_MAX", 3)
        monkeypatch.setattr(os, "writev", short_writev)
        monkeypatch.setattr(os, "copy_file_range", short_copy)
        store = ShardedDiskKVStore(str(tmp_path))
        entries = {f"k{i}": random_entry(rng) for i in range(6)}
        store.put_many([(key, entry, 1, 0) for key, entry in entries.items()])
        store.put("k0", entries["k0"], stamp=2)
        assert store.gc() > 0  # the batch's pack is copied out, in pieces
        for view in (store, ShardedDiskKVStore(str(tmp_path))):
            for key, entry in entries.items():
                assert states_bit_equal(view.get(key), entry), f"seed={seed} {key}"


class TestManifestProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_expert_keys_parse_back(self, seed):
        rng = seeded_rng(seed)
        layer = int(rng.integers(0, 100))
        expert = int(rng.integers(0, 1000))
        param = "blocks." + random_field_name(rng).replace(":", ".") + ".weight"
        key = ExpertKey(layer, expert)
        kind, parsed, name = parse_entry_key(expert_entry_key(key, param))
        assert kind == "expert"
        assert parsed == key
        assert name == param


class TestCodecProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_codec_preserves_structure_and_integers(self, seed):
        from repro.ckpt import PrecisionCodec

        rng = seeded_rng(seed)
        codec = PrecisionCodec(field_dtypes={"m": np.dtype(np.float16)})
        entry = random_entry(rng)
        entry["m"] = rng.standard_normal(6)  # ensure a configured field
        decoded = codec.decode(codec.encode(entry))
        assert set(decoded) == set(entry)
        for name, array in entry.items():
            array = np.asarray(array)
            assert decoded[name].shape == array.shape
            if array.dtype.kind != "f":
                # non-float fields pass through bit-exact
                assert np.array_equal(decoded[name], array)
        assert np.allclose(decoded["m"], entry["m"], rtol=2e-3, atol=1e-4)


def make_backend_for(kind: str, root):
    if kind == "memory":
        return InMemoryKVStore()
    if kind == "sharded":
        return ShardedDiskKVStore(str(root))
    if kind == "dedup":
        return DedupBackend(str(root))
    return AsyncWriteBackend(ShardedDiskKVStore(str(root)))


BACKEND_KINDS = ["memory", "sharded", "dedup", "async"]
TOPOLOGY_GRIDS = [((4, 2), (2, 4)), ((2, 2), (1, 4)), ((1, 4), (4, 1))]


class TestSaveReshardRestoreProperty:
    """Arbitrary nested state dicts survive save→reshard→restore
    bit-exactly across all backend × topology pairs."""

    NUM_EXPERTS = 4
    NUM_LAYERS = 2

    def build_population(self, seed):
        """Random nested per-expert and non-expert state, flattened to
        checkpoint entries."""
        rng = seeded_rng(seed)
        expert_states = {}
        entry_keys_by_expert = {}
        entries = {}
        for layer in range(self.NUM_LAYERS):
            for expert in range(self.NUM_EXPERTS):
                key = ExpertKey(layer, expert)
                state = random_nested_state(rng)
                expert_states[key] = state
                keys = []
                for path, array in flatten_state(state).items():
                    entry_key = f"expert:l{layer}:e{expert}:{path}"
                    entries[entry_key] = {"value": array}
                    keys.append(entry_key)
                entry_keys_by_expert[key] = keys
        ne_state = random_nested_state(rng)
        ne_keys = []
        for path, array in flatten_state(ne_state).items():
            entry_key = f"ne:{path}"
            entries[entry_key] = {"value": array}
            ne_keys.append(entry_key)
        return entries, entry_keys_by_expert, ne_keys, expert_states, ne_state

    @pytest.mark.parametrize("backend", BACKEND_KINDS)
    @pytest.mark.parametrize("grids", TOPOLOGY_GRIDS)
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_roundtrip_bit_exact(self, tmp_path, backend, grids, seed):
        entries, by_expert, ne_keys, expert_states, ne_state = (
            self.build_population(seed)
        )
        store = make_backend_for(backend, tmp_path)
        try:
            store.put_many(
                [(key, entry, 3, 0) for key, entry in sorted(entries.items())]
            )
            store.flush()
            source = grid_topology(*grids[0], gpus_per_node=2)
            target = grid_topology(*grids[1], gpus_per_node=2)
            memory = InMemoryKVStore()  # cold resume: empty snapshot tier
            plan = plan_reshard(
                memory, store, by_expert, ne_keys,
                expert_placement={key: [0] for key in by_expert},
                num_experts=self.NUM_EXPERTS,
                target=target, source=source,
                failed_nodes=[0], resume_iteration=3,
            )
            fetched, stats = ParallelRestorer(workers=4).fetch(
                reshard_read_requests(plan, memory, store)
            )
            assert stats.entries == len(entries)
            # rebuild the nested states from the fetched entries
            for key, state in expert_states.items():
                prefix = f"expert:l{key.moe_layer}:e{key.expert}:"
                flat = {
                    entry_key[len(prefix):]: fetched[entry_key]["value"]
                    for entry_key in by_expert[key]
                }
                assert states_bit_equal(unflatten_state(flat), state), (
                    f"seed={seed} expert={key}"
                )
            ne_flat = {
                entry_key[len("ne:"):]: fetched[entry_key]["value"]
                for entry_key in ne_keys
            }
            assert states_bit_equal(unflatten_state(ne_flat), ne_state), (
                f"seed={seed}"
            )
        finally:
            store.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flatten_unflatten_is_identity(self, seed):
        rng = seeded_rng(seed)
        state = random_nested_state(rng)
        assert states_bit_equal(unflatten_state(flatten_state(state)), state)
