"""Checkpoint substrate tests: serializer, KV stores, manifests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ckpt import (
    CheckpointManifest,
    InMemoryKVStore,
    KVStoreError,
    ManifestRecord,
    SerializationError,
    deserialize_entry,
    entry_nbytes,
    expert_entry_key,
    meta_entry_key,
    non_expert_entry_key,
    parse_entry_key,
    serialize_entry,
)
from repro.models.serial import ExpertKey


class TestSerializer:
    def test_roundtrip_basic(self):
        entry = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.asarray(3)}
        restored = deserialize_entry(serialize_entry(entry))
        assert set(restored) == {"a", "b"}
        assert np.array_equal(restored["a"], entry["a"])
        assert int(np.asarray(restored["b"]).reshape(-1)[0]) == 3

    def test_preserves_dtype(self):
        entry = {"x": np.array([1, 2], dtype=np.int32)}
        restored = deserialize_entry(serialize_entry(entry))
        assert restored["x"].dtype == np.int32

    def test_empty_entry(self):
        assert deserialize_entry(serialize_entry({})) == {}

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            deserialize_entry(b"NOPE" + b"\x00" * 16)

    def test_truncated_rejected(self):
        data = serialize_entry({"a": np.ones(4)})
        with pytest.raises(SerializationError):
            deserialize_entry(data[:-3])

    def test_trailing_bytes_rejected(self):
        data = serialize_entry({"a": np.ones(2)})
        with pytest.raises(SerializationError):
            deserialize_entry(data + b"x")

    def test_entry_nbytes(self):
        entry = {"a": np.zeros((2, 3), dtype=np.float64)}
        assert entry_nbytes(entry) == 48

    @settings(max_examples=30, deadline=None)
    @given(
        arr=st.sampled_from([np.float64, np.float32, np.int64]).flatmap(
            lambda dtype: hnp.arrays(
                dtype=dtype,
                shape=hnp.array_shapes(max_dims=3, max_side=5),
                elements=st.integers(-1000, 1000),
            )
        )
    )
    def test_property_roundtrip(self, arr):
        restored = deserialize_entry(serialize_entry({"x": arr}))
        assert restored["x"].dtype == arr.dtype
        assert np.array_equal(
            np.asarray(restored["x"]).reshape(-1), np.asarray(arr).reshape(-1)
        )


class TestInMemoryKVStore:
    def test_put_get_roundtrip(self):
        store = InMemoryKVStore()
        store.put("k", {"x": np.ones(3)}, stamp=5)
        assert np.array_equal(store.get("k")["x"], np.ones(3))
        assert store.stamp_of("k") == 5

    def test_missing_key_raises(self):
        store = InMemoryKVStore()
        with pytest.raises(KVStoreError):
            store.get("nope")
        with pytest.raises(KVStoreError):
            store.stamp_of("nope")

    def test_overwrite_updates_stamp(self):
        store = InMemoryKVStore()
        store.put("k", {"x": np.ones(2)}, stamp=1)
        store.put("k", {"x": np.zeros(2)}, stamp=9)
        assert store.stamp_of("k") == 9
        assert np.array_equal(store.get("k")["x"], np.zeros(2))

    def test_drop_node(self):
        store = InMemoryKVStore()
        store.put("a", {"x": np.ones(1)}, stamp=1, node=0)
        store.put("b", {"x": np.ones(1)}, stamp=1, node=1)
        lost = store.drop_node(0)
        assert lost == ["a"]
        assert not store.has("a") and store.has("b")

    def test_byte_meters(self):
        store = InMemoryKVStore()
        n = store.put("k", {"x": np.ones(8)}, stamp=0)
        assert store.bytes_written == n
        store.get("k")
        assert store.bytes_read == n
        assert store.total_bytes() == n
        assert store.put_count == 1

    def test_keys_sorted(self):
        store = InMemoryKVStore()
        store.put("b", {"x": np.ones(1)}, stamp=0)
        store.put("a", {"x": np.ones(1)}, stamp=0)
        assert store.keys() == ["a", "b"]

    def test_clear(self):
        store = InMemoryKVStore()
        store.put("k", {"x": np.ones(1)}, stamp=0)
        store.clear()
        assert store.keys() == []


class TestEntryKeys:
    def test_non_expert_roundtrip(self):
        kind, expert, name = parse_entry_key(non_expert_entry_key("tok_emb.weight"))
        assert kind == "ne" and expert is None and name == "tok_emb.weight"

    def test_expert_roundtrip(self):
        key = expert_entry_key(ExpertKey(3, 7), "fc_in.weight")
        kind, expert, name = parse_entry_key(key)
        assert kind == "expert"
        assert expert == ExpertKey(3, 7)
        assert name == "fc_in.weight"

    def test_meta_roundtrip(self):
        kind, expert, name = parse_entry_key(meta_entry_key("iteration"))
        assert kind == "meta" and name == "iteration"

    def test_unparseable_rejected(self):
        with pytest.raises(ValueError):
            parse_entry_key("garbage-key")


class TestManifest:
    def test_byte_totals(self):
        manifest = CheckpointManifest(checkpoint_index=0, iteration=10)
        manifest.snapshot_entries.append(ManifestRecord("ne:a", 10, 100))
        manifest.persist_entries.append(ManifestRecord("ne:a", 10, 100))
        manifest.persist_entries.append(
            ManifestRecord(expert_entry_key(ExpertKey(0, 1), "w"), 10, 50)
        )
        assert manifest.snapshot_bytes() == 100
        assert manifest.persist_bytes() == 150

    def test_persisted_experts(self):
        manifest = CheckpointManifest(checkpoint_index=0, iteration=0)
        manifest.persist_entries.append(
            ManifestRecord(expert_entry_key(ExpertKey(1, 2), "w") + ":w", 0, 1)
        )
        manifest.persist_entries.append(ManifestRecord("ne:x", 0, 1))
        assert manifest.persisted_experts() == [ExpertKey(1, 2)]
