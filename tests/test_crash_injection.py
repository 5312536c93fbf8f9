"""Crash-injection suite: kill the process model mid-operation, replay.

Every disk-backed store exposes a ``fault_hook`` seam
(:class:`repro.ckpt.backend.CheckpointBackend`) invoked at named fault
points.  Each test installs a hook that raises
:class:`~repro.ckpt.backend.CrashInjected` at a chosen point, abandons
the store instance — the "process" is dead, so no in-memory state
survives — and reopens the directory, asserting what replay recovers:

* every *acknowledged* operation (put/delete that returned) is durable
  with exact bytes, stamp and size metadata;
* the in-flight operation resolves to a complete version — for the
  journal store, metadata and payload always agree (versioned payload
  files); the flat store's weaker in-place-overwrite contract is pinned
  separately;
* torn journal tails are truncated so post-crash appends survive the
  *next* replay;
* a crash mid-compaction never loses state.

Run with ``PYTHONHASHSEED`` pinned in CI so dict/hash iteration order
cannot mask ordering bugs.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    AsyncWriteError,
    CrashInjected,
    DedupBackend,
    DiskKVStore,
    KVStoreError,
    ShardedDiskKVStore,
    open_tiered_root,
)

DISK_BACKENDS = ["disk", "sharded"]


def open_store(kind: str, root, **kwargs):
    if kind == "disk":
        return DiskKVStore(str(root))
    return ShardedDiskKVStore(str(root), **kwargs)


def crash_at(store, point: str, nth: int = 1) -> None:
    """Arm the store to die at the ``nth`` hit of ``point``."""
    seen = {"count": 0}

    def hook(hit: str) -> None:
        if hit == point:
            seen["count"] += 1
            if seen["count"] == nth:
                raise CrashInjected(point)

    store.fault_hook = hook


def entry(value: float, size: int = 4) -> dict:
    return {"x": np.full(size, value)}


def assert_consistent(store, expected: dict) -> None:
    """Replay recovered exactly the acknowledged prefix: every expected
    key readable with exact bytes + matching metadata, nothing extra."""
    assert store.keys() == sorted(expected)
    for key, (value, stamp) in expected.items():
        assert np.array_equal(store.get(key)["x"], value), key
        assert store.stamp_of(key) == stamp, key
        assert store.nbytes_of(key) > 0


class TestMidPut:
    """Kill the process inside a single put, at every window."""

    @pytest.mark.parametrize("kind", DISK_BACKENDS)
    @pytest.mark.parametrize("point", ["payload:tmp-written", "payload:durable"])
    def test_new_key_crash_leaves_acked_prefix(self, tmp_path, kind, point):
        store = open_store(kind, tmp_path)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0), stamp=2)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("c", entry(3.0), stamp=3)
        reopened = open_store(kind, tmp_path)
        # the unacknowledged key is invisible; acked ops are intact
        assert_consistent(
            reopened, {"a": (np.full(4, 1.0), 1), "b": (np.full(4, 2.0), 2)}
        )

    @pytest.mark.parametrize("point", ["payload:tmp-written", "payload:durable"])
    def test_sharded_overwrite_crash_serves_old_version_exactly(
        self, tmp_path, point
    ):
        """Versioned payload files: a torn overwrite can never pair new
        bytes with old metadata — the journal still references the old
        file, which the overwrite did not touch."""
        store = open_store("sharded", tmp_path)
        store.put("k", entry(1.0, size=4), stamp=1)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0, size=8), stamp=2)
        reopened = open_store("sharded", tmp_path)
        assert reopened.stamp_of("k") == 1
        payload = reopened.get("k")["x"]
        assert np.array_equal(payload, np.full(4, 1.0))
        assert reopened.nbytes_of("k") == len(
            __import__("repro.ckpt.serializer", fromlist=["serialize_entry"])
            .serialize_entry(entry(1.0, size=4))
        )

    def test_flat_overwrite_crash_pins_weaker_contract(self, tmp_path):
        """The flat store replaces payloads in place: a crash between the
        payload replace and the index flush leaves the *new* bytes under
        the *old* metadata.  The entry stays a complete, deserializable
        version — the documented (weaker) contract this test pins; the
        journal store's versioned files close this window."""
        store = open_store("disk", tmp_path)
        store.put("k", entry(1.0), stamp=1)
        crash_at(store, "payload:durable")
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0), stamp=2)
        reopened = open_store("disk", tmp_path)
        assert reopened.stamp_of("k") == 1  # metadata: old version
        value = reopened.get("k")["x"]  # payload: complete, but NEW bytes
        assert np.array_equal(value, np.full(4, 9.0))

    @pytest.mark.parametrize("kind", DISK_BACKENDS)
    def test_crash_leaves_no_unreadable_key(self, tmp_path, kind):
        """After any mid-put crash, every indexed key must be readable —
        no dangling index entries pointing at missing payloads."""
        for nth, point in enumerate(
            ["payload:tmp-written", "payload:durable"], start=1
        ):
            root = tmp_path / f"case{nth}"
            store = open_store(kind, root)
            store.put("stable", entry(5.0), stamp=1)
            crash_at(store, point)
            with pytest.raises(CrashInjected):
                store.put("stable", entry(6.0), stamp=2)
            reopened = open_store(kind, root)
            for key in reopened.keys():
                reopened.get(key)  # must not raise


class TestMidIndexAppend:
    def test_torn_journal_line_truncated_and_prefix_recovered(self, tmp_path):
        """Die halfway through the journal append: the torn line is
        truncated on replay and the store recovers the acked prefix."""
        store = open_store("sharded", tmp_path)
        store.put("a", entry(1.0), stamp=1)
        crash_at(store, "journal:mid-append")
        with pytest.raises(CrashInjected):
            store.put("b", entry(2.0), stamp=2)
        size_with_torn_tail = os.path.getsize(store._journal_path)
        reopened = open_store("sharded", tmp_path)
        assert_consistent(reopened, {"a": (np.full(4, 1.0), 1)})
        # the torn fragment was truncated away on replay
        assert os.path.getsize(reopened._journal_path) < size_with_torn_tail

    def test_post_crash_writes_survive_next_replay(self, tmp_path):
        store = open_store("sharded", tmp_path)
        store.put("a", entry(1.0), stamp=1)
        crash_at(store, "journal:mid-append")
        with pytest.raises(CrashInjected):
            store.put("torn", entry(2.0), stamp=2)
        recovered = open_store("sharded", tmp_path)
        recovered.put("after", entry(3.0), stamp=3)
        final = open_store("sharded", tmp_path)
        assert_consistent(
            final, {"a": (np.full(4, 1.0), 1), "after": (np.full(4, 3.0), 3)}
        )

    def test_death_mid_batch_before_journal_append_leaves_old_state(
        self, tmp_path
    ):
        """Process death between a batch's payload writes and its
        journal append: a dead process appends nothing, so the reopened
        store shows exactly the pre-batch state — the new payloads are
        invisible orphans and superseded versions are NOT reclaimed.
        (A non-crash mid-batch *error* still journals the completed
        prefix — that path is covered in the contract suite.)"""
        store = open_store("sharded", tmp_path)
        store.put("old", entry(1.0), stamp=1)
        crash_at(store, "payload:durable", nth=3)
        batch = [("old", entry(7.0), 2, 0)] + [
            (f"k{i}", entry(float(i)), 2, 0) for i in range(4)
        ]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        reopened = open_store("sharded", tmp_path)
        # nothing from the dead batch is visible; the overwritten key
        # still serves its acknowledged version exactly
        assert_consistent(reopened, {"old": (np.full(4, 1.0), 1)})

    def test_torn_batch_append_recovers_record_prefix(self, tmp_path):
        """A put_many whose single batched journal append tears midway:
        replay recovers a clean *prefix* of the batch's records (payloads
        for the rest exist but are invisible orphans)."""
        store = open_store("sharded", tmp_path)
        store.put("base", entry(0.0), stamp=0)
        crash_at(store, "journal:mid-append")
        batch = [(f"k{i}", entry(float(i)), 1, 0) for i in range(6)]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        reopened = open_store("sharded", tmp_path)
        keys = reopened.keys()
        assert "base" in keys
        recovered_batch = [key for key in keys if key.startswith("k")]
        # whatever survived is a contiguous prefix of the batch order
        assert recovered_batch == [f"k{i}" for i in range(len(recovered_batch))]
        for key in keys:
            reopened.get(key)

    def test_newline_less_tail_is_torn_even_if_parseable(self, tmp_path):
        """Regression: a tail that parses as JSON but lacks its trailing
        newline is still a torn write (the append's ack covers the
        newline).  Accepting it would let the next append concatenate
        onto it and a later replay drop acknowledged records."""
        store = open_store("sharded", tmp_path)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0), stamp=2)
        # crash tears off exactly the final newline: the 'b' record text
        # is intact but unterminated
        size = os.path.getsize(store._journal_path)
        os.truncate(store._journal_path, size - 1)
        recovered = open_store("sharded", tmp_path)
        assert recovered.keys() == ["a"]  # unterminated record is torn
        recovered.put("c", entry(3.0), stamp=3)
        final = open_store("sharded", tmp_path)
        # the acked post-crash write survives the NEXT replay too
        assert_consistent(
            final, {"a": (np.full(4, 1.0), 1), "c": (np.full(4, 3.0), 3)}
        )

    def test_same_stamp_overwrite_crash_preserves_acked_version(self, tmp_path):
        """Regression: re-putting a key at the SAME stamp must not
        replace the referenced payload file in place — the generation
        suffix gives the new bytes a fresh file, so a crash before the
        journal append leaves the acknowledged version intact."""
        store = open_store("sharded", tmp_path)
        store.put("k", entry(1.0, size=4), stamp=5)
        crash_at(store, "payload:durable")
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0, size=8), stamp=5)
        reopened = open_store("sharded", tmp_path)
        assert reopened.stamp_of("k") == 5
        value = reopened.get("k")["x"]
        assert np.array_equal(value, np.full(4, 1.0))  # acked bytes
        assert reopened.nbytes_of("k") == len(
            __import__("repro.ckpt.serializer", fromlist=["serialize_entry"])
            .serialize_entry(entry(1.0, size=4))
        )

    def test_versioned_names_cannot_collide_across_keys(self, tmp_path):
        """Regression: the version suffix uses '@' (never produced by
        escape_key), so key 'k' at stamp 5 after same-stamp overwrites
        and key 'k.5' at stamp 3 map to distinct files even when their
        hash shards coincide."""
        store = open_store("sharded", tmp_path, shard_width=1)
        assert store._path("k", 5, 3) != store._path("k.5", 3, 0).replace(
            store._shard_of("k.5"), store._shard_of("k")
        )
        store.put("k", entry(1.0), stamp=5)
        store.put("k", entry(2.0), stamp=5)
        store.put("k", entry(3.0), stamp=5)  # gen 2
        store.put("k.5", entry(9.0), stamp=2)
        reopened = open_store("sharded", tmp_path, shard_width=1)
        assert np.array_equal(reopened.get("k")["x"], np.full(4, 3.0))
        assert np.array_equal(reopened.get("k.5")["x"], np.full(4, 9.0))

    def test_same_stamp_overwrite_completes_and_reclaims_old_file(self, tmp_path):
        store = open_store("sharded", tmp_path)
        store.put("k", entry(1.0), stamp=5)
        store.put("k", entry(2.0), stamp=5)
        store.put("k", entry(3.0), stamp=5)
        reopened = open_store("sharded", tmp_path)
        assert np.array_equal(reopened.get("k")["x"], np.full(4, 3.0))
        # superseded generations were unlinked once their successor's
        # record became durable
        shard_files = [
            name
            for _, _, names in os.walk(str(tmp_path / "shards"))
            for name in names
        ]
        assert len(shard_files) == 1

    def test_flat_index_crash_before_replace_keeps_old_index(self, tmp_path):
        store = open_store("disk", tmp_path)
        store.put("a", entry(1.0), stamp=1)
        crash_at(store, "index:tmp-written")
        with pytest.raises(CrashInjected):
            store.put("b", entry(2.0), stamp=2)
        reopened = open_store("disk", tmp_path)
        assert_consistent(reopened, {"a": (np.full(4, 1.0), 1)})


class TestMidCompaction:
    def make_compacting_store(self, root):
        return open_store("sharded", root, compact_min_records=8)

    def test_crash_before_compacted_replace_loses_nothing(self, tmp_path):
        store = self.make_compacting_store(tmp_path)
        crash_at(store, "compact:tmp-written")
        expected = {}
        with pytest.raises(CrashInjected):
            for stamp in range(50):
                store.put("hot", entry(float(stamp)), stamp=stamp)
                expected["hot"] = (np.full(4, float(stamp)), stamp)
        # the compaction died before os.replace: the original journal is
        # untouched and replay yields the exact acked state
        reopened = self.make_compacting_store(tmp_path)
        assert reopened.keys() == ["hot"]
        acked_stamp = expected["hot"][1]
        assert reopened.stamp_of("hot") in (acked_stamp, acked_stamp + 1)
        reopened.get("hot")
        # a stray .tmp from the dead compaction is ignored
        assert not any(
            path == reopened._journal_path
            for path in glob.glob(str(tmp_path / "*.tmp"))
        )

    def test_store_remains_writable_after_compaction_crash(self, tmp_path):
        store = self.make_compacting_store(tmp_path)
        crash_at(store, "compact:tmp-written")
        with pytest.raises(CrashInjected):
            for stamp in range(50):
                store.put("hot", entry(float(stamp)), stamp=stamp)
        recovered = self.make_compacting_store(tmp_path)
        for stamp in range(100, 150):
            recovered.put("hot", entry(float(stamp)), stamp=stamp)
        assert recovered.compactions > 0  # compaction works post-recovery
        final = self.make_compacting_store(tmp_path)
        assert final.stamp_of("hot") == 149
        assert np.array_equal(final.get("hot")["x"], np.full(4, 149.0))


class TestMidDelete:
    @pytest.mark.parametrize("kind", DISK_BACKENDS)
    def test_acked_deletes_are_durable(self, tmp_path, kind):
        store = open_store(kind, tmp_path)
        store.put("keep", entry(1.0), stamp=1)
        store.put("gone", entry(2.0), stamp=1)
        store.delete("gone")
        crash_at(store, "payload:tmp-written")
        with pytest.raises(CrashInjected):
            store.put("late", entry(3.0), stamp=2)
        reopened = open_store(kind, tmp_path)
        assert_consistent(reopened, {"keep": (np.full(4, 1.0), 1)})

    def test_sharded_tombstone_crash_leaks_only_orphans(self, tmp_path):
        """Crash right after the tombstone append: the payload file may
        leak, but the index never references it again."""
        store = open_store("sharded", tmp_path)
        store.put("gone", entry(2.0), stamp=1)
        crash_at(store, "journal:appended")
        with pytest.raises(CrashInjected):
            store.delete("gone")
        reopened = open_store("sharded", tmp_path)
        assert reopened.keys() == []
        with pytest.raises(KVStoreError):
            reopened.get("gone")


class TestDedupEngineCrash:
    """Kill the dedup engine at every durable-write step, reopen, fsck.

    The engine's ordering (chunks -> incref -> manifest -> decref)
    guarantees every crash window leaks at most orphan chunk files and
    over-counted refs — *warnings* — never an integrity error: after
    any crash, ``fsck`` must report zero errors, every acknowledged
    entry must read back exactly, and ``fsck(repair=True)`` + ``gc``
    must return the store to a warning-free state.
    """

    #: Fault points *before* a put's commit (the manifest append):
    #: crashing at any of them must leave the put invisible.  The
    #: commit point itself — ``manifest:appended`` — has the opposite
    #: semantics (unacked-but-durable) and its own test below.
    #: Multi-chunk entries hit the chunk points several times; nth=1 is
    #: the first.
    PUT_POINTS = [
        "chunk:tmp-written",
        "chunk:durable",
        "refs:mid-append",
        "refs:appended",
        "manifest:mid-append",
    ]

    def open(self, root, **kwargs):
        kwargs.setdefault("chunk_bytes", 64)  # several chunks per entry
        return DedupBackend(str(root), **kwargs)

    def assert_recovers_clean(self, root, expected: dict) -> DedupBackend:
        reopened = self.open(root)
        assert_consistent(reopened, expected)
        report = reopened.fsck()
        assert report.ok, report.errors
        reopened.fsck(repair=True)
        reopened.gc()
        final = reopened.fsck()
        assert final.ok and not final.warnings
        assert_consistent(reopened, expected)
        return reopened

    @pytest.mark.parametrize("point", PUT_POINTS)
    def test_new_key_crash_leaves_acked_prefix(self, tmp_path, point):
        store = self.open(tmp_path)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0), stamp=2)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("c", entry(3.0), stamp=3)
        self.assert_recovers_clean(
            tmp_path, {"a": (np.full(4, 1.0), 1), "b": (np.full(4, 2.0), 2)}
        )

    @pytest.mark.parametrize("point", PUT_POINTS)
    def test_overwrite_crash_serves_old_version_exactly(self, tmp_path, point):
        """Chunks are immutable and the decref trails the manifest
        append: a torn overwrite can never damage the old version."""
        store = self.open(tmp_path)
        store.put("k", entry(1.0, size=4), stamp=1)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0, size=8), stamp=2)
        self.assert_recovers_clean(tmp_path, {"k": (np.full(4, 1.0), 1)})

    def test_commit_point_makes_unacked_put_durable(self, tmp_path):
        """Dying right *after* the manifest append: the put was never
        acknowledged, but its commit record is durable — replay serves
        the complete new version (unacked-may-be-durable, the standard
        crash contract), and the store fscks with zero errors."""
        store = self.open(tmp_path)
        crash_at(store, "manifest:appended")
        with pytest.raises(CrashInjected):
            store.put("c", entry(3.0), stamp=3)
        reopened = self.open(tmp_path)
        assert reopened.keys() == ["c"]
        assert np.array_equal(reopened.get("c")["x"], np.full(4, 3.0))
        assert reopened.stamp_of("c") == 3
        assert reopened.fsck().ok

    def test_crash_between_manifest_and_decref_leaks_only(self, tmp_path):
        """The decref of the superseded manifest's chunks is the last
        append: dying right before it over-counts the old chunks (a
        leak) while the *new* version is already committed."""
        store = self.open(tmp_path)
        store.put("k", entry(1.0), stamp=1)
        # hit 2 of refs:appended within the overwrite = the decref append
        # (hit 1 is the incref); manifest is durable by then
        crash_at(store, "refs:appended", nth=2)
        with pytest.raises(CrashInjected):
            store.put("k", entry(2.0), stamp=2)
        reopened = self.open(tmp_path)
        assert reopened.stamp_of("k") == 2  # new version committed
        assert np.array_equal(reopened.get("k")["x"], np.full(4, 2.0))
        report = reopened.fsck()
        assert report.ok
        assert report.overcounted_refs or report.orphan_chunks
        reopened.fsck(repair=True)
        reopened.gc()
        assert not reopened.fsck().warnings

    def test_torn_refs_line_truncated_on_replay(self, tmp_path):
        store = self.open(tmp_path)
        store.put("a", entry(1.0), stamp=1)
        crash_at(store, "refs:mid-append")
        with pytest.raises(CrashInjected):
            store.put("b", entry(2.0), stamp=2)
        recovered = self.open(tmp_path)
        recovered.put("after", entry(3.0), stamp=3)
        self.assert_recovers_clean(
            tmp_path, {"a": (np.full(4, 1.0), 1), "after": (np.full(4, 3.0), 3)}
        )

    def test_death_mid_batch_leaves_pre_batch_state(self, tmp_path):
        store = self.open(tmp_path)
        store.put("old", entry(1.0), stamp=1)
        crash_at(store, "chunk:durable", nth=3)
        batch = [("old", entry(7.0), 2, 0)] + [
            (f"k{i}", entry(float(10 + i)), 2, 0) for i in range(4)
        ]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        self.assert_recovers_clean(tmp_path, {"old": (np.full(4, 1.0), 1)})

    def test_torn_batch_manifest_append_recovers_record_prefix(self, tmp_path):
        store = self.open(tmp_path)
        store.put("base", entry(0.0), stamp=0)
        crash_at(store, "manifest:mid-append")
        batch = [(f"k{i}", entry(float(i)), 1, 0) for i in range(6)]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        reopened = self.open(tmp_path)
        keys = reopened.keys()
        assert "base" in keys
        recovered_batch = [key for key in keys if key.startswith("k")]
        # whatever survived is a contiguous prefix of the batch order
        assert recovered_batch == [f"k{i}" for i in range(len(recovered_batch))]
        for key in keys:
            reopened.get(key)
        assert reopened.fsck().ok

    def test_delete_crash_after_tombstone_leaks_only_orphans(self, tmp_path):
        store = self.open(tmp_path)
        store.put("gone", entry(2.0), stamp=1)
        store.put("kept", entry(3.0), stamp=1)
        # the tombstone lands at manifest:appended; dying there loses
        # the decref — refs leak but the key is durably gone
        crash_at(store, "manifest:appended")
        with pytest.raises(CrashInjected):
            store.delete("gone")
        reopened = self.open(tmp_path)
        assert reopened.keys() == ["kept"]
        with pytest.raises(KVStoreError):
            reopened.get("gone")
        report = reopened.fsck()
        assert report.ok
        reopened.fsck(repair=True)
        reopened.gc()
        assert not reopened.fsck().warnings

    def test_crash_mid_manifest_compaction_loses_nothing(self, tmp_path):
        store = self.open(tmp_path, compact_min_records=8)
        crash_at(store, "manifest:compact-tmp-written")
        acked = -1
        with pytest.raises(CrashInjected):
            for stamp in range(50):
                store.put("hot", entry(float(stamp)), stamp=stamp)
                acked = stamp
        reopened = self.open(tmp_path, compact_min_records=8)
        assert reopened.keys() == ["hot"]
        assert reopened.stamp_of("hot") in (acked, acked + 1)
        reopened.get("hot")
        assert reopened.fsck().ok

    def test_async_worker_crash_keeps_engine_consistent(self, tmp_path):
        """The commit-last invariant through the async pipeline: if the
        batch died, the meta entry staged after it is not durable, and
        the reopened engine fscks clean."""
        inner = self.open(tmp_path)
        crash_at(inner, "chunk:durable", nth=2)
        store = AsyncWriteBackend(inner)
        with pytest.raises(AsyncWriteError):
            store.put_many([(f"k{i}", entry(float(i)), 1, 0) for i in range(4)])
            store.put("meta:iteration", {"iteration": np.asarray(1)}, stamp=1)
            store.flush()
        reopened = self.open(tmp_path)
        assert not reopened.has("meta:iteration")
        assert reopened.fsck().ok
        store.close()

    def test_fsck_clean_after_full_crash_battery(self, tmp_path):
        """The acceptance sweep: every put fault point (commit point
        included), crashed in sequence against one directory, each
        followed by reopen + repair + gc — the store must end bit-exact
        and warning-free."""
        expected = {}
        root = tmp_path / "battery"
        store = self.open(root)
        for round_index, point in enumerate(
            self.PUT_POINTS + ["manifest:appended"]
        ):
            value = float(100 + round_index)
            store.put(f"pre{round_index}", entry(value), stamp=round_index)
            expected[f"pre{round_index}"] = (np.full(4, value), round_index)
            crash_at(store, point)
            with pytest.raises(CrashInjected):
                store.put(f"dead{round_index}", entry(-1.0), stamp=99)
            reopened = self.open(root)
            dead = f"dead{round_index}"
            if reopened.has(dead):
                # past the commit point the unacked put is durable and
                # complete; drop it to return to the acknowledged state
                assert np.array_equal(reopened.get(dead)["x"], np.full(4, -1.0))
                reopened.delete(dead)
            store = self.assert_recovers_clean(root, expected)


class TestAsyncPipelineCrash:
    def test_worker_crash_leaves_inner_store_prefix_consistent(self, tmp_path):
        """A crash inside the drained write surfaces as AsyncWriteError
        at the next boundary; the inner store (reopened, as after a
        process death) holds a strict prefix of the accepted puts —
        never a later entry over a hole."""
        inner = ShardedDiskKVStore(str(tmp_path))
        crash_at(inner, "payload:durable", nth=3)
        store = AsyncWriteBackend(inner)
        for i in range(6):
            store.put(f"k{i}", entry(float(i)), stamp=i)
        with pytest.raises(AsyncWriteError):
            store.flush()
        reopened = ShardedDiskKVStore(str(tmp_path))
        keys = reopened.keys()
        assert keys == [f"k{i}" for i in range(len(keys))]  # strict prefix
        assert len(keys) < 6
        for key in keys:
            reopened.get(key)
        store.close()

    def test_worker_crash_mid_batch_append_keeps_meta_unreachable(self, tmp_path):
        """The commit-last invariant under a crash: if the batch died,
        the meta entry staged after it must not be durable."""
        inner = ShardedDiskKVStore(str(tmp_path))
        crash_at(inner, "payload:durable", nth=2)
        store = AsyncWriteBackend(inner)
        with pytest.raises(AsyncWriteError):
            store.put_many([(f"k{i}", entry(float(i)), 1, 0) for i in range(4)])
            store.put("meta:iteration", {"iteration": np.asarray(1)}, stamp=1)
            store.flush()
        reopened = ShardedDiskKVStore(str(tmp_path))
        assert not reopened.has("meta:iteration")
        store.close()


class TestParallelEngineDegradation:
    """The multi-process save engine must never be load-bearing.

    Three failure families — pool cannot spawn, workers killed
    mid-stream, the shared-memory arena poisoned — and one contract
    for all of them: the put degrades to the in-process path with a
    ``RuntimeWarning``, the data lands bit-exact, and ``fsck`` stays
    clean.  A broken accelerator may cost speed, never state.
    """

    def open(self, root, **kwargs):
        kwargs.setdefault("chunk_bytes", 64)
        kwargs.setdefault("codec", "zlib")
        kwargs.setdefault("parallel_workers", 2)
        return DedupBackend(str(root), **kwargs)

    def assert_degraded_but_intact(self, store, expected: dict) -> None:
        assert store.engine.enabled is False
        assert store.engine.fallback_reason
        assert_consistent(store, expected)
        report = store.fsck()
        assert report.ok, report.errors
        assert report.encoded_chunks > 0  # the codec still ran in-process

    def test_spawn_failure_falls_back_in_process(self, tmp_path, monkeypatch):
        from repro.ckpt import ChunkWorkerPool

        def refuse(self):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(ChunkWorkerPool, "_spawn_one", refuse)
        store = self.open(tmp_path)
        try:
            with pytest.warns(RuntimeWarning, match="parallel save engine disabled"):
                store.put("k", entry(5.0, size=256), stamp=1)
            self.assert_degraded_but_intact(
                store, {"k": (np.full(256, 5.0), 1)}
            )
        finally:
            store.close()

    def test_workers_killed_mid_stream_fall_back(self, tmp_path):
        store = self.open(tmp_path)
        try:
            store.put("warm", entry(1.0, size=256), stamp=1)  # pool is live
            assert store.engine.pool.alive() == 2
            # kill *every* worker: a lone survivor can legitimately
            # drain the whole next batch, which is resilience, not
            # degradation — this test wants the degradation path
            for proc in store.engine.pool._procs:
                os.kill(proc.pid, signal.SIGKILL)
            for proc in store.engine.pool._procs:
                proc.join(timeout=10)
            with pytest.warns(RuntimeWarning, match="parallel save engine disabled"):
                store.put("after", entry(2.0, size=256), stamp=2)
            self.assert_degraded_but_intact(
                store,
                {"warm": (np.full(256, 1.0), 1), "after": (np.full(256, 2.0), 2)},
            )
        finally:
            store.close()

    def test_workers_killed_between_digest_and_encode_rounds(self, tmp_path):
        """A batch window's digest round succeeds, then every worker
        dies before its encode round: one warning, the engine disabled,
        and the rest of the batch written in-process."""
        store = self.open(tmp_path)
        try:
            store.put("warm", entry(1.0, size=256), stamp=1)  # pool is live
            engine = store.engine
            digest_round = engine.chunk_digests
            rounds = []

            def digest_then_kill(payloads, chunk_bytes):
                before = engine.tasks_dispatched
                digests = digest_round(payloads, chunk_bytes)
                rounds.append(engine.tasks_dispatched - before)
                if len(rounds) == 1:
                    for proc in engine.pool._procs:
                        os.kill(proc.pid, signal.SIGKILL)
                    for proc in engine.pool._procs:
                        proc.join(timeout=10)
                return digests

            engine.chunk_digests = digest_then_kill
            batch = [(f"k{i}", entry(float(i), size=256), 2, 0) for i in range(6)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                store.put_many(batch)
            assert rounds[0] > 0  # the digest round really ran in the pool
            disabled = [
                warning for warning in caught
                if issubclass(warning.category, RuntimeWarning)
                and "parallel save engine disabled" in str(warning.message)
            ]
            assert len(disabled) == 1
            assert "encode" in engine.fallback_reason
            expected = {"warm": (np.full(256, 1.0), 1)}
            expected.update({f"k{i}": (np.full(256, float(i)), 2) for i in range(6)})
            self.assert_degraded_but_intact(store, expected)
        finally:
            store.close()

    def test_wedged_pool_deadline_falls_back(self, tmp_path, monkeypatch):
        """Workers alive but not making progress (SIGSTOPped here): the
        batch deadline must declare the pool wedged — WorkerPoolError —
        and the engine must finish the put in-process.  Without the
        deadline this put would block forever with every worker
        'healthy'."""
        from repro.ckpt import parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_DEADLINE_SECONDS", 2.0)
        store = self.open(tmp_path)
        try:
            store.put("warm", entry(1.0, size=256), stamp=1)  # pool is live
            procs = list(store.engine.pool._procs)
            for proc in procs:
                os.kill(proc.pid, signal.SIGSTOP)
            # A stopped worker never joins; SIGKILL them once the
            # deadline has fired so _disable's pool teardown is quick.
            def unstick() -> None:
                time.sleep(4.0)
                for proc in procs:
                    if proc.is_alive():
                        os.kill(proc.pid, signal.SIGKILL)

            unsticker = threading.Thread(target=unstick, daemon=True)
            unsticker.start()
            with pytest.warns(RuntimeWarning, match="parallel save engine disabled"):
                store.put("after", entry(2.0, size=256), stamp=2)
            unsticker.join(timeout=30)
            self.assert_degraded_but_intact(
                store,
                {"warm": (np.full(256, 1.0), 1), "after": (np.full(256, 2.0), 2)},
            )
        finally:
            store.close()

    def test_poisoned_shared_arena_falls_back(self, tmp_path):
        store = self.open(tmp_path)
        try:
            store.put("warm", entry(1.0, size=256), stamp=1)
            # poison the arena: close + unlink the segment under the
            # engine (as an external cleaner like a stale-shm sweeper
            # would); the next staging attempt must not wedge or corrupt
            store.engine.staging.close()
            with pytest.warns(RuntimeWarning, match="parallel save engine disabled"):
                store.put("after", entry(2.0, size=256), stamp=2)
            self.assert_degraded_but_intact(
                store,
                {"warm": (np.full(256, 1.0), 1), "after": (np.full(256, 2.0), 2)},
            )
        finally:
            store.close()

    def test_degraded_store_reads_back_everywhere(self, tmp_path):
        # a store written while degraded is indistinguishable on disk:
        # a plain single-process DedupBackend reopens and verifies it
        store = self.open(tmp_path)
        store.engine.staging.close()
        with pytest.warns(RuntimeWarning):
            store.put("k", entry(7.0, size=256), stamp=3)
        store.close()
        plain = DedupBackend(str(tmp_path), chunk_bytes=64)
        assert np.array_equal(plain.get("k")["x"], np.full(256, 7.0))
        report = plain.fsck()
        assert report.ok, report.errors


class TestCompressedDedupCrash(TestDedupEngineCrash):
    """The full crash battery again, with the chunk codec and worker
    pool enabled: compressed chunk files must honor the same
    ordering/fsck contract as raw ones, and a crash can never leave a
    half-framed chunk readable."""

    @pytest.fixture(autouse=True)
    def _reap_stores(self):
        # "Crashed" store instances are abandoned mid-test by design;
        # with workers enabled each holds a process pool + shm arena,
        # so reap them all at teardown (close is idempotent).
        self._opened = []
        yield
        for store in self._opened:
            try:
                store.close()
            except Exception:  # pragma: no cover - best effort
                pass

    def open(self, root, **kwargs):
        kwargs.setdefault("chunk_bytes", 64)
        kwargs.setdefault("codec", "zlib")
        kwargs.setdefault("parallel_workers", 2)
        store = DedupBackend(str(root), **kwargs)
        self._opened.append(store)
        return store

    def assert_recovers_clean(self, root, expected: dict) -> DedupBackend:
        reopened = super().assert_recovers_clean(root, expected)
        if expected:
            report = reopened.fsck()
            assert report.encoded_chunks >= 0  # codec store fscks framed files
        return reopened

    def test_fsck_clean_after_full_crash_battery(self, tmp_path):
        """Battery sweep with compression: abandoned ("crashed") store
        instances must also have their worker pools reaped so rounds
        don't accumulate orphan processes."""
        expected = {}
        root = tmp_path / "battery"
        store = self.open(root)
        try:
            for round_index, point in enumerate(
                self.PUT_POINTS + ["manifest:appended"]
            ):
                value = float(100 + round_index)
                store.put(
                    f"pre{round_index}", entry(value, size=256), stamp=round_index
                )
                expected[f"pre{round_index}"] = (np.full(256, value), round_index)
                crash_at(store, point)
                with pytest.raises(CrashInjected):
                    store.put(f"dead{round_index}", entry(-1.0, size=256), stamp=99)
                store.close()  # the "dead process": reap workers + shm
                reopened = self.open(root)
                dead = f"dead{round_index}"
                if reopened.has(dead):
                    assert np.array_equal(
                        reopened.get(dead)["x"], np.full(256, -1.0)
                    )
                    reopened.delete(dead)
                reopened.close()
                store = self.assert_recovers_clean(root, expected)
            final = store.fsck()
            assert final.encoded_chunks > 0  # compression actually engaged
        finally:
            store.close()


class TestTieredCrash:
    """Kill the two-tier store at every seam of the upload pipeline and
    the promotion/demotion journal, reopen, fsck.

    The tiered write ordering is leak-only, mirroring the dedup
    engine's: local commit (the put's durability point) → remote put →
    ``up`` claim record → eviction.  Crashing in any window may leak a
    pending upload or an unclaimed remote copy — *warnings* — but must
    never produce a claim without a live remote copy backing it, and
    never lose an acknowledged entry.  ``upload_workers=0`` runs the
    pipeline inline so every seam fires on the caller thread, which is
    exactly the process-death model this battery wants.
    """

    #: Crashing before the local manifest commit leaves the put
    #: invisible — these are the composed local tier's own seams.
    LOCAL_POINTS = TestDedupEngineCrash.PUT_POINTS

    #: Crashing at or after the local commit leaves the put durable but
    #: unacknowledged; the reopen's resume scan must finish the upload.
    #: In order: local commit, remote object tmp + durable (the sharded
    #: remote's own seams), remote durable but unclaimed, torn claim
    #: record, claim durable.
    DURABLE_POINTS = [
        "manifest:appended",
        "payload:tmp-written",
        "payload:durable",
        "upload:remote-durable",
        "tier:mid-append",
        "tier:appended",
    ]

    def open(self, root, **kwargs):
        kwargs.setdefault("upload_workers", 0)
        return open_tiered_root(str(root), **kwargs)

    def assert_recovers_clean(self, root, expected: dict):
        """Reopen, verify the acknowledged state, and require the
        claim-journal invariant: no claim ever points at a missing or
        stale remote copy, and repair + flush + gc reach a warning-free
        store (the sync-mode reopen already re-uploaded anything
        pending, so usually the first fsck is clean outright)."""
        reopened = self.open(root)
        assert_consistent(reopened, expected)
        report = reopened.fsck()
        assert report.ok, report.errors
        assert report.lost_remote_copies == []
        assert report.stale_remote_copies == []
        reopened.fsck(repair=True)
        reopened.flush()
        reopened.gc()
        final = reopened.fsck()
        assert final.ok and not final.warnings
        assert_consistent(reopened, expected)
        return reopened

    @pytest.mark.parametrize("point", LOCAL_POINTS)
    def test_new_key_crash_leaves_acked_prefix(self, tmp_path, point):
        store = self.open(tmp_path)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0), stamp=2)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("c", entry(3.0), stamp=3)
        self.assert_recovers_clean(
            tmp_path, {"a": (np.full(4, 1.0), 1), "b": (np.full(4, 2.0), 2)}
        )

    @pytest.mark.parametrize("point", DURABLE_POINTS)
    def test_crash_past_local_commit_resumes_the_upload(self, tmp_path, point):
        """Past the local commit the entry is durable-but-unacked; no
        matter where inside the upload the process died, the reopen's
        resume scan must leave the key uploaded, claimed, and fsck-clean
        — re-uploading idempotently rather than trusting a claim that
        was never appended."""
        store = self.open(tmp_path)
        store.put("base", entry(1.0), stamp=1)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("c", entry(3.0), stamp=3)
        reopened = self.open(tmp_path)
        assert np.array_equal(reopened.get("c")["x"], np.full(4, 3.0))
        assert reopened.stamp_of("c") == 3
        assert reopened.remote.has("c")  # the resume finished the upload
        stats = reopened.tier_stats()
        assert stats["pending_uploads"] == 0
        report = reopened.fsck()
        assert report.ok, report.errors
        assert report.lost_remote_copies == []
        reopened.delete("c")  # back to the acknowledged state
        self.assert_recovers_clean(tmp_path, {"base": (np.full(4, 1.0), 1)})

    @pytest.mark.parametrize(
        "point", ["upload:remote-durable", "tier:mid-append"]
    )
    def test_overwrite_crash_mid_upload_never_claims_stale(self, tmp_path, point):
        """Crashing between the remote put of a new version and its
        claim record leaves the journal pointing at the *old* state at
        worst; replay must re-upload the new version, never serve or
        claim a stale remote copy."""
        store = self.open(tmp_path)
        store.put("k", entry(1.0, size=4), stamp=1)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0, size=8), stamp=2)
        reopened = self.assert_recovers_clean(
            tmp_path, {"k": (np.full(8, 9.0), 2)}
        )
        assert reopened.remote.stamp_of("k") == 2

    def test_crash_mid_upload_resumes_through_async_pipeline(self, tmp_path):
        """The ISSUE's named scenario: die mid-upload, reopen with the
        *background* pipeline, and the pending key must drain to a
        claimed remote copy — fsck clean, nothing lost."""
        store = self.open(tmp_path)
        crash_at(store, "upload:remote-durable")
        with pytest.raises(CrashInjected):
            store.put("k", entry(5.0), stamp=1)
        reopened = self.open(tmp_path, upload_workers=1)
        try:
            reopened.flush()
            assert reopened.tier_stats()["pending_uploads"] == 0
            assert reopened.remote.has("k")
            report = reopened.fsck()
            assert report.ok and report.lost_remote_copies == []
            reopened.gc()
            assert not reopened.fsck().warnings
        finally:
            reopened.close()

    def test_crash_mid_journal_compaction_loses_no_claims(self, tmp_path):
        """gc compacts the tier journal through a tmp + atomic-replace;
        dying with the tmp written but not swapped must preserve every
        claim on replay."""
        store = self.open(tmp_path)
        expected = {}
        for i in range(4):
            store.put(f"k{i}", entry(float(i)), stamp=i)
            expected[f"k{i}"] = (np.full(4, float(i)), i)
        crash_at(store, "tier:compact-tmp-written")
        with pytest.raises(CrashInjected):
            store.gc()
        self.assert_recovers_clean(tmp_path, expected)

    def test_fsck_clean_after_full_crash_battery(self, tmp_path):
        """The acceptance sweep: every local, remote, and journal seam
        crashed in sequence against one directory, each round followed
        by reopen + repair + gc — the store must end bit-exact and
        warning-free, with every claim backed by a live remote copy."""
        expected = {}
        root = tmp_path / "battery"
        store = self.open(root)
        for round_index, point in enumerate(
            self.LOCAL_POINTS + self.DURABLE_POINTS
        ):
            value = float(100 + round_index)
            store.put(f"pre{round_index}", entry(value), stamp=round_index)
            expected[f"pre{round_index}"] = (np.full(4, value), round_index)
            crash_at(store, point)
            with pytest.raises(CrashInjected):
                store.put(f"dead{round_index}", entry(-1.0), stamp=99)
            reopened = self.open(root)
            dead = f"dead{round_index}"
            if reopened.has(dead):
                # past the local commit the unacked put is durable and
                # complete; drop it to return to the acknowledged state
                assert np.array_equal(reopened.get(dead)["x"], np.full(4, -1.0))
                reopened.delete(dead)
            store = self.assert_recovers_clean(root, expected)


def _sigterm_masking_worker(ready) -> None:
    """A worker that masks SIGTERM — the pathological teardown case."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    while True:  # pragma: no cover - killed externally
        time.sleep(60)


class TestParallelEngineTeardown:
    """The leak/shutdown seams of the multi-process save engine.

    Three regressions pinned here: an unclosed ``SharedStagingPool``
    must not orphan ``/dev/shm`` segments at interpreter exit (atexit
    sweep) or even on a hard ``os._exit`` (resource-tracker backstop);
    a worker that masks SIGTERM cannot wedge teardown past the bounded
    terminate → join → kill → join escalation; and the collector's
    batch deadline fires even while stale results keep its queue busy.
    """

    _CHILD_SCRIPT = (
        "from repro.ckpt.parallel import SharedStagingPool\n"
        "pool = SharedStagingPool(arena_bytes=8192)\n"
        "buf = pool.acquire(256)\n"
        "print(pool.segment_name, flush=True)\n"
    )

    def _run_child(self, extra: str = "") -> "subprocess.CompletedProcess":
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", self._CHILD_SCRIPT + extra],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )

    @staticmethod
    def _assert_segment_unlinked(name: str, deadline_seconds: float) -> None:
        path = os.path.join("/dev/shm", name)
        deadline = time.monotonic() + deadline_seconds
        while os.path.exists(path):
            if time.monotonic() > deadline:
                os.unlink(path)  # don't leak it into later tests
                pytest.fail(f"orphaned shared-memory segment: {path}")
            time.sleep(0.05)

    def test_interpreter_exit_without_close_sweeps_segments(self):
        """A pool abandoned at normal interpreter exit: the atexit sweep
        unlinks its arena *itself* — the resource tracker never has to
        salvage it, so there is no 'leaked shared_memory' warning."""
        proc = self._run_child()
        assert proc.returncode == 0, proc.stderr
        name = proc.stdout.strip()
        assert name
        if not os.path.exists("/dev/shm"):  # pragma: no cover - exotic CI
            pytest.skip("no /dev/shm on this platform")
        self._assert_segment_unlinked(name, deadline_seconds=5.0)
        assert "leaked shared_memory" not in proc.stderr

    def test_hard_exit_leaves_no_orphan_segments(self):
        """``os._exit`` skips atexit entirely; the resource tracker is
        the backstop and must still unlink the segment once the owner
        dies."""
        proc = self._run_child("import os; os._exit(1)\n")
        assert proc.returncode == 1
        name = proc.stdout.strip()
        assert name
        if not os.path.exists("/dev/shm"):  # pragma: no cover - exotic CI
            pytest.skip("no /dev/shm on this platform")
        self._assert_segment_unlinked(name, deadline_seconds=10.0)

    def test_sigterm_masking_worker_teardown_bounded(self):
        """_reap_processes — the single teardown primitive behind both
        ``ChunkWorkerPool.close`` and ``_abort`` — must escalate past a
        SIGTERM-masking worker to SIGKILL within ~2 grace periods."""
        from repro.ckpt.parallel import _reap_processes

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        ready = ctx.Event()
        proc = ctx.Process(
            target=_sigterm_masking_worker, args=(ready,), daemon=True
        )
        proc.start()
        try:
            assert ready.wait(timeout=30)
            started = time.monotonic()
            _reap_processes([proc], grace_seconds=1.0)
            elapsed = time.monotonic() - started
            assert not proc.is_alive()
            assert elapsed < 10.0
        finally:
            if proc.is_alive():  # pragma: no cover - escalation failed
                proc.kill()
            proc.join(timeout=10)

    def test_collect_deadline_fires_despite_result_stream(self, monkeypatch):
        """The wedge the deadline exists for: workers alive, the result
        queue never empty (stale results for other batches), the
        awaited task never arriving.  The deadline check runs at the
        top of *every* iteration — checking only in the Empty branch
        would spin here forever."""
        from repro.ckpt import parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "_DEADLINE_SECONDS", 1.0)
        pool = parallel_mod.ChunkWorkerPool(1)
        pool.start()
        stop = threading.Event()

        def feed_stale_results() -> None:
            while not stop.is_set():
                pool._results.put(("digest", -1, [], 0, 0.0))
                time.sleep(0.01)

        feeder = threading.Thread(target=feed_stale_results, daemon=True)
        feeder.start()
        try:
            with pytest.raises(
                parallel_mod.WorkerPoolError, match="deadline"
            ):
                pool.collect([987654])
        finally:
            stop.set()
            feeder.join(timeout=10)
            pool.close()
