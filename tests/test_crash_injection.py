"""Crash-injection suite: kill the process model mid-operation, replay.

Every disk-backed store exposes a ``fault_hook`` seam
(:class:`repro.ckpt.backend.CheckpointBackend`) invoked at named fault
points.  Each test installs a hook that raises
:class:`~repro.ckpt.backend.CrashInjected` at a chosen point, abandons
the store instance — the "process" is dead, so no in-memory state
survives — and reopens the directory, asserting what replay recovers:

* every *acknowledged* operation (put/delete that returned) is durable
  with exact bytes, stamp and size metadata;
* the in-flight operation resolves to a complete version — metadata
  and payload always agree (write-once pack files);
* torn journal tails are truncated so post-crash appends survive the
  *next* replay;
* a crash mid-compaction never loses state.

Run with ``PYTHONHASHSEED`` pinned in CI so dict/hash iteration order
cannot mask ordering bugs.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    AsyncWriteError,
    CrashInjected,
    DedupBackend,
    KVStoreError,
    ShardedDiskKVStore,
    open_tiered_root,
)
from repro.ckpt import dedup as dedup_module


def open_store(root, **kwargs):
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

    @pytest.mark.parametrize("point", ["payload:mid-write", "payload:durable"])
    def test_new_key_crash_leaves_acked_prefix(self, tmp_path, point):
        store = open_store(tmp_path)
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0), stamp=2)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("c", entry(3.0), stamp=3)
        reopened = open_store(tmp_path)
        # the unacknowledged key is invisible; acked ops are intact
        assert_consistent(
            reopened, {"a": (np.full(4, 1.0), 1), "b": (np.full(4, 2.0), 2)}
        )

    @pytest.mark.parametrize("point", ["payload:mid-write", "payload:durable"])
    def test_sharded_overwrite_crash_serves_old_version_exactly(
        self, tmp_path, point
    ):
        """Write-once pack files: a torn overwrite can never pair new
        bytes with old metadata — the journal still references the old
        pack, which the overwrite did not touch."""
        store = open_store(tmp_path)
        store.put("k", entry(1.0, size=4), stamp=1)
        crash_at(store, point)
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0, size=8), stamp=2)
        reopened = open_store(tmp_path)
        assert reopened.stamp_of("k") == 1
        payload = reopened.get("k")["x"]
        assert np.array_equal(payload, np.full(4, 1.0))
        assert reopened.nbytes_of("k") == len(
            __import__("repro.ckpt.serializer", fromlist=["serialize_entry"])
            .serialize_entry(entry(1.0, size=4))
        )

    def test_crash_leaves_no_unreadable_key(self, tmp_path):
        """After any mid-put crash, every indexed key must be readable —
        no dangling index entries pointing at missing payloads."""
        for nth, point in enumerate(
            ["payload:mid-write", "payload:durable"], start=1
        ):
            root = tmp_path / f"case{nth}"
            store = open_store(root)
            store.put("stable", entry(5.0), stamp=1)
            crash_at(store, point)
            with pytest.raises(CrashInjected):
                store.put("stable", entry(6.0), stamp=2)
            reopened = open_store(root)
            for key in reopened.keys():
                reopened.get(key)  # must not raise


class TestMidIndexAppend:
    def test_torn_journal_line_truncated_and_prefix_recovered(self, tmp_path):
        """Die halfway through the journal append: the torn line is
        truncated on replay and the store recovers the acked prefix."""
        store = open_store(tmp_path)
        store.put("a", entry(1.0), stamp=1)
        crash_at(store, "journal:mid-append")
        with pytest.raises(CrashInjected):
            store.put("b", entry(2.0), stamp=2)
        size_with_torn_tail = os.path.getsize(store._journal.path)
        reopened = open_store(tmp_path)
        assert_consistent(reopened, {"a": (np.full(4, 1.0), 1)})
        # the torn fragment was truncated away on replay
        assert os.path.getsize(reopened._journal.path) < size_with_torn_tail

    def test_post_crash_writes_survive_next_replay(self, tmp_path):
        store = open_store(tmp_path)
        store.put("a", entry(1.0), stamp=1)
        crash_at(store, "journal:mid-append")
        with pytest.raises(CrashInjected):
            store.put("torn", entry(2.0), stamp=2)
        recovered = open_store(tmp_path)
        recovered.put("after", entry(3.0), stamp=3)
        final = open_store(tmp_path)
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
        store = open_store(tmp_path)
        store.put("old", entry(1.0), stamp=1)
        # The batch writes two packs (the overwrite of "old", the new
        # keys); die after the second, before the journal append.
        crash_at(store, "payload:durable", nth=2)
        batch = [("old", entry(7.0), 2, 0)] + [
            (f"k{i}", entry(float(i)), 2, 0) for i in range(4)
        ]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        reopened = open_store(tmp_path)
        # nothing from the dead batch is visible; the overwritten key
        # still serves its acknowledged version exactly
        assert_consistent(reopened, {"old": (np.full(4, 1.0), 1)})

    def test_torn_batch_append_recovers_record_prefix(self, tmp_path):
        """A put_many whose single batched journal append tears midway:
        replay recovers a clean *prefix* of the batch's records (payloads
        for the rest exist but are invisible orphans)."""
        store = open_store(tmp_path)
        store.put("base", entry(0.0), stamp=0)
        crash_at(store, "journal:mid-append")
        batch = [(f"k{i}", entry(float(i)), 1, 0) for i in range(6)]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        reopened = open_store(tmp_path)
        keys = reopened.keys()
        assert "base" in keys
        recovered_batch = [key for key in keys if key.startswith("k")]
        # whatever survived is a contiguous prefix of the batch order
        assert recovered_batch == [f"k{i}" for i in range(len(recovered_batch))]
        for key in keys:
            reopened.get(key)

    #: Every journal owner: how to open it, its journal file under the
    #: root, and the keys a reopen serves once the newline of the final
    #: record (the put of "b") is torn off.  Tearing an index or
    #: manifest record un-commits "b"; tearing its incref or upload
    #: claim leaves "b" committed locally.
    JOURNAL_OWNERS = {
        "index": (ShardedDiskKVStore, "index.jsonl", ["a"]),
        "refs": (DedupBackend, os.path.join("chunks", "refs.jsonl"), ["a", "b"]),
        "manifests": (DedupBackend, "manifests.jsonl", ["a"]),
        "tier": (
            lambda root: open_tiered_root(root, upload_workers=0),
            "tier.jsonl",
            ["a", "b"],
        ),
    }

    @pytest.mark.parametrize("owner", sorted(JOURNAL_OWNERS))
    def test_newline_less_tail_is_torn_even_if_parseable(self, tmp_path, owner):
        """Regression: a tail that parses as JSON but lacks its trailing
        newline is still a torn write (the append's ack covers the
        newline).  Accepting it would let the next append concatenate
        onto it and a later replay drop acknowledged records."""
        opener, name, keys_after_tear = self.JOURNAL_OWNERS[owner]
        journal = str(tmp_path / name)
        store = opener(str(tmp_path))
        store.put("a", entry(1.0), stamp=1)
        store.put("b", entry(2.0), stamp=2)
        store.close()
        # crash tears off exactly the final newline: the last record's
        # text is intact but unterminated
        os.truncate(journal, os.path.getsize(journal) - 1)
        recovered = opener(str(tmp_path))
        assert recovered.keys() == keys_after_tear  # unterminated record is torn
        recovered.put("c", entry(3.0), stamp=3)
        recovered.close()
        with open(journal, "rb") as handle:
            lines = handle.read().split(b"\n")
        # the post-crash append landed on a clean line boundary
        assert lines[-1] == b""
        for line in lines[:-1]:
            json.loads(line)
        final = opener(str(tmp_path))
        # the acked post-crash write survives the NEXT replay too
        expected = {"a": (np.full(4, 1.0), 1), "c": (np.full(4, 3.0), 3)}
        if "b" in keys_after_tear:
            expected["b"] = (np.full(4, 2.0), 2)
        assert_consistent(final, expected)
        final.close()

    def test_same_stamp_overwrite_crash_preserves_acked_version(self, tmp_path):
        """Regression: re-putting a key at the SAME stamp must not
        replace the referenced payload in place — the new bytes go to a
        fresh pack, so a crash before the journal append leaves the
        acknowledged version intact."""
        store = open_store(tmp_path)
        store.put("k", entry(1.0, size=4), stamp=5)
        crash_at(store, "payload:durable")
        with pytest.raises(CrashInjected):
            store.put("k", entry(9.0, size=8), stamp=5)
        reopened = open_store(tmp_path)
        assert reopened.stamp_of("k") == 5
        value = reopened.get("k")["x"]
        assert np.array_equal(value, np.full(4, 1.0))  # acked bytes
        assert reopened.nbytes_of("k") == len(
            __import__("repro.ckpt.serializer", fromlist=["serialize_entry"])
            .serialize_entry(entry(1.0, size=4))
        )


def pack_files(root) -> set:
    return set(os.listdir(os.path.join(str(root), "packs")))


def referenced_packs(store) -> set:
    return {f"{store._meta(key).pack}.pack" for key in store.keys()}


class TestPackLayout:
    """Pack files die whole, leak only on a crash, and gc reclaims."""

    def test_same_stamp_overwrite_completes_and_reclaims_old_pack(self, tmp_path):
        store = open_store(tmp_path)
        store.put("k", entry(1.0), stamp=5)
        store.put("k", entry(2.0), stamp=5)
        store.put("k", entry(3.0), stamp=5)
        reopened = open_store(tmp_path)
        assert np.array_equal(reopened.get("k")["x"], np.full(4, 3.0))
        # each superseded pack was unlinked once its successor's record
        # was durable
        assert pack_files(tmp_path) == referenced_packs(reopened)
        assert len(pack_files(tmp_path)) == 1

    def test_pack_is_unlinked_once_its_last_entry_is_superseded(self, tmp_path):
        store = open_store(tmp_path)
        store.put_many([(key, entry(1.0), 1, 0) for key in "abc"])
        (batch_pack,) = pack_files(tmp_path)
        store.put("a", entry(2.0), stamp=2)
        store.delete("b")
        assert batch_pack in pack_files(tmp_path)  # "c" still lives there
        # the last supersession dies after its append: the emptied pack
        # leaks, and only gc reclaims it
        crash_at(store, "journal:appended")
        with pytest.raises(CrashInjected):
            store.put("c", entry(2.0), stamp=2)
        reopened = open_store(tmp_path)
        assert_consistent(
            reopened, {"a": (np.full(4, 2.0), 2), "c": (np.full(4, 2.0), 2)}
        )
        assert batch_pack in pack_files(tmp_path)
        assert batch_pack not in referenced_packs(reopened)
        reopened.gc()
        assert pack_files(tmp_path) == referenced_packs(reopened)
        # without a crash the emptied packs go at once; "a" and "c" are
        # regrouped by the pack each came from
        before = pack_files(tmp_path)
        reopened.put_many([(key, entry(3.0), 3, 0) for key in "ac"])
        assert pack_files(tmp_path) == referenced_packs(reopened)
        assert not pack_files(tmp_path) & before
        assert len(pack_files(tmp_path)) == 2

    def test_pack_numbers_skip_every_pack_a_record_names(self, tmp_path):
        """Regression: numbering past the highest pack *file* alone
        would reuse the number of an unlinked pack whose records are
        still in the journal, and replay would fold two packs into one."""
        store = open_store(tmp_path)
        store.put("k", entry(1.0), stamp=1)
        store.put("k", entry(2.0), stamp=2)
        store.delete("k")
        assert pack_files(tmp_path) == set()
        reopened = open_store(tmp_path)
        reopened.put("x", entry(3.0), stamp=3)
        assert reopened._meta("x").pack == 2
        assert_consistent(open_store(tmp_path), {"x": (np.full(4, 3.0), 3)})

    @pytest.mark.parametrize("point", ["payload:durable", "journal:mid-append",
                                       "journal:appended"])
    def test_crash_around_compaction_append_leaks_only(self, tmp_path, point):
        """Compaction copies live entries into a new pack, appends their
        records, then unlinks the sources.  Dying before the append
        leaks the new pack; dying after it leaks the sources."""
        store = open_store(tmp_path, compact_garbage_ratio=1.5)
        store.put_many([(f"k{i}", entry(float(i)), 0, 0) for i in range(8)])
        expected = {f"k{i}": (np.full(4, float(i)), 0) for i in range(8)}
        for i in range(4):
            store.put(f"k{i}", entry(10.0 + i), stamp=1)
            expected[f"k{i}"] = (np.full(4, 10.0 + i), 1)
        # 12 entries' worth of packs for 8 live: one more overwrite
        # crosses 1.5x and compacts the first pack's 3 live entries.
        crash_at(store, point, nth=2)
        with pytest.raises(CrashInjected):
            store.put("k4", entry(14.0), stamp=1)
        expected["k4"] = (np.full(4, 14.0), 1)  # its own append completed
        reopened = open_store(tmp_path, compact_garbage_ratio=1.5)
        assert_consistent(reopened, expected)
        # A torn append may commit a prefix of the moved entries, which
        # leaves both packs referenced and nothing leaked.
        leaked = pack_files(tmp_path) - referenced_packs(reopened)
        assert len(leaked) == (point != "journal:mid-append")
        assert reopened.gc() > 0
        assert pack_files(tmp_path) == referenced_packs(reopened)
        assert_consistent(open_store(tmp_path), expected)

    def test_gc_removes_orphans_and_leaves_one_pack_per_live_group(self, tmp_path):
        store = open_store(tmp_path)
        store.put_many([(f"a{i}", entry(1.0), 1, 0) for i in range(4)])
        store.put_many([(f"b{i}", entry(2.0), 1, 0) for i in range(4)])
        store.put("a0", entry(3.0), stamp=2)  # group a now holds dead bytes
        crash_at(store, "payload:mid-write")
        with pytest.raises(CrashInjected):
            store.put_many([(f"c{i}", entry(4.0), 3, 0) for i in range(4)])
        reopened = open_store(tmp_path)
        expected = {f"a{i}": (np.full(4, 1.0), 1) for i in range(1, 4)}
        expected.update({f"b{i}": (np.full(4, 2.0), 1) for i in range(4)})
        expected["a0"] = (np.full(4, 3.0), 2)
        assert_consistent(reopened, expected)
        assert len(pack_files(tmp_path)) == 4  # a, b, a0 and the torn orphan
        assert reopened.gc() > 0
        # a1..a3 moved to a pack of their own; b and a0 untouched
        assert pack_files(tmp_path) == referenced_packs(reopened)
        assert len(pack_files(tmp_path)) == 3
        assert len({reopened._meta(f"a{i}").pack for i in range(1, 4)}) == 1
        assert reopened.gc() == 0
        assert_consistent(open_store(tmp_path), expected)

class TestMidCompaction:
    def make_compacting_store(self, root):
        return open_store(root, compact_min_records=8)

    def test_crash_before_compacted_replace_loses_nothing(self, tmp_path):
        store = self.make_compacting_store(tmp_path)
        crash_at(store, "journal:compact-tmp-written")
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
            path == reopened._journal.path
            for path in glob.glob(str(tmp_path / "*.tmp"))
        )

    def test_store_remains_writable_after_compaction_crash(self, tmp_path):
        store = self.make_compacting_store(tmp_path)
        crash_at(store, "journal:compact-tmp-written")
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
    def test_acked_deletes_are_durable(self, tmp_path):
        store = open_store(tmp_path)
        store.put("keep", entry(1.0), stamp=1)
        store.put("gone", entry(2.0), stamp=1)
        store.delete("gone")
        crash_at(store, "payload:mid-write")
        with pytest.raises(CrashInjected):
            store.put("late", entry(3.0), stamp=2)
        reopened = open_store(tmp_path)
        assert_consistent(reopened, {"keep": (np.full(4, 1.0), 1)})

    def test_sharded_tombstone_crash_leaks_only_orphans(self, tmp_path):
        """Crash right after the tombstone append: the payload file may
        leak, but the index never references it again."""
        store = open_store(tmp_path)
        store.put("gone", entry(2.0), stamp=1)
        crash_at(store, "journal:appended")
        with pytest.raises(CrashInjected):
            store.delete("gone")
        reopened = open_store(tmp_path)
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


class TestCompressedDedupCrash(TestDedupEngineCrash):
    """The full crash battery again, with the chunk codec and codec
    threads enabled: compressed chunk files must honor the same
    ordering/fsck contract as raw ones, and a crash can never leave a
    half-framed chunk readable."""

    def open(self, root, **kwargs):
        kwargs.setdefault("chunk_bytes", 64)
        kwargs.setdefault("codec", "zlib")
        kwargs.setdefault("parallel_workers", 2)
        return DedupBackend(str(root), **kwargs)

    def assert_recovers_clean(self, root, expected: dict) -> DedupBackend:
        reopened = super().assert_recovers_clean(root, expected)
        if expected:
            report = reopened.fsck()
            assert report.encoded_chunks >= 0  # codec store fscks framed files
        return reopened

    def test_fsck_clean_after_full_crash_battery(self, tmp_path):
        """Battery sweep with entries large enough for compression to
        engage: the store must end bit-exact and warning-free."""
        expected = {}
        root = tmp_path / "battery"
        store = self.open(root)
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
            reopened = self.open(root)
            dead = f"dead{round_index}"
            if reopened.has(dead):
                assert np.array_equal(
                    reopened.get(dead)["x"], np.full(256, -1.0)
                )
                reopened.delete(dead)
            store = self.assert_recovers_clean(root, expected)
        assert store.fsck().encoded_chunks > 0  # compression actually engaged

    def test_crash_at_encode_task_dispatch_leaves_committed_keys(self, tmp_path):
        """A codec task killed at ``iosched:dispatch`` inside a
        ``put_many`` encode round: no chunk of the batch was written yet,
        and the reopened store serves every committed key exactly."""
        store = self.open(tmp_path)
        store.put("old", entry(1.0, size=256), stamp=1)
        crash_at(store, "iosched:dispatch")
        batch = [("old", entry(7.0, size=256), 2, 0)] + [
            (f"k{i}", entry(float(10 + i), size=256), 2, 0) for i in range(4)
        ]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        self.assert_recovers_clean(tmp_path, {"old": (np.full(256, 1.0), 1)})

    def test_encode_crash_in_a_later_window_leaks_only_earlier_chunks(
        self, tmp_path, monkeypatch
    ):
        """One entry per window: the first window's chunks are on disk
        when the second window's codec task dies.  The batch commits
        nothing, so those chunks are orphans — warnings, never errors."""
        monkeypatch.setattr(dedup_module, "WINDOW_BYTES", 3000)
        store = self.open(tmp_path)
        store.put("old", entry(1.0, size=256), stamp=1)
        crash_at(store, "iosched:dispatch", nth=2)
        # each ~2 KiB entry is a window of its own
        batch = [(f"k{i}", entry(float(10 + i), size=256), 2, 0) for i in range(3)]
        with pytest.raises(CrashInjected):
            store.put_many(batch)
        reopened = self.open(tmp_path)
        assert reopened.keys() == ["old"]
        report = reopened.fsck()
        assert report.ok, report.errors
        assert report.orphan_chunks  # the first window's chunk files
        self.assert_recovers_clean(tmp_path, {"old": (np.full(256, 1.0), 1)})

    def test_async_encode_dispatch_crash_keeps_meta_unreachable(self, tmp_path):
        """Through the async pipeline: the persist task dispatches first
        (hit 1), its encode task dies (hit 2).  The batch surfaces as
        AsyncWriteError, and the meta entry staged after it never lands."""
        inner = self.open(tmp_path)
        inner.put("old", entry(1.0, size=256), stamp=1)
        crash_at(inner, "iosched:dispatch", nth=2)
        store = AsyncWriteBackend(inner)
        with pytest.raises(AsyncWriteError):
            store.put_many(
                [(f"k{i}", entry(float(i), size=256), 2, 0) for i in range(4)]
            )
            store.put("meta:iteration", {"iteration": np.asarray(2)}, stamp=2)
            store.flush()
        store.close()
        reopened = self.assert_recovers_clean(
            tmp_path, {"old": (np.full(256, 1.0), 1)}
        )
        assert not reopened.has("meta:iteration")


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
        "payload:mid-write",
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

