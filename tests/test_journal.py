"""Unit tests for :class:`repro.ckpt.journal.Journal`.

The journal is the one JSONL implementation behind the sharded index,
the dedup refs and manifests and the tiered claim journal; the owners'
suites cover what each folds out of it.  These tests pin the journal's
own contract: replay order and torn-tail truncation, the three crash
seams, atomic rewrite, the labeled counters, and the lock that keeps
concurrent appends and rewrites from interleaving bytes.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.ckpt import CrashInjected
from repro.ckpt.journal import Journal
from repro.obs.metrics import get_registry


def put(key: str, stamp: int = 0) -> dict:
    return {"op": "put", "key": key, "stamp": stamp, "nbytes": 4}


def open_journal(tmp_path, name: str = "unit", fault=None) -> Journal:
    return Journal(str(tmp_path / "j.jsonl"), name, fault or (lambda point: None))


def counter(metric: str, name: str):
    return get_registry().counter(metric, labelnames=("journal",)).labels(journal=name)


class TestReplay:
    def test_missing_file_replays_empty_without_creating_it(self, tmp_path):
        journal = open_journal(tmp_path)
        assert journal.replay() == []
        assert journal.records == 0
        assert not os.path.exists(journal.path)

    def test_appends_replay_in_order_across_instances(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append([put("a", 1), put("b", 2)])
        journal.append([{"op": "del", "key": "a"}])
        assert journal.records == 3
        assert journal.appends == 3
        reopened = open_journal(tmp_path)
        assert reopened.replay() == [put("a", 1), put("b", 2), {"op": "del", "key": "a"}]
        assert reopened.records == 3
        assert reopened.appends == 0  # appended by *this* instance

    @pytest.mark.parametrize(
        "tail",
        [b'{"op": "put", "key": "c", "st', b'{"op": "del", "key": "c"}', b"\xff\xfe\n"],
        ids=["partial-json", "no-newline", "bad-utf8"],
    )
    def test_torn_tail_is_truncated_to_last_complete_record(self, tmp_path, tail):
        journal = open_journal(tmp_path)
        journal.append([put("a"), put("b")])
        intact = os.path.getsize(journal.path)
        with open(journal.path, "ab") as handle:
            handle.write(tail)
        assert open_journal(tmp_path).replay() == [put("a"), put("b")]
        assert os.path.getsize(journal.path) == intact

    def test_append_after_truncation_starts_on_a_line_boundary(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append([put("a")])
        with open(journal.path, "ab") as handle:
            handle.write(b'{"op": "put"')
        recovered = open_journal(tmp_path)
        recovered.replay()
        recovered.append([put("b")])
        assert open_journal(tmp_path).replay() == [put("a"), put("b")]

    def test_replay_stops_at_first_unparseable_line(self, tmp_path):
        # Only the tail can be torn, so anything after a bad line is not
        # trusted: replay keeps the prefix and drops the rest.
        journal = open_journal(tmp_path)
        journal.append([put("a")])
        with open(journal.path, "ab") as handle:
            handle.write(b"not json\n")
        journal.append([put("b")])
        assert open_journal(tmp_path).replay() == [put("a")]


class TestAppend:
    def test_empty_append_is_a_no_op(self, tmp_path):
        points = []
        journal = open_journal(tmp_path, fault=points.append)
        journal.append([])
        assert points == []
        assert journal.appends == 0
        assert not os.path.exists(journal.path)

    def test_append_fires_mid_append_then_appended(self, tmp_path):
        points = []
        journal = open_journal(tmp_path, name="refs", fault=points.append)
        journal.append([put("a"), put("b")])
        assert points == ["refs:mid-append", "refs:appended"]

    def test_crash_mid_append_leaves_a_torn_line_replay_drops(self, tmp_path):
        def fault(point):
            if point == "unit:mid-append":
                raise CrashInjected(point)

        journal = open_journal(tmp_path)
        journal.append([put("a")])
        crashing = open_journal(tmp_path, fault=fault)
        with pytest.raises(CrashInjected):
            crashing.append([put("b")])
        with open(journal.path, "rb") as handle:
            assert not handle.read().endswith(b"\n")
        assert open_journal(tmp_path).replay() == [put("a")]

    def test_batch_is_one_append_in_the_counters(self, tmp_path):
        appends = counter("moc_journal_appends_total", "counted")
        records = counter("moc_journal_records_total", "counted")
        other = counter("moc_journal_appends_total", "unit")
        before = (appends.value, records.value, other.value)
        journal = open_journal(tmp_path, name="counted")
        journal.append([put(f"k{i}") for i in range(5)])
        journal.append([put("k5")])
        assert appends.value == before[0] + 2
        assert records.value == before[1] + 6
        assert other.value == before[2]  # labeled per journal name


class TestRewrite:
    def test_rewrite_replaces_contents_and_counts(self, tmp_path):
        compactions = counter("moc_journal_compactions_total", "unit")
        before = compactions.value
        journal = open_journal(tmp_path)
        journal.append([put("a", 1), put("a", 2), put("b", 1)])
        journal.rewrite([put("a", 2), put("b", 1)])
        assert journal.records == 2
        assert journal.appends == 3  # rewrites are not appends
        assert compactions.value == before + 1
        assert not os.path.exists(journal.path + ".tmp")
        assert open_journal(tmp_path).replay() == [put("a", 2), put("b", 1)]

    def test_crash_before_replace_keeps_the_original(self, tmp_path):
        points = []

        def fault(point):
            points.append(point)
            if point == "unit:compact-tmp-written":
                raise CrashInjected(point)

        journal = open_journal(tmp_path, fault=fault)
        journal.append([put("a", 1), put("a", 2)])
        with pytest.raises(CrashInjected):
            journal.rewrite([put("a", 2)])
        assert points[-1] == "unit:compact-tmp-written"
        assert os.path.exists(journal.path + ".tmp")
        # the stray .tmp is ignored; a later rewrite replaces it
        recovered = open_journal(tmp_path)
        assert recovered.replay() == [put("a", 1), put("a", 2)]
        recovered.rewrite([put("a", 2)])
        assert open_journal(tmp_path).replay() == [put("a", 2)]
        assert not os.path.exists(journal.path + ".tmp")

    def test_rewrite_to_nothing_leaves_an_empty_journal(self, tmp_path):
        journal = open_journal(tmp_path)
        journal.append([put("a")])
        journal.rewrite([])
        assert os.path.getsize(journal.path) == 0
        assert open_journal(tmp_path).replay() == []

    def test_rewrites_never_interleave_with_appends(self, tmp_path):
        # Appenders and a compactor share one journal: the file must stay
        # whole JSON lines throughout — no append lost into a replaced
        # inode mid-write, no line split across a rewrite.
        journal = open_journal(tmp_path)
        barrier = threading.Barrier(3)
        errors = []

        def run(work):
            barrier.wait()
            try:
                work()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def appender(index):
            for i in range(150):
                journal.append([put(f"t{index}/{i}")])

        def compactor():
            for _ in range(40):
                journal.rewrite([put("base")])

        works = [lambda: appender(0), lambda: appender(1), compactor]
        threads = [threading.Thread(target=run, args=(work,)) for work in works]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with open(journal.path, "rb") as handle:
            text = handle.read()
        assert text.endswith(b"\n")
        lines = text.split(b"\n")[:-1]
        for line in lines:
            json.loads(line)
        assert journal.records == len(lines)
        assert len(open_journal(tmp_path).replay()) == len(lines)
