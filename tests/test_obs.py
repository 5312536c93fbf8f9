"""The unified observability layer: registry, tracer, trace tooling.

Unit coverage for :mod:`repro.obs` (labeled instruments, snapshot/delta
semantics, Prometheus exposition, span recording and Chrome trace-event
export, the trace validator/summarizer), plus the integration seams the
layer exists for: tiered upload counters staying exact under concurrent
uploads, the one-source-of-truth attach between ``PipelineMeters`` and
``TieredBackend``, flush-barrier metrics under the async pipeline, the
per-lane ``RestoreProfile``, and cross-process worker-span merging.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.ckpt import (
    AsyncWriteBackend,
    DedupBackend,
    ParallelRestorer,
    PipelineMeters,
    ReadRequest,
    RestoreProfile,
    ShardedDiskKVStore,
    SimulatedObjectStore,
    TieredBackend,
    make_backend,
    open_tiered_root,
)
from repro.obs import (
    MetricsRegistry,
    Observer,
    Tracer,
    get_registry,
    get_tracer,
    summarize_trace,
    validate_trace,
)
from repro.obs.metrics import MetricError
from repro.obs.stats import percentile
from repro.obs.trace import complete_span_dict


def entry(value: float, size: int = 16) -> dict:
    return {"x": np.full(size, value, dtype=np.float32)}


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("moc_test_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("moc_test_total", "help")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_set_max_and_incdec(self):
        gauge = MetricsRegistry().gauge("moc_depth", "help")
        gauge.set(3)
        gauge.set_max(1)
        assert gauge.value == 3
        gauge.set_max(9)
        assert gauge.value == 9
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 10

    def test_histogram_buckets_cumulative(self):
        hist = MetricsRegistry().histogram(
            "moc_lat_seconds", "help", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        counts = hist.bucket_counts()
        assert counts[0.1] == 1
        assert counts[1.0] == 2
        assert counts[float("inf")] == 3
        assert hist.sum == pytest.approx(5.55)

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("moc_a_total", "h") is registry.counter(
            "moc_a_total", "h"
        )

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("moc_a_total", "h")
        with pytest.raises(MetricError):
            registry.gauge("moc_a_total", "h")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("1bad", "h")
        with pytest.raises(MetricError):
            registry.counter("bad name", "h")

    def test_labels_create_distinct_children(self):
        registry = MetricsRegistry()
        family = registry.counter("moc_ops_total", "h", labelnames=("kind",))
        family.labels(kind="read").inc(2)
        family.labels(kind="write").inc(3)
        snap = registry.snapshot()
        assert snap['moc_ops_total{kind="read"}'] == 2
        assert snap['moc_ops_total{kind="write"}'] == 3

    def test_delta_subtracts_counters_passes_gauges(self):
        registry = MetricsRegistry()
        counter = registry.counter("moc_n_total", "h")
        gauge = registry.gauge("moc_depth", "h")
        counter.inc(5)
        gauge.set(7)
        before = registry.snapshot()
        counter.inc(3)
        gauge.set(2)
        delta = registry.delta(before)
        assert delta["moc_n_total"] == 3
        assert delta["moc_depth"] == 2  # gauges report current value

    def test_delta_handles_new_series(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("moc_late_total", "h").inc(4)
        assert registry.delta(before)["moc_late_total"] == 4

    def test_render_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("moc_n_total", "bytes moved").inc(2)
        registry.counter("moc_ops_total", "ops", labelnames=("kind",)).labels(
            kind='we"ird'
        ).inc()
        hist = registry.histogram("moc_lat_seconds", "latency", buckets=(1.0,))
        hist.observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP moc_n_total bytes moved" in text
        assert "# TYPE moc_n_total counter" in text
        assert "moc_n_total 2" in text
        assert 'moc_ops_total{kind="we\\"ird"} 1' in text
        assert 'moc_lat_seconds_bucket{le="1"} 1' in text
        assert 'moc_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "moc_lat_seconds_count 1" in text
        assert "moc_lat_seconds_sum 0.5" in text

    def test_concurrent_increments_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("moc_race_total", "h")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc(1) for _ in range(2000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 16000


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")
        with tracer.span("a", key="x"):
            pass
        assert tracer.export()["traceEvents"] == []

    def test_nested_spans_export_balanced(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer", key="k"):
            with tracer.span("inner"):
                pass
        trace = tracer.export()
        assert validate_trace(trace) == []
        names = [(e["name"], e["ph"]) for e in trace["traceEvents"]]
        assert names == [
            ("outer", "B"), ("inner", "B"), ("inner", "E"), ("outer", "E")
        ]
        assert trace["traceEvents"][0]["args"] == {"key": "k"}

    def test_open_span_closed_with_truncated_marker(self):
        tracer = Tracer()
        tracer.enable()
        live = tracer.span("dangling")
        live.__enter__()
        trace = tracer.export()
        assert validate_trace(trace) == []
        end = trace["traceEvents"][-1]
        assert end["ph"] == "E" and end["args"] == {"truncated": True}
        live.__exit__(None, None, None)

    def test_counter_and_instant_events(self):
        tracer = Tracer()
        tracer.enable()
        tracer.counter("depth", 3)
        tracer.instant("fault", node=1)
        trace = tracer.export()
        assert validate_trace(trace) == []
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"C", "i"}

    def test_merged_worker_spans_keep_worker_pid(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("parent"):
            pass
        # A span "shipped back" from a worker process that then died:
        # distinct pid/tid, already completed.
        tracer.merge_spans([
            {"name": "worker-digest", "ts": 10, "dur": 5,
             "pid": 99999, "tid": 1, "args": {"task_id": 0}},
        ])
        trace = tracer.export()
        assert validate_trace(trace) == []
        worker_events = [
            e for e in trace["traceEvents"] if e["pid"] == 99999
        ]
        assert [e["ph"] for e in worker_events] == ["B", "E"]
        assert worker_events[0]["cat"] == "moc-worker"
        assert worker_events[1]["ts"] == 15

    def test_export_sorted_and_reset_clears(self):
        tracer = Tracer()
        tracer.enable()
        tracer.merge_spans([
            {"name": "late", "ts": 2_000_000_000_000_000, "dur": 1,
             "pid": 1, "tid": 1},
        ])
        with tracer.span("now"):
            pass
        events = tracer.export()["traceEvents"]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        tracer.reset()
        assert tracer.export()["traceEvents"] == []

    def test_complete_span_dict_clamps_duration(self):
        span = complete_span_dict("s", 100, 40)
        assert span["dur"] == 0 and span["ts"] == 100


# ----------------------------------------------------------------------
# Trace validation / summarization
# ----------------------------------------------------------------------
class TestTraceStats:
    def _trace(self, events):
        return {"traceEvents": events}

    def test_validator_accepts_balanced(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 1},
        ]
        assert validate_trace(self._trace(events)) == []

    def test_validator_rejects_missing_tracelist(self):
        assert validate_trace({}) == ["traceEvents missing or not a list"]

    def test_validator_flags_unbalanced_and_mismatched(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
            {"name": "c", "ph": "B", "ts": 2, "pid": 1, "tid": 1},
        ]
        errors = validate_trace(self._trace(events))
        assert any("innermost open span" in e for e in errors)
        assert any("unclosed span 'c'" in e for e in errors)

    def test_validator_flags_backwards_ts_and_bad_counter(self):
        events = [
            {"name": "a", "ph": "B", "ts": 10, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 1},
            {"name": "d", "ph": "C", "ts": 20, "pid": 1, "tid": 1,
             "args": {"v": "not-a-number"}},
        ]
        errors = validate_trace(self._trace(events))
        assert any("goes backwards" in e for e in errors)
        assert any("numeric args" in e for e in errors)

    def test_validator_flags_bad_fields(self):
        events = [
            {"name": "", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "Z", "ts": 0, "pid": 1, "tid": 1},
            {"name": "a", "ph": "B", "ts": -3, "pid": 1, "tid": 1},
            {"name": "a", "ph": "B", "ts": 0, "pid": "x", "tid": 1},
        ]
        assert len(validate_trace(self._trace(events))) == 4

    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 90) == 40.0
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_summarize_spans_and_counters(self):
        events = [
            {"name": "save", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "save", "ph": "E", "ts": 2000, "pid": 1, "tid": 1},
            {"name": "save", "ph": "B", "ts": 3000, "pid": 1, "tid": 1},
            {"name": "save", "ph": "E", "ts": 7000, "pid": 1, "tid": 1},
            {"name": "depth", "ph": "C", "ts": 100, "pid": 1, "tid": 1,
             "args": {"depth": 3}},
            {"name": "depth", "ph": "C", "ts": 200, "pid": 1, "tid": 1,
             "args": {"depth": 1}},
        ]
        summary = summarize_trace(self._trace(events))
        save = summary["spans"]["save"]
        assert save["count"] == 2
        assert save["total_ms"] == pytest.approx(6.0)
        assert save["max_ms"] == pytest.approx(4.0)
        depth = summary["counters"]["depth"]
        assert depth["samples"] == 2
        assert depth["last"] == 1.0
        assert depth["high_water"] == 3.0
        assert summary["wall_ms"] == pytest.approx(7.0)


# ----------------------------------------------------------------------
# Integration: tiered counters, meters attach, async flush, restore lanes
# ----------------------------------------------------------------------
class TestStorageIntegration:
    def test_concurrent_uploads_count_exactly(self, tmp_path):
        """Upload counters stay exact when many threads write at once
        (the former bare-int ``upload_retries``/``bytes_uploaded`` race)."""
        store = open_tiered_root(str(tmp_path / "tier"), upload_workers=4)
        payloads = {f"k{i}": entry(float(i), size=32 + i) for i in range(48)}

        def put_range(keys):
            for key in keys:
                store.put(key, payloads[key], stamp=1)

        keys = sorted(payloads)
        threads = [
            threading.Thread(target=put_range, args=(keys[i::6],))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.flush()
        stats = store.tier_stats()
        assert stats["uploads_completed"] == len(payloads)
        assert stats["pending_uploads"] == 0
        expected_bytes = sum(
            store.local.nbytes_of(key) for key in keys
        )
        assert stats["bytes_uploaded"] == expected_bytes
        store.close()

    def test_meters_attach_single_source_of_truth(self, tmp_path):
        """After a meters attach, tier_stats() and the meters read the
        SAME counters — upload totals cannot drift or double-count."""
        store = open_tiered_root(str(tmp_path / "tier"))
        store.put("a", entry(1.0), stamp=1)  # pre-attach traffic
        store.flush()
        pre_bytes = store.tier_stats()["bytes_uploaded"]
        assert pre_bytes > 0
        meters = PipelineMeters()
        store.meters = meters
        # carried over, not lost, not doubled
        assert meters.snapshot()["bytes_uploaded"] == pre_bytes
        store.put("b", entry(2.0), stamp=1)
        store.flush()
        stats = store.tier_stats()
        assert meters.snapshot()["bytes_uploaded"] == stats["bytes_uploaded"]
        assert meters.snapshot()["upload_retries"] == stats["upload_retries"]
        # registry snapshot sees the same totals (readable "from the
        # registry alone")
        snap = meters.registry.snapshot()
        assert snap["moc_tier_bytes_uploaded_total"] == stats["bytes_uploaded"]
        store.close()

    def test_meters_attach_on_shared_registry_is_identity(self, tmp_path):
        registry = MetricsRegistry()
        store = open_tiered_root(str(tmp_path / "tier"), registry=registry)
        store.put("a", entry(1.0), stamp=1)
        store.flush()
        uploaded = store.tier_stats()["bytes_uploaded"]
        meters = PipelineMeters(registry=registry)
        store.meters = meters  # same counter objects: no value transfer
        assert meters.snapshot()["bytes_uploaded"] == uploaded
        assert store.tier_stats()["bytes_uploaded"] == uploaded
        store.close()

    def test_remote_fault_counter_on_registry(self, tmp_path):
        registry = MetricsRegistry()
        remote = SimulatedObjectStore(
            ShardedDiskKVStore(str(tmp_path / "remote")),
            fault_rate=0.99,
            registry=registry,
        )
        from repro.ckpt import RemoteUnavailable

        faulted = False
        for attempt in range(64):
            try:
                remote.put(f"k{attempt}", entry(1.0), stamp=1)
            except RemoteUnavailable:
                faulted = True
                break
        assert faulted
        assert remote.faults_injected >= 1
        assert registry.snapshot()["moc_remote_faults_total"] == remote.faults_injected
        assert registry.snapshot()["moc_remote_ops_total"] == remote.ops

    def test_async_flush_barrier_metrics_delta(self, tmp_path):
        """Flush barriers that wait on queued writes are counted; the
        snapshot/delta pair isolates this store's contribution from the
        process-wide registry."""
        registry = get_registry()
        inner = ShardedDiskKVStore(str(tmp_path / "sharded"))
        before = registry.snapshot()
        with AsyncWriteBackend(inner) as store:
            for i in range(12):
                store.put(f"k{i}", entry(float(i), size=4096), stamp=1)
            store.flush()
        delta = registry.delta(before)
        # At least the put burst was visible at some point; flush stalls
        # only count when the barrier actually waited, so >= 0.
        assert delta["moc_async_flush_stalls_total"] >= 0
        assert registry.snapshot()["moc_async_queue_depth"] == 0
        assert before.get("moc_async_queue_depth_highwater", 0) >= 0

    def test_flush_propagates_to_inner_tiered_store(self, tmp_path):
        """An async-wrapped tiered store drains uploads at a barrier —
        flush is a *durability* barrier, not just a queue join."""
        tier = open_tiered_root(str(tmp_path / "tier"), upload_workers=2)
        with AsyncWriteBackend(tier) as store:
            for i in range(6):
                store.put(f"k{i}", entry(float(i)), stamp=1)
            store.flush()
            assert tier.pending_uploads() == []

    def test_restore_profile_lanes_account_all_entries(self, tmp_path):
        store = DedupBackend(str(tmp_path / "dedup"))
        keys = [f"k{i}" for i in range(10)]
        for key in keys:
            store.put(key, entry(1.0, size=64), stamp=1)
        requests = [ReadRequest(key=key, store=store) for key in keys]
        _, stats = ParallelRestorer(workers=3).fetch(requests)
        profile = stats.profile
        assert isinstance(profile, RestoreProfile)
        assert 1 <= len(profile.lanes) <= 3
        assert sum(lane.entries for lane in profile.lanes) == len(keys)
        assert sum(lane.payload_bytes for lane in profile.lanes) == stats.payload_bytes
        for lane in profile.lanes:
            assert lane.busy_seconds >= 0
            assert lane.stall_seconds >= 0
            assert lane.wall_seconds >= lane.busy_seconds - 1e-9

    def test_restore_profile_serial_single_lane(self, tmp_path):
        store = DedupBackend(str(tmp_path / "dedup"))
        store.put("k", entry(1.0), stamp=1)
        _, stats = ParallelRestorer(workers=1).fetch(
            [ReadRequest(key="k", store=store)]
        )
        assert len(stats.profile.lanes) == 1
        assert stats.profile.lanes[0].entries == 1


# ----------------------------------------------------------------------
# End-to-end: traced save/recover covers the hot seams
# ----------------------------------------------------------------------
class TestTracedPipeline:
    def test_traced_tiered_run_covers_hot_seams(self, tmp_path, tiny_model,
                                                tiny_optimizer):
        from repro.core import MoCConfig, MoCCheckpointManager, PECConfig, TwoLevelConfig

        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        try:
            observer = Observer(tracer=tracer)
            config = MoCConfig(
                pec=PECConfig(k_snapshot=2, k_persist=1),
                two_level=TwoLevelConfig(checkpoint_interval=2),
            )
            with MoCCheckpointManager(
                tiny_model, tiny_optimizer, config,
                disk_store=make_backend(
                    "tiered", str(tmp_path / "tier"), registry=observer.registry
                ),
                async_writes=True, observer=observer,
            ) as manager:
                manager.save_initial(0)
                manager.checkpoint(2)
                manager.flush()
                manager.recover(failed_nodes=[0])
            trace = tracer.export(str(tmp_path / "trace.json"))
        finally:
            tracer.disable()
            tracer.reset()
        assert validate_trace(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        for expected in ("save", "save-initial", "persist-save",
                         "snapshot-save", "journal-append", "upload",
                         "upload-attempt", "manager-flush", "recover",
                         "restore-fetch", "restore-read", "tier-retention"):
            assert expected in names, f"missing span {expected!r}"
        # the exported file round-trips through the validator too
        with open(tmp_path / "trace.json", "r", encoding="utf-8") as handle:
            assert validate_trace(json.load(handle)) == []
        # metrics: pinned invariants readable from the registry alone
        snap = observer.registry.snapshot()
        assert snap["moc_pipeline_bytes_hashed_total"] == \
            snap["moc_pipeline_bytes_serialized_total"]
        tier_stats_bytes = snap["moc_tier_bytes_uploaded_total"]
        assert tier_stats_bytes == manager.pipeline_meters.snapshot()["bytes_uploaded"]
        # save/recover latency histograms observed
        kinds = observer.registry.kinds()
        assert kinds["moc_save_seconds_count"] == "histogram"
        assert snap["moc_save_seconds_count"] >= 2
        assert snap["moc_recover_seconds_count"] == 1
