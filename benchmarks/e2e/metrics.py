"""Metric definitions: raw process results in, named numbers out.

``end_to_end`` is what a user of the checkpoint system sees and comes
from the untraced pass; ``per_layer`` attributes it and comes from the
traced pass.  Times are medians over the stated samples.  README.md is
the glossary.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

from . import seams

MIB = float(2**20)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(hot: Mapping, setups: Sequence[float], colds: Sequence[Mapping]) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, sample count)`` for the end-to-end metrics."""
    samples = hot["samples"]
    restores = [cold["restore_s"] for cold in colds]
    return {
        "setup_s": (median(setups), len(setups)),
        "save_stall_ms_p50": (median(samples["stall_s"]) * 1e3, len(samples["stall_s"])),
        "durable_save_ms_p50": (median(samples["durable_s"]) * 1e3, len(samples["durable_s"])),
        "durable_save_mib_s": (
            ratio(sum(samples["durable_bytes"]) / MIB, sum(samples["durable_s"])),
            len(samples["durable_s"]),
        ),
        "warm_recover_ms_p50": (median(samples["warm_s"]) * 1e3, len(samples["warm_s"])),
        "restore_mib_s": (ratio(hot["store_bytes"] / MIB, median(restores)), len(restores)),
        "fault_to_resume_ms_p50": (
            median([cold["resume_s"] for cold in colds]) * 1e3, len(colds)),
        "write_amp": (ratio(hot["io"]["wchar"], hot["totals"]["covered"]),
                      hot["totals"]["checkpoints"]),
        "space_amp": (ratio(hot["disk_bytes"], hot["store_bytes"]), 1),
        "peak_rss_mib": (hot["peak_rss_mib"], 1),
    }


def _field(stats: Mapping[str, Mapping], name: str, field: str) -> float:
    return stats.get(name, {}).get(field, 0.0)


def _class_delta(scheduler: Mapping, qos: str, field: str) -> float:
    before = scheduler["before"].get(qos, {}).get(field, 0.0)
    return scheduler["after"].get(qos, {}).get(field, 0.0) - before


def per_layer(hot: Mapping, colds: Sequence[Mapping], ops_failed_share: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    samples, totals = hot["samples"], hot["totals"]
    setup, save, warm = (hot["phases"].get(phase, {}) for phase in ("setup", "save", "warm"))
    restores = [cold["phases"].get("restore", {}) for cold in colds]
    checkpoints = totals["checkpoints"]
    meters = hot["meters"]
    tier = hot.get("tier", {})
    engine = hot.get("engine", {})
    codec = hot.get("codec", {})
    chunks = hot.get("chunks", {})
    has_dedup = "chunks" in hot

    def per_ckpt_ms(*pairs: Tuple[str, str]) -> float:
        return ratio(sum(_field(save, name, field) for name, field in pairs) * 1e3, checkpoints)

    def cold_median(value) -> float:
        return median([value(cold, stats) for cold, stats in zip(colds, restores)])

    def cold_rate(field: str, *names: str) -> float:
        """Median over cold restarts of bytes / self time, in MiB/s."""
        return cold_median(lambda _cold, stats: ratio(
            sum(_field(stats, name, "bytes") for name in names) / MIB,
            sum(_field(stats, name, field) for name in names)))

    digest_s = (_field(save, "ckpt.serializer.chunk_digests", "self")
                + _field(save, "ckpt.serializer.entry_digest", "self")
                + _field(save, "ckpt.parallel.chunk_digests", "wall"))
    sharded_put_s = (_field(save, "ckpt.sharded.put_many_serialized", "self")
                     + _field(save, "ckpt.sharded.put_serialized", "self"))
    pool_wait_s = (_field(save, "ckpt.parallel.chunk_digests", "wall")
                   + _field(save, "ckpt.parallel.encode_chunks", "wall"))
    restore_waits = sum(_class_delta(cold["scheduler"], "restore", "wait_seconds_sum") for cold in colds)
    restore_tasks = sum(_class_delta(cold["scheduler"], "restore", "wait_count") for cold in colds)
    roots = [entry for stats in (save, *restores) for name, entry in stats.items()
             if name.startswith(seams.ROOT_PREFIX)]
    traced_stall = median(samples["stall_s"])

    return {
        "train.step_idle_ms_p50": median(samples["step_idle_s"]) * 1e3,
        "train.step_ms_p50": median(samples["step_busy_s"]) * 1e3,

        "core.manager.checkpoint_ms_p75": statistics.quantiles(samples["stall_s"], n=4)[2] * 1e3,
        "core.manager.self_ms_per_ckpt": per_ckpt_ms(("core.manager.checkpoint", "self")),
        "core.manager.save_initial_ms": _field(setup, "core.manager.save_initial", "wall") * 1e3,
        "core.manager.flush_ms_p50": median(samples["flush_s"]) * 1e3,
        "core.manager.persist_skipped_share": ratio(totals["skipped"], totals["covered"]),
        "core.manager.apply_ms_per_restore": cold_median(
            lambda _cold, stats: _field(stats, "core.manager.recover", "self") * 1e3),

        "core.recovery.plan_ms_p50": _field(warm, "core.recovery.build_recovery_plan", "dur_p50") * 1e3,
        "core.recovery.snapshot_tier_share": hot["snapshot_tier_share"],

        "ckpt.kvstore.put_many_ms_per_ckpt": per_ckpt_ms(("ckpt.kvstore.put_many", "wall")),
        "ckpt.kvstore.bytes_per_ckpt": ratio(totals["snapshot"], checkpoints),

        "ckpt.serializer.frames_ms_per_ckpt": per_ckpt_ms(("ckpt.serializer.from_entry", "self")),
        "ckpt.serializer.digest_ms_per_ckpt": per_ckpt_ms(
            ("ckpt.serializer.chunk_digests", "self"), ("ckpt.serializer.entry_digest", "self")),
        "ckpt.serializer.digest_mib_s": ratio(meters["bytes_hashed"] / MIB, digest_s),
        "ckpt.serializer.hash_passes": ratio(meters["bytes_hashed"], meters["bytes_serialized"]),
        "ckpt.serializer.deserialize_mib_s": cold_rate("self", "ckpt.serializer.deserialize_entry"),

        "ckpt.async_writer.stage_ms_per_ckpt": per_ckpt_ms(
            ("ckpt.async_writer.put_many_serialized", "wall"),
            ("ckpt.async_writer.put_serialized", "wall")),
        "ckpt.async_writer.acquire_wait_ms_per_ckpt": per_ckpt_ms(("ckpt.async_writer.acquire", "wall")),
        "ckpt.async_writer.flush_wait_ms_p50": _field(save, "ckpt.async_writer.flush", "self_p50") * 1e3,
        "ckpt.async_writer.copy_passes": ratio(meters["bytes_copied"], meters["bytes_serialized"]),

        "io.scheduler.submit_block_ms_per_ckpt": per_ckpt_ms(("io.scheduler.submit", "block_layer_wall")),
        "io.scheduler.save_queue_wait_ms_mean": ratio(
            _class_delta(hot["scheduler"], "save", "wait_seconds_sum") * 1e3,
            _class_delta(hot["scheduler"], "save", "wait_count")),
        "io.scheduler.upload_queue_wait_ms_mean": ratio(
            _class_delta(hot["scheduler"], "upload", "wait_seconds_sum") * 1e3,
            _class_delta(hot["scheduler"], "upload", "wait_count")),
        "io.scheduler.restore_queue_wait_ms_mean": ratio(restore_waits * 1e3, restore_tasks),
        "io.scheduler.tasks_per_ckpt": ratio(
            sum(_class_delta(hot["scheduler"], qos, "submitted") for qos in hot["scheduler"]["after"]),
            checkpoints),
        "io.scheduler.aged_tasks": sum(
            _class_delta(process["scheduler"], qos, "aged")
            for process in (hot, *colds) for qos in process["scheduler"]["after"]),

        "ckpt.sharded.put_ms_per_ckpt": ratio(sharded_put_s * 1e3, checkpoints),
        "ckpt.sharded.put_mib_s": ratio(
            _field(save, "ckpt.sharded.put_serialized", "bytes") / MIB, sharded_put_s),
        "ckpt.sharded.open_ms_p50": cold_median(
            lambda _cold, stats: _field(stats, "ckpt.sharded.ShardedDiskKVStore", "wall") * 1e3),
        "ckpt.sharded.get_mib_s": cold_rate("self", "ckpt.sharded.get"),
        "ckpt.sharded.journal_records": hot.get("journal_records", 0),

        "ckpt.dedup.put_ms_per_ckpt": per_ckpt_ms(
            ("ckpt.dedup.put_many_serialized", "self"), ("ckpt.dedup.put_serialized", "self")),
        "ckpt.dedup.write_chunk_ms_per_ckpt": per_ckpt_ms(("ckpt.dedup.write_chunk", "self")),
        "ckpt.dedup.chunk_hit_share": ratio(
            chunks.get("hits", 0), chunks.get("hits", 0) + chunks.get("written", 0)),
        "ckpt.dedup.refs_ms_per_ckpt": per_ckpt_ms(("ckpt.dedup.apply_refs", "self")),
        "ckpt.dedup.open_ms_p50": cold_median(
            lambda _cold, stats: _field(stats, "ckpt.dedup.DedupBackend", "wall") * 1e3),
        "ckpt.dedup.read_chunk_mib_s": cold_rate(
            "self", "ckpt.dedup.read_chunk", "ckpt.dedup.read_chunk_stored"),
        "ckpt.dedup.gc_ms": hot.get("gc_s", 0.0) * 1e3 if has_dedup else 0.0,
        "ckpt.dedup.fsck_ms": hot.get("fsck_s", 0.0) * 1e3 if has_dedup else 0.0,
        "ckpt.dedup.space_amp_peak": (
            ratio(hot["disk_bytes_before_gc"], hot["store_bytes"]) if has_dedup else 0.0),

        "ckpt.codec.encode_mib_s": codec.get("codec_encode_mib_s", 0.0),
        "ckpt.codec.decode_mib_s": codec.get("codec_decode_mib_s", 0.0),
        "ckpt.codec.ratio": codec.get("codec_ratio", 0.0),

        "ckpt.parallel.digest_wait_ms_per_ckpt": per_ckpt_ms(("ckpt.parallel.chunk_digests", "wall")),
        "ckpt.parallel.encode_wait_ms_per_ckpt": per_ckpt_ms(("ckpt.parallel.encode_chunks", "wall")),
        "ckpt.parallel.decode_wait_ms_per_restore": cold_median(
            lambda _cold, stats: _field(stats, "ckpt.parallel.decode_chunks", "wall") * 1e3),
        "ckpt.parallel.worker_busy_share": ratio(
            engine.get("worker_cpu_seconds", 0.0), engine.get("workers", 0) * pool_wait_s),
        "ckpt.parallel.downgrades": 0 if engine.get("enabled", True) else 1,

        "ckpt.tiered.accept_ms_per_ckpt": per_ckpt_ms(
            ("ckpt.tiered.put_many_serialized", "wall"), ("ckpt.tiered.put_serialized", "wall")),
        "ckpt.tiered.drain_ms_p50": _field(save, "ckpt.tiered.drain_uploads", "dur_p50") * 1e3,
        "ckpt.tiered.upload_mib_s": ratio(
            meters["bytes_uploaded"] / MIB, _class_delta(hot["scheduler"], "upload", "run_seconds_sum")),
        "ckpt.tiered.upload_retries_per_ckpt": ratio(meters["upload_retries"], checkpoints),
        "ckpt.tiered.uploads_failed": tier.get("uploads_failed", 0),
        "ckpt.tiered.remote_faults": tier.get("remote_faults", 0),
        "ckpt.tiered.remote_read_share": cold_median(
            lambda cold, _stats: ratio(cold.get("tier", {}).get("remote_reads", 0),
                                       cold["fetch"]["entries"])),
        "ckpt.tiered.hedged_reads": sum(cold.get("tier", {}).get("hedged_reads", 0) for cold in colds),
        "ckpt.tiered.demotions": tier.get("demotions", 0),
        "ckpt.tiered.promotions": cold_median(
            lambda cold, _stats: cold.get("tier", {}).get("promotions", 0)),

        "ckpt.restore.fetch_ms_p50": cold_median(lambda cold, _stats: cold["fetch"]["wall_s"] * 1e3),
        "ckpt.restore.fetch_mib_s": cold_median(
            lambda cold, _stats: ratio(cold["fetch"]["payload_bytes"] / MIB, cold["fetch"]["wall_s"])),
        "ckpt.restore.lane_stall_share": cold_median(
            lambda cold, _stats: cold["fetch"]["lane_stall_share"]),

        "device.seq_write_mib_s": hot["floor"]["device.seq_write_mib_s"],
        "device.seq_write_fsync_mib_s": hot["floor"]["device.seq_write_fsync_mib_s"],
        "device.seq_read_mib_s": hot["floor"]["device.seq_read_mib_s"],
        "device.syscw_per_ckpt": ratio(hot["io"]["syscw"], checkpoints),
        "device.syscr_per_restore": cold_median(lambda cold, _stats: cold["syscr"]),
        "device.fsyncs_per_ckpt": ratio(
            _field(save, "device.fsync", "calls") + _field(save, "device.fdatasync", "calls"),
            checkpoints),

        "obs.trace_overhead_pct": (ratio(traced_stall, median(samples["stall_untraced_s"])) - 1.0) * 100.0,
        "obs.spans_per_ckpt": ratio(sum(entry["calls"] for entry in save.values()), checkpoints),
        "obs.unattributed_share": ratio(
            sum(entry["self"] for entry in roots), sum(entry["wall"] for entry in roots)),
        "obs.ops_failed_share": ops_failed_share,
    }


def merged_rows(workload: str, hot: Mapping, colds: Sequence[Mapping]) -> List[dict]:
    """Layer rows over the measured paths: save, warm recover, cold restore."""
    merged: Dict[str, Dict[str, float]] = {}
    phases = [hot["phases"].get("save", {}), hot["phases"].get("warm", {})]
    phases += [cold["phases"].get("restore", {}) for cold in colds]
    for stats in phases:
        for name, entry in stats.items():
            into = merged.setdefault(name, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                into[field] += value
    return seams.layer_rows(workload, merged)
