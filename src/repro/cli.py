"""Command-line interface: ``moc-repro <command>``.

Commands
--------
``size``      checkpoint-size arithmetic for a model spec (Figure 10(a))
``plan``      adaptive two-level PEC configuration for a deployment
              (Section 5.3)
``simulate``  async-checkpoint timeline for given durations (Figure 11/12
              mechanics)
``demo``      a 60-iteration training run with a midpoint fault and PEC
              recovery on the numpy substrate
``gc``        reclaim zero-ref chunks in a dedup (or tiered) checkpoint
              directory
``fsck``      verify chunk hashes, manifests and refcounts of a dedup
              checkpoint directory — or, for a tiered root, both tiers
              plus the promotion journal (non-zero exit on errors)
``stats``     summarize a Chrome trace-event JSON exported by
              ``demo --trace`` — per-span wall/percentiles and counter
              high-water marks (non-zero exit on an invalid trace)
``chaos``     fault-injection campaigns against the live storage stack:
              ``chaos run`` executes a seeded campaign (non-zero exit,
              with seeds and a repro command, on any unrecoverable
              run), ``chaos replay`` replays a recorded or synthetic
              fault trace through the long-run simulator with and
              without the online adaptive controller, and ``chaos
              report`` renders a saved campaign report

All commands print fixed-width tables and return 0 on success (``fsck``
returns 1 when it finds integrity errors), making them scriptable;
``main`` accepts an ``argv`` list for testing.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from typing import List, Optional

from .analysis import render_kv, render_table


def _cmd_size(args: argparse.Namespace) -> int:
    from .distsim import GB, gpt_125m_8e, gpt_350m_16e, llama_moe

    if args.model == "gpt-350m-16e":
        spec = gpt_350m_16e()
    elif args.model == "gpt-125m-8e":
        spec = gpt_125m_8e()
    else:
        spec = llama_moe(num_experts=args.experts, hidden=args.hidden)
    full = spec.full_checkpoint_bytes()
    rows = []
    k = spec.num_experts
    while k >= 1:
        size = spec.pec_checkpoint_bytes(k)
        rows.append((k, size / GB, 100.0 * size / full))
        k //= 2
    print(render_kv(
        f"{spec.name}",
        [
            ("total params (B)", spec.total_params / 1e9),
            ("expert fraction", spec.expert_fraction),
            ("full checkpoint (GB)", full / GB),
        ],
    ))
    print(render_table(["K_pec", "size GB", "% of full"], rows, precision=1))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .core import recommend_for_deployment
    from .distsim import A800_CLUSTER, H100_CLUSTER, Deployment, ParallelConfig, llama_moe

    cluster = H100_CLUSTER if args.gpu == "h100" else A800_CLUSTER
    spec = llama_moe(num_experts=args.gpus)
    deployment = Deployment(
        name="cli",
        spec=spec,
        parallel=ParallelConfig(d_dp=args.gpus, d_ep=args.gpus,
                                tokens_per_gpu=args.tokens_per_gpu),
        cluster=cluster,
    )
    iteration_seconds = deployment.iteration_times().total
    fault_rate = iteration_seconds / (args.mtbf_hours * 3600.0)
    plan = recommend_for_deployment(deployment, fault_rate)
    print(render_kv(
        f"Adaptive plan for {spec.name} on {args.gpus}x{cluster.gpu.name}",
        [
            ("iteration time (s)", iteration_seconds),
            ("K_snapshot", plan.k_snapshot),
            ("K_persist", plan.k_persist),
            ("snapshot (s)", plan.snapshot_seconds),
            ("persist (s)", plan.persist_seconds),
            ("fully overlapped", str(plan.fully_overlapped)),
            ("recommended I_ckpt (iters)", plan.checkpoint_interval),
        ],
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .distsim import TimelineConfig, simulate_timeline

    results = {}
    for mode in ("blocking", "async"):
        results[mode] = simulate_timeline(
            TimelineConfig(
                t_fb=args.fb, t_update=args.update, t_snapshot=args.snapshot,
                t_persist=args.persist, num_iterations=args.iterations,
                checkpoint_interval=args.interval, mode=mode,
            )
        )
    rows = [
        (
            mode,
            result.total_time,
            result.checkpoint_iteration_time,
            result.o_save,
            result.checkpoints_started,
            result.deferred_attempts,
        )
        for mode, result in results.items()
    ]
    print(render_table(
        ["mode", "total s", "ckpt-iter s", "O_save s", "ckpts", "deferred"],
        rows, precision=2,
    ))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .ckpt import AsyncWriteBackend, make_backend
    from .core import (
        MoCConfig,
        MoCCheckpointManager,
        PECConfig,
        TwoLevelConfig,
        grid_topology,
    )
    from .io import (
        DEFAULT_IO_BYTE_BUDGET,
        DEFAULT_IO_WORKERS,
        QoS,
        configure_scheduler,
        get_scheduler,
    )
    from .models import Adam, MoEModelConfig, MoETransformerLM
    from .obs import Observer, get_registry, get_tracer
    from .train import FaultSchedule, MarkovCorpus, Trainer, TrainerConfig

    if (args.io_workers is not None or args.io_byte_budget is not None
            or args.io_rate):
        rate_limits = {}
        for spec in args.io_rate or []:
            name, _, rest = spec.partition("=")
            try:
                qos = QoS[name.strip().upper()]
                rate, _, burst = rest.partition(":")
                rate_limits[qos] = (
                    float(rate), float(burst) if burst else max(1.0, float(rate))
                )
            except (KeyError, ValueError):
                print(f"error: bad --io-rate {spec!r} (want "
                      "CLASS=RATE[:BURST])", file=sys.stderr)
                return 2
        if args.io_byte_budget is None:
            byte_budget = DEFAULT_IO_BYTE_BUDGET
        elif args.io_byte_budget <= 0:
            byte_budget = None
        else:
            byte_budget = args.io_byte_budget * (1 << 20)
        configure_scheduler(
            workers=args.io_workers
            if args.io_workers is not None else DEFAULT_IO_WORKERS,
            byte_budget=byte_budget,
            rate_limits=rate_limits or None,
        )

    model_config = MoEModelConfig(
        vocab_size=48, max_seq_len=16, dim=16, num_layers=2, num_heads=2,
        num_experts=args.experts, top_k=2, seed=0,
    )
    model = MoETransformerLM(model_config)
    optimizer = Adam(model.named_parameters(), lr=3e-3)
    corpus = MarkovCorpus(vocab_size=48, num_domains=2, seq_len=16, seed=1)
    config = MoCConfig(
        pec=PECConfig(k_snapshot=min(2, args.experts), k_persist=1),
        two_level=TwoLevelConfig(checkpoint_interval=args.interval),
    )
    topology = grid_topology(args.dp, args.ep, gpus_per_node=args.gpus_per_node)
    resharding = args.resume_dp is not None or args.resume_ep is not None
    dedup = args.backend == "dedup"
    tiered = args.backend == "tiered"
    # One run-scoped observer: the manager's pipeline meters and the
    # tiered backend's upload/fault counters all land on this registry,
    # so ``--metrics-dump`` reads every pinned invariant from one place.
    # Spans always flow to the process tracer; ``--trace`` switches it
    # on (disabled tracing is a shared no-op span — near-zero cost).
    observer = Observer(tracer=get_tracer())
    rows = []
    restore_profiles = []
    with tempfile.TemporaryDirectory() as storage:
        try:
            store = make_backend(
                args.backend, storage,
                codec=args.codec, parallel_workers=args.parallel_workers,
                remote_latency=args.remote_latency,
                remote_fault_rate=args.remote_fault_rate,
                upload_workers=args.upload_workers,
                local_keep_stamps=args.local_keep,
                hedge_after_seconds=args.hedge_after,
                registry=observer.registry,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            observer.tracer.reset()
            observer.tracer.enable()
        if args.async_writes:
            store = AsyncWriteBackend(store)
        manager = MoCCheckpointManager(
            model, optimizer, config, disk_store=store, topology=topology,
            # Delta saves are the dedup tier's natural companion: an
            # unchanged selected entry costs zero bytes end to end.  The
            # tiered backend's local tier is a dedup store, so it
            # benefits identically.
            delta_saves=dedup or tiered,
            observer=observer,
        )
        trainer = Trainer(
            model, optimizer, corpus,
            TrainerConfig(total_iterations=args.iterations, batch_size=2),
            manager=manager,
            fault_schedule=FaultSchedule.midpoint(args.iterations),
        )
        history = trainer.run()
        rows = [
            ("backend", args.backend + (" (async)" if args.async_writes else "")),
            ("save topology", f"DP={args.dp} EP={args.ep}"),
            ("iterations (with replay)", history.executed_iterations),
            ("fault at", history.fault_iterations[0]),
            ("resumed from", history.recoveries[0].resume_iteration),
            ("PLT %", 100 * history.final_plt),
            ("final train loss", history.train_losses[args.iterations]),
        ]
        if resharding:
            target = grid_topology(
                args.resume_dp if args.resume_dp is not None else args.dp,
                args.resume_ep if args.resume_ep is not None else args.ep,
                gpus_per_node=args.gpus_per_node,
            )

            def resumed_params(restore_topology, workers):
                fresh = MoETransformerLM(model_config)
                fresh_opt = Adam(fresh.named_parameters(), lr=3e-3)
                fresh_manager = MoCCheckpointManager(
                    fresh, fresh_opt, config, disk_store=store,
                    topology=restore_topology, observer=observer,
                )
                result = fresh_manager.restore(
                    topology=restore_topology, workers=workers
                )
                return fresh, result

            resharded, result = resumed_params(target, args.restore_workers)
            reference, _ = resumed_params(topology, 1)
            bit_exact = all(
                np.array_equal(a.data, b.data)
                for (_, a), (_, b) in zip(
                    sorted(resharded.named_parameters()),
                    sorted(reference.named_parameters()),
                )
            )
            reshard = result.reshard
            rows.extend([
                ("resume topology", f"DP={target.num_ep_groups} EP={target.d_ep}"),
                ("resharded resume from", result.resume_iteration),
                ("moved experts", len(reshard.moved_experts)),
                ("persist-tier fallbacks", len(reshard.fallback_experts)),
                ("entries read", result.restore_stats.entries),
                ("restore workers", result.restore_stats.workers),
                ("restore wall ms", 1e3 * result.restore_stats.wall_seconds),
                ("read imbalance (bottleneck/mean)", reshard.imbalance()),
                ("matches source-topology restore", str(bit_exact)),
            ])
        profile_rows = []
        meters = manager.pipeline_meters
        if args.profile:
            recovery_stats = history.recoveries[0].restore_stats
            if recovery_stats is not None and recovery_stats.profile is not None:
                restore_profiles.append(("fault recovery", recovery_stats))
            if resharding and result.restore_stats is not None \
                    and result.restore_stats.profile is not None:
                restore_profiles.append(("resharded restore", result.restore_stats))
            profile_rows = [
                (
                    prof.iteration,
                    1e3 * prof.wall_seconds,
                    prof.persist_entries,
                    prof.persist_skipped,
                    prof.bytes_serialized / 1024.0,
                    prof.hash_passes,
                    prof.copy_passes,
                    prof.compression_passes,
                    prof.storage_ratio,
                )
                for prof in manager.save_profile
            ]
        if dedup or tiered:
            manager.flush()
            inner = store.inner if args.async_writes else store
            # The chunk-level stats live on the dedup store; for the
            # tiered backend that is its local tier.
            chunk_store = inner.local if tiered else inner
            skipped = sum(len(m.persist_skipped) for m in manager.manifests)
            gc_report = inner.gc()
            fsck_report = inner.fsck()
            local_gc = gc_report.local_report if tiered else gc_report
            local_fsck = fsck_report.local_report if tiered else fsck_report
            logical = inner.bytes_written
            physical = chunk_store.chunks.chunk_bytes_written
            rows.extend([
                ("delta-skipped entries", skipped),
                ("logical bytes accepted", logical),
                ("unique chunk bytes written", physical),
                ("dedup ratio (logical/physical)",
                 logical / physical if physical else 1.0),
                ("gc reclaimed chunks", local_gc.reclaimed_chunks),
                ("gc reclaimed bytes", local_gc.reclaimed_bytes),
                ("fsck errors", len(fsck_report.errors)),
            ])
            if tiered:
                stats = inner.tier_stats()
                rows.extend([
                    ("remote uploads", stats["uploads_completed"]),
                    ("upload retries", stats["upload_retries"]),
                    ("remote faults injected", stats["remote_faults"]),
                    ("pending uploads", stats["pending_uploads"]),
                    ("local demotions", stats["demotions"]),
                    ("read promotions", stats["promotions"]),
                    ("local keys / remote claims",
                     f"{stats['local_keys']} / {stats['remote_claims']}"),
                ])
            if args.codec is not None or args.parallel_workers:
                total = meters.snapshot()
                engine = chunk_store.engine
                rows.extend([
                    ("chunk codec",
                     chunk_store.codec.name
                     if chunk_store.codec is not None else "none"),
                    ("parallel workers",
                     engine.workers if engine is not None else 0),
                    ("encoded chunks", local_fsck.encoded_chunks),
                    ("compression ratio (enc/raw)",
                     total["bytes_compressed_out"] / total["bytes_compressed"]
                     if total["bytes_compressed"] else 1.0),
                ])
        manager.close()
    print(render_kv("demo run", rows))
    if args.profile:
        # Per-save pipeline breakdown: wall time plus the byte meters —
        # "hash x" / "copy x" / "comp x" are hash passes, staging copies
        # and compression passes per serialized payload byte (hash 1.0,
        # copy 0.0/1.0 sync/async, comp ≤ 1.0; anything higher is a
        # regression).  "store x" is the combined precision x compression
        # shrink of that save's persisted bytes.
        print(render_table(
            ["save @iter", "save ms", "entries", "skipped",
             "KiB serialized", "hash x", "copy x", "comp x", "store x"],
            profile_rows, precision=2,
        ))
        total = meters.snapshot()
        print(render_kv("save pipeline totals", [
            ("entries serialized", total["entries_serialized"]),
            ("bytes serialized", total["bytes_serialized"]),
            ("bytes hashed", total["bytes_hashed"]),
            ("bytes copied (staging)", total["bytes_copied"]),
            ("bytes compressed (raw in)", total["bytes_compressed"]),
            ("bytes compressed (enc out)", total["bytes_compressed_out"]),
            ("bytes uploaded (remote tier)", total["bytes_uploaded"]),
            ("upload retries", total["upload_retries"]),
            ("hash passes / byte",
             total["bytes_hashed"] / total["bytes_serialized"]
             if total["bytes_serialized"] else 0.0),
            ("staging copies / byte",
             total["bytes_copied"] / total["bytes_serialized"]
             if total["bytes_serialized"] else 0.0),
            ("compression passes / byte",
             total["bytes_compressed"] / total["bytes_serialized"]
             if total["bytes_serialized"] else 0.0),
        ]))
        # Read-side parity: per-lane restore breakdown (entries, bytes,
        # busy vs. stall — stall is lane wall time spent waiting for
        # work rather than reading).
        for label, stats in restore_profiles:
            print(render_table(
                [f"{label} lane", "entries", "KiB read", "busy ms", "stall ms"],
                [
                    (
                        lane.lane,
                        lane.entries,
                        lane.payload_bytes / 1024.0,
                        1e3 * lane.busy_seconds,
                        1e3 * lane.stall_seconds,
                    )
                    for lane in stats.profile.lanes
                ],
                precision=2,
            ))
        # Shared I/O scheduler: per-QoS-class dispatch columns.  Every
        # former private pool (async saves, restore reads, tier uploads,
        # gc) submits through these classes, so the table is the one
        # place contention between them is visible.
        print(render_table(
            ["io class", "submitted", "done", "failed", "cancelled",
             "aged", "peak depth", "wait ms avg", "run ms avg"],
            [
                (
                    label,
                    c["submitted"],
                    c["completed"],
                    c["failed"],
                    c["cancelled"],
                    c["aged"],
                    c["depth_highwater"],
                    1e3 * c["wait_seconds_sum"] / c["wait_count"]
                    if c["wait_count"] else 0.0,
                    1e3 * c["run_seconds_sum"] / c["run_count"]
                    if c["run_count"] else 0.0,
                )
                for label, c in get_scheduler().stats().items()
            ],
            precision=2,
        ))
    if args.trace:
        exported = observer.tracer.export(args.trace)
        observer.tracer.disable()
        print(render_kv("trace", [
            ("events", len(exported["traceEvents"])),
            ("path", args.trace),
        ]))
    if args.metrics_dump:
        # Run-scoped registry first (meters + tier counters — exact for
        # this run), then the process-wide registry holding the module
        # seams (async queue depth, journal appends, worker pool); the
        # latter accumulates across runs in one process.
        print("# ---- run registry ----")
        print(observer.registry.render_prometheus(), end="")
        print("# ---- process registry ----")
        print(get_registry().render_prometheus(), end="")
    return 0


def _open_checkpoint_store(root: str):
    """Open an *existing* dedup or tiered checkpoint directory.

    Constructing the backend would happily create an empty store at any
    path — and an fsck of a typo'd ``--root`` would then report a brand
    new empty store as "clean".  Require the store's on-disk markers
    instead, and return None (caller prints the error, exits non-zero).
    """
    import os

    from .ckpt import DedupBackend, is_tiered_root, open_tiered_root

    if is_tiered_root(root):
        return open_tiered_root(root)
    markers = (os.path.join(root, "manifests.jsonl"), os.path.join(root, "chunks"))
    if not any(os.path.exists(marker) for marker in markers):
        print(f"error: {root!r} is not a dedup or tiered checkpoint "
              "directory (no manifests.jsonl, chunks/ or tier.jsonl)",
              file=sys.stderr)
        return None
    return DedupBackend(root)


def _cmd_gc(args: argparse.Namespace) -> int:
    from .ckpt import TieredGCReport

    store = _open_checkpoint_store(args.root)
    if store is None:
        return 2
    report = store.gc()
    if isinstance(report, TieredGCReport):
        local = report.local_report
        rows = [
            ("remote keys reclaimed", report.remote_keys_reclaimed),
            ("remote bytes reclaimed", report.remote_bytes_reclaimed),
            ("journal records compacted", report.journal_records_compacted),
            ("local reclaimed chunks", local.reclaimed_chunks),
            ("local reclaimed bytes", local.reclaimed_bytes),
            ("local live chunks", local.live_chunks),
            ("local live bytes", local.live_bytes),
        ]
    else:
        rows = [
            ("reclaimed chunks", report.reclaimed_chunks),
            ("reclaimed bytes", report.reclaimed_bytes),
            ("live chunks", report.live_chunks),
            ("live bytes", report.live_bytes),
        ]
    print(render_kv(f"gc {args.root}", rows))
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from .ckpt import TieredFsckReport

    store = _open_checkpoint_store(args.root)
    if store is None:
        return 2
    report = store.fsck(repair=args.repair)
    if isinstance(report, TieredFsckReport):
        local = report.local_report
        rows = [
            ("keys checked", report.keys_checked),
            ("remote claims checked", report.claims_checked),
            ("lost remote copies", len(report.lost_remote_copies)),
            ("stale remote copies", len(report.stale_remote_copies)),
            ("pending uploads (warning)", len(report.pending_uploads)),
            ("orphan remote keys (warning)", len(report.orphan_remote_keys)),
            ("local chunks checked",
             local.chunks_checked if local is not None else 0),
            ("local corrupt chunks",
             len(local.corrupt_chunks) if local is not None else 0),
            ("local missing chunks",
             len(local.missing_chunks) if local is not None else 0),
            ("repaired", str(report.repaired)),
            ("status", "clean" if report.ok else "ERRORS"),
        ]
    else:
        rows = [
            ("chunks checked", report.chunks_checked),
            ("encoded chunks", report.encoded_chunks),
            ("manifests checked", report.manifests_checked),
            ("corrupt chunks", len(report.corrupt_chunks)),
            ("missing chunks", len(report.missing_chunks)),
            ("refcount underflows", len(report.undercounted_refs)),
            ("orphan chunks (warning)", len(report.orphan_chunks)),
            ("refcount leaks (warning)", len(report.overcounted_refs)),
            ("repaired", str(report.repaired)),
            ("status", "clean" if report.ok else "ERRORS"),
        ]
    print(render_kv(f"fsck {args.root}", rows))
    for line in report.errors:
        print(f"  error: {line}")
    for line in report.warnings:
        print(f"  warning: {line}")
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import summarize_trace, validate_trace
    from .obs.stats import load_trace

    try:
        obj = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = validate_trace(obj)
    summary = summarize_trace(obj)
    print(render_kv(f"trace {args.trace}", [
        ("wall ms", summary["wall_ms"]),
        ("events", summary["events"]),
        ("processes", summary["processes"]),
        ("threads", summary["threads"]),
        ("status", "valid" if not errors else "INVALID"),
    ]))
    span_rows = [
        (name, stat["count"], stat["total_ms"], stat["p50_ms"],
         stat["p90_ms"], stat["max_ms"])
        for name, stat in sorted(
            summary["spans"].items(), key=lambda kv: -kv[1]["total_ms"]
        )
    ]
    if span_rows:
        print(render_table(
            ["span", "count", "total ms", "p50 ms", "p90 ms", "max ms"],
            span_rows, precision=2,
        ))
    counter_rows = [
        (name, stat["samples"], stat["last"], stat["high_water"])
        for name, stat in sorted(summary["counters"].items())
    ]
    if counter_rows:
        print(render_table(
            ["counter", "samples", "last", "high water"],
            counter_rows, precision=2,
        ))
    for line in errors:
        print(f"  error: {line}")
    return 0 if not errors else 1


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .chaos import CampaignConfig, ChaosFailure, run_campaign, seams_for

    config = CampaignConfig(
        backend=args.backend,
        runs=args.runs,
        seed=args.seed,
        ops_per_run=args.ops,
        max_kills=args.max_kills,
        remote_fault_rate=args.remote_fault_rate,
        base_rate=args.base_rate,
        step_rate=args.step_rate,
        step_at=args.step_at,
        adaptive=not args.no_adaptive,
        o_save=args.o_save,
    )
    try:
        result = run_campaign(config, run_index=args.run_index)
    except ChaosFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seams = seams_for(config.backend)
    missed = [seam for seam in seams if seam not in result.seam_kills]
    rows = [
        ("backend", config.backend),
        ("seed", config.seed),
        ("runs ok", result.runs_ok),
        ("runs failed", result.runs_failed),
        ("faults injected", result.kills_total),
        ("seams killed", f"{len(result.seam_kills)}/{len(seams)}"),
        ("escalations", result.escalations),
        ("circular detections", result.circular_detections),
        ("no-fire runs", result.no_fire_runs),
        ("digest", result.digest()[:16]),
        ("wall s", round(result.wall_seconds, 2)),
    ]
    if missed and args.run_index is None:
        rows.append(("seams missed", ", ".join(missed)))
    print(render_kv(f"chaos campaign ({config.backend})", rows))
    if result.seam_kills:
        print(render_table(
            ["seam", "kills"],
            sorted(result.seam_kills.items(), key=lambda kv: (-kv[1], kv[0])),
        ))
    if result.recovery_actions:
        print(render_table(
            ["recovery action", "count"],
            sorted(result.recovery_actions.items(), key=lambda kv: (-kv[1], kv[0])),
        ))
    if result.decisions:
        first, last = result.decisions[0], result.decisions[-1]
        print(render_kv("adaptive loop", [
            ("decisions", len(result.decisions)),
            ("rate first -> last",
             f"{first['fault_rate']:.4f} -> {last['fault_rate']:.4f}"),
            ("interval first -> last",
             f"{first['checkpoint_interval']:.1f} -> "
             f"{last['checkpoint_interval']:.1f}"),
            ("k_persist last", last["k_persist"]),
            ("persist tier last", last["persist_tier"]),
        ]))
    if args.report:
        result.save(args.report)
        print(f"report written to {args.report}")
    if args.trace_out:
        result.trace().to_jsonl(args.trace_out)
        print(f"fault trace written to {args.trace_out}")
    return 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from .chaos import FaultTrace, synthetic_trace
    from .core.adaptive import OnlineAdaptiveController, OnlineFaultRateEstimator
    from .core.overhead import optimal_interval
    from .distsim.faultsim import (
        FaultSimConfig,
        simulate_adaptive_run,
        simulate_run_with_faults,
    )

    if args.trace:
        try:
            trace = FaultTrace.from_jsonl(args.trace)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load trace {args.trace}: {exc}", file=sys.stderr)
            return 2
    else:
        trace = synthetic_trace(
            args.synthetic, nodes=args.nodes, horizon=args.horizon,
            rate_per_node=args.rate, seed=args.seed,
        )
    if args.scale_nodes:
        trace = trace.scaled(args.scale_nodes, seed=args.seed)
    times = trace.fault_times()
    print(render_kv("trace", [
        ("source", args.trace or f"synthetic:{args.synthetic}"),
        ("nodes", trace.nodes),
        ("horizon", trace.horizon),
        ("records", len(trace)),
        ("node-killing faults", len(times)),
        ("fleet rate", round(trace.rate, 4)),
    ]))

    config = FaultSimConfig(
        total_iterations=args.iterations,
        checkpoint_interval=args.interval,
        o_save=args.o_save,
        o_restart=args.o_restart,
        fault_rate=max(len(times), 1) / trace.horizon,
    )
    static = simulate_run_with_faults(config, times)
    controller = OnlineAdaptiveController(
        o_save=args.o_save,
        estimator=OnlineFaultRateEstimator(window=args.window, min_events=3),
        min_interval=1.0,
        max_interval=args.max_interval,
    )
    adaptive, timeline = simulate_adaptive_run(config, times, controller)
    rows = [
        ("static", config.checkpoint_interval, static.num_faults,
         static.num_checkpoints, static.lost_progress, static.overhead),
        ("adaptive", f"{timeline[0][1]:.0f}..{timeline[-1][1]:.0f}",
         adaptive.num_faults, adaptive.num_checkpoints,
         adaptive.lost_progress, adaptive.overhead),
    ]
    oracle_rate = len(times) / trace.horizon
    oracle_interval = optimal_interval(max(args.o_save, 0.01), oracle_rate)
    if oracle_interval != float("inf"):
        oracle_config = FaultSimConfig(
            total_iterations=args.iterations,
            checkpoint_interval=max(1, min(args.iterations,
                                           int(round(oracle_interval)))),
            o_save=args.o_save,
            o_restart=args.o_restart,
            fault_rate=config.fault_rate,
        )
        oracle = simulate_run_with_faults(oracle_config, times)
        rows.append(
            ("oracle (Young-Daly)", oracle_config.checkpoint_interval,
             oracle.num_faults, oracle.num_checkpoints,
             oracle.lost_progress, oracle.overhead))
    print(render_table(
        ["policy", "interval", "faults", "ckpts", "lost iters", "overhead"],
        rows, precision=1,
    ))
    retunes = len(timeline) - 1
    print(render_kv("adaptive controller", [
        ("interval re-reads", retunes),
        ("final estimated rate",
         round(controller.estimator.rate(adaptive.wall_time), 4)),
        ("overhead vs static",
         f"{adaptive.overhead / static.overhead:.2f}x" if static.overhead else "n/a"),
    ]))
    return 0


def _cmd_chaos_report(args: argparse.Namespace) -> int:
    import json

    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load report {args.report}: {exc}", file=sys.stderr)
        return 2
    config = payload.get("config", {})
    print(render_kv(f"chaos report {args.report}", [
        ("backend", config.get("backend", "?")),
        ("seed", config.get("seed", "?")),
        ("runs ok", payload.get("runs_ok", 0)),
        ("runs failed", payload.get("runs_failed", 0)),
        ("faults injected", payload.get("kills_total", 0)),
        ("escalations", payload.get("escalations", 0)),
        ("circular detections", payload.get("circular_detections", 0)),
        ("digest", str(payload.get("digest", "?"))[:16]),
    ]))
    seam_kills = payload.get("seam_kills", {})
    if seam_kills:
        print(render_table(
            ["seam", "kills"],
            sorted(seam_kills.items(), key=lambda kv: (-kv[1], kv[0])),
        ))
    actions = payload.get("recovery_actions", {})
    if actions:
        print(render_table(
            ["recovery action", "count"],
            sorted(actions.items(), key=lambda kv: (-kv[1], kv[0])),
        ))
    decisions = payload.get("decisions", [])
    if decisions:
        first, last = decisions[0], decisions[-1]
        print(render_kv("adaptive loop", [
            ("decisions", len(decisions)),
            ("rate first -> last",
             f"{first['fault_rate']:.4f} -> {last['fault_rate']:.4f}"),
            ("interval first -> last",
             f"{first['checkpoint_interval']:.1f} -> "
             f"{last['checkpoint_interval']:.1f}"),
        ]))
    return 0 if payload.get("runs_failed", 0) == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(prog="moc-repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    size = sub.add_parser("size", help="checkpoint size arithmetic")
    size.add_argument("--model", choices=["gpt-350m-16e", "gpt-125m-8e", "llama-moe"],
                      default="gpt-350m-16e")
    size.add_argument("--experts", type=int, default=64)
    size.add_argument("--hidden", type=int, default=2048)
    size.set_defaults(func=_cmd_size)

    plan = sub.add_parser("plan", help="adaptive PEC configuration")
    plan.add_argument("--gpus", type=int, default=64)
    plan.add_argument("--gpu", choices=["a800", "h100"], default="a800")
    plan.add_argument("--mtbf-hours", type=float, default=8.0)
    plan.add_argument("--tokens-per-gpu", type=int, default=16 * 1024)
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser("simulate", help="async checkpoint timeline")
    simulate.add_argument("--fb", type=float, default=2.0)
    simulate.add_argument("--update", type=float, default=0.2)
    simulate.add_argument("--snapshot", type=float, default=3.0)
    simulate.add_argument("--persist", type=float, default=2.0)
    simulate.add_argument("--iterations", type=int, default=40)
    simulate.add_argument("--interval", type=int, default=4)
    simulate.set_defaults(func=_cmd_simulate)

    demo = sub.add_parser("demo", help="tiny training run with a fault")
    demo.add_argument("--iterations", type=int, default=40)
    demo.add_argument("--interval", type=int, default=8)
    demo.add_argument("--experts", type=int, default=4)
    demo.add_argument("--backend",
                      choices=["memory", "sharded", "dedup", "tiered"],
                      default="sharded", help="persist-tier storage backend "
                      "(dedup enables delta saves and prints chunk stats; "
                      "tiered adds a write-back simulated remote object "
                      "tier behind the dedup local tier)")
    demo.add_argument("--async-writes", action="store_true",
                      help="drain persist writes through the async pipeline")
    demo.add_argument("--parallel-workers", type=int, default=0,
                      help="codec threads for the dedup backend's save "
                           "path (0 = encode on the saving thread)")
    demo.add_argument("--codec", default=None,
                      choices=["zlib", "none"],
                      help="chunk-compression codec for the dedup backend")
    demo.add_argument("--remote-latency", type=float, default=0.0,
                      help="simulated per-op latency (seconds) of the "
                           "tiered backend's remote object tier")
    demo.add_argument("--remote-fault-rate", type=float, default=0.0,
                      help="probability in [0, 1) that a remote op raises "
                           "a transient fault; the upload pipeline retries "
                           "with exponential backoff (see 'upload retries')")
    demo.add_argument("--upload-workers", type=int, default=1,
                      help="background upload threads draining the local "
                           "tier to the remote tier (0 = synchronous "
                           "uploads on the save path)")
    demo.add_argument("--local-keep", type=int, default=None,
                      help="keep only the newest K checkpoint stamps on "
                           "the tiered backend's local tier (older "
                           "remote-durable entries are demoted)")
    demo.add_argument("--hedge-after", type=float, default=0.25,
                      help="seconds before a remote read races a second, "
                           "hedged request (tiered backend only)")
    demo.add_argument("--dp", type=int, default=2,
                      help="data-parallel degree of the save topology "
                           "(DP x EP ranks total)")
    demo.add_argument("--ep", type=int, default=2,
                      help="expert-parallel degree of the save topology")
    demo.add_argument("--gpus-per-node", type=int, default=2,
                      help="ranks per node for snapshot placement")
    demo.add_argument("--resume-dp", type=int, default=None,
                      help="after the run, reshard-resume the checkpoint "
                           "at this data-parallel degree and verify the "
                           "restored state matches a source-topology restore")
    demo.add_argument("--resume-ep", type=int, default=None,
                      help="expert-parallel degree of the resharded resume "
                           "(must divide --experts)")
    demo.add_argument("--restore-workers", type=int, default=4,
                      help="parallel readers for the resharded restore")
    demo.add_argument("--io-workers", type=int, default=None,
                      help="worker threads of the shared prioritized I/O "
                           "scheduler every storage pool submits through "
                           "(default 4); reconfigures the process-wide "
                           "scheduler at startup")
    demo.add_argument("--io-byte-budget", type=int, default=None,
                      metavar="MIB",
                      help="shared byte budget (MiB) across all queued I/O "
                           "tasks — admission blocks on bytes, not task "
                           "count (default 256; 0 = unlimited)")
    demo.add_argument("--io-rate", action="append", default=None,
                      metavar="CLASS=RATE[:BURST]",
                      help="per-QoS-class token-bucket rate limit in tasks/"
                           "sec, e.g. 'maintenance=2' or 'upload=50:10'; "
                           "repeatable; classes: restore, save, upload, "
                           "maintenance (default: unlimited)")
    demo.add_argument("--profile", action="store_true",
                      help="print the save-pipeline profile: per-save "
                           "wall time plus serialized/hashed/copied byte "
                           "meters (hash passes and staging copies per "
                           "payload byte), and the per-lane restore "
                           "breakdown of every recovery")
    demo.add_argument("--trace", default=None, metavar="PATH",
                      help="record span tracing for the whole run and "
                           "export a Chrome trace-event JSON to PATH "
                           "(load it in Perfetto / chrome://tracing, or "
                           "summarize with 'moc-repro stats PATH')")
    demo.add_argument("--metrics-dump", action="store_true",
                      help="print the metrics registry in Prometheus "
                           "text format after the run")
    demo.set_defaults(func=_cmd_demo)

    gc = sub.add_parser(
        "gc", help="reclaim zero-ref chunks in a dedup (or tiered) "
                   "checkpoint directory"
    )
    gc.add_argument("--root", required=True,
                    help="dedup backend root (manifests.jsonl + chunks/) or "
                         "tiered root (tier.jsonl + local/ + remote/)")
    gc.set_defaults(func=_cmd_gc)

    fsck = sub.add_parser(
        "fsck", help="verify a dedup or tiered checkpoint directory's "
                     "integrity"
    )
    fsck.add_argument("--root", required=True,
                      help="dedup backend root (manifests.jsonl + chunks/) "
                           "or tiered root (tier.jsonl + local/ + remote/)")
    fsck.add_argument("--repair", action="store_true",
                      help="rewrite the refcount journal from live manifests "
                           "(and, for a tiered root, drop invalid remote "
                           "claims and reschedule their uploads), clearing "
                           "crash-window drift")
    fsck.set_defaults(func=_cmd_fsck)

    stats = sub.add_parser(
        "stats", help="summarize a Chrome trace-event JSON exported by "
                      "'demo --trace'"
    )
    stats.add_argument("trace", help="path to the trace JSON")
    stats.set_defaults(func=_cmd_stats)

    chaos = sub.add_parser(
        "chaos", help="fault-injection campaigns against the storage stack"
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = chaos_sub.add_parser(
        "run", help="execute a seeded randomized fault-injection campaign"
    )
    chaos_run.add_argument("--backend",
                           choices=["dedup", "tiered", "async-tiered"],
                           default="tiered",
                           help="storage stack under test")
    chaos_run.add_argument("--runs", type=int, default=100,
                           help="number of seeded runs in the campaign")
    chaos_run.add_argument("--seed", type=int, default=0,
                           help="campaign seed; same seed = same campaign")
    chaos_run.add_argument("--run-index", type=int, default=None,
                           help="replay exactly one run of the campaign "
                                "(the repro command printed on failure)")
    chaos_run.add_argument("--ops", type=int, default=12,
                           help="storage operations per run")
    chaos_run.add_argument("--max-kills", type=int, default=3,
                           help="crash injections allowed per run")
    chaos_run.add_argument("--remote-fault-rate", type=float, default=0.04,
                           help="transient fault probability of the "
                                "simulated remote tier")
    chaos_run.add_argument("--base-rate", type=float, default=0.5,
                           help="virtual-clock kill rate for the random "
                                "phase of the campaign")
    chaos_run.add_argument("--step-rate", type=float, default=None,
                           help="kill rate after --step-at of the runs "
                                "(a step change for the adaptive loop)")
    chaos_run.add_argument("--step-at", type=float, default=0.5,
                           help="fraction of runs after which --step-rate "
                                "takes effect")
    chaos_run.add_argument("--no-adaptive", action="store_true",
                           help="disable the online adaptive controller "
                                "(fixed local-keep, no decision timeline)")
    chaos_run.add_argument("--o-save", type=float, default=0.05,
                           help="checkpoint save cost fed to the adaptive "
                                "controller")
    chaos_run.add_argument("--report", default=None, metavar="PATH",
                           help="write the full campaign report JSON "
                                "(render later with 'chaos report')")
    chaos_run.add_argument("--trace-out", default=None, metavar="PATH",
                           help="write the campaign's fault stream as a "
                                "JSONL trace (replay with 'chaos replay')")
    chaos_run.set_defaults(func=_cmd_chaos_run)

    chaos_replay = chaos_sub.add_parser(
        "replay", help="replay a fault trace through the long-run "
                       "simulator, static vs adaptive"
    )
    chaos_replay.add_argument("--trace", default=None, metavar="PATH",
                              help="JSONL fault trace (e.g. from "
                                   "'chaos run --trace-out')")
    chaos_replay.add_argument("--synthetic",
                              choices=["crash", "preemption", "straggler"],
                              default="crash",
                              help="generate a synthetic trace instead "
                                   "(ignored when --trace is given)")
    chaos_replay.add_argument("--nodes", type=int, default=64,
                              help="fleet size of the synthetic trace")
    chaos_replay.add_argument("--scale-nodes", type=int, default=None,
                              help="superpose-scale the trace to this many "
                                   "nodes before replay")
    chaos_replay.add_argument("--rate", type=float, default=0.001,
                              help="per-node fault rate of the synthetic "
                                   "trace")
    chaos_replay.add_argument("--horizon", type=float, default=5000.0,
                              help="time horizon of the synthetic trace "
                                   "(iteration units)")
    chaos_replay.add_argument("--seed", type=int, default=0,
                              help="seed for synthesis and scaling")
    chaos_replay.add_argument("--iterations", type=int, default=5000,
                              help="simulated run length (iterations)")
    chaos_replay.add_argument("--interval", type=int, default=50,
                              help="static checkpoint interval (also the "
                                   "adaptive run's starting cadence)")
    chaos_replay.add_argument("--o-save", type=float, default=0.5,
                              help="checkpoint save cost (iteration units)")
    chaos_replay.add_argument("--o-restart", type=float, default=5.0,
                              help="restart cost per fault")
    chaos_replay.add_argument("--window", type=float, default=400.0,
                              help="fault-rate estimator window")
    chaos_replay.add_argument("--max-interval", type=float, default=1000.0,
                              help="adaptive controller's interval ceiling")
    chaos_replay.set_defaults(func=_cmd_chaos_replay)

    chaos_report = chaos_sub.add_parser(
        "report", help="render a saved campaign report JSON"
    )
    chaos_report.add_argument("report", help="path to the report JSON "
                                             "written by 'chaos run --report'")
    chaos_report.set_defaults(func=_cmd_chaos_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
