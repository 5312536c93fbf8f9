"""One process of a workload's lifecycle: the hot trainer or a cold restart.

``hot``:  setup -> steady -> durable -> warm -> gc -> die without ``close()``.
``cold``: open the copied root -> new model/optimizer/manager -> ``restore``
-> first resumed train step.  Every restored state is verified byte-exact
against hashes taken from the live optimizer at save time.

Run as ``python -m benchmarks.e2e.lifecycle`` by ``run.py``, one fresh
process per role, with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

from . import floor, seams
from .workloads import WORKLOADS, Workload, build_manager, build_trainer, open_store

#: Fewest samples each phase takes, whatever the time budget.
FLOORS = {"steady": 40, "durable": 20, "warm": 10, "cold": 5}
#: Share of ``--seconds`` each phase may use to take more than its floor.
SHARES = {"steady": 0.35, "durable": 0.25, "warm": 0.05, "cold": 0.35}
WARMUP_CHECKPOINTS = 2
#: ``os.sync()`` runs between phases and before every this-many-th train
#: step, always outside timed regions.  Without it ext4's inode allocator
#: drifts between a 15 us and a 200 us mode per file created (freed inodes
#: are not reusable until the journal commits) and the save-side timings
#: of two runs of one commit differ by half.
SYNC_EVERY = 10
#: Of the traced pass's steady phase, the leading share that runs with the
#: tracer off — the same-process reference for ``obs.trace_overhead_pct``.
UNTRACED_REFERENCE_SHARE = 0.3
#: A phase that runs this long is hung; the watchdog fails it.
PHASE_TIMEOUT_SECONDS = 60.0


class PhaseTimeout(Exception):
    pass


@contextmanager
def watchdog(phase: str, seconds: float = PHASE_TIMEOUT_SECONDS):
    """Raise :class:`PhaseTimeout` in the main thread if the body hangs."""
    def on_alarm(_signum, _frame):
        raise PhaseTimeout(f"{phase} exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Ops:
    """Operations attempted and failed (``ops_failed_share`` = failed / attempted)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        if count:
            self.failed += count
            self.errors.append(what)

    @contextmanager
    def phase(self, name: str):
        """Run one phase under the watchdog; an exception or a hang fails
        one operation and the lifecycle moves on to the next phase."""
        try:
            with watchdog(name):
                yield
        except Exception as exc:  # noqa: BLE001 - the run must continue and report
            self.attempted += 1
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


class Recorder:
    """Hashes of the live optimizer state, per ``(key, stamp)`` a manifest named.

    The verification rule: after any recover or restore, each key's live
    weights / master / m / v / step must hash to what was recorded when
    ``(key, stamp_of(key))`` last appeared in a returned manifest.
    """

    def __init__(self, optimizer, table: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        self.optimizer = optimizer
        self.table: Dict[str, Dict[str, str]] = table if table is not None else {}

    def live(self, key: str) -> str:
        from repro.ckpt.manifest import parse_entry_key

        kind, _expert, name = parse_entry_key(key)
        if kind == "ne":
            fields = ("weights", "master", "m", "v", "step")
        else:  # an expert parameter is two entries: "<param>:w" and "<param>:o"
            name, part = name[:-2], name[-1]
            fields = ("weights",) if part == "w" else ("master", "m", "v", "step")
        state = self.optimizer.state[name]
        digest = hashlib.sha1()
        for field in fields:
            if field == "weights":
                digest.update(memoryview(self.optimizer.params[name].data).cast("B"))
            elif field == "step":
                digest.update(int(state.step).to_bytes(8, "little"))
            else:
                digest.update(memoryview(getattr(state, field)).cast("B"))
        return digest.hexdigest()

    def note(self, manifest) -> int:
        """Record what ``manifest`` saved; returns delta-skip mismatches
        (a skipped entry whose live content differs from the stored stamp's)."""
        written = {}
        for record in manifest.snapshot_entries + manifest.persist_entries:
            if record.entry_key not in written:
                written[record.entry_key] = self.live(record.entry_key)
            self.table.setdefault(record.entry_key, {})[str(record.stamp)] = written[record.entry_key]
        mismatches = 0
        for record in manifest.persist_skipped:
            digest = written.get(record.entry_key) or self.live(record.entry_key)
            mismatches += self.table.get(record.entry_key, {}).get(str(record.stamp)) != digest
        return mismatches

    def mismatches(self, restored: Iterable[Tuple[str, int]]) -> int:
        """Keys whose live state is not what was recorded for their stamp."""
        return sum(
            self.table.get(key, {}).get(str(stamp)) != self.live(key)
            for key, stamp in restored
        )


def restored_stamps(plan, manager) -> List[Tuple[str, int]]:
    """``(key, stamp)`` of the version each entry was restored from."""
    from repro.core.plt import SNAPSHOT_TIER

    return [
        (key, (manager.memory_store if tier == SNAPSHOT_TIER else manager.disk_store).stamp_of(key))
        for key, tier in plan.sources.items()
    ]


class TraceBook:
    """Per-phase span statistics of the traced pass (a no-op when untraced)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.phases: Dict[str, Dict[str, dict]] = {}
        self.events: List[dict] = []
        self.tally = seams.Tally()
        if enabled:
            from repro.obs.trace import get_tracer

            seams.install(self.tally)
            self.tracer = get_tracer()
            self.tracer.enable()

    def close_phase(self, phase: str) -> None:
        """Summarize and drop everything recorded since the last phase."""
        if not self.enabled:
            return
        events = self.tracer.export()["traceEvents"]
        self.tracer.reset()
        self.phases[phase] = seams.summarize(events, self.tally.drain())
        self.events.extend(events)

    def pause(self, paused: bool) -> None:
        if self.enabled:
            (self.tracer.disable if paused else self.tracer.enable)()

    def write(self, path: str) -> None:
        if self.enabled:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"traceEvents": self.events, "displayTimeUnit": "ms"}, handle,
                          separators=(",", ":"))


def scheduler_stats(enabled: bool) -> dict:
    if not enabled:
        return {}
    from repro.io.scheduler import get_scheduler

    return get_scheduler().stats()


def covered_bytes(manifest) -> int:
    """State bytes one checkpoint covers: written plus verified-unchanged."""
    return manifest.persist_bytes() + manifest.persist_skipped_bytes()


def store_parts(store) -> Tuple[object, object, object]:
    """``(tiered, dedup, sharded)`` parts of a persist tier (``None`` if absent)."""
    tiered = store if hasattr(store, "tier_stats") else None
    local = tiered.local if tiered else store
    remote = tiered.remote.inner if tiered else store
    return (
        tiered,
        local if hasattr(local, "chunks") else None,
        remote if hasattr(remote, "journal_records") else None,
    )


def codec_drill(dedup, keys: Iterable[str]) -> Dict[str, float]:
    """Encode/decode rate of the store's codec over the chunks of ``keys``."""
    from repro.ckpt.codec import decode_chunk_file, encode_chunk_file

    raw = [dedup.chunks.read_chunk(digest) for key in keys for digest in dedup.chunks_of(key)]
    begin = time.perf_counter()
    bodies = [encode_chunk_file(dedup.codec, [chunk]) for chunk in raw]
    encode_s = time.perf_counter() - begin
    encoded = [body for body in bodies if body is not None]
    begin = time.perf_counter()
    decoded = [decode_chunk_file(body, dedup.chunks.load_dictionary) for body in encoded]
    decode_s = time.perf_counter() - begin
    raw_mib = sum(map(len, raw)) / 2**20
    stored = sum(len(body) if body is not None else len(chunk) for body, chunk in zip(bodies, raw))
    return {
        "codec_encode_mib_s": raw_mib / encode_s,
        "codec_decode_mib_s": sum(map(len, decoded)) / 2**20 / decode_s if decode_s else 0.0,
        "codec_ratio": stored / max(1, sum(map(len, raw))),
    }


def die(store) -> None:
    """End the process as a node fault does: no ``close()``, no exit handlers.

    What would outlive the process is reaped first — chunk worker
    processes and the shared-memory staging segment — so a crashed
    trainer leaves nothing behind but its store directory.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    pool = getattr(store, "staging_pool", None)
    if pool is not None:
        pool.close()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle)


def hot(args: argparse.Namespace, workload: Workload) -> None:
    from repro.obs.trace import span

    book = TraceBook(args.trace)
    ops = Ops()
    result: dict = {"workload": workload.name, "seed": args.seed, "traced": args.trace}
    workdir = os.path.dirname(args.root)

    samples: Dict[str, List[float]] = {
        name: [] for name in (
            "stall_s", "step_busy_s", "stall_untraced_s", "durable_s", "flush_s",
            "step_idle_s", "durable_bytes", "warm_s",
        )
    }
    totals = {"checkpoints": 0, "covered": 0, "skipped": 0, "snapshot": 0}
    iteration = 0

    def cycle(flush: bool) -> Tuple[float, float, float, int]:
        """One train step, then one checkpoint (and a flush when ``flush``);
        returns ``(step, checkpoint, checkpoint + flush)`` seconds and the
        state bytes the checkpoint covered."""
        nonlocal iteration
        iteration += 1
        if iteration % SYNC_EVERY == 0:
            os.sync()
        begin = time.perf_counter()
        trainer.train_step(iteration)
        step_s = time.perf_counter() - begin
        manager.note_model_routing()
        ops.attempted += 1
        begin = time.perf_counter()
        with span("bench.checkpoint"):
            manifest = manager.checkpoint(iteration)
            saved = time.perf_counter()
            if flush:
                manager.flush()
        end = time.perf_counter()
        ops.fail("delta-skip content mismatch", recorder.note(manifest))
        totals["checkpoints"] += 1
        totals["covered"] += covered_bytes(manifest)
        totals["skipped"] += manifest.persist_skipped_bytes()
        totals["snapshot"] += manifest.snapshot_bytes()
        return step_s, saved - begin, end - begin, covered_bytes(manifest)

    # -- setup: not a measured operation; a failure here ends the run ------
    with watchdog("setup"):
        model, optimizer, trainer = build_trainer(workload, args.seed)
        store = open_store(workload, args.root, args.seed)
        manager = build_manager(workload, model, optimizer, store)
        recorder = Recorder(optimizer)
        recorder.note(manager.save_initial(0))
        for _ in range(WARMUP_CHECKPOINTS):
            checkpoint_bytes = cycle(flush=False)[3]
        manager.flush()
        result["floor"] = floor.probe(workdir, checkpoint_bytes)
        result["floor"]["bytes"] = checkpoint_bytes
        os.sync()
    result["setup_s"] = time.time() - args.t0
    book.close_phase("setup")
    if args.setup_only:
        write_json(args.result, result)
        die(store)

    def take(phase: str, share: float = 1.0):
        """Yield until ``phase`` has its floor and its time share is spent."""
        floor_count = round(FLOORS[phase] * share)
        deadline = time.perf_counter() + SHARES[phase] * share * args.seconds
        taken = 0
        while taken < floor_count or time.perf_counter() < deadline:
            yield
            taken += 1

    steady_share = 1.0
    if args.trace:
        # The same-process reference for the tracer's overhead: the leading
        # share of the steady phase runs with the tracer off, then a flush
        # so none of its background work lands in traced time.
        steady_share -= UNTRACED_REFERENCE_SHARE
        with ops.phase("untraced reference"):
            book.pause(True)
            for _ in take("steady", UNTRACED_REFERENCE_SHARE):
                samples["stall_untraced_s"].append(cycle(flush=False)[1])
            manager.flush()
        book.pause(False)

    # Measurement starts here: warm-ups and the reference are not counted.
    totals.update(dict.fromkeys(totals, 0))
    meters_before = manager.pipeline_meters.snapshot()
    scheduler_before = scheduler_stats(args.trace)
    tiered, dedup, sharded = store_parts(store)
    engine = dedup.engine if dedup is not None else None
    counters_before = (
        dedup.chunks.chunks_written if dedup else 0,
        dedup.chunks.dedup_hits if dedup else 0,
        engine.worker_cpu_seconds if engine else 0.0,
    )
    io_before = floor.proc_io()

    with ops.phase("steady"):
        for _ in take("steady", steady_share):
            step_s, stall_s, _wall, _nbytes = cycle(flush=False)
            samples["step_busy_s"].append(step_s)
            samples["stall_s"].append(stall_s)
        ops.attempted += 1
        begin = time.perf_counter()
        manager.flush()
        result["steady_flush_s"] = time.perf_counter() - begin
    os.sync()

    with ops.phase("durable"):
        for _ in take("durable"):
            step_s, stall_s, wall_s, nbytes = cycle(flush=True)
            samples["step_idle_s"].append(step_s)
            samples["durable_s"].append(wall_s)
            samples["flush_s"].append(wall_s - stall_s)
            samples["durable_bytes"].append(nbytes)
    io_after = floor.proc_io()
    meters_after = manager.pipeline_meters.snapshot()
    result["io"] = {name: io_after[name] - io_before[name] for name in ("wchar", "syscw")}
    result["meters"] = {name: meters_after[name] - meters_before[name] for name in meters_after}
    result["scheduler"] = {"before": scheduler_before, "after": scheduler_stats(args.trace)}
    if dedup is not None:
        result["chunks"] = {
            "written": dedup.chunks.chunks_written - counters_before[0],
            "hits": dedup.chunks.dedup_hits - counters_before[1],
        }
    if engine is not None:
        result["engine"] = {
            "workers": engine.workers,
            "worker_cpu_seconds": engine.worker_cpu_seconds - counters_before[2],
            "enabled": engine.enabled,
        }
    book.close_phase("save")
    os.sync()

    with ops.phase("warm"):
        for _ in take("warm"):
            ops.attempted += 1
            begin = time.perf_counter()
            with span("bench.recover"):
                recovery = manager.recover(
                    failed_nodes=[0], restore_workers=workload.recover_workers)
            samples["warm_s"].append(time.perf_counter() - begin)
            ops.fail("warm recover: restored state differs from the saved hashes",
                     recorder.mismatches(restored_stamps(recovery.plan, manager)))
        plan = recovery.plan
        result["snapshot_tier_share"] = plan.memory_bytes / (plan.memory_bytes + plan.storage_bytes)
    book.close_phase("warm")

    with ops.phase("gc"):
        manager.flush()
        result["disk_bytes_before_gc"] = floor.tree_bytes(args.root)
        for name in ("gc", "fsck"):
            operation = getattr(store, name, None)
            if operation is None:
                continue
            ops.attempted += 1
            begin = time.perf_counter()
            report = operation()
            result[f"{name}_s"] = time.perf_counter() - begin
            if name == "fsck" and not report.ok:
                ops.fail(f"fsck: {report.errors[:3]}")
        manager.flush()
        result["disk_bytes"] = floor.tree_bytes(args.root)
        result["store_bytes"] = manager.disk_store.total_bytes()
    book.close_phase("gc")

    if tiered is not None:
        result["tier"] = tiered.tier_stats()
    if sharded is not None:
        result["journal_records"] = sharded.journal_records
    if args.trace and dedup is not None and dedup.codec is not None:
        result["codec"] = codec_drill(
            dedup, [record.entry_key for record in manager.manifests[-1].persist_entries
                    if dedup.has(record.entry_key)])

    result["samples"] = samples
    result["totals"] = totals
    result["ops"] = ops.as_dict()
    result["phases"] = book.phases
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    book.write(os.path.join(workdir, "hot.trace.json"))
    write_json(os.path.join(workdir, "expected.json"), recorder.table)
    write_json(args.result, result)
    die(store)


def cold(args: argparse.Namespace, workload: Workload) -> None:
    from repro.obs.trace import span

    book = TraceBook(args.trace)
    ops = Ops()
    result: dict = {}
    with open(args.expected, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    scheduler_before = scheduler_stats(args.trace)

    ops.attempted += 1
    with watchdog("cold restore"):
        begin = time.perf_counter()
        with span("bench.restore"):
            store = open_store(workload, args.root, args.seed, replica=args.replica)
            opened = time.perf_counter()
            model, optimizer, trainer = build_trainer(workload, args.seed)
            manager = build_manager(workload, model, optimizer, store)
            io_before = floor.proc_io()
            restore_begin = time.perf_counter()
            recovery = manager.restore(workers=workload.restore_workers)
            restore_end = time.perf_counter()
            io_after = floor.proc_io()
        # Verification sits between restore and the resumed step; it is the
        # benchmark's own work, outside both spans and the user-visible time.
        ops.fail("cold restore: restored state differs from the saved hashes",
                 Recorder(optimizer, expected).mismatches(
                     restored_stamps(recovery.plan, manager)))
        resume_begin = time.perf_counter()
        with span("bench.resume"):
            trainer.train_step(recovery.resume_iteration + 1)
        end = time.perf_counter()
    result["open_s"] = opened - begin
    result["restore_s"] = restore_end - restore_begin
    result["resume_s"] = (restore_end - begin) + (end - resume_begin)
    result["syscr"] = io_after["syscr"] - io_before["syscr"]
    stats = recovery.restore_stats
    lane_wall = sum(lane.wall_seconds for lane in stats.profile.lanes)
    result["fetch"] = {
        "entries": stats.entries, "payload_bytes": stats.payload_bytes,
        "wall_s": stats.wall_seconds,
        "lane_stall_share": stats.profile.stall_seconds / lane_wall if lane_wall else 0.0,
    }
    tiered, _dedup, _sharded = store_parts(store)
    if tiered is not None:
        result["tier"] = tiered.tier_stats()
    result["scheduler"] = {"before": scheduler_before, "after": scheduler_stats(args.trace)}
    book.close_phase("restore")
    result["phases"] = book.phases
    result["ops"] = ops.as_dict()
    book.write(args.result + ".trace.json")
    write_json(args.result, result)
    manager.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("hot", "cold"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True, help="store directory")
    parser.add_argument("--result", required=True, help="where to write this process's JSON")
    parser.add_argument("--t0", type=float, default=0.0, help="time.time() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", help="cold: the hot process's saved-state hashes")
    parser.add_argument("--replica", type=int, default=0, help="cold: which restart this is")
    args = parser.parse_args()
    args.trace = bool(args.trace)
    (hot if args.role == "hot" else cold)(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    main()
