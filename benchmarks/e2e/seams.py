"""Layer boundaries of the traced pass: one data table, one wrapper.

The traced pass wraps the public functions listed in :data:`SEAMS` from
outside — nothing under ``src/`` is edited — and records a span named
``<layer>.<function>`` on the repo's own tracer (``repro.obs.trace``)
around every call, plus a call/byte tally per span name.  A constructor's
span is named after its class.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the layers under one ``bench.*`` root sum to that root's
wall clock by construction; what the root itself keeps is the
unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Tuple

#: (layer, "module:attribute path") — the attribute is patched where the
#: caller looks it up, so a function imported by name into another
#: module is listed under the importing module.
SEAMS: List[Tuple[str, str]] = [
    ("train", "repro.models.transformer:MoETransformerLM.__init__"),
    ("train", "repro.models.optim:Adam.__init__"),
    ("train", "repro.train.trainer:Trainer.train_step"),
    ("core.manager", "repro.core.manager:MoCCheckpointManager.save_initial"),
    ("core.manager", "repro.core.manager:MoCCheckpointManager.checkpoint"),
    ("core.manager", "repro.core.manager:MoCCheckpointManager.flush"),
    ("core.manager", "repro.core.manager:MoCCheckpointManager.recover"),
    ("core.recovery", "repro.core.manager:build_recovery_plan"),
    ("ckpt.kvstore", "repro.ckpt.kvstore:InMemoryKVStore.put_many"),
    ("ckpt.kvstore", "repro.ckpt.kvstore:InMemoryKVStore.get"),
    ("ckpt.serializer", "repro.ckpt.serializer:PayloadFrames.from_entry"),
    ("ckpt.serializer", "repro.ckpt.serializer:PayloadFrames.chunk_digests"),
    ("ckpt.serializer", "repro.ckpt.serializer:PayloadFrames.entry_digest"),
    ("ckpt.serializer", "repro.ckpt.serializer:PayloadFrames.snapshot_into"),
    ("ckpt.serializer", "repro.ckpt.backend:deserialize_entry"),
    ("ckpt.async_writer", "repro.ckpt.async_writer:AsyncWriteBackend.put_many_serialized"),
    ("ckpt.async_writer", "repro.ckpt.async_writer:AsyncWriteBackend.put_serialized"),
    ("ckpt.async_writer", "repro.ckpt.async_writer:AsyncWriteBackend.flush"),
    ("ckpt.async_writer", "repro.ckpt.async_writer:StagingPool.acquire"),
    ("io.scheduler", "repro.io.scheduler:IOScheduler.submit"),
    ("ckpt.sharded", "repro.ckpt.sharded:ShardedDiskKVStore.__init__"),
    ("ckpt.sharded", "repro.ckpt.sharded:ShardedDiskKVStore.put_many_serialized"),
    ("ckpt.sharded", "repro.ckpt.sharded:ShardedDiskKVStore.put_serialized"),
    ("ckpt.sharded", "repro.ckpt.sharded:ShardedDiskKVStore.get"),
    ("ckpt.dedup", "repro.ckpt.dedup:DedupBackend.__init__"),
    ("ckpt.dedup", "repro.ckpt.dedup:DedupBackend.put_many_serialized"),
    ("ckpt.dedup", "repro.ckpt.dedup:DedupBackend.put_serialized"),
    ("ckpt.dedup", "repro.ckpt.dedup:DedupBackend.get"),
    ("ckpt.dedup", "repro.ckpt.dedup:DedupBackend.gc"),
    ("ckpt.dedup", "repro.ckpt.dedup:DedupBackend.fsck"),
    ("ckpt.dedup", "repro.ckpt.dedup:ChunkStore.write_chunk"),
    ("ckpt.dedup", "repro.ckpt.dedup:ChunkStore.apply_refs"),
    ("ckpt.dedup", "repro.ckpt.dedup:ChunkStore.read_chunk"),
    ("ckpt.dedup", "repro.ckpt.dedup:ChunkStore.read_chunk_stored"),
    ("ckpt.codec", "repro.ckpt.dedup:encode_chunk_file"),
    ("ckpt.codec", "repro.ckpt.dedup:decode_chunk_file"),
    ("ckpt.parallel", "repro.ckpt.parallel:ParallelChunkEngine.chunk_digests"),
    ("ckpt.parallel", "repro.ckpt.parallel:ParallelChunkEngine.encode_chunks"),
    ("ckpt.parallel", "repro.ckpt.parallel:ParallelChunkEngine.decode_chunks"),
    ("ckpt.tiered", "repro.ckpt.tiered:open_tiered_root"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.put_many_serialized"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.put_serialized"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.get"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.drain_uploads"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.flush"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.gc"),
    ("ckpt.tiered", "repro.ckpt.tiered:TieredBackend.fsck"),
    ("ckpt.restore", "repro.ckpt.restore:ParallelRestorer.fetch"),
    # Not in src/: the only way to count fsyncs from outside.
    ("device", "os:fsync"),
    ("device", "os:fdatasync"),
]

#: Spans the benchmark's own loop records as roots of the blocking path.
ROOT_PREFIX = "bench."


def span_name(layer: str, target: str) -> str:
    *owners, function = target.rsplit(":", 1)[1].split(".")
    return f"{layer}.{owners[-1] if function == '__init__' else function}"


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def resolve(target: str):
    """``(owner, attribute name, current value)`` of a seam target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, getattr(owner, attribute)


def _entry_nbytes(entry: Mapping) -> int:
    return sum(array.nbytes for array in entry.values())


def _chunk_nbytes(data) -> int:
    return len(data) if isinstance(data, (bytes, memoryview)) else sum(map(len, data))


def _written_chunk_nbytes(args, kwargs, novel) -> int:
    """Physical bytes one ``write_chunk(digest, data, encoded)`` put on disk."""
    if not novel:  # a dedup hit writes nothing
        return 0
    encoded = args[3] if len(args) > 3 else kwargs.get("encoded")
    return len(encoded) if encoded is not None else _chunk_nbytes(args[2])


#: Bytes moved by one call, from ``(args, kwargs, result)``.  Within a layer
#: a payload is counted once, at the innermost seam that moves it (a batched
#: put counts through its per-entry puts, the dedup store through its chunk
#: reads and writes); span names not listed move no payload of their own.
SPAN_BYTES: Dict[str, Callable] = {
    "ckpt.serializer.from_entry": lambda a, k, r: len(r),
    "ckpt.serializer.snapshot_into": lambda a, k, r: len(r),
    "ckpt.serializer.deserialize_entry": lambda a, k, r: len(a[0]),
    "ckpt.kvstore.put_many": lambda a, k, r: sum(r),
    "ckpt.kvstore.get": lambda a, k, r: _entry_nbytes(r),
    "ckpt.async_writer.put_many_serialized": lambda a, k, r: sum(r),
    "ckpt.async_writer.put_serialized": lambda a, k, r: r,
    "io.scheduler.submit": lambda a, k, r: k.get("nbytes", 0),
    "ckpt.sharded.put_serialized": lambda a, k, r: r,
    "ckpt.sharded.get": lambda a, k, r: _entry_nbytes(r),
    "ckpt.dedup.write_chunk": _written_chunk_nbytes,
    "ckpt.dedup.read_chunk_stored": lambda a, k, r: len(r[0]),
    "ckpt.codec.encode_chunk_file": lambda a, k, r: _chunk_nbytes(a[1]),
    "ckpt.codec.decode_chunk_file": lambda a, k, r: len(r),
    "ckpt.parallel.chunk_digests": lambda a, k, r: len(a[1]),
    "ckpt.parallel.decode_chunks": lambda a, k, r: sum(map(len, r or ())),
    "ckpt.tiered.put_many_serialized": lambda a, k, r: sum(r),
    "ckpt.tiered.put_serialized": lambda a, k, r: r,
    "ckpt.tiered.get": lambda a, k, r: _entry_nbytes(r),
    "ckpt.restore.fetch": lambda a, k, r: r[1].payload_bytes,
}


class Tally:
    """Exact per-span-name call and byte counts (any thread)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])

    def add(self, name: str, nbytes: int) -> None:
        with self._lock:
            entry = self._counts[name]
            entry[0] += 1
            entry[1] += nbytes

    def drain(self) -> Dict[str, Tuple[int, int]]:
        """Counts since the last drain."""
        with self._lock:
            counts = {name: (calls, nbytes) for name, (calls, nbytes) in self._counts.items()}
            self._counts.clear()
        return counts


def _traced(name: str, function: Callable, tally: Tally) -> Callable:
    from repro.obs.trace import span, tracing

    nbytes_of = SPAN_BYTES.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not tracing():
            return function(*args, **kwargs)
        with span(name):
            result = function(*args, **kwargs)
        tally.add(name, nbytes_of(args, kwargs, result) if nbytes_of else 0)
        return result

    return wrapper


def install(tally: Tally) -> None:
    """Wrap every seam, for the life of this (traced) process."""
    for layer, target in SEAMS:
        owner, attribute, current = resolve(target)
        name = span_name(layer, target)
        static = inspect.getattr_static(owner, attribute)
        if isinstance(static, classmethod):
            wrapped = classmethod(_traced(name, static.__func__, tally))
        else:
            wrapped = _traced(name, current, tally)
        setattr(owner, attribute, wrapped)


SPAN_NAMES = frozenset(span_name(layer, target) for layer, target in SEAMS)


def summarize(events: Iterable[Mapping], counts: Mapping[str, Tuple[int, int]]) -> Dict[str, dict]:
    """Per-span-name times (seconds) from Chrome trace events.

    Only seam spans and ``bench.*`` roots take part; the program's own
    spans stay in the trace for viewing but are transparent here.  For
    each name: ``calls``, ``bytes``, ``wall`` (sum of durations),
    ``self`` (durations minus child spans), ``layer_wall`` (durations of
    spans with no ancestor of the same layer), and ``block_self`` /
    ``block_layer_wall``, the same two restricted to spans running under
    a ``bench.*`` root — the time the training loop was blocked.
    ``dur_p50`` and ``self_p50`` are medians over the calls.
    """
    stats: Dict[str, dict] = defaultdict(lambda: {
        "calls": 0, "bytes": 0, "wall": 0.0, "self": 0.0, "layer_wall": 0.0,
        "block_self": 0.0, "block_layer_wall": 0.0, "durs": [], "selfs": [],
    })
    stacks: Dict[tuple, list] = defaultdict(list)
    for event in events:
        name, phase = event["name"], event["ph"]
        if phase not in "BE" or not (name in SPAN_NAMES or name.startswith(ROOT_PREFIX)):
            continue
        stack = stacks[(event["pid"], event["tid"])]
        if phase == "B":
            stack.append([name, event["ts"], 0])
            continue
        if not stack or stack[-1][0] != name:
            continue  # its begin was recorded before the tracer was reset
        _name, begin, child_us = stack.pop()
        duration = (event["ts"] - begin) / 1e6
        own = duration - child_us / 1e6
        if stack:
            stack[-1][2] += event["ts"] - begin
        blocking = (stack[0][0] if stack else name).startswith(ROOT_PREFIX)
        outermost = all(layer_of(frame[0]) != layer_of(name) for frame in stack)
        entry = stats[name]
        entry["wall"] += duration
        entry["self"] += own
        entry["durs"].append(duration)
        entry["selfs"].append(own)
        if outermost:
            entry["layer_wall"] += duration
        if blocking:
            entry["block_self"] += own
            if outermost:
                entry["block_layer_wall"] += duration
    for name, (calls, nbytes) in counts.items():
        stats[name]["calls"] = calls
        stats[name]["bytes"] = nbytes
    for name, entry in stats.items():
        durations, owns = entry.pop("durs"), entry.pop("selfs")
        if name.startswith(ROOT_PREFIX):
            entry["calls"] = len(durations)
        entry["dur_p50"] = statistics.median(durations) if durations else 0.0
        entry["self_p50"] = statistics.median(owns) if owns else 0.0
    return dict(stats)


def layer_rows(workload: str, stats: Mapping[str, Mapping]) -> List[dict]:
    """One ``{workload, layer, wall_s, busy_s, self_s, bytes, calls}`` row
    per layer, plus the ``unattributed`` remainder of the ``bench.*`` roots.

    ``wall_s`` is the time the training loop was blocked inside the layer
    (layers beneath it included), ``self_s`` the part of that spent in the
    layer itself, ``busy_s`` the layer's self time on any thread.  The
    ``self_s`` column sums to the wall clock of the ``bench.*`` roots.
    """
    rows: Dict[str, dict] = {}
    root_wall = root_self = 0.0
    for name, entry in stats.items():
        if name.startswith(ROOT_PREFIX):
            root_wall += entry["wall"]
            root_self += entry["self"]
            continue
        row = rows.setdefault(layer_of(name), {
            "workload": workload, "layer": layer_of(name), "wall_s": 0.0,
            "busy_s": 0.0, "self_s": 0.0, "bytes": 0, "calls": 0,
        })
        row["wall_s"] += entry["block_layer_wall"]
        row["busy_s"] += entry["self"]
        row["self_s"] += entry["block_self"]
        row["bytes"] += entry["bytes"]
        row["calls"] += entry["calls"]
    rows["unattributed"] = {
        "workload": workload, "layer": "unattributed", "wall_s": root_wall,
        "busy_s": root_self, "self_s": root_self, "bytes": 0, "calls": 0,
    }
    return [rows[layer] for layer in sorted(rows)]
