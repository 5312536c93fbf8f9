"""Nested span tracing with Chrome trace-event JSON export.

The tracer answers the *when* question the metrics registry cannot:
``with span("upload", key=...)`` records a begin/end ("B"/"E") event
pair into a per-thread buffer; ``trace_counter("queue_depth", n)``
records a "C" sample.  ``export()`` merges every thread's buffer (plus
completed spans folded in with :func:`merge_spans`), sorts by
timestamp, closes any still-open spans, and emits a Chrome
trace-event JSON object that loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

Overhead contract (pinned by ``benchmarks/bench_obs_overhead.py``):
when tracing is disabled — the default — ``span()`` returns one shared
no-op context manager after a single attribute check, so leaving the
instrumentation permanently in hot seams costs well under 2% of any
real save.  Enabled-mode recording appends one small dict per event to
a thread-local list; no locks on the hot path (the registry of thread
buffers is touched once per thread lifetime).

A wait measured before any span could be opened (the staging pool's
``staging-wait``) is recorded after the fact as a completed
``{"name", "ts", "dur", "pid", "tid", "args"}`` dict and folded in
with :func:`merge_spans`; Perfetto renders it on its own pid/tid track.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "Tracer",
    "complete_span_dict",
    "get_tracer",
    "merge_spans",
    "now_us",
    "span",
    "trace_counter",
    "tracing",
]

# Anchor a wall-clock epoch once so ``now_us`` is monotonic within the
# process (perf_counter based) while still aligning across processes
# (each derives an anchor that agrees to within clock-read jitter).
_EPOCH_US = time.time() * 1e6 - time.perf_counter() * 1e6


def now_us() -> int:
    """Microseconds since the Unix epoch, monotonic within a process."""
    return int(_EPOCH_US + time.perf_counter() * 1e6)


class _ThreadBuffer:
    __slots__ = ("tid", "events", "stack")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.events: List[Dict[str, Any]] = []
        self.stack: List[str] = []


class _NoopSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "_name", "_args", "_buf")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_LiveSpan":
        buf = self._tracer._buffer()
        event: Dict[str, Any] = {
            "name": self._name,
            "cat": "moc",
            "ph": "B",
            "ts": now_us(),
            "pid": os.getpid(),
            "tid": buf.tid,
        }
        if self._args:
            event["args"] = self._args
        buf.events.append(event)
        buf.stack.append(self._name)
        self._buf = buf
        return self

    def __exit__(self, *exc: object) -> bool:
        buf = self._buf
        if buf.stack and buf.stack[-1] == self._name:
            buf.stack.pop()
        buf.events.append(
            {
                "name": self._name,
                "cat": "moc",
                "ph": "E",
                "ts": now_us(),
                "pid": os.getpid(),
                "tid": buf.tid,
            }
        )
        return False


class Tracer:
    """Thread-safe span recorder with Chrome trace-event export."""

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._buffers: List[_ThreadBuffer] = []
        self._merged: List[Dict[str, Any]] = []
        self._local = threading.local()

    # -- lifecycle -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Drop every recorded event (buffers stay registered)."""
        with self._lock:
            for buf in self._buffers:
                buf.events.clear()
                buf.stack.clear()
            self._merged.clear()

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def span(self, name: str, **args: Any):
        """Context manager recording a B/E pair; no-op when disabled."""
        if not self._enabled:
            return _NOOP_SPAN
        return _LiveSpan(self, name, args)

    def counter(self, name: str, value: float) -> None:
        """Record a "C" (counter) sample; Perfetto plots it as a track."""
        if not self._enabled:
            return
        buf = self._buffer()
        buf.events.append(
            {
                "name": name,
                "cat": "moc",
                "ph": "C",
                "ts": now_us(),
                "pid": os.getpid(),
                "tid": buf.tid,
                "args": {name: value},
            }
        )

    def instant(self, name: str, **args: Any) -> None:
        """Record an instantaneous ("i") event — a point-in-time marker."""
        if not self._enabled:
            return
        buf = self._buffer()
        event: Dict[str, Any] = {
            "name": name,
            "cat": "moc",
            "ph": "i",
            "s": "t",
            "ts": now_us(),
            "pid": os.getpid(),
            "tid": buf.tid,
        }
        if args:
            event["args"] = args
        buf.events.append(event)

    def merge_spans(self, spans: Iterable[Mapping[str, Any]]) -> None:
        """Fold completed spans recorded after the fact.

        Each span is a ``{"name", "ts", "dur", "pid", "tid", "args"?}``
        dict (timestamps in µs).  They are expanded into balanced B/E
        pairs at export time, keyed by the *originating* pid/tid so
        Perfetto renders them on that thread's own track.
        """
        cleaned = []
        for item in spans:
            cleaned.append(
                {
                    "name": str(item["name"]),
                    "ts": int(item["ts"]),
                    "dur": max(0, int(item.get("dur", 0))),
                    "pid": int(item["pid"]),
                    "tid": int(item["tid"]),
                    "args": dict(item.get("args") or {}),
                }
            )
        with self._lock:
            self._merged.extend(cleaned)

    # -- export ----------------------------------------------------------

    def export(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Snapshot all buffers into one Chrome trace-event object.

        Events are globally sorted by timestamp (ties keep per-thread
        insertion order, preserving B-before-E).  Spans still open at
        export time — e.g. an export taken inside an outer span — are
        closed with a synthesized "E" carrying
        ``{"truncated": true}`` so the output is always balanced.  The
        synthesized closes exist only in the exported copy; live buffers
        are untouched.
        """
        end_ts = now_us()
        events: List[Dict[str, Any]] = []
        with self._lock:
            buffers = list(self._buffers)
            merged = list(self._merged)
        for buf in buffers:
            pending = list(buf.events)
            events.extend(pending)
            # Close dangling spans (deepest first, so nesting stays valid).
            open_now = list(buf.stack)
            for name in reversed(open_now):
                events.append(
                    {
                        "name": name,
                        "cat": "moc",
                        "ph": "E",
                        "ts": end_ts,
                        "pid": os.getpid(),
                        "tid": buf.tid,
                        "args": {"truncated": True},
                    }
                )
        for item in merged:
            base = {"name": item["name"], "cat": "moc-worker", "pid": item["pid"], "tid": item["tid"]}
            begin = dict(base, ph="B", ts=item["ts"])
            if item["args"]:
                begin["args"] = item["args"]
            events.append(begin)
            events.append(dict(base, ph="E", ts=item["ts"] + item["dur"]))
        events.sort(key=lambda e: e["ts"])
        trace = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.trace"},
        }
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(trace, handle, indent=None, separators=(",", ":"))
        return trace


def complete_span_dict(
    name: str,
    start_us: int,
    end_us: int,
    args: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a completed-span dict for :func:`merge_spans`."""
    return {
        "name": name,
        "ts": int(start_us),
        "dur": max(0, int(end_us) - int(start_us)),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "args": args or {},
    }


_DEFAULT_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer (what ``span()`` records into)."""
    return _DEFAULT_TRACER


def tracing() -> bool:
    """True when the default tracer is recording — guard expensive args."""
    return _DEFAULT_TRACER._enabled


def span(name: str, **args: Any):
    """Record a span on the default tracer; shared no-op when disabled."""
    if not _DEFAULT_TRACER._enabled:
        return _NOOP_SPAN
    return _LiveSpan(_DEFAULT_TRACER, name, args)


def trace_counter(name: str, value: float) -> None:
    """Record a counter sample on the default tracer (no-op when disabled)."""
    if _DEFAULT_TRACER._enabled:
        _DEFAULT_TRACER.counter(name, value)


def merge_spans(spans: Iterable[Mapping[str, Any]]) -> None:
    """Fold completed-span dicts into the default tracer."""
    _DEFAULT_TRACER.merge_spans(spans)
