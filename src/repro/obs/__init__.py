"""Unified observability layer: one metrics registry, one span tracer.

Every layer of the storage stack (serializer, async writer, dedup
engine, codec threads, tiered uploads, parallel restore) accounts its
events here instead of in ad-hoc private ints:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  with labeled ``Counter``/``Gauge``/``Histogram`` instruments,
  lock-striped, with snapshot/delta semantics and Prometheus-style
  text exposition.
- :mod:`repro.obs.trace` — nested span tracing
  (``with span("upload", key=...)``) with thread-safe per-thread
  buffers, exported as Chrome trace-event JSON
  loadable in Perfetto (or summarized by ``moc-repro stats``).
- :mod:`repro.obs.stats` — validation and per-phase summarization of
  exported traces.

An :class:`Observer` bundles a registry and a tracer so call sites
(``MoCCheckpointManager(observer=...)``, ``make_backend(registry=...)``)
can be pointed at either the process-wide singletons or private
instances (test isolation).
"""

from dataclasses import dataclass, field

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .trace import Tracer, get_tracer, span, trace_counter, tracing
from .stats import summarize_trace, validate_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "Tracer",
    "get_registry",
    "get_tracer",
    "span",
    "summarize_trace",
    "trace_counter",
    "tracing",
    "validate_trace",
]


@dataclass
class Observer:
    """A (registry, tracer) pair handed to managers and backends.

    The default constructor yields *private* instances — useful for
    tests that must not see metrics from other components.  Pass
    :func:`get_registry` / :func:`get_tracer` to bind to the
    process-wide singletons (the CLI binds the global tracer).
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
