"""Observability: request-scoped tracing, process-wide metrics and the
slow-query log (ISSUE 9).

Zero third-party dependencies by design -- :mod:`repro.obs` sits below
every other package (``exec``, ``matching``, ``shard``, ``service``,
``server`` all import it) and must never import back up the stack.

Three layers:

- :mod:`repro.obs.tracing` -- ``Tracer``/``Span`` with monotonic
  timings, nested spans and span attributes.  A request activates its
  tracer ambiently (:func:`~repro.obs.tracing.current_tracer`), so
  shared components such as the per-graph :class:`PatternMatcher` can
  record spans without carrying request state.  The
  :data:`~repro.obs.tracing.NULL_TRACER` fast path makes disabled
  tracing allocation-free.
- :mod:`repro.obs.metrics` -- counters, gauges and fixed-bucket latency
  histograms in a process-wide :data:`~repro.obs.metrics.REGISTRY`,
  renderable as Prometheus text exposition format
  (:mod:`repro.obs.promhttp` serves it over stdlib HTTP).
- :mod:`repro.obs.slowlog` -- a bounded log of the N slowest explains
  with their query signature, span summary and cache profile.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.obs.promhttp import start_metrics_server
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import (
    NULL_TRACER,
    SPAN_ADMISSION,
    SPAN_CLASSIFY,
    SPAN_CSR_BUILD,
    SPAN_EVALUATE,
    SPAN_EXPLAIN,
    SPAN_MATCH,
    SPAN_PLAN,
    SPAN_PROGRAM_COMPILE,
    SPAN_REWRITE,
    SPAN_SUBGRAPH,
    SPAN_WORKER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    tracing_default,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "REGISTRY",
    "SPAN_ADMISSION",
    "SPAN_CLASSIFY",
    "SPAN_CSR_BUILD",
    "SPAN_EVALUATE",
    "SPAN_EXPLAIN",
    "SPAN_MATCH",
    "SPAN_PLAN",
    "SPAN_PROGRAM_COMPILE",
    "SPAN_REWRITE",
    "SPAN_SUBGRAPH",
    "SPAN_WORKER",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "current_tracer",
    "start_metrics_server",
    "tracing_default",
]
