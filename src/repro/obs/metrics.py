"""Process-wide metrics: counters and fixed-bucket latency histograms,
with Prometheus text exposition.

One :data:`REGISTRY` serves the whole process (the ISSUE's
"registered process-wide"): the service, the budget pools and the
protocol server all write to it, `service.stats()` folds a snapshot
into the unified schema's ``metrics`` section, and
:mod:`repro.obs.promhttp` renders :meth:`MetricsRegistry.render` over
HTTP.  Tests and benches that need isolation construct their own
:class:`MetricsRegistry`.

Histogram semantics follow Prometheus: a fixed ascending bound list,
``le``-inclusive buckets, an implicit ``+Inf`` bucket, cumulative
counts only at render time (the in-memory counts are per-bucket so
snapshots stay cheap to diff).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
]

# Sub-millisecond to ten seconds: wide enough for a matcher call and an
# LDBC-scale rewrite search alike.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_suffix(labels: LabelItems) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with ``le``-inclusive bounds and an
    implicit ``+Inf`` bucket."""

    __slots__ = ("name", "help", "labels", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: LabelItems = (),
    ):
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds: {bounds}")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot: +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left finds the first bound >= value: exactly the
        # le-inclusive bucket (a value equal to a bound lands in that
        # bound's bucket, one past the last bound lands in +Inf).
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """Get-or-create registry of named (and optionally labelled)
    metrics.  Metric handles are cheap to cache; registration is
    idempotent and type-checked."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    @staticmethod
    def _label_items(labels: Optional[Dict[str, Any]]) -> LabelItems:
        if not labels:
            return ()
        return tuple(sorted((str(key), str(value)) for key, value in labels.items()))

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        items = self._label_items(labels)
        key = (name, items)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help=help, labels=items, **kwargs)
                self._metrics[key] = metric
            elif type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help: str = "", labels: Optional[Dict[str, Any]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Optional[Dict[str, Any]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def _sorted_metrics(self):
        with self._lock:
            metrics = list(self._metrics.items())
        metrics.sort(key=lambda item: item[0])
        return metrics

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready snapshot: the unified-stats ``metrics`` section."""
        counters: Dict[str, float] = {}
        histograms: Dict[str, Any] = {}
        for (name, labels), metric in self._sorted_metrics():
            key = name + _label_suffix(labels)
            if isinstance(metric, Counter):
                counters[key] = metric.snapshot()
            else:
                histograms[key] = metric.snapshot()
        return {"counters": counters, "histograms": histograms}

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines = []
        seen_headers = set()
        for (name, labels), metric in self._sorted_metrics():
            kind = "counter" if isinstance(metric, Counter) else "histogram"
            if name not in seen_headers:
                seen_headers.add(name)
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {kind}")
            if kind == "counter":
                lines.append(f"{name}{_label_suffix(labels)} {metric.snapshot()}")
                continue
            snap = metric.snapshot()
            cumulative = 0
            for bound, count in zip(snap["buckets"], snap["counts"]):
                cumulative += count
                le_labels = labels + (("le", repr(bound)),)
                lines.append(f"{name}_bucket{_label_suffix(le_labels)} {cumulative}")
            cumulative += snap["counts"][-1]
            inf_labels = labels + (("le", "+Inf"),)
            lines.append(f"{name}_bucket{_label_suffix(inf_labels)} {cumulative}")
            lines.append(f"{name}_sum{_label_suffix(labels)} {snap['sum']}")
            lines.append(f"{name}_count{_label_suffix(labels)} {snap['count']}")
        return "\n".join(lines) + "\n"


# The process-wide registry every production surface writes to.
REGISTRY = MetricsRegistry()
