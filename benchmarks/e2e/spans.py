"""Self time per span kind from the traced episode's span trees.

A span's *self* time is its duration minus the part its child spans
cover.  The benchmark wraps every request in its own ``bench.request``
span around the program's tree, so ``bench.request`` self time is what
the program's spans do not cover yet: service bookkeeping in-process;
framing, JSON, socket and dispatch on the wire.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable

#: the program's span vocabulary (``repro.obs.tracing``), fixed here so a
#: kind the program stops emitting still reports a share of 0
PROGRAM_KINDS = (
    "explain",
    "admission",
    "classify",
    "subgraph",
    "rewrite",
    "evaluate",
    "match",
    "plan",
    "csr_build",
    "program_compile",
    "worker",
    "block",
    "fallback",
)


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds of self time per span kind over a forest of span dicts."""
    totals: Dict[str, float] = defaultdict(float)
    stack = list(spans)
    while stack:
        span = stack.pop()
        children = span.get("spans", ())
        covered = sum(child["elapsed_s"] for child in children)
        totals[span["kind"]] += max(0.0, span["elapsed_s"] - covered)
        stack.extend(children)
    return totals


def span_metrics(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """``span.<kind>.self_share`` per program kind and ``span.closure_ratio``
    (their sum): shares of the wall the client measured around its requests."""
    requests = [span for span in spans if span["kind"] == "bench.request"]
    wall = sum(span["elapsed_s"] for span in requests)
    totals = self_times(requests)
    metrics = {f"span.{kind}.self_share": totals[kind] / wall for kind in PROGRAM_KINDS}
    metrics["span.closure_ratio"] = sum(metrics.values())
    return metrics
