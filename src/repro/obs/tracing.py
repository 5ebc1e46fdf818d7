"""Request-scoped tracing: ``Tracer``/``Span`` with monotonic timings,
nested spans and span attributes.

A tracer belongs to one request (one ``service.explain()`` call, one
matcher invocation in a test, one bench iteration).  Request-scoped
components (engine, rewriters, evaluator) receive it explicitly;
*shared* components (the per-graph :class:`PatternMatcher`, the
:class:`SliceEvaluator`) read the ambient tracer via
:func:`current_tracer`, which the request sets for its dynamic extent
with ``with tracer.activate(): ...``.  The ambient tracer is a
:class:`contextvars.ContextVar`, so concurrent requests on different
threads (or asyncio tasks) never see each other's spans.  Work handed
to a thread/async pool does not inherit the activation -- those
internals simply go untraced rather than racing on one span stack;
process-pool workers run their *own* tracer and ship a compact summary
back in the result envelope (:meth:`Tracer.summarize` /
:meth:`Tracer.attach_summary`).

Disabled tracing is the default and must stay near-free: the module
singleton :data:`NULL_TRACER` answers ``span()`` with one shared no-op
context manager -- no allocation, no timestamp.  ``REPRO_TRACE=1``
flips the session default (:func:`tracing_default`).
"""

from __future__ import annotations

import contextvars
import os
from time import perf_counter as _now
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SPAN_ADMISSION",
    "SPAN_BLOCK",
    "SPAN_CLASSIFY",
    "SPAN_CSR_BUILD",
    "SPAN_EVALUATE",
    "SPAN_EXPLAIN",
    "SPAN_FALLBACK",
    "SPAN_MATCH",
    "SPAN_PLAN",
    "SPAN_PROGRAM_COMPILE",
    "SPAN_REWRITE",
    "SPAN_SUBGRAPH",
    "SPAN_WORKER",
    "Span",
    "Tracer",
    "current_tracer",
    "tracing_default",
]

# The span-kind vocabulary.  Everything the pipeline records uses one
# of these, so consumers (tests, the slow log, per-kind histograms)
# can rely on a closed set.
SPAN_EXPLAIN = "explain"  # one service.explain() end to end
SPAN_ADMISSION = "admission"  # waiting for / holding an admission lease
SPAN_CLASSIFY = "classify"  # problem classification (count + threshold)
SPAN_SUBGRAPH = "subgraph"  # subgraph explanation (discover/bounded MCS)
SPAN_REWRITE = "rewrite"  # rewriting search (coarse or search-tree)
SPAN_EVALUATE = "evaluate"  # one CandidateEvaluator.evaluate() batch
SPAN_MATCH = "match"  # one matcher call; attribute `op` in count/match/exists
SPAN_PLAN = "plan"  # query-plan acquisition; attribute `cached`
SPAN_CSR_BUILD = "csr_build"  # compiled backend: CSR array (re)build
SPAN_PROGRAM_COMPILE = "program_compile"  # compiled backend: kernel codegen
SPAN_WORKER = "worker"  # one process-pool worker's shipped summary
SPAN_BLOCK = "block"  # shard-affine slice answering (or missing) a block
SPAN_FALLBACK = "fallback"  # coordinator fallback after an affine miss


def tracing_default() -> bool:
    """Session-wide tracing default: ``REPRO_TRACE=1`` turns request
    tracing on for every surface that does not say otherwise."""
    return os.environ.get("REPRO_TRACE", "0") not in ("", "0")


class Span:
    """One timed node in the trace tree, and the context manager that
    times it: :meth:`Tracer.span` hands the span itself out, so opening
    one allocates one object.  Entry links it under the tracer's
    innermost open span and makes it the innermost; exit hands that
    role back and stamps the monotonic elapsed time (exceptions
    included, so aborted requests still trace)."""

    __slots__ = (
        "kind",
        "attributes",
        "children",
        "started_at",
        "elapsed_s",
        "_tracer",
        "_parent",
    )

    def __init__(
        self,
        kind: str,
        attributes: Optional[Dict[str, Any]] = None,
        tracer: Optional["Tracer"] = None,
    ):
        self.kind = kind
        #: owned by the span: callers hand over a dict of their own
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        self.children: List["Span"] = []
        self.started_at = 0.0
        self.elapsed_s = 0.0
        self._tracer = tracer
        self._parent: Optional["Span"] = None

    def __enter__(self) -> "Span":
        tracer = self._tracer
        parent = self._parent = tracer._open
        (tracer.roots if parent is None else parent.children).append(self)
        tracer._open = self
        self.started_at = _now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_s = _now() - self.started_at
        self._tracer._open = self._parent
        # a closed span must not keep its tree alive through a cycle
        self._tracer = self._parent = None
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        return False

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: the shape served in the protocol's ``trace``
        frame and stored on the report's ``trace`` section."""
        node: Dict[str, Any] = {"kind": self.kind, "elapsed_s": self.elapsed_s}
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.children:
            node["spans"] = [child.to_dict() for child in self.children]
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.kind!r}, {self.elapsed_s:.6f}s, {len(self.children)} children)"


class _Activation:
    """``with tracer.activate():`` -- installs the tracer as the ambient
    one for the dynamic extent, restoring the previous on exit."""

    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None

    def __enter__(self):
        self._token = _ACTIVE_TRACER.set(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _ACTIVE_TRACER.reset(self._token)
            self._token = None
        return False


class Tracer:
    """Collects one request's span tree.  Not thread-safe by design --
    a tracer belongs to exactly one request thread; cross-thread and
    cross-process work reports back via :meth:`attach_summary`."""

    enabled = True

    __slots__ = ("roots", "_open")

    def __init__(self):
        self.roots: List[Span] = []
        self._open = None

    def span(self, kind: str, **attributes: Any) -> Span:
        return Span(kind, attributes, self)

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span (no-op when no
        span is open, so callers never need to guard)."""
        if self._open is not None:
            self._open.attributes.update(attributes)

    def activate(self) -> _Activation:
        return _Activation(self)

    def attach_summary(
        self, kind: str, summary: Dict[str, Dict[str, Any]], **attributes: Any
    ) -> None:
        """Graft a compact remote summary (a :meth:`summarize` dict that
        crossed a process boundary) under the current span as one
        completed ``kind`` span whose children replay the remote kinds."""
        span = Span(kind, attributes)
        total = 0.0
        for child_kind in sorted(summary):
            agg = summary[child_kind]
            child = Span(child_kind, {"count": int(agg.get("count", 0))})
            child.elapsed_s = float(agg.get("total_s", 0.0))
            span.children.append(child)
            total += child.elapsed_s
        span.elapsed_s = total
        if self._open is not None:
            self._open.children.append(span)
        else:
            self.roots.append(span)

    def kinds(self) -> set:
        """The set of span kinds present anywhere in the tree."""
        return {span.kind for root in self.roots for span in root.walk()}

    def summarize(self) -> Dict[str, Dict[str, Any]]:
        """Aggregate the tree per span kind -- ``{kind: {count,
        total_s}}``.  Compact, picklable and JSON-ready: the worker
        result-envelope form and the slow-log profile form.  A span
        grafted by :meth:`attach_summary` replays several remote spans
        as one node carrying a ``count`` attribute; that count (not 1)
        is what re-aggregates, so summaries survive nesting across
        process boundaries without under-counting."""
        summary: Dict[str, Dict[str, Any]] = {}
        for root in self.roots:
            for span in root.walk():
                agg = summary.setdefault(span.kind, {"count": 0, "total_s": 0.0})
                agg["count"] += int(span.attributes.get("count", 1))
                agg["total_s"] += span.elapsed_s
        return summary

    def to_dict(self) -> Optional[Dict[str, Any]]:
        """The span tree as one JSON-ready dict (``None`` when nothing
        was recorded; a synthetic ``trace`` root when the request left
        several top-level spans)."""
        if not self.roots:
            return None
        if len(self.roots) == 1:
            return self.roots[0].to_dict()
        wrapper: Dict[str, Any] = {
            "kind": "trace",
            "elapsed_s": sum(root.elapsed_s for root in self.roots),
            "spans": [root.to_dict() for root in self.roots],
        }
        return wrapper


class _NullSpanHandle:
    """Shared, allocation-free no-op span."""

    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = Span("null")
_NULL_SPAN_HANDLE = _NullSpanHandle()


class NullTracer:
    """The disabled fast path: every operation is a no-op returning a
    shared singleton, so ``with current_tracer().span(...)`` costs one
    context-var read and two trivial calls when tracing is off."""

    enabled = False

    __slots__ = ()

    def span(self, kind: str, **attributes: Any) -> _NullSpanHandle:
        return _NULL_SPAN_HANDLE

    def annotate(self, **attributes: Any) -> None:
        return None

    def activate(self) -> _Activation:
        return _Activation(self)  # type: ignore[arg-type]

    def attach_summary(self, kind, summary, **attributes) -> None:
        return None

    def kinds(self) -> set:
        return set()

    def summarize(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def to_dict(self) -> None:
        return None


NULL_TRACER = NullTracer()

_ACTIVE_TRACER: contextvars.ContextVar = contextvars.ContextVar(
    "repro_active_tracer", default=NULL_TRACER
)


def current_tracer():
    """The ambient tracer of the calling context (:data:`NULL_TRACER`
    when no request activated one)."""
    return _ACTIVE_TRACER.get()
