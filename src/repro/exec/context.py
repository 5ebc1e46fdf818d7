"""The shared evaluation spine: one :class:`ExecutionContext` per graph.

The holistic engine (Sec. 3.1.3) assumes all debuggers operate on one
evaluation substrate, so the work one debugger performs is reusable by
the next.  A context is *the* binding of an engine to a graph: the
why-query engine, debug sessions, both rewriting searches, the baselines
and the harness drivers all evaluate through one and take no matcher,
cache, statistics or domain of their own, so two entry points that meet
the same context share every layer below.

What a context holds:

======================  =====================================================
``matcher``             the graph's :class:`~repro.matching.matcher.PatternMatcher`
``cache``               bounded-count memoisation (:class:`~repro.rewrite.cache.QueryResultCache`)
``statistics``          cardinality estimation (:class:`~repro.rewrite.statistics.GraphStatistics`)
``domain``              data-driven value proposals (:class:`~repro.rewrite.operations.AttributeDomain`)
``preference_model``    rewrite preference model shared by interactive flows
``preferences``         traversal preferences shared by the explanation engines
======================  =====================================================

:meth:`ExecutionContext.for_graph` hands out **one context per graph**,
so independently constructed engines bound to the same graph
transparently share every layer; construct ``ExecutionContext(graph)``
directly when isolation is wanted (the harness does, to measure per-run
cache effectiveness).  The shared context is anchored *on the graph
object itself*: graph and context form a plain reference cycle, so the
context lives exactly as long as the graph is reachable and both are
garbage-collected together afterwards.  (The registry used to be a
``WeakKeyDictionary`` -- whose values strongly referenced their keys,
the documented way to make such a mapping immortal: every graph ever
passed to ``for_graph`` leaked for the process lifetime.  Asserted
collectable in ``tests/test_exec.py`` now.)

All layers self-invalidate from :attr:`PropertyGraph.version`, so a
long-lived context survives graph mutation without serving stale counts.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.explain.preferences import UserPreferences
from repro.matching.matcher import PatternMatcher
from repro.obs.tracing import current_tracer
from repro.rewrite.cache import QueryResultCache
from repro.rewrite.operations import AttributeDomain
from repro.rewrite.preference_model import RewritePreferenceModel
from repro.rewrite.statistics import GraphStatistics
from repro.stats import unified_stats

__all__ = ["ExecutionContext", "execution_context"]


class ExecutionContext:
    """Everything needed to evaluate and debug queries over one graph."""

    #: default bound on the per-context query-result cache: contexts are
    #: long-lived (process registry / service pool), so the result cache
    #: must not grow with every distinct query variant ever debugged
    DEFAULT_RESULT_CACHE_ENTRIES = 100_000

    def __init__(
        self,
        graph: PropertyGraph,
        injective: bool = True,
        compiled: bool = True,
        result_cache_entries: Optional[int] = DEFAULT_RESULT_CACHE_ENTRIES,
    ) -> None:
        self.graph = graph
        self.matcher = PatternMatcher(graph, injective=injective, compiled=compiled)
        self.cache = QueryResultCache(self.matcher, max_entries=result_cache_entries)
        self.statistics = GraphStatistics(graph)
        self.domain = AttributeDomain(graph)
        self.preference_model = RewritePreferenceModel()
        self.preferences = UserPreferences()
        #: serialises *structural* swaps (e.g. domain refresh); the
        #: evaluation layers themselves are safe for concurrent reads
        self._lock = threading.RLock()
        self._domain_version = graph.version

    # -- registry -------------------------------------------------------------

    #: attribute anchoring the shared context on its graph (the graph
    #: and its context form a collectable cycle, not a global root)
    _ANCHOR = "_repro_shared_context"

    @classmethod
    def for_graph(cls, graph: PropertyGraph) -> "ExecutionContext":
        """The process-wide shared context of ``graph`` (created on demand)."""
        with _REGISTRY_LOCK:
            context = getattr(graph, cls._ANCHOR, None)
            if context is None or context.graph is not graph:
                context = cls(graph)
                setattr(graph, cls._ANCHOR, context)
            return context

    @classmethod
    def bind(
        cls,
        graph: Optional[PropertyGraph],
        context: Optional["ExecutionContext"],
        shared: bool,
    ) -> "ExecutionContext":
        """The context an engine given ``graph`` and/or ``context`` runs on:
        ``context``, else the graph's shared context (``shared``: the
        why-query engine, debug sessions) or a private one (the searches).
        :class:`ValueError` when neither is given or both disagree."""
        if context is None:
            if graph is None:
                raise ValueError("either graph or context is required")
            return cls.for_graph(graph) if shared else cls(graph)
        if graph is not None and graph is not context.graph:
            raise ValueError("graph and context.graph differ")
        return context

    # -- evaluation façade ----------------------------------------------------

    @property
    def tracer(self):
        """The calling request's tracer (:data:`~repro.obs.NULL_TRACER`
        when tracing is off).  One context serves *concurrent* requests,
        so the tracer rides the ambient request context
        (:func:`repro.obs.current_tracer`) rather than mutable state on
        the shared context object."""
        return current_tracer()

    def count(self, query: GraphQuery, limit: Optional[int] = None) -> int:
        """Cached bounded cardinality of ``query`` (the hot entry point)."""
        return self.cache.count(query, limit=limit)

    def attribute_domain(self) -> AttributeDomain:
        """The value-proposal domain, refreshed if the graph was mutated.

        ``AttributeDomain`` caches whole-graph histograms without version
        tracking of its own, so a long-lived context swaps in a fresh one
        when the graph version moved.
        """
        with self._lock:
            if self.graph.version != self._domain_version:
                self.domain = AttributeDomain(self.graph)
                self._domain_version = self.graph.version
            return self.domain

    # -- reporting ------------------------------------------------------------

    def cache_report(self) -> Dict[str, Any]:
        """Every cache layer plus matcher effort, in the unified schema.

        The matcher's :meth:`~repro.matching.matcher.PatternMatcher.cache_info`
        sections are extended with the query-result cache (App. B.2) under
        ``["caches"]["results"]`` and the statistics' path(1) memo under
        ``["caches"]["path1"]``.
        """
        info = self.matcher.cache_info()
        return unified_stats(
            caches={
                "results": self.cache.stats.as_dict(),
                "path1": self.statistics.memo_report(),
            },
            csr=info["csr"],
            programs=info["programs"],
            deltas=info["deltas"],
            extra={"matcher": info["matcher"]},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionContext(graph={self.graph!r}, "
            f"version={self.graph.version})"
        )


#: serialises shared-context creation across threads
_REGISTRY_LOCK = threading.Lock()


def execution_context(graph: PropertyGraph) -> ExecutionContext:
    """Module-level alias of :meth:`ExecutionContext.for_graph`."""
    return ExecutionContext.for_graph(graph)
