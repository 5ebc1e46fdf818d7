"""Component resolution shared by the engines' constructors.

Every engine accepts the same wiring choice: an
:class:`~repro.exec.context.ExecutionContext` *is* the spine; without
one, explicit components win over fresh per-engine wiring.
:func:`resolve_spine` implements that precedence once so the engines
cannot drift apart.

The ``context`` argument is duck-typed (anything exposing ``graph``,
``matcher``, ``cache``, ``statistics``) rather than imported, which keeps
this module a leaf: it can be imported from ``repro.rewrite`` /
``repro.finegrained`` without creating an import cycle with
:mod:`repro.exec.context`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.graph import PropertyGraph
from repro.matching.matcher import PatternMatcher
from repro.rewrite.cache import QueryResultCache
from repro.rewrite.statistics import GraphStatistics

__all__ = ["resolve_spine"]


def resolve_spine(
    graph: Optional[PropertyGraph],
    context,
    matcher: Optional[PatternMatcher] = None,
    cache: Optional[QueryResultCache] = None,
    statistics: Optional[GraphStatistics] = None,
) -> Tuple[PropertyGraph, PatternMatcher, QueryResultCache, GraphStatistics]:
    """Resolve ``(graph, matcher, cache, statistics)`` for one engine.

    Raises :class:`ValueError` when neither ``graph`` nor ``context`` is
    given, when both are given but disagree, or when a component
    (``matcher`` / ``cache`` / ``statistics``) is passed alongside a
    ``context`` and is not the context's own: overriding one layer of
    the spine forfeits the shared caches the other layers assume.  Wrap
    the component in a dedicated ``ExecutionContext`` instead.
    """
    if graph is None and context is None:
        raise ValueError("either graph or context is required")
    if context is not None:
        if graph is not None and graph is not context.graph:
            raise ValueError("graph and context.graph differ")
        for name, component in (
            ("matcher", matcher), ("cache", cache), ("statistics", statistics)
        ):
            if component is not None and component is not getattr(context, name):
                raise ValueError(
                    f"{name} and context are mutually exclusive; wrap the "
                    f"{name} in its own ExecutionContext instead"
                )
        return context.graph, context.matcher, context.cache, context.statistics
    if matcher is None:
        matcher = PatternMatcher(graph)
    if cache is None:
        cache = QueryResultCache(matcher)
    if statistics is None:
        statistics = GraphStatistics(graph, evalcache=matcher.evalcache)
    return graph, matcher, cache, statistics
