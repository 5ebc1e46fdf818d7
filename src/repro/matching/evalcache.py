"""Shared evaluation caches for the matching/rewriting hot path.

The rewriting engines (Ch. 5-6) and the why-query engine (Sec. 3.1.3)
enumerate hundreds of *overlapping* query variants over one data graph:
most variants share almost all of their vertex predicates, and many are
re-evaluated by independently constructed matchers (priority-function
comparisons, preference-model rounds, the oracle runs of Sec. 5.5.4).

This module memoises the expensive per-call derivations so each graph
index is touched at most once per distinct constraint:

* :class:`EvaluationCache` caches ``vertex_candidates`` results by
  *predicate signature*
  (:meth:`~repro.core.query.QueryVertex.predicate_signature`, the
  vertex-id-independent part of the vertex signature: vertices with equal
  predicate maps share candidate sets wherever they sit), shared between the
  matcher's seed enumeration, :class:`~repro.rewrite.statistics.GraphStatistics`
  and, transitively, :class:`~repro.rewrite.cache.QueryResultCache`.
* :func:`shared_evaluation_cache` hands out one cache per data graph (a
  weak registry), so every component bound to the same graph shares hits
  automatically without explicit plumbing.

Caches snapshot :attr:`PropertyGraph.version` and, when the graph's
delta log still holds the records between that snapshot and the current
version, *patch* their candidate sets record by record instead of
clearing: a new vertex joins every cached set whose retained predicate
map it satisfies, an attribute write re-evaluates exactly the sets
mentioning that attribute, and edge records are no-ops (candidate sets
are vertex-only).  The wholesale clear remains the fallback when the
ring has been overrun.  All caches expose :class:`CacheStats` hit/miss
counters; the harness reports them next to the matcher's
``calls``/``steps`` instrumentation.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, Optional

from repro.core.graph import PropertyGraph
from repro.core.query import QueryVertex
from repro.matching.candidates import attributes_match, vertex_candidates


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "CacheStats":
        """Point-in-time copy (for delta reporting in the harness)."""
        return CacheStats(self.hits, self.misses, self.size)

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "hit_rate": self.hit_rate,
        }


class EvaluationCache:
    """Memoises per-predicate-signature candidate sets for one graph.

    The graph is held weakly: caches live as values of the per-graph
    registry, and a strong back-reference would keep every graph (and
    its cached candidate sets) alive for the process lifetime.
    """

    def __init__(self, graph: PropertyGraph) -> None:
        self._graph_ref = weakref.ref(graph)
        self._version = graph.version
        self._vertex_candidates: Dict[Hashable, Optional[FrozenSet[int]]] = {}
        #: signature -> the predicate map the entry was filled from,
        #: retained so a delta patch can re-test single vertices
        self._preds: Dict[Hashable, Dict[str, Any]] = {}
        self.stats = CacheStats()

    @property
    def graph(self) -> PropertyGraph:
        graph = self._graph_ref()
        if graph is None:  # pragma: no cover - caller must hold the graph
            raise ReferenceError("the cached graph has been garbage-collected")
        return graph

    def _validate(self, graph: PropertyGraph) -> None:
        if graph.version == self._version:
            return
        deltas_since = getattr(graph, "deltas_since", None)
        deltas = deltas_since(self._version) if deltas_since is not None else None
        if deltas is None:
            self._vertex_candidates.clear()
            self._preds.clear()
            self.stats.size = 0
        else:
            self._apply_deltas(graph, deltas)
        self._version = graph.version

    def _apply_deltas(self, graph: PropertyGraph, deltas) -> None:
        """Patch the cached candidate sets with a pending delta run.

        Entries are immutable shared frozensets, so membership changes
        *replace* the stored set rather than mutating it -- results
        already handed out keep describing the version they were
        computed at.  ``None`` entries (unconstrained vertices) stay
        ``None``: they mean "no filtering", which survives any
        mutation.  Halo-vertex records (``"hv"``) are skipped because
        candidate sets cover the owned range only.
        """
        entries = self._vertex_candidates
        preds_of = self._preds
        for record in deltas:
            kind = record[0]
            if kind == "v":
                vid, attrs = record[1], record[2]
                for key, entry in entries.items():
                    if entry is None:
                        continue
                    if attributes_match(attrs, preds_of[key]):
                        entries[key] = entry | {vid}
            elif kind == "va":
                vid, attr = record[1], record[2]
                attrs = graph.vertex_attributes(vid)
                for key, entry in entries.items():
                    if entry is None or attr not in preds_of[key]:
                        continue
                    if attributes_match(attrs, preds_of[key]):
                        if vid not in entry:
                            entries[key] = entry | {vid}
                    elif vid in entry:
                        entries[key] = entry - {vid}
            # "e" / "ea" / "hv": candidate sets are owned-vertex-only

    def vertex_candidates(self, qvertex: QueryVertex) -> Optional[FrozenSet[int]]:
        """Cached :func:`repro.matching.candidates.vertex_candidates`.

        ``None`` (unconstrained vertex) is cached like any other result.
        The returned frozensets are immutable snapshots, safe to share
        between the matcher, the statistics provider and the rewriters.
        """
        graph = self.graph
        self._validate(graph)
        key = qvertex.predicate_signature()
        try:
            result = self._vertex_candidates[key]
        except KeyError:
            self.stats.misses += 1
            result = vertex_candidates(graph, qvertex)
            self._vertex_candidates[key] = result
            self._preds[key] = dict(qvertex.predicates)
            self.stats.size = len(self._vertex_candidates)
            return result
        self.stats.hits += 1
        return result

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._vertex_candidates.clear()
        self._preds.clear()
        self.stats.size = 0

    def __len__(self) -> int:
        return len(self._vertex_candidates)


#: graph -> its process-wide shared evaluation cache
_SHARED_CACHES: "weakref.WeakKeyDictionary[PropertyGraph, EvaluationCache]" = (
    weakref.WeakKeyDictionary()
)


def shared_evaluation_cache(graph: PropertyGraph) -> EvaluationCache:
    """The per-graph shared :class:`EvaluationCache` (created on first use)."""
    cache = _SHARED_CACHES.get(graph)
    if cache is None:
        cache = EvaluationCache(graph)
        _SHARED_CACHES[graph] = cache
    return cache
