"""Query-result caching for the rewriting engines (Contribution 4, App. B.2).

Rewriting engines evaluate many overlapping query variants; different
search branches frequently reach the *same* relaxed query through
different modification sequences.  The cache memoises bounded
cardinalities by canonical query signature so each distinct variant is
executed at most once, and exports the hit/size counters reported in the
Appendix B.2 resource-consumption experiment.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.delta import (
    QueryTouchProfile,
    delta_touch,
    query_touch_profile,
    touch_affects_query,
)
from repro.core.query import GraphQuery
from repro.matching.matcher import PatternMatcher
from repro.stats import CacheStats

__all__ = ["QueryResultCache"]


class QueryResultCache:
    """Memoises bounded match counts keyed by canonical query signature.

    A cached count is reusable only when it was computed with at least
    the requested evaluation limit, so the cache stores the limit next to
    the count (``None`` = unbounded, always reusable).

    The wrapped matcher's CSR image and its interned candidate masks are
    shared per graph, so even a cache *miss* here reuses the
    evaluation-layer derivations of every other engine bound to the same
    graph.

    ``max_entries`` bounds the cache for long-lived owners (the execution
    contexts a :class:`~repro.service.WhyQueryService` keeps warm):
    entries are promoted on every hit and the least-recently-*used* entry
    is evicted when the bound is hit, so a warm service context keeps its
    hot queries no matter how long ago they were first evaluated.
    ``None`` keeps the historical unbounded behaviour for short-lived
    engines.

    Thread-safety: concurrent service requests share one cache, and LRU
    promotion/eviction are multi-step dict mutations, so all bookkeeping
    runs under a lock; the matcher execution itself happens outside it
    (two threads missing the same key may both execute -- benign, the
    second result simply overwrites the first).
    """

    def __init__(
        self, matcher: PatternMatcher, max_entries: Optional[int] = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.matcher = matcher
        self.max_entries = max_entries
        self._version = matcher.graph.version
        #: key -> ``(count, limit, touch profile, frozen query)``.  The
        #: profile scopes invalidation to the deltas that touch the
        #: query; the query is kept because the signature a key is made
        #: of is not invertible and externalization (:mod:`repro.persist`)
        #: needs it back -- frozen, so holding it costs no copy when the
        #: caller's query is frozen already (every search candidate is)
        self._entries: Dict[
            Hashable, Tuple[int, Optional[int], QueryTouchProfile, GraphQuery]
        ] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _validate_locked(self) -> None:
        """Catch up with a mutated data graph, delta-scoped.

        While the graph's delta log still holds the records since this
        cache's snapshot, only entries whose query depends on a touched
        attribute or edge type are dropped; a count over untouched
        types/attributes cannot have changed.  No log (or an overrun
        ring) falls back to the wholesale clear.
        """
        graph = self.matcher.graph
        if graph.version == self._version:
            return
        deltas_since = getattr(graph, "deltas_since", None)
        deltas = deltas_since(self._version) if deltas_since is not None else None
        if deltas is None:
            self._entries.clear()
        else:
            touch = delta_touch(deltas)
            stale = [
                key
                for key, entry in self._entries.items()
                if touch_affects_query(touch, entry[2])
            ]
            for key in stale:
                del self._entries[key]
        self._version = graph.version
        self.stats.size = len(self._entries)

    def count(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        derive: Optional[Callable[[GraphQuery, Optional[int]], Optional[int]]] = None,
    ) -> int:
        """Cardinality of ``query`` (bounded by ``limit``), cached.

        On a miss, ``derive(query, limit)`` is asked first: a count it
        returns is stored like a counted one, ``None`` falls back to the
        matcher (the fine-grained search derives a child's count from its
        parent's, :mod:`repro.finegrained.propagation`).
        """
        key = query.signature()
        with self._lock:
            self._validate_locked()
            entry = self._entries.get(key)
            if entry is not None:
                cached_count, cached_limit, _profile, _query = entry
                reusable = (
                    cached_limit is None
                    or (limit is not None and cached_limit >= limit)
                    # a count strictly below its own limit is exact
                    or cached_count < cached_limit
                )
                if reusable:
                    self.stats.hits += 1
                    if self.max_entries is not None:
                        # LRU promotion: move the hit to the back of the
                        # (insertion-ordered) dict so eviction drops the
                        # least-recently-used entry, not the oldest-inserted
                        self._entries[key] = self._entries.pop(key)
                    if limit is not None and cached_count > limit:
                        return limit
                    return cached_count
            self.stats.misses += 1
        count = None if derive is None else derive(query, limit)
        if count is None:
            count = self.matcher.count(query, limit=limit)
        with self._lock:
            self._store_locked(key, query, count, limit)
        return count

    def _store_locked(
        self, key: Hashable, query: GraphQuery, count: int, limit: Optional[int]
    ) -> None:
        """Insert one record at the most-recently-used end, then evict."""
        # pop-then-set so a re-computed entry (stale bounded count) also
        # lands in the most-recently-used position
        self._entries.pop(key, None)
        self._entries[key] = (count, limit, query_touch_profile(query), query.as_frozen())
        if self.max_entries is not None:
            # dicts iterate in insertion/promotion order: evict LRU-first
            while len(self._entries) > self.max_entries:
                del self._entries[next(iter(self._entries))]
        self.stats.size = len(self._entries)

    def invalidate(self) -> None:
        """Drop all entries (used when the data graph changes)."""
        with self._lock:
            self._entries.clear()
            self.stats.size = 0

    # -- externalization seam (warm-restart persistence) ----------------------

    def export_entries(self) -> List[Tuple[GraphQuery, int, Optional[int]]]:
        """Snapshot every live entry as ``(query, count, limit)`` triples.

        The cache is validated against the graph's current version first
        (delta-scoped, exactly as a lookup would), so the export is
        always consistent with ``matcher.graph.version`` at return time
        -- the caller stamps its snapshot with that version.  Entries
        are emitted in LRU order (least recently used first) so a
        bounded restore keeps the hottest entries.  The queries are the
        stored frozen ones: encoding is the exporter's, paid per export
        rather than per store.
        """
        with self._lock:
            self._validate_locked()
            return [
                (query, count, limit)
                for count, limit, _profile, query in self._entries.values()
            ]

    def restore_entries(
        self, entries: Iterable[Tuple[GraphQuery, int, Optional[int]]]
    ) -> int:
        """Insert externally persisted entries; returns how many landed.

        The caller (:func:`repro.persist.restore_context`) has already
        validated the snapshot against the graph version and dropped
        delta-touched entries, so insertion is unconditional -- except
        that a *live* entry for the same signature wins (it is at least
        as fresh as the persisted one).  Restores do not count as hits
        or misses; only ``stats.size`` moves.
        """
        restored = 0
        with self._lock:
            self._validate_locked()
            for query, count, limit in entries:
                key = query.signature()
                if key in self._entries:
                    continue
                self._store_locked(key, query, count, limit)
                restored += 1
        return restored

    def __len__(self) -> int:
        return len(self._entries)
