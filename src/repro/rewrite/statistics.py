"""Query-dependent statistics and cardinality estimation (Sec. 5.2).

The coarse-grained rewriter must predict which relaxation is most likely
to produce a non-empty result *without* executing every candidate.  The
thesis computes query-dependent statistics on three granularities:

* **vertices / edges** (Sec. 5.2.2): how many data elements satisfy one
  query element's own constraints, exactly, via the graph indexes;
* **path(1)** (Sec. 5.2.3): how many data edges satisfy a query edge
  *together with* both endpoint constraints -- the cardinality of the
  one-hop pattern;
* **path(n)**: estimated by chaining path(1) statistics under the classic
  attribute-independence assumption: joining two sub-paths at a shared
  vertex divides the product of their cardinalities by the number of data
  vertices admissible at the join vertex.

Edge and path(1) statistics are one lookup on the graph's packed CSR
image (:meth:`repro.matching.csr.CSRIndex.path1_count`), memoised by
predicate signature so repeated candidate scoring touches the graph only
once per distinct constraint; a write drops only the memo entries it can
touch (``docs/delta_sync.md``).  Vertex candidate sets come from the
per-graph shared :class:`~repro.matching.evalcache.EvaluationCache`, so
the statistics provider and the matcher never derive the same candidate
set twice.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.delta import DeltaTouch, delta_touch
from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery, QueryEdge, QueryVertex
from repro.matching.csr import csr_for
from repro.matching.evalcache import (
    CacheStats,
    EvaluationCache,
    shared_evaluation_cache,
)

#: bound on one provider's path(1) memo: a pooled execution context lives
#: as long as its service and one why-so-many pass inserts ~1 400 keys.
#: The oldest-inserted entry leaves when full
PATH1_CAP = 4096


@dataclass(frozen=True)
class CardinalityProfile:
    """One query's path(1) rows and what Sec. 5.2-5.3 derives from them:
    one pass over the query's edges serves the estimate, the average and
    -- handed to :meth:`GraphStatistics.profile` as ``parent`` -- the rows
    of every query derived from this one."""

    query: GraphQuery
    #: graph version the rows were read at
    version: int
    #: query edge id -> path(1) cardinality
    path1: Dict[int, int]
    estimate: float
    average_path1: float


def _touched(touch: DeltaTouch, key: Tuple) -> bool:
    """Can the delta run change the count memoised under ``key``?
    Conservative, like :func:`repro.core.delta.touch_affects_query`; the
    types and attributes are read off the key itself.  ``touch`` is
    folded without the run's ``"v"`` / ``"hv"`` records: a vertex that
    no edge reaches yet changes no edge count, and the ``"e"`` record
    that attaches it drops its type's entries."""
    types, edge_preds, source_preds, target_preds, _directions = key
    if touch.edges_added and (types is None or not touch.edge_types.isdisjoint(types)):
        return True
    if any(attr in touch.edge_attrs for attr, _ in edge_preds):
        return True
    return any(attr in touch.vertex_attrs for attr, _ in source_preds + target_preds)


class GraphStatistics:
    """Statistics provider bound to one data graph.

    One provider serves many request threads: memo validation, reads and
    inserts run under a lock, the CSR lookup outside it (two threads
    missing one key both compute -- benign).
    """

    def __init__(
        self,
        graph: PropertyGraph,
        evalcache: Optional[EvaluationCache] = None,
    ) -> None:
        self.graph = graph
        self.evalcache = (
            evalcache if evalcache is not None else shared_evaluation_cache(graph)
        )
        self._version = graph.version
        #: (edge types | None, edge / source / target predicate
        #: signatures, directions) -> count
        self._path1_cache: Dict[Tuple, int] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: entries validation dropped / kept, summed over version bumps
        self.dropped = 0
        self.retained = 0

    def _validate_locked(self) -> None:
        """Catch up with a mutated graph, delta-scoped: a new edge drops
        the entries admitting its type (or any type), an attribute write
        those whose predicates mention it.  Dropped, not patched: ``va``
        records carry no old value and an entry is one lookup to redo.
        No delta log (``ShardedGraph``) or an overrun ring drops all."""
        version = self.graph.version
        if version == self._version:
            return
        memo = self._path1_cache
        deltas_since = getattr(self.graph, "deltas_since", None)
        deltas = deltas_since(self._version) if deltas_since is not None else None
        if deltas is None:
            stale = list(memo)
        else:
            touch = delta_touch(r for r in deltas if r[0] not in ("v", "hv"))
            stale = [key for key in memo if _touched(touch, key)]
        for key in stale:
            del memo[key]
        self.dropped += len(stale)
        self.retained += len(memo)
        self.stats.size = len(memo)
        self._version = version

    def _path1(
        self,
        qedge: QueryEdge,
        source: Optional[QueryVertex] = None,
        target: Optional[QueryVertex] = None,
    ) -> int:
        """Memoised :meth:`CSRIndex.path1_count`.  Every miss fetches the
        index anew through :func:`csr_for` and keeps nothing of it, so
        in-place patches and rebuilds are always seen."""
        # sorted tuples a frozen element computed when it froze
        key = (
            qedge.type_key(),
            qedge.predicate_signature(),
            source.predicate_signature() if source is not None else (),
            target.predicate_signature() if target is not None else (),
            qedge.direction_key(),
        )
        memo = self._path1_cache
        with self._lock:
            self._validate_locked()
            cached = memo.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            version = self._version
        count = csr_for(self.graph).path1_count(qedge, source, target, self.evalcache)
        with self._lock:
            # a write validated in between would make this count stale
            if version == self._version:
                if len(memo) >= PATH1_CAP:
                    del memo[next(iter(memo))]
                memo[key] = count
                self.stats.size = len(memo)
        return count

    # -- vertex / edge statistics (Sec. 5.2.2) -------------------------------

    def vertex_cardinality(self, qvertex: QueryVertex) -> int:
        """Exact number of data vertices satisfying the vertex predicates."""
        candidates = self.evalcache.vertex_candidates(qvertex)
        return self.graph.num_vertices if candidates is None else len(candidates)

    def edge_cardinality(self, qedge: QueryEdge) -> int:
        """Exact number of data edges satisfying type set and predicates.

        Endpoint constraints are ignored here; they belong to path(1).
        """
        return self._path1(qedge)

    # -- path statistics (Sec. 5.2.3) -------------------------------------------

    def path1_cardinality(self, query: GraphQuery, eid: int) -> int:
        """Exact cardinality of the one-hop pattern around query edge ``eid``.

        Counts data edges satisfying the edge constraints whose endpoints
        satisfy the source/target vertex predicates in at least one
        admitted orientation.
        """
        qedge = query.edge(eid)
        return self._path1(
            qedge, query.vertex(qedge.source), query.vertex(qedge.target)
        )

    def average_path1_cardinality(self, query: GraphQuery) -> float:
        """Mean path(1) cardinality over all query edges (Sec. 5.5.3)."""
        return self.profile(query).average_path1

    def profile(
        self, query: GraphQuery, parent: Optional[CardinalityProfile] = None
    ) -> CardinalityProfile:
        """``query``'s path(1) rows, estimate and average in one pass.

        ``parent`` is the profile of a query ``query`` was derived from: a
        row is copied from it when edge and both endpoints are the *same
        objects* in both queries (frozen queries share what they did not
        change) and the graph has not moved since; only the other edges
        are looked up.
        """
        version = self.graph.version
        old = parent.query if parent is not None and parent.version == version else None
        path1: Dict[int, int] = {}
        for edge in query.edges():
            source, target = query.vertex(edge.source), query.vertex(edge.target)
            if (
                old is not None
                and old.has_edge(edge.eid)
                and old.edge(edge.eid) is edge
                and old.vertex(edge.source) is source
                and old.vertex(edge.target) is target
            ):
                path1[edge.eid] = parent.path1[edge.eid]
            else:
                path1[edge.eid] = self._path1(edge, source, target)
        if path1:
            average = sum(path1.values()) / len(path1)
        elif query.num_vertices:
            average = (
                sum(self.vertex_cardinality(v) for v in query.vertices())
                / query.num_vertices
            )
        else:
            average = 0.0
        estimate = 0.0
        if query.num_vertices:
            estimate = 1.0
            for component in query.weakly_connected_components():
                estimate *= self._estimate_component(query, component, path1)
        return CardinalityProfile(query, version, path1, estimate, average)

    def estimate_path_cardinality(self, query: GraphQuery, eids: List[int]) -> float:
        """Path(n) estimate for a chain of query edges (Sec. 5.2.3).

        ``est(e1..en) = path1(e1) * prod_i path1(ei) / |V(join_i)|`` where
        ``join_i`` is the query vertex shared between consecutive edges.
        """
        if not eids:
            return 0.0
        estimate = float(self.path1_cardinality(query, eids[0]))
        for prev_eid, eid in zip(eids, eids[1:]):
            shared = self._shared_vertex(query, prev_eid, eid)
            join_card = max(1, self.vertex_cardinality(query.vertex(shared)))
            estimate *= self.path1_cardinality(query, eid) / join_card
        return estimate

    def estimate_query_cardinality(self, query: GraphQuery) -> float:
        """Independence-based cardinality estimate of a whole query.

        Uses a spanning forest of the query: multiply path(1)
        cardinalities of tree edges, divide by the vertex cardinality of
        every join vertex occurrence, then apply the selectivity of each
        remaining non-tree edge (``path1 / (|Vs| * |Vt|)``).  Isolated
        vertices multiply their own vertex cardinality.
        """
        return self.profile(query).estimate

    def _estimate_component(
        self, query: GraphQuery, vertices, rows: Dict[int, int]
    ) -> float:
        in_tree: set = set()
        tree_edges: List[int] = []
        non_tree: List[int] = []
        path1 = {
            eid: rows[eid]
            for eid in query.edge_ids
            if query.edge(eid).source in vertices
        }
        edges = sorted(path1, key=lambda eid: -path1[eid])
        # Greedy spanning tree preferring high-cardinality edges first so
        # the most significant joins anchor the estimate.
        root = min(vertices)
        in_tree.add(root)
        remaining = [eid for eid in edges]
        progress = True
        while progress:
            progress = False
            for eid in list(remaining):
                edge = query.edge(eid)
                s_in, t_in = edge.source in in_tree, edge.target in in_tree
                if s_in and t_in:
                    non_tree.append(eid)
                    remaining.remove(eid)
                elif s_in or t_in:
                    tree_edges.append(eid)
                    in_tree.add(edge.source)
                    in_tree.add(edge.target)
                    remaining.remove(eid)
                    progress = True
        non_tree.extend(remaining)

        if not tree_edges:
            vertex = query.vertex(next(iter(vertices)))
            return float(self.vertex_cardinality(vertex))

        estimate = 1.0
        joined: set = set()
        for eid in tree_edges:
            edge = query.edge(eid)
            if not joined:
                estimate = float(path1[eid])
                joined |= {edge.source, edge.target}
                continue
            shared = edge.source if edge.source in joined else edge.target
            join_card = max(1, self.vertex_cardinality(query.vertex(shared)))
            estimate *= path1[eid] / join_card
            joined |= {edge.source, edge.target}
        for eid in non_tree:
            edge = query.edge(eid)
            denom = max(
                1,
                self.vertex_cardinality(query.vertex(edge.source))
                * self.vertex_cardinality(query.vertex(edge.target)),
            )
            estimate *= path1[eid] / denom
        # Isolated vertices of this component (no edges at all).
        for vid in vertices - in_tree:
            estimate *= self.vertex_cardinality(query.vertex(vid))
        return estimate

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _shared_vertex(query: GraphQuery, eid_a: int, eid_b: int) -> int:
        a, b = query.edge(eid_a), query.edge(eid_b)
        shared = set(a.endpoints()) & set(b.endpoints())
        if not shared:
            raise ValueError(f"edges {eid_a} and {eid_b} share no vertex")
        return min(shared)

    @property
    def cache_sizes(self) -> Dict[str, int]:
        """Sizes of the statistic caches (Appendix B.2 reporting).

        ``vertex`` reports the shared evaluation cache (candidate sets by
        predicate signature), which this provider populates and reads;
        ``edge`` the memo entries without endpoint constraints.
        """
        with self._lock:
            keys = list(self._path1_cache)
        edge = sum(1 for key in keys if not (key[2] or key[3]))
        return {"vertex": len(self.evalcache), "edge": edge, "path1": len(keys) - edge}

    def memo_report(self) -> Dict[str, float]:
        """The path(1) memo's ``cache_report()["caches"]["path1"]`` row."""
        return {**self.stats.as_dict(), "dropped": self.dropped, "retained": self.retained}
