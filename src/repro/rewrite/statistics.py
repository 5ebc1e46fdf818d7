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
image (:meth:`repro.matching.csr.CSRIndex.path1_count`: per admitted
type group, big-int ANDs and a popcount over the index's interned
projections of the edge and endpoint masks, so a query that changed one
element gathers only that element's).  The index keeps a projection
until a write reaches it (``docs/delta_sync.md``), so this module holds
no memo, no lock and no state beyond the graph.  Vertex cardinalities
are the row counts of the CSR image's interned vertex masks
(:meth:`repro.matching.csr.CSRIndex.degree_sums`), the one candidate
memo the matcher and the planner read too, so no candidate set is
derived twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery, QueryEdge, QueryVertex
from repro.matching.csr import csr_for


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


class GraphStatistics:
    """Statistics provider bound to one data graph.  Every lookup reads
    the graph's current CSR index (:func:`csr_for`), so in-place patches
    and rebuilds are always seen and any number of request threads may
    share one provider."""

    def __init__(self, graph: PropertyGraph) -> None:
        self.graph = graph

    def _path1(
        self,
        qedge: QueryEdge,
        source: Optional[QueryVertex] = None,
        target: Optional[QueryVertex] = None,
    ) -> int:
        """:meth:`CSRIndex.path1_count` on the graph's current index:
        the one call every edge and path(1) statistic goes through."""
        return csr_for(self.graph).path1_count(qedge, source, target)

    # -- vertex / edge statistics (Sec. 5.2.2) -------------------------------

    def vertex_cardinality(self, qvertex: QueryVertex) -> int:
        """Exact number of data vertices satisfying the vertex predicates:
        the row count of the vertex's interned mask, memoised per
        signature until the next patch."""
        return csr_for(self.graph).degree_sums(qvertex)[()]

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
