"""Syntactic distance between two graph queries (Algorithm 1, Sec. 3.2.2).

The syntactic level answers "how different does the explanation *look* to
the user".  Queries are compared element-by-element through their shared
identifiers:

* a vertex/edge present in only one query contributes the maximal
  distance 1 (Algorithm 1, lines 5-8 / 19-22);
* a vertex present in both contributes the average of its predicate
  interval distances and the MHD of its IN/OUT edge-identifier sets
  (Eq. 3.11);
* an edge present in both contributes the average of its predicate
  interval distances, type-set distance, direction-set distance and the
  Boolean distances of its endpoints (Eq. 3.12);
* the query distance is the mean over the element union (Eq. 3.13).

Note on the thesis' worked example (Fig. 3.5): the text reports
``d(v3)=0.33`` while Eq. 3.11 yields 0.25 (the type predicate matches, the
name predicate contributes 1, IN/OUT are unchanged, and the denominator is
``|PI union| + 2 = 4``).  We implement the *formulas*; the regression test
asserts both the formula-exact element values and that the total stays in
the example's 0.40-0.42 corridor.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.core.predicates import Predicate
from repro.core.query import GraphQuery, QueryEdge, QueryVertex
from repro.metrics.hausdorff import modified_hausdorff


def predicate_interval_distance(a: Optional[Predicate], b: Optional[Predicate]) -> float:
    """MHD between two predicate intervals; 1 when present on one side only."""
    if a is b:
        # absent on both sides, or the one shared (immutable) predicate
        return 0.0
    if a is None or b is None:
        return 1.0
    return modified_hausdorff(a.atoms(), b.atoms())


def vertex_distance(
    q1: GraphQuery, q2: GraphQuery, vid: int
) -> float:
    """Eq. 3.11 for a vertex present in both queries.

    The IN/OUT identifier sets are derived from the queries' declared
    topology (Eq. 3.4).
    """
    v1: QueryVertex = q1.vertex(vid)
    v2: QueryVertex = q2.vertex(vid)
    attrs = set(v1.predicates) | set(v2.predicates)
    pi_sum = sum(
        predicate_interval_distance(v1.predicates.get(a), v2.predicates.get(a))
        for a in attrs
    )
    d_in = modified_hausdorff(q1.in_set(vid), q2.in_set(vid))
    d_out = modified_hausdorff(q1.out_set(vid), q2.out_set(vid))
    return (pi_sum + d_in + d_out) / (len(attrs) + 2)


def _type_set_distance(
    t1: Optional[FrozenSet[str]], t2: Optional[FrozenSet[str]]
) -> float:
    """MHD between two edge type sets; ``None`` means "no type constraint"."""
    if t1 is None and t2 is None:
        return 0.0
    if t1 is None or t2 is None:
        return 1.0
    return modified_hausdorff(t1, t2)


def edge_distance(q1: GraphQuery, q2: GraphQuery, eid: int) -> float:
    """Eq. 3.12 for an edge present in both queries."""
    e1: QueryEdge = q1.edge(eid)
    e2: QueryEdge = q2.edge(eid)
    attrs = set(e1.predicates) | set(e2.predicates)
    pi_sum = sum(
        predicate_interval_distance(e1.predicates.get(a), e2.predicates.get(a))
        for a in attrs
    )
    d_types = _type_set_distance(e1.types, e2.types)
    d_dirs = modified_hausdorff(
        frozenset(d.value for d in e1.directions),
        frozenset(d.value for d in e2.directions),
    )
    d_source = 0.0 if e1.source == e2.source else 1.0
    d_target = 0.0 if e1.target == e2.target else 1.0
    return (pi_sum + d_types + d_dirs + d_source + d_target) / (len(attrs) + 4)


class DistanceTable:
    """Algorithm 1's per-element rows of ``query`` against ``original``.

    ``parent`` is the table of a query ``query`` was derived from (against
    the same original).  A row is then copied from it when the element is
    the *same object* in both -- frozen queries share what they did not
    change -- and, for a vertex, ``IN`` / ``OUT`` did not move; only the
    other rows are evaluated.  Without a parent every row is.  The rows
    are kept and summed in Algorithm 1's order either way, so the total
    does not depend on how the table was built.
    """

    __slots__ = ("original", "query", "vertices", "edges", "total")

    def __init__(
        self,
        original: GraphQuery,
        query: GraphQuery,
        parent: Optional["DistanceTable"] = None,
    ) -> None:
        self.original = original
        self.query = query
        old = parent.query if parent is not None else None
        vertices: Dict[int, float] = {}
        for vid in original.vertex_ids | query.vertex_ids:
            if not (original.has_vertex(vid) and query.has_vertex(vid)):
                vertices[vid] = 1.0
            elif (
                old is not None
                and old.has_vertex(vid)
                and old.vertex(vid) is query.vertex(vid)
                and old.in_set(vid) == query.in_set(vid)
                and old.out_set(vid) == query.out_set(vid)
            ):
                vertices[vid] = parent.vertices[vid]
            else:
                vertices[vid] = vertex_distance(original, query, vid)
        edges: Dict[int, float] = {}
        for eid in original.edge_ids | query.edge_ids:
            if not (original.has_edge(eid) and query.has_edge(eid)):
                edges[eid] = 1.0
            elif old is not None and old.has_edge(eid) and old.edge(eid) is query.edge(eid):
                edges[eid] = parent.edges[eid]
            else:
                edges[eid] = edge_distance(original, query, eid)
        self.vertices = vertices
        self.edges = edges
        #: Eq. 3.13: the mean over the element union
        n_elements = len(vertices) + len(edges)
        self.total = (
            (sum(vertices.values()) + sum(edges.values())) / n_elements
            if n_elements
            else 0.0
        )

    def child(self, query: GraphQuery) -> "DistanceTable":
        """The table of ``query``, a query derived from this table's."""
        return DistanceTable(self.original, query, self)


def element_distances(q1: GraphQuery, q2: GraphQuery) -> Dict[str, Dict[int, float]]:
    """Per-element distances over the element union (Algorithm 1 body)."""
    table = DistanceTable(q1, q2)
    return {"vertices": table.vertices, "edges": table.edges}


def syntactic_distance(q1: GraphQuery, q2: GraphQuery) -> float:
    """Algorithm 1 / Eq. 3.13: syntactic distance between two queries.

    Symmetric, bounded in [0, 1], and 0 exactly when the two queries have
    identical element sets (same identifiers, predicates, types,
    directions, topology).
    """
    return DistanceTable(q1, q2).total
