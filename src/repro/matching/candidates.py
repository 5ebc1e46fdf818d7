"""Candidate computation and predicate evaluation for pattern matching.

The interpreter (:mod:`repro.matching.matcher`) prunes its search with
per-query-vertex candidate sets derived from the property graph's
secondary indexes; :func:`vertex_candidates` is also the oracle of the
compiled backend's interned masks (:mod:`repro.matching.csr`).
A query vertex without any predicate is *unconstrained*; its candidate set
is represented by ``None`` so the matcher never materialises "all
vertices" unless it has to seed a new connected component there.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Mapping, Optional

from repro.core.graph import PropertyGraph
from repro.core.predicates import Predicate, ValueSet
from repro.core.query import QueryEdge, QueryVertex


def attributes_match(
    attributes: Mapping[str, Any], predicates: Mapping[str, Predicate]
) -> bool:
    """Evaluate a predicate map against an attribute map.

    A predicate on an attribute the element does not carry fails: the
    property-graph model treats predicates as assertions about present
    attribute values.
    """
    for attr, pred in predicates.items():
        if attr not in attributes:
            return False
        if not pred.matches(attributes[attr]):
            return False
    return True


def vertex_matches(graph: PropertyGraph, vid: int, qvertex: QueryVertex) -> bool:
    """Check one data vertex against one query vertex's predicates."""
    return attributes_match(graph.vertex_attributes(vid), qvertex.predicates)


def vertex_candidates(
    graph: PropertyGraph, qvertex: QueryVertex
) -> Optional[FrozenSet[int]]:
    """Candidate data vertices for a query vertex, or ``None`` if unconstrained.

    Strategy: among the vertex's :class:`ValueSet` predicates, pick the one
    whose index union is smallest, then filter that union by the remaining
    predicates.  Vertices constrained only by non-enumerable predicates
    (e.g. open intervals) fall back to a full scan.
    """
    preds = qvertex.predicates
    if not preds:
        return None

    best_attr: Optional[str] = None
    best_union: Optional[FrozenSet[int]] = None
    for attr, pred in preds.items():
        if isinstance(pred, ValueSet):
            # accumulate into one mutable set, freeze once: |= on a
            # frozenset would copy the growing union per value
            acc: set = set()
            for value in pred.values:
                acc.update(graph.vertices_with(attr, value))
            union = frozenset(acc)
            if best_union is None or len(union) < len(best_union):
                best_attr, best_union = attr, union

    if best_union is not None:
        rest = {a: p for a, p in preds.items() if a != best_attr}
        if not rest:
            return best_union
        return frozenset(
            vid
            for vid in best_union
            if attributes_match(graph.vertex_attributes(vid), rest)
        )

    # Full scan fallback (interval-only constraints).
    return frozenset(
        vid for vid in graph.vertices() if attributes_match(graph.vertex_attributes(vid), preds)
    )


def estimate_edge_candidates(graph: PropertyGraph, qedge: QueryEdge) -> int:
    """Cheap upper-bound estimate of an edge's candidate count (by type).

    Uses the O(1) per-type counts; no edge-type histogram is rebuilt.
    """
    if qedge.types is None:
        return graph.num_edges
    return sum(graph.num_edges_of_type(t) for t in qedge.types)
