"""Delta touch-set analysis for delta-scoped cache invalidation.

A mutation delta (see :class:`~repro.core.graph.PropertyGraph`'s delta
log) touches a small, statically determinable slice of the evaluation
state: the attributes it wrote and the edge types whose adjacency it
extended.  The version-keyed caches (candidate cache, query-result
cache, the snapshot restore ``restore_context``) use that to drop
*only* the entries the delta can actually affect, instead of clearing
wholesale on every version bump:

* :func:`delta_touch` folds a delta record run into one
  :class:`DeltaTouch` summary;
* :func:`query_touch_profile` precomputes, per cached query, which
  attributes/types its result depends on (stored next to the cache
  entry at insertion time);
* :func:`touch_affects_query` is the intersection test the caches run
  per entry on validation.

The test is conservative (false positives drop a still-valid entry --
harmless), never optimistic: any mutation that *could* change a query's
result intersects its profile.  A new edge can extend any match using
its type (or any untyped query edge); a new vertex can extend matches
of unconstrained query vertices and of predicates over its attributes;
an attribute write can flip any predicate over that attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from repro.core.query import GraphQuery

__all__ = [
    "DeltaTouch",
    "QueryTouchProfile",
    "delta_touch",
    "query_touch_profile",
    "touch_affects_query",
]


@dataclass(frozen=True)
class DeltaTouch:
    """What one delta record run can possibly affect."""

    vertex_attrs: FrozenSet[str]
    edge_attrs: FrozenSet[str]
    edge_types: FrozenSet[str]
    vertices_added: bool
    edges_added: bool


@dataclass(frozen=True)
class QueryTouchProfile:
    """What one query's result depends on (the per-entry cache key side)."""

    vertex_attrs: FrozenSet[str]
    edge_attrs: FrozenSet[str]
    edge_types: FrozenSet[str]
    #: the query has a vertex with no predicates: any vertex add matters
    unconstrained_vertex: bool
    #: the query has an edge with no type set: any edge add matters
    untyped_edge: bool


def delta_touch(deltas: Iterable[Tuple]) -> DeltaTouch:
    """Fold a delta record run into one touch summary."""
    vertex_attrs: set = set()
    edge_attrs: set = set()
    edge_types: set = set()
    vertices_added = False
    edges_added = False
    for record in deltas:
        kind = record[0]
        if kind == "v":
            vertices_added = True
            vertex_attrs.update(record[2])
        elif kind == "e":
            edges_added = True
            edge_types.add(record[4])
            edge_attrs.update(record[5])
        elif kind == "va":
            vertex_attrs.add(record[2])
        elif kind == "ea":
            edge_attrs.add(record[2])
        else:
            raise ValueError(f"unknown delta record kind {kind!r}")
    return DeltaTouch(
        frozenset(vertex_attrs),
        frozenset(edge_attrs),
        frozenset(edge_types),
        vertices_added,
        edges_added,
    )


def query_touch_profile(query: GraphQuery) -> QueryTouchProfile:
    """Precompute which touches can change this query's result."""
    vertex_attrs: set = set()
    edge_attrs: set = set()
    edge_types: set = set()
    unconstrained_vertex = False
    untyped_edge = False
    for qvertex in query.vertices():
        if qvertex.predicates:
            vertex_attrs.update(qvertex.predicates)
        else:
            unconstrained_vertex = True
    for qedge in query.edges():
        edge_attrs.update(qedge.predicates)
        if qedge.types is None:
            untyped_edge = True
        else:
            edge_types.update(qedge.types)
    return QueryTouchProfile(
        frozenset(vertex_attrs),
        frozenset(edge_attrs),
        frozenset(edge_types),
        unconstrained_vertex,
        untyped_edge,
    )


def touch_affects_query(touch: DeltaTouch, profile: QueryTouchProfile) -> bool:
    """Can the delta run change the query's result?  (Conservative.)"""
    if touch.vertex_attrs & profile.vertex_attrs:
        return True
    if touch.edge_attrs & profile.edge_attrs:
        return True
    if touch.edge_types & profile.edge_types:
        return True
    if touch.edges_added and profile.untyped_edge:
        return True
    if touch.vertices_added and profile.unconstrained_vertex:
        return True
    return False
