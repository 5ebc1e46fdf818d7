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
its type (or any untyped query edge); an attribute write can flip any
predicate over that attribute.  A new vertex can only bind a query
vertex with no incident edge (a *lone* one): until an edge reaches it, it
binds no query vertex that has one, and the ``"e"`` record that attaches
it touches that edge's type (or any untyped query edge).  It binds a
lone vertex only if it carries every attribute that vertex's predicates
name (a predicate on a missing attribute fails), so a ``"v"`` record
touches the queries with a lone vertex whose predicate attributes are
all among those the run's new vertices carry -- a predicate-free one
always.  Its attributes go to their own field, not to ``vertex_attrs``:
they move no existing vertex, and a later ``"va"`` write in the run is
still caught there.
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
    #: the attribute names the run's new vertices carry (``"v"`` records)
    new_vertex_attrs: FrozenSet[str]


@dataclass(frozen=True)
class QueryTouchProfile:
    """What one query's result depends on (the per-entry cache key side)."""

    vertex_attrs: FrozenSet[str]
    edge_attrs: FrozenSet[str]
    edge_types: FrozenSet[str]
    #: the query has an edge with no type set: any edge add matters
    untyped_edge: bool
    #: the predicate attribute names of each vertex with no incident
    #: edge: a vertex add carrying all of one set matters
    lone_vertices: FrozenSet[FrozenSet[str]]


#: the lone vertices of most queries: one shared empty set, not one per
#: cached profile
_NO_LONE_VERTICES: FrozenSet[FrozenSet[str]] = frozenset()


def delta_touch(deltas: Iterable[Tuple]) -> DeltaTouch:
    """Fold a delta record run into one touch summary."""
    vertex_attrs: set = set()
    edge_attrs: set = set()
    edge_types: set = set()
    new_vertex_attrs: set = set()
    vertices_added = False
    edges_added = False
    for record in deltas:
        kind = record[0]
        if kind == "v":
            vertices_added = True
            new_vertex_attrs.update(record[2])
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
        frozenset(new_vertex_attrs),
    )


def query_touch_profile(query: GraphQuery) -> QueryTouchProfile:
    """Precompute which touches can change this query's result."""
    vertex_attrs: set = set()
    edge_attrs: set = set()
    edge_types: set = set()
    attached: set = set()
    untyped_edge = False
    for qvertex in query.vertices():
        vertex_attrs.update(qvertex.predicates)
    for qedge in query.edges():
        attached.update(qedge.endpoints())
        edge_attrs.update(qedge.predicates)
        if qedge.types is None:
            untyped_edge = True
        else:
            edge_types.update(qedge.types)
    lone = [frozenset(v.predicates) for v in query.vertices() if v.vid not in attached]
    return QueryTouchProfile(
        frozenset(vertex_attrs),
        frozenset(edge_attrs),
        frozenset(edge_types),
        untyped_edge,
        frozenset(lone) if lone else _NO_LONE_VERTICES,
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
    if touch.vertices_added and any(
        attrs <= touch.new_vertex_attrs for attrs in profile.lone_vertices
    ):
        return True
    return False
