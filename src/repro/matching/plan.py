"""Search-order planning for the backtracking matcher.

A plan is a sequence of steps.  ``SeedStep`` binds the first vertex of a
connected component by enumerating its candidates; ``ExpandStep`` matches
one query edge from an already-bound anchor vertex, possibly binding the
opposite endpoint.  Isolated query vertices become seeds of their own.

The planner orders components and edges by estimated selectivity so cheap,
highly-constrained elements are matched first (the classic "fail fast"
ordering the GRAPHITE executor used); a caller-supplied ``edge_order`` can
override this, which is how the Ch. 4 traversal-path selection steers the
evaluation.

Plans are built, not cached: every evaluation orders its query afresh
from index counts the graph already keeps, so a plan always reflects
the current statistics and there is no invalidation rule to get wrong.
Each call returns a fresh list of immutable steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.matching.candidates import (
    estimate_edge_candidates,
    estimate_vertex_candidates,
)


@dataclass(frozen=True)
class SeedStep:
    """Bind query vertex ``vid`` by enumerating its candidates."""

    vid: int


@dataclass(frozen=True)
class ExpandStep:
    """Match query edge ``eid`` anchored at the bound vertex ``anchor``.

    ``new_vid`` is the opposite endpoint when it is not bound yet, else
    ``None`` (the edge then only checks consistency between two bound
    vertices).
    """

    eid: int
    anchor: int
    new_vid: Optional[int]


PlanStep = Union[SeedStep, ExpandStep]


def build_plan(
    graph: PropertyGraph,
    query: GraphQuery,
    edge_order: Optional[Sequence[int]] = None,
) -> List[PlanStep]:
    """Produce a connected, selectivity-ordered evaluation plan.

    ``edge_order`` forces the given query-edge processing order (edges must
    form a valid traversal; seeds are inserted automatically whenever the
    next edge touches no bound vertex).
    """
    if edge_order is not None:
        return _plan_from_edge_order(query, list(edge_order))

    selectivity: Dict[int, int] = {
        v.vid: estimate_vertex_candidates(graph, v) for v in query.vertices()
    }
    edge_cost: Dict[int, int] = {
        e.eid: estimate_edge_candidates(graph, e) for e in query.edges()
    }

    steps: List[PlanStep] = []
    bound: Set[int] = set()
    remaining_edges: Set[int] = set(query.edge_ids)
    remaining_vertices: Set[int] = set(query.vertex_ids)

    while remaining_edges or remaining_vertices:
        frontier = [
            eid
            for eid in remaining_edges
            if query.edge(eid).source in bound or query.edge(eid).target in bound
        ]
        if frontier:
            # Cheapest expansion first: prefer edges whose unbound endpoint
            # is selective and whose type is rare.
            def expansion_cost(eid: int) -> tuple:
                edge = query.edge(eid)
                new_vid = _unbound_end(edge.source, edge.target, bound)
                vertex_part = selectivity[new_vid] if new_vid is not None else 0
                return (vertex_part, edge_cost[eid], eid)

            eid = min(frontier, key=expansion_cost)
            edge = query.edge(eid)
            anchor = edge.source if edge.source in bound else edge.target
            new_vid = _unbound_end(edge.source, edge.target, bound)
            steps.append(ExpandStep(eid, anchor, new_vid))
            remaining_edges.discard(eid)
            if new_vid is not None:
                bound.add(new_vid)
                remaining_vertices.discard(new_vid)
            continue

        # No edge touches a bound vertex: seed a new component at its most
        # selective vertex.
        seed = min(remaining_vertices, key=lambda vid: (selectivity[vid], vid))
        steps.append(SeedStep(seed))
        bound.add(seed)
        remaining_vertices.discard(seed)

    return steps


def _unbound_end(source: int, target: int, bound: Set[int]) -> Optional[int]:
    if source not in bound:
        return source
    if target not in bound:
        return target
    return None


def _plan_from_edge_order(query: GraphQuery, edge_order: List[int]) -> List[PlanStep]:
    """Turn an explicit edge sequence into a plan with automatic seeding."""
    steps: List[PlanStep] = []
    bound: Set[int] = set()
    for eid in edge_order:
        edge = query.edge(eid)
        if edge.source not in bound and edge.target not in bound:
            steps.append(SeedStep(edge.source))
            bound.add(edge.source)
        anchor = edge.source if edge.source in bound else edge.target
        new_vid = _unbound_end(edge.source, edge.target, bound)
        steps.append(ExpandStep(eid, anchor, new_vid))
        if new_vid is not None:
            bound.add(new_vid)
    # Isolated vertices (and vertices untouched by edge_order) become seeds.
    for vid in sorted(query.vertex_ids - bound):
        steps.append(SeedStep(vid))
        bound.add(vid)
    covered = {s.eid for s in steps if isinstance(s, ExpandStep)}
    missing = query.edge_ids - covered
    if missing:
        raise ValueError(f"edge_order misses query edges: {sorted(missing)}")
    return steps
