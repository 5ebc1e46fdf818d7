"""Search-order planning for the backtracking matcher.

A plan is a sequence of steps.  ``SeedStep`` binds the first vertex of a
connected component by enumerating its candidates; ``ExpandStep`` matches
one query edge from an already-bound anchor vertex, possibly binding the
opposite endpoint.  Isolated query vertices become seeds of their own.

The automatic order is the one of least estimated ``steps`` -- the
candidates the matcher scans -- read off the graph's CSR image
(:mod:`repro.matching.csr`), its masks filled through the shared
evaluation cache:

* a seed scans its pool: ``|cand(v)|`` steps, one binding each;
* expanding edge ``e`` from a bound anchor ``a`` scans, per binding of
  ``a``, the anchor's degree in the ``(type, direction)`` segments the
  matcher walks, averaged over ``cand(a)`` with each candidate weighted
  by the product of its degrees over the edges already joined at ``a``
  (1 at a fresh seed).  A vertex reached over an edge is reached once
  per incident edge, so an unweighted mean misses the skew -- posts
  concentrate on popular tags;
* the bindings carried forward are that scan times the share of ``e``'s
  edges that land in ``cand(other)``.  A closing edge, both ends bound,
  also divides by ``|cand(other)|`` and is anchored at whichever end
  scans less.

Every vertex is tried as the seed, cheapest lower bound (pool plus one
full first scan) first, until that bound reaches the best estimate
found; each seed is extended greedily by the expansion leaving the
fewest bindings.  A one-edge query compares its two seeds directly.
Ties break on the lowest id, so plans are deterministic.  A
caller-supplied ``edge_order`` overrides the order, which is how the
Ch. 4 traversal-path selection steers the evaluation.

Plans are built, not cached: every evaluation orders its query afresh
from degree sums memoised per CSR version
(:class:`~repro.matching.csr.DegreeSums`), so a plan always reflects
the current statistics and there is no invalidation rule to get wrong.
Each call returns a fresh list of immutable steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.graph import PropertyGraph
from repro.core.query import Direction, GraphQuery, QueryEdge
from repro.matching.csr import csr_for
from repro.matching.evalcache import shared_evaluation_cache


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

#: ``(type, direction)`` adjacency segments one expansion scans
Segments = Tuple[Tuple[Optional[str], str], ...]


def build_plan(
    graph: PropertyGraph,
    query: GraphQuery,
    edge_order: Optional[Sequence[int]] = None,
) -> List[PlanStep]:
    """Produce a connected evaluation plan of least estimated ``steps``.

    ``edge_order`` forces the given query-edge processing order (edges must
    form a valid traversal; seeds are inserted automatically whenever the
    next edge touches no bound vertex).
    """
    if edge_order is not None:
        return _plan_from_edge_order(query, list(edge_order))
    return _CostModel(graph, query).plan()


#: a search-time plan step: ``(vid,)`` seeds, ``(eid, anchor, new_vid)``
#: expands; only the winning order becomes :data:`PlanStep` objects
_Move = Tuple[int, ...]


class _CostModel:
    """The ``steps`` estimate of one query (see the module docstring).

    ``sums[vid]`` is the vertex's :class:`~repro.matching.csr.DegreeSums`
    table: factors (the segments of edges joined at ``vid``) -> the sum
    over ``cand(vid)`` of the product of each candidate's degrees in them.
    """

    __slots__ = ("ends", "sums", "size", "arcs", "floor")

    def __init__(self, graph: PropertyGraph, query: GraphQuery) -> None:
        csr = csr_for(graph)
        evalcache = shared_evaluation_cache(graph)
        every = csr.degree_sums(None)
        sums = self.sums = {v.vid: csr.degree_sums(v, evalcache) for v in query.vertices()}
        size = self.size = {vid: table[()] for vid, table in sums.items()}
        self.ends: Dict[int, Tuple[int, int]] = {}
        #: (eid, anchor) -> (other end, segments scanned from the anchor,
        #: segments scanned from the other end, mean scan of a fresh
        #: anchor binding, share of the scanned edges landing in cand(other))
        self.arcs: Dict[Tuple[int, int], Tuple[int, Segments, Segments, float, float]] = {}
        first_scan: Dict[int, int] = {}
        for edge in query.edges():
            eid, source, target = edge.eid, edge.source, edge.target
            self.ends[eid] = source, target
            at_source, at_target = _segments(edge)
            scanned = every[(at_source,)]
            reach_s = sums[source][(at_source,)]
            reach_t = sums[target][(at_target,)]
            self.arcs[eid, source] = (
                target, at_source, at_target,
                _ratio(reach_s, size[source]), min(1.0, _ratio(reach_t, scanned)),
            )
            self.arcs[eid, target] = (
                source, at_target, at_source,
                _ratio(reach_t, size[target]), min(1.0, _ratio(reach_s, scanned)),
            )
            first_scan[source] = min(first_scan.get(source, reach_s), reach_s)
            first_scan[target] = min(first_scan.get(target, reach_t), reach_t)
        #: vid -> a lower bound on a plan seeded there: the pool plus one
        #: full scan of its cheapest incident edge
        self.floor = {vid: n + first_scan.get(vid, 0) for vid, n in size.items()}

    def plan(self) -> List[PlanStep]:
        size, ends = self.size, self.ends
        if len(ends) == 1 and set(next(iter(ends.values()))) == size.keys():
            return _steps(self._one_edge())
        by_size = sorted(size, key=lambda vid: (size[vid], vid))
        if not ends:
            return _steps([(vid,) for vid in by_size])
        floor = self.floor
        best: Tuple[float, List[_Move]] = (float("inf"), [])
        for seed in sorted(by_size, key=floor.__getitem__):
            if floor[seed] >= best[0]:
                break
            best = self._extend(seed, by_size, best)
        return _steps(best[1])

    def _one_edge(self) -> List[_Move]:
        """Fast path of a query that is one edge and its ends: seed the end
        of smaller :attr:`floor`, then expand (or close a self-loop)."""
        ((eid, (source, target)),) = self.ends.items()
        if source == target:
            return [(source,), (eid, source, None)]
        floor = self.floor
        seed, other = sorted((source, target), key=lambda vid: (floor[vid], self.size[vid], vid))
        return [(seed,), (eid, seed, other)]

    def _extend(
        self, seed: int, by_size: List[int], best: Tuple[float, List[_Move]]
    ) -> Tuple[float, List[_Move]]:
        """Greedy completion from ``seed`` (the expansion leaving the fewest
        bindings first), or ``best`` once the estimate reaches its cost."""
        size, sums, arcs = self.size, self.sums, self.arcs
        ends = dict(self.ends)
        bound_cost = best[0]
        moves: List[_Move] = [(seed,)]
        bindings = float(size[seed])
        cost = bindings
        #: bound vertex -> the factors of the edges joined at it so far
        joined: Dict[int, Tuple[Segments, ...]] = {seed: ()}

        def fan_out(anchor: int, segments: Segments, fresh: float) -> float:
            weights = joined[anchor]
            if not weights:
                return fresh
            table = sums[anchor]
            total = table[weights]
            return table[weights + (segments,)] / total if total else 0.0

        while ends:
            choice = None
            for eid, (source, target) in ends.items():
                if source in joined:
                    anchor = source
                elif target in joined:
                    anchor = target
                else:
                    continue
                other, here, there, fresh, share = arc = arcs[eid, anchor]
                fan = fan_out(anchor, here, fresh)
                if other in joined:
                    # closing edge: anchor at the endpoint that scans less
                    back = arcs[eid, other]
                    fan_back = fan_out(other, there, back[3])
                    if fan_back < fan:
                        anchor, other, fan, arc = other, anchor, fan_back, back
                    key = (fan * arc[4] / max(size[other], 1), fan, eid)
                else:
                    key = (fan * share, fan, eid)
                if choice is None or key < choice[0]:
                    choice = (key, anchor, arc)
            if choice is None:
                # the bound component is exhausted: seed the next one
                vid = next(vid for vid in by_size if vid not in joined)
                moves.append((vid,))
                joined[vid] = ()
                cost += bindings * size[vid]
                bindings *= size[vid]
            else:
                (kept, fan, eid), anchor, (other, here, there, _, _) = choice
                moves.append((eid, anchor, None if other in joined else other))
                del ends[eid]
                cost += bindings * fan
                bindings *= kept
                joined[anchor] += (here,)
                joined[other] = joined.get(other, ()) + (there,)
            if cost >= bound_cost:
                return best
        for vid in by_size:
            if vid not in joined:
                moves.append((vid,))
                cost += bindings * size[vid]
                bindings *= size[vid]
        return (cost, moves) if cost < bound_cost else best


def _segments(edge: QueryEdge) -> Tuple[Segments, Segments]:
    """The ``(type, direction)`` segments an expansion of ``edge`` scans
    anchored at its source and at its target, in the matcher's order."""
    types = sorted(edge.types) if edge.types is not None else (None,)
    out = tuple([(t, "out") for t in types])
    into = tuple([(t, "in") for t in types])
    if Direction.BACKWARD not in edge.directions:
        return out, into
    if Direction.FORWARD not in edge.directions:
        return into, out
    return out + into, out + into


def _steps(moves: List[_Move]) -> List[PlanStep]:
    return [SeedStep(*move) if len(move) == 1 else ExpandStep(*move) for move in moves]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


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
