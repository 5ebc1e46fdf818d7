"""Change propagation (Sec. 6.3): a child's count from its parent's.

A fine-grained child that edits one query element and leaves the rest
of the query alone has a match set the parent's determines, under
injective and homomorphic semantics alike (every match binds every
query element, and only that element's candidates changed).  When the
parent's count ``p`` is exact -- below the search's count limit ``L``
-- a child editing the predicate map of one query vertex is counted
without a full evaluation:

* a **restriction** (:class:`AddPredicate`, :class:`NarrowInterval`,
  :class:`RemovePredicateValue`) keeps a subset of the parent's matches:
  its count is the number of parent matches whose bound vertex is in the
  child's interned predicate mask.  The parent's bounded match list is
  taken once per expanded node, on its first such child, and only the
  bound-index column of each query vertex is kept;
* a **relaxation** (:class:`AddPredicateValue`, :class:`WidenInterval`,
  :class:`DropPredicate`) splits the child's matches into the parent's
  ``p`` (vertex in the parent's mask) and those binding the vertex to a
  newly admitted one (``child mask & ~parent mask``), counted by a plan
  seeded there over that pool with limit ``L - p``: ``min(p + d, L)``.

A child editing one query edge and keeping its type set is
**unchanged** when the edit gains or loses no (data edge, orientation)
pair between the edge's endpoint masks: every match binds that edge
through such a pair, so the child has exactly the parent's matches and
its count is ``p``, whether or not ``p`` is at ``L``.  Both sides are
path(1) counts over the interned projections
(:meth:`CSRIndex.path1_count <repro.matching.csr.CSRIndex.path1_count>`):

* a **direction edit** (:class:`RelaxDirection`,
  :class:`RestrictDirection`) gains or loses nothing when no data edge
  between the endpoints' masks runs in the orientation it adds or
  drops -- the count of that one orientation is 0;
* a **predicate edit** (the six above) is monotone, so one side's
  pairs hold the other's, and it gains or loses nothing when the
  parent's and the child's edge count alike.

A data self-loop binds alike both ways; one admitted in the added or
dropped orientation still counts as a change (conservative).

Anything else -- a type-set edit, an edge edit that does gain or lose
pairs, an inexact parent of a vertex edit, a bounded match list shorter
than ``p`` -- returns ``None`` and the caller counts the child with the
matcher, as it does when the graph's version moved between the parent's
count and the end of the derivation: a count mixing two versions is
never returned.  Nothing outlives the node's expansion.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import gt, not_
from typing import Dict, Mapping, Optional

from repro.core.query import GraphQuery, QueryEdge
from repro.matching.csr import csr_for
from repro.matching.matcher import PatternMatcher
from repro.rewrite.operations import (
    AddPredicate,
    AddPredicateValue,
    DropPredicate,
    Modification,
    NarrowInterval,
    RelaxDirection,
    RemovePredicateValue,
    RestrictDirection,
    WidenInterval,
)

__all__ = ["ParentCounts"]

_RESTRICTIONS = (AddPredicate, NarrowInterval, RemovePredicateValue)
_RELAXATIONS = (AddPredicateValue, WidenInterval, DropPredicate)
#: the edge edits the unchanged-edge rule takes: each is monotone, so
#: one side's (data edge, orientation) pairs hold the other's
_EDGE_EDITS = _RESTRICTIONS + _RELAXATIONS + (RelaxDirection, RestrictDirection)


class ParentCounts:
    """One expanded node's exact count, put to work for its children.

    ``count`` is the parent's count under ``limit`` (``None``: unbounded),
    taken while the graph stood at ``version``; ``children`` maps each
    child query to the operation that made it.  :meth:`derive` is the
    ``derive`` callable of :meth:`QueryResultCache.count
    <repro.rewrite.cache.QueryResultCache.count>`.
    """

    __slots__ = (
        "matcher", "parent", "count", "version", "limit", "children", "_columns",
        "filtered", "seeded", "unchanged",
    )

    def __init__(
        self,
        matcher: PatternMatcher,
        parent: GraphQuery,
        count: int,
        version: int,
        limit: Optional[int],
        children: Mapping[GraphQuery, Modification],
    ) -> None:
        self.matcher = matcher
        self.parent = parent
        self.count = count
        self.version = version
        self.limit = limit
        self.children = children
        #: query vertex -> the vertex index each parent match binds it to;
        #: empty when the bounded match list is not the whole count
        self._columns: Optional[Dict[int, array]] = None
        #: counts this frame answered by each rule
        self.filtered = self.seeded = self.unchanged = 0

    def derive(self, query: GraphQuery, limit: Optional[int]) -> Optional[int]:
        """``query``'s count under ``limit``, or ``None`` to fall back."""
        op = self.children.get(query)
        if op is None or limit != self.limit:
            return None
        kind, ident = op.target
        if kind == "vertex" and limit is not None and self.count >= limit:
            return None  # the parent's count is a bound, not its size
        graph = self.matcher.graph
        if graph.version != self.version:
            return None
        csr = csr_for(graph)
        if kind == "edge":
            value = self._unchanged(csr, query, op, ident)
        elif isinstance(op, _RESTRICTIONS):
            value = self._filtered(csr, query, ident)
        elif isinstance(op, _RELAXATIONS):
            value = self._seeded(csr, query, ident)
        else:
            return None
        # a write since the parent's count may have moved either side
        if value is None or graph.version != self.version:
            return None
        if kind == "edge":
            self.unchanged += 1
            self.matcher.derived_unchanged += 1
        elif isinstance(op, _RESTRICTIONS):
            self.filtered += 1
        else:
            self.seeded += 1
        return value

    def _unchanged(self, csr, query: GraphQuery, op, eid: int) -> Optional[int]:
        # checked first: a topology edit (an edge removed) leaves no child edge
        if not isinstance(op, _EDGE_EDITS):
            return None
        parent_edge, child_edge = self.parent.edge(eid), query.edge(eid)
        if parent_edge.types != child_edge.types:
            return None
        ends = self.parent.vertex(parent_edge.source), self.parent.vertex(parent_edge.target)
        turned = parent_edge.directions ^ child_edge.directions
        if turned:
            # a direction edit moves nothing if no pair runs the way it turns
            edge = QueryEdge(
                eid, child_edge.source, child_edge.target,
                child_edge.types, turned, child_edge.predicates,
            )
            unchanged = csr.path1_count(edge, *ends) == 0
        else:
            # a predicate edit: the wider side's edges hold the narrower's, so
            # equal counts are equal sets
            unchanged = csr.path1_count(parent_edge, *ends) == csr.path1_count(child_edge, *ends)
        return self.count if unchanged else None

    def _filtered(self, csr, query: GraphQuery, vid: int) -> Optional[int]:
        columns = self._columns
        if columns is None:
            matches = self.matcher.match(self.parent, limit=self.limit)
            columns = {}
            if len(matches) == self.count:
                columns = {qvid: array("i") for qvid in self.parent.vertex_ids}
                ix_of = csr.ix_of
                for match in matches:
                    for qvid, data_vid in match.vertex_bindings:
                        columns[qvid].append(ix_of[data_vid])
            self._columns = columns
        if not columns:
            return None
        return self.matcher.count_filtered(columns[vid], csr.vertex_mask(query.vertex(vid)))

    def _seeded(self, csr, query: GraphQuery, vid: int) -> int:
        parent_mask = csr.vertex_mask(self.parent.vertex(vid))
        child_mask = csr.vertex_mask(query.vertex(vid))
        # the vertices the child admits and the parent does not
        admitted = map(not_, parent_mask) if child_mask is None else map(gt, child_mask, parent_mask)
        pool = array("i", compress(range(len(parent_mask)), admitted))
        rest = None if self.limit is None else self.limit - self.count
        return self.count + self.matcher.count_seeded(query, vid, pool, rest)
