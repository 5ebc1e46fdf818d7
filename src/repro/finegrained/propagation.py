"""Change propagation (Sec. 6.3): a child's count from its parent's.

A fine-grained child that edits the predicate map of one query vertex
and leaves the rest of the query alone has a match set the parent's
determines, under injective and homomorphic semantics alike (every
match binds every query element, and only that vertex's candidates
changed).  When the parent's count ``p`` is exact -- below the search's
count limit ``L`` -- the child is counted without a full evaluation:

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

Anything else -- edge-side edits, direction changes, an inexact parent,
a partial graph, a bounded match list shorter than ``p`` -- returns
``None`` and the caller counts the child with the matcher, as it does
when the graph's version moved between the parent's count and the end
of the derivation: a count mixing two versions is never returned.
Nothing outlives the node's expansion.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import gt, not_
from typing import Dict, Mapping, Optional

from repro.core.query import GraphQuery
from repro.matching.csr import csr_for
from repro.matching.matcher import PatternMatcher
from repro.rewrite.operations import (
    AddPredicate,
    AddPredicateValue,
    DropPredicate,
    Modification,
    NarrowInterval,
    RemovePredicateValue,
    WidenInterval,
)

__all__ = ["ParentCounts"]

_RESTRICTIONS = (AddPredicate, NarrowInterval, RemovePredicateValue)
_RELAXATIONS = (AddPredicateValue, WidenInterval, DropPredicate)


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
        "filtered", "seeded",
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
        self.filtered = self.seeded = 0

    def derive(self, query: GraphQuery, limit: Optional[int]) -> Optional[int]:
        """``query``'s count under ``limit``, or ``None`` to fall back."""
        op = self.children.get(query)
        if op is None or op.target[0] != "vertex" or limit != self.limit:
            return None
        if limit is not None and self.count >= limit:
            return None  # the parent's count is a bound, not its size
        graph = self.matcher.graph
        if graph.version != self.version:
            return None
        csr = csr_for(graph)
        if csr.partial:
            return None
        vid = op.target[1]
        if isinstance(op, _RESTRICTIONS):
            value = self._filtered(csr, query, vid)
        elif isinstance(op, _RELAXATIONS):
            value = self._seeded(csr, query, vid)
        else:
            return None
        # a write since the parent's count may have moved either side
        if value is None or graph.version != self.version:
            return None
        if isinstance(op, _RESTRICTIONS):
            self.filtered += 1
        else:
            self.seeded += 1
        return value

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
