"""Vertex-range graph partitioning: shards, boundary index, façade.

The scaling architecture every production graph store converges on is
*partitioned storage plus worker-parallel matching*: split the vertex
set into ranges, keep each range's adjacency local to one shard, index
the edges that cross shards, and fan per-shard work out to workers.
This module is that storage layer for :class:`~repro.core.graph.PropertyGraph`:

* :class:`GraphShard` -- one vertex-range block: the owned vertices'
  attribute maps, their full (untyped *and* type-partitioned) adjacency,
  a per-shard edge-type index over the edges it owns (source-owned), a
  lazily built per-shard vertex-attribute index, and the shard's
  boundary-edge lists.  A shard is a self-contained candidate-
  enumeration substrate: :func:`repro.matching.candidates.vertex_candidates`
  runs against a shard directly, which is what lets candidate
  enumeration fan out per shard without touching the others.
* :class:`ShardedGraph` -- the read-only façade over all shards.  It
  exposes the same read-accessor surface as :class:`PropertyGraph`
  (adjacency, typed adjacency, indexes, counts, iteration), so the
  unmodified :class:`~repro.matching.matcher.PatternMatcher`, the
  statistics provider and the attribute domain evaluate against it
  transparently; vertex-keyed accessors route to the owning shard,
  merged views are derived deterministically (shard order = ascending
  vertex ranges).
* :class:`GraphPartitioner` -- splits a graph into ``num_shards``
  contiguous vertex-range shards balanced by vertex count, and builds
  the cross-shard **boundary-edge index** (``(source_shard,
  target_shard) -> edge ids``) the distribution layer plans with.

Snapshot semantics: a :class:`ShardedGraph` is an immutable snapshot of
the source graph at partition time (it records the source's mutation
``version``); the mutating ``add_vertex``/``add_edge`` entry points
raise.  Re-partition after mutating the source.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import UnknownEdgeError, UnknownVertexError
from repro.core.graph import EdgeRecord, PropertyGraph

__all__ = ["GraphPartitioner", "GraphShard", "ShardedGraph"]

#: shared immutable empties (same idiom as :mod:`repro.core.graph`)
_EMPTY_SEQ: Tuple[int, ...] = ()
_EMPTY_SET: FrozenSet[int] = frozenset()


class _ShardCell:
    """Per-vertex storage inside one shard (attributes + adjacency)."""

    __slots__ = ("attributes", "out_edges", "in_edges", "out_by_type", "in_by_type")

    def __init__(self, attributes: Mapping[str, Any]) -> None:
        self.attributes = attributes
        self.out_edges: List[int] = []
        self.in_edges: List[int] = []
        self.out_by_type: Dict[str, List[int]] = {}
        self.in_by_type: Dict[str, List[int]] = {}


class GraphShard:
    """One contiguous vertex-range block of a partitioned graph.

    Owns the attribute maps and the complete adjacency (both directions,
    untyped and type-partitioned) of its vertex range, the edge records
    *sourced* at its vertices, a per-shard edge-type index over those,
    and the boundary-edge id lists.  Attribute maps are shared with the
    source graph (zero-copy snapshot); treat them as read-only.

    The shard deliberately exposes the candidate-enumeration subset of
    the :class:`~repro.core.graph.PropertyGraph` accessor surface
    (``vertices``/``vertex_attributes``/``vertices_with``/...), so
    :func:`repro.matching.candidates.vertex_candidates` evaluates a
    query vertex against *one shard* without any special casing -- the
    per-shard half of sharded candidate enumeration.
    """

    def __init__(self, index: int, vids: Sequence[int]) -> None:
        self.index = index
        #: owned vertex ids, ascending
        self.vids: Tuple[int, ...] = tuple(vids)
        self._vid_set: FrozenSet[int] = frozenset(vids)
        self._cells: Dict[int, _ShardCell] = {}
        #: edge records sourced at an owned vertex (insertion order)
        self._edges: Dict[int, EdgeRecord] = {}
        #: edge type -> owned (source-owned) edge ids
        self._type_index: Dict[str, Set[int]] = {}
        #: lazily built attr -> value -> owned vertex ids
        self._vertex_index: Dict[str, Dict[Any, Set[int]]] = {}
        self._indexed_attrs: Set[str] = set()
        #: boundary edges: source owned here, target owned elsewhere / vice versa
        self.boundary_out: Tuple[int, ...] = ()
        self.boundary_in: Tuple[int, ...] = ()

    # -- construction (partitioner only) ---------------------------------------

    def _add_vertex(self, vid: int, attributes: Mapping[str, Any]) -> None:
        self._cells[vid] = _ShardCell(attributes)

    def _register_out(self, record: EdgeRecord) -> None:
        cell = self._cells[record.source]
        cell.out_edges.append(record.eid)
        cell.out_by_type.setdefault(record.type, []).append(record.eid)
        self._edges[record.eid] = record
        self._type_index.setdefault(record.type, set()).add(record.eid)

    def _register_in(self, record: EdgeRecord) -> None:
        cell = self._cells[record.target]
        cell.in_edges.append(record.eid)
        cell.in_by_type.setdefault(record.type, []).append(record.eid)

    # -- ownership --------------------------------------------------------------

    def owns(self, vid: int) -> bool:
        return vid in self._vid_set

    @property
    def vertex_ids(self) -> FrozenSet[int]:
        """Owned vertex ids (the shard's seed pool)."""
        return self._vid_set

    # -- candidate-enumeration surface (duck-typed with PropertyGraph) ----------

    def vertices(self) -> Iterator[int]:
        return iter(self.vids)

    @property
    def num_vertices(self) -> int:
        return len(self.vids)

    @property
    def num_edges(self) -> int:
        """Edges owned (sourced) by this shard."""
        return len(self._edges)

    def vertex_attributes(self, vid: int) -> Mapping[str, Any]:
        try:
            return self._cells[vid].attributes
        except KeyError:
            raise UnknownVertexError(vid) from None

    def create_vertex_index(self, attr: str) -> None:
        index: Dict[Any, Set[int]] = {}
        for vid in self.vids:
            attributes = self._cells[vid].attributes
            if attr in attributes:
                index.setdefault(attributes[attr], set()).add(vid)
        self._vertex_index[attr] = index
        self._indexed_attrs.add(attr)

    def vertices_with(self, attr: str, value: Any) -> AbstractSet[int]:
        """Owned vertices whose ``attr`` equals ``value`` (lazy index)."""
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return self._vertex_index[attr].get(value, _EMPTY_SET)

    def num_vertices_with(self, attr: str, value: Any) -> int:
        return len(self.vertices_with(attr, value))

    # -- adjacency (routed to by the façade) -------------------------------------

    def _cell(self, vid: int) -> _ShardCell:
        try:
            return self._cells[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None

    def out_edges(self, vid: int) -> Sequence[int]:
        return self._cell(vid).out_edges

    def in_edges(self, vid: int) -> Sequence[int]:
        return self._cell(vid).in_edges

    def out_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        return self._cell(vid).out_by_type.get(type, _EMPTY_SEQ)

    def in_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        return self._cell(vid).in_by_type.get(type, _EMPTY_SEQ)

    def edges_of_type(self, type: str) -> AbstractSet[int]:
        """Owned (source-owned) edges carrying ``type``."""
        return self._type_index.get(type, _EMPTY_SET)

    def num_edges_of_type(self, type: str) -> int:
        return len(self._type_index.get(type, _EMPTY_SET))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphShard(index={self.index}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, boundary_out={len(self.boundary_out)}, "
            f"boundary_in={len(self.boundary_in)})"
        )


class ShardedGraph:
    """Read-only façade over vertex-range shards of one property graph.

    Exposes the :class:`~repro.core.graph.PropertyGraph` read-accessor
    surface, so the unmodified matcher / statistics / attribute-domain
    stack evaluates against it transparently (an ``ExecutionContext``
    accepts one); vertex-keyed accessors route to the owning shard, and
    merged views iterate shards in ascending-range order so enumeration
    stays deterministic.  Built by :class:`GraphPartitioner`.

    Mutation is not supported: the instance is a snapshot pinned at the
    source graph's partition-time :attr:`version` (version-keyed caches
    built over the façade therefore never self-invalidate spuriously).
    """

    def __init__(
        self,
        shards: Sequence[GraphShard],
        edges: Dict[int, EdgeRecord],
        version: int,
        boundary: Dict[Tuple[int, int], Tuple[int, ...]],
        source: Optional[PropertyGraph] = None,
    ) -> None:
        self._shards: Tuple[GraphShard, ...] = tuple(shards)
        self._edges = edges
        self._version = version
        self._boundary = boundary
        #: weak link to the partitioned graph: delta routing
        #: (:func:`repro.core.serialize.route_deltas`) resolves elements
        #: a stale snapshot has not seen against the live graph
        self._source_ref = (
            weakref.ref(source) if source is not None else lambda: None
        )
        #: ascending upper bounds of the non-empty shards (for routing;
        #: empty shards own no vid and never resolve)
        routed = [shard for shard in self._shards if shard.vids]
        self._route_highs: List[int] = [shard.vids[-1] for shard in routed]
        self._route_shards: List[GraphShard] = routed
        self._num_vertices = sum(s.num_vertices for s in self._shards)
        #: lazily merged edge-type index (shard-order union on first
        #: use; per-shard evaluation never needs the merged copy, so
        #: partitioning must not pay O(E) duplication up front)
        self._type_index: Optional[Dict[str, Set[int]]] = None
        #: lazily built merged vertex-attribute index
        self._vertex_index: Dict[str, Dict[Any, Set[int]]] = {}
        self._indexed_attrs: Set[str] = set()

    # -- shard topology ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[GraphShard, ...]:
        return self._shards

    def shard_of(self, vid: int) -> GraphShard:
        """The shard owning ``vid`` (vertex-range routing, O(log S))."""
        pos = bisect_left(self._route_highs, vid)
        if pos < len(self._route_shards) and self._route_shards[pos].owns(vid):
            return self._route_shards[pos]
        raise UnknownVertexError(vid)

    def boundary_edges(self) -> FrozenSet[int]:
        """All edges whose endpoints live in two different shards."""
        out: Set[int] = set()
        for eids in self._boundary.values():
            out.update(eids)
        return frozenset(out)

    def boundary_between(self, source_shard: int, target_shard: int) -> Tuple[int, ...]:
        """Edges from ``source_shard``'s vertices into ``target_shard``'s."""
        return self._boundary.get((source_shard, target_shard), _EMPTY_SEQ)

    def boundary_rows(self, shard_index: int) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """The boundary-index rows *relevant to* one shard.

        The projection of the global ``(source_shard, target_shard) ->
        edge ids`` index onto the rows where ``shard_index`` is either
        side -- exactly the rows a shard-affine worker needs to resolve
        its own cross-shard edges, and the only ones
        :func:`repro.core.serialize.shard_to_wire` ships.
        """
        return {
            key: eids
            for key, eids in self._boundary.items()
            if shard_index in key
        }

    def partition_stats(self) -> Dict[str, object]:
        """Balance / boundary summary (service + benchmark reporting)."""
        sizes = [s.num_vertices for s in self._shards]
        owned = [s.num_edges for s in self._shards]
        boundary = self.boundary_edges()
        return {
            "num_shards": self.num_shards,
            "vertices_per_shard": sizes,
            "edges_per_shard": owned,
            "boundary_edges": len(boundary),
            "boundary_fraction": (
                len(boundary) / len(self._edges) if self._edges else 0.0
            ),
            "version": self._version,
        }

    # -- PropertyGraph read surface: identity & elements -------------------------

    @property
    def version(self) -> int:
        """Source graph's mutation counter at partition time."""
        return self._version

    @property
    def source(self) -> Optional[PropertyGraph]:
        """The partitioned source graph, if still alive (weakly held)."""
        return self._source_ref()

    def has_vertex(self, vid: int) -> bool:
        pos = bisect_left(self._route_highs, vid)
        return pos < len(self._route_shards) and self._route_shards[pos].owns(vid)

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def vertex_attributes(self, vid: int) -> Mapping[str, Any]:
        return self.shard_of(vid).vertex_attributes(vid)

    def edge(self, eid: int) -> EdgeRecord:
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownEdgeError(eid) from None

    # -- adjacency ---------------------------------------------------------------

    def out_edges(self, vid: int) -> Sequence[int]:
        return self.shard_of(vid).out_edges(vid)

    def in_edges(self, vid: int) -> Sequence[int]:
        return self.shard_of(vid).in_edges(vid)

    def out_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        return self.shard_of(vid).out_edges_of_type(vid, type)

    def in_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        return self.shard_of(vid).in_edges_of_type(vid, type)

    def incident_edges(self, vid: int) -> Tuple[int, ...]:
        shard = self.shard_of(vid)
        return tuple(shard.out_edges(vid)) + tuple(shard.in_edges(vid))

    def degree(self, vid: int) -> int:
        shard = self.shard_of(vid)
        return len(shard.out_edges(vid)) + len(shard.in_edges(vid))

    def out_degree_of_type(self, vid: int, type: str) -> int:
        return len(self.out_edges_of_type(vid, type))

    def in_degree_of_type(self, vid: int, type: str) -> int:
        return len(self.in_edges_of_type(vid, type))

    # -- iteration & size --------------------------------------------------------

    def vertices(self) -> Iterator[int]:
        """All vertex ids, shard by shard (globally ascending)."""
        for shard in self._shards:
            yield from shard.vids

    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def edge_ids(self) -> Iterator[int]:
        return iter(self._edges)

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def _merged_type_index(self) -> Dict[str, Set[int]]:
        if self._type_index is None:
            merged: Dict[str, Set[int]] = {}
            for shard in self._shards:
                for type_, eids in shard._type_index.items():
                    merged.setdefault(type_, set()).update(eids)
            self._type_index = merged
        return self._type_index

    def edge_types(self) -> FrozenSet[str]:
        return frozenset(self._merged_type_index())

    # -- secondary indexes --------------------------------------------------------

    def create_vertex_index(self, attr: str) -> None:
        """Build (or rebuild) the merged value index for one attribute."""
        index: Dict[Any, Set[int]] = {}
        for shard in self._shards:
            if attr not in shard._indexed_attrs:
                shard.create_vertex_index(attr)
            for value, vids in shard._vertex_index[attr].items():
                index.setdefault(value, set()).update(vids)
        self._vertex_index[attr] = index
        self._indexed_attrs.add(attr)

    def vertices_with(self, attr: str, value: Any) -> AbstractSet[int]:
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return self._vertex_index[attr].get(value, _EMPTY_SET)

    def num_vertices_with(self, attr: str, value: Any) -> int:
        return len(self.vertices_with(attr, value))

    def vertex_attr_values(self, attr: str) -> KeysView:
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return self._vertex_index[attr].keys()

    def vertex_value_counts(self, attr: str) -> Dict[Any, int]:
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return {value: len(vids) for value, vids in self._vertex_index[attr].items()}

    def edges_of_type(self, type: str) -> AbstractSet[int]:
        return self._merged_type_index().get(type, _EMPTY_SET)

    def num_edges_of_type(self, type: str) -> int:
        return len(self._merged_type_index().get(type, _EMPTY_SET))

    def edge_type_counts(self) -> Dict[str, int]:
        return {t: len(eids) for t, eids in self._merged_type_index().items()}

    # -- bulk helpers --------------------------------------------------------------

    def subgraph(self, vertex_ids: Iterable[int]) -> PropertyGraph:
        """Vertex-induced subgraph as a plain (mutable) ``PropertyGraph``."""
        keep = set(vertex_ids)
        sub = PropertyGraph()
        for vid in sorted(keep):
            sub.add_vertex(vid, **self.vertex_attributes(vid))
        for record in self.edges():
            if record.source in keep and record.target in keep:
                sub.add_edge(
                    record.source,
                    record.target,
                    record.type,
                    eid=record.eid,
                    **record.attributes,
                )
        return sub

    # -- mutation guard ------------------------------------------------------------

    def add_vertex(self, *args: Any, **kwargs: Any) -> int:
        raise TypeError(
            "ShardedGraph is a read-only snapshot; mutate the source graph "
            "and re-partition"
        )

    def add_edge(self, *args: Any, **kwargs: Any) -> int:
        raise TypeError(
            "ShardedGraph is a read-only snapshot; mutate the source graph "
            "and re-partition"
        )

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(shards={self.num_shards}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, boundary={len(self.boundary_edges())})"
        )


class GraphPartitioner:
    """Splits a property graph into balanced vertex-range shards.

    ``num_shards`` contiguous ranges over the ascending vertex-id order,
    balanced by vertex count (sizes differ by at most one).  Contiguity
    keeps shard routing a binary search and keeps the façade's merged
    iteration order identical to the source graph's sorted order.

    >>> sharded = GraphPartitioner(4).partition(graph)
    >>> sharded.num_shards
    4
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards

    def partition(self, graph: PropertyGraph) -> ShardedGraph:
        """Build the sharded snapshot of ``graph``."""
        vids = sorted(graph.vertices())
        shards = [
            GraphShard(index, block)
            for index, block in enumerate(self._blocks(vids))
        ]
        owner: Dict[int, GraphShard] = {}
        for shard in shards:
            for vid in shard.vids:
                owner[vid] = shard
                shard._add_vertex(vid, graph.vertex_attributes(vid))

        edges: Dict[int, EdgeRecord] = {}
        boundary: Dict[Tuple[int, int], List[int]] = {}
        boundary_out: Dict[int, List[int]] = {s.index: [] for s in shards}
        boundary_in: Dict[int, List[int]] = {s.index: [] for s in shards}
        # one pass in insertion order: adjacency lists replay the source
        # graph's append order exactly, so per-shard typed adjacency is a
        # faithful partition of the original lists
        for record in graph.edges():
            edges[record.eid] = record
            source_shard = owner[record.source]
            target_shard = owner[record.target]
            source_shard._register_out(record)
            target_shard._register_in(record)
            if source_shard is not target_shard:
                key = (source_shard.index, target_shard.index)
                boundary.setdefault(key, []).append(record.eid)
                boundary_out[source_shard.index].append(record.eid)
                boundary_in[target_shard.index].append(record.eid)

        for shard in shards:
            shard.boundary_out = tuple(boundary_out[shard.index])
            shard.boundary_in = tuple(boundary_in[shard.index])
        return ShardedGraph(
            shards,
            edges,
            graph.version,
            {key: tuple(eids) for key, eids in boundary.items()},
            source=graph,
        )

    def _blocks(self, vids: List[int]) -> Iterator[List[int]]:
        """Split ``vids`` into ``num_shards`` near-equal contiguous blocks."""
        base, extra = divmod(len(vids), self.num_shards)
        start = 0
        for index in range(self.num_shards):
            size = base + (1 if index < extra else 0)
            yield vids[start : start + size]
            start += size
