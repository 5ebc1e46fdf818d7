"""Property-graph storage (Definition 1 of the thesis).

A property graph is a directed multigraph ``G = (V, E, u, f, g, AV, AE)``
whose vertices and edges carry attribute maps; edges additionally carry a
*type* (a distinguished attribute that may take exactly one value per data
edge, Sec. 3.2.2).  Multiple edges may connect the same pair of vertices.

The implementation favours read-heavy analytical use: adjacency lists in
both directions, *type-partitioned* adjacency lists
(``vertex -> edge type -> out/in neighbour lists``), plus secondary
indexes (vertex-attribute index, edge-attribute index, edge-type index)
that the pattern matcher and the statistics provider (Sec. 5.2) use for
candidate pruning.  Indexes are maintained incrementally, so graphs can be
grown after queries have run.

Storage-layer invariants
------------------------

* **Zero-copy read accessors.**  ``out_edges``, ``in_edges``,
  ``out_edges_of_type``, ``in_edges_of_type``, ``vertices_with``,
  ``vertex_attr_values``, ``edges_with``, ``edge_attr_values`` and
  ``edges_of_type`` return *live views* of the
  internal containers (lists / sets / key views), not copies.  Callers must
  treat them as read-only and must not hold them across graph mutations
  while iterating.  This is what makes the matcher's expansion loop
  allocation-free on the hot path.
* **Typed adjacency maintenance.**  ``add_edge`` appends the new edge id to
  the untyped ``out_edges``/``in_edges`` lists *and* to the per-type
  partitions ``out_by_type[type]``/``in_by_type[type]`` of both endpoints,
  and to the global edge-type index.  The typed partitions of a vertex are
  therefore always a disjoint partition of its untyped lists, in insertion
  order.
* **Lazy value indexes.**  A vertex or edge attribute's value index
  (``attr -> value -> ids``) is built on its first read and kept current
  by every later write: an overwrite leaves the old value's bucket, and
  an emptied bucket is deleted.  Construction builds none.
* **O(1) counts.**  ``num_edges_of_type``, ``num_vertices_with``,
  ``out_degree_of_type`` and ``in_degree_of_type`` are constant-time reads
  of maintained structures; no histogram dict is rebuilt per call.
* **Version counter.**  Every mutation (``add_vertex``/``add_edge``/
  ``set_vertex_attribute``/``set_edge_attribute``) bumps ``version``;
  evaluation-layer caches (the CSR index with its interned candidate
  masks and path(1) projections, the result cache) snapshot it and
  self-invalidate when the graph has changed.
* **Mutation delta log.**  Every version bump also appends one compact
  delta record to a bounded ring; :meth:`PropertyGraph.deltas_since`
  hands consumers (the CSR index, the evaluation caches) exactly the
  records between their snapshot version and the current one, so they
  can patch in O(delta) instead of rebuilding in O(graph).  A consumer that lagged past the ring bound gets ``None``
  and falls back to the wholesale rebuild it would have done anyway.

Delta record format (plain tuples, wire-friendly):

* ``("v", vid, attrs)``         -- ``add_vertex``
* ``("e", eid, source, target, type, attrs)`` -- ``add_edge``
* ``("va", vid, attr, value)``  -- ``set_vertex_attribute``
* ``("ea", eid, attr, value)``  -- ``set_edge_attribute``
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    AbstractSet,
    Any,
    Deque,
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

from repro.core.errors import (
    DuplicateElementError,
    UnknownEdgeError,
    UnknownVertexError,
)


@dataclass(frozen=True)
class EdgeRecord:
    """Immutable view of one data edge."""

    eid: int
    source: int
    target: int
    type: str
    attributes: Mapping[str, Any]

    def other_end(self, vid: int) -> int:
        """Return the endpoint opposite to ``vid``."""
        if vid == self.source:
            return self.target
        if vid == self.target:
            return self.source
        raise UnknownVertexError(vid)


@dataclass
class _VertexCell:
    attributes: Dict[str, Any]
    out_edges: List[int] = field(default_factory=list)
    in_edges: List[int] = field(default_factory=list)
    # type-partitioned adjacency: edge type -> edge ids (insertion order)
    out_by_type: Dict[str, List[int]] = field(default_factory=dict)
    in_by_type: Dict[str, List[int]] = field(default_factory=dict)


#: Shared immutable empties returned by the zero-copy accessors for
#: absent types/values, so callers never trigger per-miss allocations.
_EMPTY_SEQ: Tuple[int, ...] = ()
_EMPTY_SET: FrozenSet[int] = frozenset()

#: Bound on the retained mutation delta ring.  Consumers lagging more
#: than this many mutations behind the graph's current version cannot
#: catch up incrementally and fall back to a full rebuild.
DELTA_RING_LIMIT = 4096


def _value_index(records: Iterable[Tuple[int, Any]], attr: str) -> Dict[Any, Set[int]]:
    """The value index of one attribute over ``(id, record)`` pairs.  Each
    bucket is copied once at the end: a set grown by ``add`` keeps its
    growth slack, a copy is sized to its members.  Buckets later writes
    grow are left as they grow."""
    index: Dict[Any, Set[int]] = {}
    for ident, record in records:
        if attr in record.attributes:
            index.setdefault(record.attributes[attr], set()).add(ident)
    return {value: set(ids) for value, ids in index.items()}


def _reindex(
    index: Dict[Any, Set[int]], attributes: Mapping[str, Any], attr: str, ident: int, value: Any
) -> None:
    """Move ``ident`` to ``value``'s bucket of one attribute's value index
    before ``attributes[attr]`` is overwritten; an emptied bucket goes."""
    if attr in attributes:
        old = attributes[attr]
        bucket = index.get(old)
        if bucket is not None:
            bucket.discard(ident)
            if not bucket:
                del index[old]
    index.setdefault(value, set()).add(ident)


class PropertyGraph:
    """A directed multigraph with attributed vertices and typed edges.

    >>> g = PropertyGraph()
    >>> anna = g.add_vertex(type="person", name="Anna")
    >>> tud = g.add_vertex(type="university", name="TU Dresden")
    >>> e = g.add_edge(anna, tud, "workAt", sinceYear=2003)
    >>> g.edge(e).type
    'workAt'
    """

    def __init__(self) -> None:
        self._vertices: Dict[int, _VertexCell] = {}
        self._edges: Dict[int, EdgeRecord] = {}
        self._next_vid = 0
        self._next_eid = 0
        # every edge id exceeded all earlier ones (assigned ids always do)
        self._eids_ascending = True
        # attr -> value -> set of vertex ids
        self._vertex_index: Dict[str, Dict[Any, Set[int]]] = {}
        self._indexed_attrs: Set[str] = set()
        # attr -> value -> set of edge ids
        self._edge_index: Dict[str, Dict[Any, Set[int]]] = {}
        # edge type -> set of edge ids
        self._type_index: Dict[str, Set[int]] = {}
        # bumped on every mutation; caches snapshot it to self-invalidate
        self._version = 0
        # bounded ring of delta records, one per version bump: record i
        # (from the right) describes the transition into version
        # ``_version - i + 1``
        self._delta_log: Deque[Tuple] = deque(maxlen=DELTA_RING_LIMIT)

    @property
    def version(self) -> int:
        """Mutation counter (monotonically increasing)."""
        return self._version

    def _restore_version(self, version: int) -> None:
        """Reset the mutation counter after a snapshot rebuild.

        Rebuilding a graph from a serialized snapshot replays every
        ``add_vertex``/``add_edge``, so the freshly built graph ends at a
        version unrelated to the snapshot's.  Worker processes key their
        caches (and the coordinator keys snapshot staleness) off the
        *original* version, so the deserializer restores it exactly.
        The delta log is cleared -- its records are aligned to the replay
        versions, not the restored one.
        Internal: only :mod:`repro.core.serialize` should call this.
        """
        if version < 0:
            raise ValueError("version must be >= 0")
        self._version = version
        self._delta_log.clear()

    def deltas_since(self, version: int) -> Optional[Tuple[Tuple, ...]]:
        """The delta records applied after ``version``, oldest first.

        Returns ``()`` when the consumer is already current, the exact
        record run when the ring still holds it, and ``None`` when the
        consumer lagged past the ring bound (or claims a version this
        graph never reached) -- the caller must rebuild from scratch.
        """
        lag = self._version - version
        if lag == 0:
            return ()
        if lag < 0 or lag > len(self._delta_log):
            return None
        log = self._delta_log
        if lag == len(log):
            return tuple(log)
        return tuple(islice(log, len(log) - lag, None))

    # -- construction ------------------------------------------------------

    def add_vertex(self, vid: Optional[int] = None, **attributes: Any) -> int:
        """Insert a vertex and return its identifier.

        An explicit ``vid`` may be supplied (useful for deterministic data
        generators); otherwise ids are assigned sequentially.
        """
        if vid is None:
            vid = self._next_vid
        elif vid in self._vertices:
            raise DuplicateElementError(f"vertex id {vid!r} already exists")
        self._next_vid = max(self._next_vid, vid + 1)
        self._vertices[vid] = _VertexCell(dict(attributes))
        for attr in self._indexed_attrs & attributes.keys():
            self._vertex_index[attr].setdefault(attributes[attr], set()).add(vid)
        self._version += 1
        self._delta_log.append(("v", vid, dict(attributes)))
        return vid

    def add_edge(
        self,
        source: int,
        target: int,
        type: str,
        eid: Optional[int] = None,
        **attributes: Any,
    ) -> int:
        """Insert a directed, typed edge and return its identifier."""
        if source not in self._vertices:
            raise UnknownVertexError(source)
        if target not in self._vertices:
            raise UnknownVertexError(target)
        if eid is None:
            eid = self._next_eid
        elif eid in self._edges:
            raise DuplicateElementError(f"edge id {eid!r} already exists")
        elif eid < self._next_eid:
            self._eids_ascending = False
        self._next_eid = max(self._next_eid, eid + 1)
        record = EdgeRecord(eid, source, target, type, dict(attributes))
        self._edges[eid] = record
        source_cell = self._vertices[source]
        target_cell = self._vertices[target]
        source_cell.out_edges.append(eid)
        target_cell.in_edges.append(eid)
        source_cell.out_by_type.setdefault(type, []).append(eid)
        target_cell.in_by_type.setdefault(type, []).append(eid)
        self._type_index.setdefault(type, set()).add(eid)
        if self._edge_index:  # none built: no set to intersect per insert
            for attr in self._edge_index.keys() & attributes.keys():
                self._edge_index[attr].setdefault(attributes[attr], set()).add(eid)
        self._version += 1
        self._delta_log.append(("e", eid, source, target, type, dict(attributes)))
        return eid

    def set_vertex_attribute(self, vid: int, attr: str, value: Any) -> None:
        """Set (or overwrite) one attribute of an existing vertex.

        Maintains the attribute value index incrementally and logs a
        compact delta, so version-keyed consumers patch rather than
        rebuild.
        """
        try:
            cell = self._vertices[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None
        if attr in self._indexed_attrs:
            _reindex(self._vertex_index[attr], cell.attributes, attr, vid, value)
        cell.attributes[attr] = value
        self._version += 1
        self._delta_log.append(("va", vid, attr, value))

    def set_edge_attribute(self, eid: int, attr: str, value: Any) -> None:
        """Set (or overwrite) one attribute of an existing edge; like
        :meth:`set_vertex_attribute`, index and delta log included."""
        try:
            record = self._edges[eid]
        except KeyError:
            raise UnknownEdgeError(eid) from None
        if attr in self._edge_index:
            _reindex(self._edge_index[attr], record.attributes, attr, eid, value)
        # EdgeRecord is frozen but owns its (mutable) attribute dict
        record.attributes[attr] = value  # type: ignore[index]
        self._version += 1
        self._delta_log.append(("ea", eid, attr, value))

    # -- element access ----------------------------------------------------

    def has_vertex(self, vid: int) -> bool:
        return vid in self._vertices

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def vertex_attributes(self, vid: int) -> Mapping[str, Any]:
        """Attribute map of a vertex (live view; treat as read-only)."""
        try:
            return self._vertices[vid].attributes
        except KeyError:
            raise UnknownVertexError(vid) from None

    def edge(self, eid: int) -> EdgeRecord:
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownEdgeError(eid) from None

    def out_edges(self, vid: int) -> Sequence[int]:
        """Identifiers of edges whose source is ``vid`` (live view)."""
        try:
            return self._vertices[vid].out_edges
        except KeyError:
            raise UnknownVertexError(vid) from None

    def in_edges(self, vid: int) -> Sequence[int]:
        """Identifiers of edges whose target is ``vid`` (live view)."""
        try:
            return self._vertices[vid].in_edges
        except KeyError:
            raise UnknownVertexError(vid) from None

    def out_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        """Outgoing edges of ``vid`` carrying ``type`` (live view)."""
        try:
            cell = self._vertices[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None
        return cell.out_by_type.get(type, _EMPTY_SEQ)

    def in_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        """Incoming edges of ``vid`` carrying ``type`` (live view)."""
        try:
            cell = self._vertices[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None
        return cell.in_by_type.get(type, _EMPTY_SEQ)

    def incident_edges(self, vid: int) -> Tuple[int, ...]:
        """All edges touching ``vid`` in either direction."""
        return tuple(self.out_edges(vid)) + tuple(self.in_edges(vid))

    def degree(self, vid: int) -> int:
        cell = self._vertices.get(vid)
        if cell is None:
            raise UnknownVertexError(vid)
        return len(cell.out_edges) + len(cell.in_edges)

    def out_degree_of_type(self, vid: int, type: str) -> int:
        """Number of outgoing ``type`` edges of ``vid`` (O(1))."""
        return len(self.out_edges_of_type(vid, type))

    def in_degree_of_type(self, vid: int, type: str) -> int:
        """Number of incoming ``type`` edges of ``vid`` (O(1))."""
        return len(self.in_edges_of_type(vid, type))

    # -- iteration & size ----------------------------------------------------

    def vertices(self) -> Iterator[int]:
        return iter(self._vertices)

    def edges(self) -> Iterator[EdgeRecord]:
        return iter(self._edges.values())

    def edge_ids(self) -> Iterator[int]:
        return iter(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edge_ids_dense(self) -> bool:
        """Is every edge's id its insertion position (``0, 1, ...``, as
        ``add_edge`` assigns them)?  O(1): ascending ids, as many as the
        next free one."""
        return self._eids_ascending and self._next_eid == len(self._edges)

    def edge_types(self) -> FrozenSet[str]:
        """All edge types present in the graph."""
        return frozenset(self._type_index)

    # -- secondary indexes ---------------------------------------------------

    def create_vertex_index(self, attr: str) -> None:
        """Build (or rebuild) the value index for one vertex attribute."""
        self._vertex_index[attr] = _value_index(self._vertices.items(), attr)
        self._indexed_attrs.add(attr)

    def vertices_with(self, attr: str, value: Any) -> AbstractSet[int]:
        """Vertices whose attribute ``attr`` equals ``value`` (index-backed).

        The index for ``attr`` is built lazily on first use.  The returned
        set is a live view of the index bucket; treat it as read-only.
        """
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return self._vertex_index[attr].get(value, _EMPTY_SET)

    def num_vertices_with(self, attr: str, value: Any) -> int:
        """O(1) count of vertices whose ``attr`` equals ``value``."""
        return len(self.vertices_with(attr, value))

    def vertex_attr_values(self, attr: str) -> KeysView:
        """Distinct values taken by a vertex attribute (live key view)."""
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return self._vertex_index[attr].keys()

    def vertex_value_counts(self, attr: str) -> Dict[Any, int]:
        """Histogram of a vertex attribute (used by Sec. 5.2 statistics)."""
        if attr not in self._indexed_attrs:
            self.create_vertex_index(attr)
        return {value: len(vids) for value, vids in self._vertex_index[attr].items()}

    def _edge_attr_index(self, attr: str) -> Dict[Any, Set[int]]:
        """The value index of one edge attribute, built on first use."""
        index = self._edge_index.get(attr)
        if index is None:
            index = self._edge_index[attr] = _value_index(self._edges.items(), attr)
        return index

    def edges_with(self, attr: str, value: Any) -> AbstractSet[int]:
        """Edges whose attribute ``attr`` equals ``value`` (index-backed
        live view of the bucket; treat it as read-only)."""
        return self._edge_attr_index(attr).get(value, _EMPTY_SET)

    def edge_attr_values(self, attr: str) -> KeysView:
        """Distinct values taken by an edge attribute (live key view)."""
        return self._edge_attr_index(attr).keys()

    def edge_value_counts(self, attr: str) -> Dict[Any, int]:
        """Histogram of an edge attribute (used by Sec. 5.2 statistics)."""
        return {value: len(eids) for value, eids in self._edge_attr_index(attr).items()}

    def edges_of_type(self, type: str) -> AbstractSet[int]:
        """Edges carrying the given type (index-backed live view)."""
        return self._type_index.get(type, _EMPTY_SET)

    def num_edges_of_type(self, type: str) -> int:
        """O(1) count of edges carrying ``type``."""
        return len(self._type_index.get(type, _EMPTY_SET))

    def edge_type_counts(self) -> Dict[str, int]:
        """Histogram of edge types."""
        return {t: len(eids) for t, eids in self._type_index.items()}

    # -- bulk helpers ----------------------------------------------------------

    def subgraph(self, vertex_ids: Iterable[int]) -> "PropertyGraph":
        """Vertex-induced subgraph (copies attributes, keeps identifiers)."""
        keep = set(vertex_ids)
        sub = PropertyGraph()
        for vid in keep:
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

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"types={len(self._type_index)})"
        )
