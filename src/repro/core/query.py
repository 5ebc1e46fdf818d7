"""Set-based graph-query model (Sec. 3.2.2, Fig. 3.3).

A pattern-matching query is itself a property graph whose elements carry
*predicate intervals* instead of values.  The thesis defines a query as the
union of its vertex and edge sets (Eq. 3.1), where

* a query vertex is the union of its predicate intervals ``PI`` and the
  identifier sets of its incoming ``IN`` and outgoing ``OUT`` edges
  (Eq. 3.3-3.4),
* a query edge is the union of its type set ``T``, source and target vertex
  identifiers, predicate intervals ``PI`` and direction set ``D``
  (Eq. 3.5-3.6).

``IN``/``OUT`` are derived from the declared topology; the direction set
``D`` controls how the declared orientation is mapped onto data edges:
``FORWARD`` matches a data edge from the binding of the source to the
binding of the target, ``BACKWARD`` the reverse, and ``{FORWARD, BACKWARD}``
matches either orientation.

A query has two phases.  It starts as a *builder*: ``add_*`` and the
mutators edit it in place, and element fields (``predicates``, ``types``,
``directions``) may be written directly.  :meth:`GraphQuery.freeze` ends
that phase: query and elements become immutable values, every mutator and
element write raises :class:`~repro.core.errors.FrozenQueryError`, and what
identifies the query -- element and query signatures, the hash, sorted type
/ direction tuples, predicate signatures, ``IN`` / ``OUT`` / neighbour
sets, the "validated" bit -- is computed once per object, not per lookup.

The engines work on frozen queries only.  A candidate is derived by
:meth:`GraphQuery.with_vertex` / :meth:`~GraphQuery.with_edge` /
:meth:`~GraphQuery.without_edge` / :meth:`~GraphQuery.without_vertex` /
:meth:`~GraphQuery.subquery`: a new frozen query that *shares* every
untouched element object with its parent, so ``child.vertex(v) is
parent.vertex(v)`` means "did not change" (what
:class:`repro.metrics.syntactic.DistanceTable` and
:meth:`repro.rewrite.statistics.GraphStatistics.profile` rely on).
:meth:`GraphQuery.copy` of a frozen query is a builder again; equality and
hashing are signature-based, so both, and a wire or pickle round trip,
compare and hash equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import (
    DuplicateElementError,
    FrozenQueryError,
    MalformedQueryError,
    UnknownQueryEdgeError,
    UnknownQueryVertexError,
)
from repro.core.predicates import Predicate


class Direction(Enum):
    """Orientation of a query edge relative to its declared source/target."""

    FORWARD = "forward"
    BACKWARD = "backward"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Direction.{self.name}"


#: Direction set matching the declared orientation only.
FORWARD_ONLY: FrozenSet[Direction] = frozenset({Direction.FORWARD})
#: Direction set matching the reverse orientation only.
BACKWARD_ONLY: FrozenSet[Direction] = frozenset({Direction.BACKWARD})
#: Direction set matching either orientation.
BOTH_DIRECTIONS: FrozenSet[Direction] = frozenset(
    {Direction.FORWARD, Direction.BACKWARD}
)


def _predicate_signature(predicates: Mapping[str, Predicate]) -> Tuple:
    return tuple(sorted((a, p.signature()) for a, p in predicates.items()))


class _Freezable:
    """Freeze protocol of the two element classes: ``_sig`` holds the
    element's signature once frozen, and a frozen element takes no write."""

    def __setattr__(self, name: str, value: object) -> None:
        if self.__dict__.get("_sig") is not None:
            raise FrozenQueryError(
                f"{type(self).__name__} is frozen: cannot set {name!r}"
            )
        object.__setattr__(self, name, value)

    @property
    def frozen(self) -> bool:
        return self._sig is not None

    def freeze(self):
        """Make the element immutable and compute its signature, once.
        ``predicates`` becomes a read-only view of the same mapping."""
        if self._sig is None:
            if not isinstance(self.predicates, MappingProxyType):
                self.predicates = MappingProxyType(self.predicates)
            self._sig = self._signature()
        return self

    def signature(self) -> Hashable:
        return self._sig if self._sig is not None else self._signature()

    def copy(self):
        """An unfrozen copy (own predicate map, shared immutable predicates)."""
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__, predicates=dict(self.predicates), _sig=None)
        return dup

    def __getstate__(self):
        state = dict(self.__dict__, predicates=dict(self.predicates))
        del state["_sig"]
        return state, self._sig is not None

    def __setstate__(self, pickled) -> None:
        state, frozen = pickled
        self.__dict__.update(state, _sig=None)
        if frozen:
            self.freeze()


@dataclass
class QueryVertex(_Freezable):
    """One query vertex: identifier plus predicate intervals (Eq. 3.3)."""

    vid: int
    predicates: Mapping[str, Predicate] = field(default_factory=dict)
    _sig: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)

    def _signature(self) -> Tuple:
        return (self.vid, _predicate_signature(self.predicates))

    def predicate_signature(self) -> Tuple:
        """Identifier-independent signature of the predicate map: vertices
        with equal maps share candidate sets, masks and seed pools."""
        return self.signature()[1]


@dataclass
class QueryEdge(_Freezable):
    """One query edge: topology, type set, direction set, predicates."""

    eid: int
    source: int
    target: int
    types: Optional[FrozenSet[str]] = None
    directions: FrozenSet[Direction] = FORWARD_ONLY
    predicates: Mapping[str, Predicate] = field(default_factory=dict)
    _sig: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.directions:
            raise MalformedQueryError(f"edge {self.eid}: empty direction set")
        if self.types is not None:
            self.types = frozenset(self.types)
            if not self.types:
                raise MalformedQueryError(f"edge {self.eid}: empty type set")
        self.directions = frozenset(self.directions)

    def endpoints(self) -> Tuple[int, int]:
        return (self.source, self.target)

    def other_end(self, vid: int) -> int:
        if vid == self.source:
            return self.target
        if vid == self.target:
            return self.source
        raise UnknownQueryVertexError(vid)

    def _signature(self) -> Tuple:
        return (
            self.eid,
            self.source,
            self.target,
            tuple(sorted(self.types)) if self.types is not None else None,
            tuple(sorted(d.value for d in self.directions)),
            _predicate_signature(self.predicates),
        )

    def type_key(self) -> Optional[Tuple[str, ...]]:
        """The type set as a sorted tuple (``None`` = unconstrained)."""
        return self.signature()[3]

    def direction_key(self) -> Tuple[str, ...]:
        """The direction set as a sorted tuple of direction values."""
        return self.signature()[4]

    def predicate_signature(self) -> Tuple:
        """Identifier-independent signature of the predicate map."""
        return self.signature()[5]


class _Topology:
    """``IN`` / ``OUT`` / neighbour sets of a frozen query, built in one
    pass over its edges and shared by every derived query that keeps the
    vertex set and every edge's endpoints."""

    __slots__ = ("ins", "outs", "neighbors", "components")

    def __init__(self, vertices: Iterable[int], edges: Iterable["QueryEdge"]) -> None:
        ins: Dict[int, Set[int]] = {vid: set() for vid in vertices}
        outs: Dict[int, Set[int]] = {vid: set() for vid in ins}
        nbrs: Dict[int, Set[int]] = {vid: set() for vid in ins}
        for e in edges:
            if e.source in ins:
                outs[e.source].add(e.eid)
                nbrs[e.source].add(e.target)
            if e.target in ins:
                ins[e.target].add(e.eid)
                nbrs[e.target].add(e.source)
        self.ins = {vid: frozenset(eids) for vid, eids in ins.items()}
        self.outs = {vid: frozenset(eids) for vid, eids in outs.items()}
        self.neighbors = {vid: frozenset(vids) for vid, vids in nbrs.items()}
        self.components: Optional[List[FrozenSet[int]]] = None


class GraphQuery:
    """A pattern-matching query over a property graph.

    >>> q = GraphQuery()
    >>> person = q.add_vertex(predicates={"type": equals("person")})
    >>> uni = q.add_vertex(predicates={"type": equals("university")})
    >>> _ = q.add_edge(person, uni, types={"workAt"})
    """

    __slots__ = (
        "_vertices",
        "_edges",
        "_next_vid",
        "_next_eid",
        "_frozen",
        # computed once per frozen query, on first use
        "_sig",
        "_hash",
        "_topology",
        "_valid",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._vertices: Dict[int, QueryVertex] = {}
        self._edges: Dict[int, QueryEdge] = {}
        self._next_vid = 0
        self._next_eid = 0
        self._frozen = False
        self._sig: Optional[Tuple] = None
        self._hash: Optional[int] = None
        self._topology: Optional[_Topology] = None
        self._valid = False

    # -- freezing ---------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "GraphQuery":
        """End the builder phase: the query and its elements become
        immutable (see the module docstring).  Returns ``self``."""
        if not self._frozen:
            for vertex in self._vertices.values():
                vertex.freeze()
            for edge in self._edges.values():
                edge.freeze()
            self._frozen = True
        return self

    def as_frozen(self) -> "GraphQuery":
        """This query if it is frozen, else a frozen copy of it."""
        return self if self._frozen else self.copy().freeze()

    def _mutable(self) -> None:
        if self._frozen:
            raise FrozenQueryError("query is frozen; copy() returns a builder")

    def _derive(
        self,
        vertices: Dict[int, QueryVertex],
        edges: Dict[int, QueryEdge],
        topology: Optional[_Topology] = None,
        frozen: bool = True,
    ) -> "GraphQuery":
        """A query over the given (frozen, if ``frozen``) elements that
        continues this query's identifier counters."""
        child = GraphQuery()
        child._vertices = vertices
        child._edges = edges
        child._next_vid = self._next_vid
        child._next_eid = self._next_eid
        child._topology = topology
        child._frozen = frozen
        return child

    def with_vertex(self, vertex: QueryVertex) -> "GraphQuery":
        """A frozen query with ``vertex`` in place of the vertex of its
        identifier; every other element object is shared with ``self``."""
        base = self.as_frozen()
        if vertex.vid not in base._vertices:
            raise UnknownQueryVertexError(vertex.vid)
        vertices = dict(base._vertices)
        vertices[vertex.vid] = vertex.freeze()
        return base._derive(vertices, base._edges, base._topo())

    def with_edge(self, edge: QueryEdge) -> "GraphQuery":
        """A frozen query with ``edge`` in place of the edge of its
        identifier; every other element object is shared with ``self``."""
        base = self.as_frozen()
        old = base.edge(edge.eid)
        edges = dict(base._edges)
        edges[edge.eid] = edge.freeze()
        same_ends = edge.endpoints() == old.endpoints()
        return base._derive(base._vertices, edges, base._topo() if same_ends else None)

    def without_edge(self, eid: int) -> "GraphQuery":
        """A frozen query without edge ``eid``, sharing every other element."""
        base = self.as_frozen()
        base.edge(eid)
        edges = {k: e for k, e in base._edges.items() if k != eid}
        return base._derive(base._vertices, edges)

    def without_vertex(self, vid: int) -> "GraphQuery":
        """A frozen query without vertex ``vid`` and its incident edges,
        sharing every other element."""
        base = self.as_frozen()
        base.vertex(vid)
        vertices = {k: v for k, v in base._vertices.items() if k != vid}
        edges = {k: e for k, e in base._edges.items() if vid not in e.endpoints()}
        return base._derive(vertices, edges)

    # -- construction -------------------------------------------------------

    def add_vertex(
        self,
        vid: Optional[int] = None,
        predicates: Optional[Mapping[str, Predicate]] = None,
    ) -> int:
        """Add a query vertex; returns its identifier."""
        self._mutable()
        if vid is None:
            vid = self._next_vid
        elif vid in self._vertices:
            raise DuplicateElementError(f"query vertex id {vid!r} already exists")
        self._next_vid = max(self._next_vid, vid + 1)
        self._vertices[vid] = QueryVertex(vid, dict(predicates or {}))
        return vid

    def add_edge(
        self,
        source: int,
        target: int,
        eid: Optional[int] = None,
        types: Optional[Iterable[str]] = None,
        directions: Iterable[Direction] = FORWARD_ONLY,
        predicates: Optional[Mapping[str, Predicate]] = None,
    ) -> int:
        """Add a query edge; returns its identifier."""
        self._mutable()
        if source not in self._vertices:
            raise UnknownQueryVertexError(source)
        if target not in self._vertices:
            raise UnknownQueryVertexError(target)
        if eid is None:
            eid = self._next_eid
        elif eid in self._edges:
            raise DuplicateElementError(f"query edge id {eid!r} already exists")
        self._next_eid = max(self._next_eid, eid + 1)
        self._edges[eid] = QueryEdge(
            eid,
            source,
            target,
            frozenset(types) if types is not None else None,
            frozenset(directions),
            dict(predicates or {}),
        )
        return eid

    # -- element access -------------------------------------------------------

    def vertex(self, vid: int) -> QueryVertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise UnknownQueryVertexError(vid) from None

    def edge(self, eid: int) -> QueryEdge:
        try:
            return self._edges[eid]
        except KeyError:
            raise UnknownQueryEdgeError(eid) from None

    def has_vertex(self, vid: int) -> bool:
        return vid in self._vertices

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    @property
    def vertex_ids(self) -> FrozenSet[int]:
        return frozenset(self._vertices)

    @property
    def edge_ids(self) -> FrozenSet[int]:
        return frozenset(self._edges)

    def vertices(self) -> Iterator[QueryVertex]:
        return iter(self._vertices.values())

    def edges(self) -> Iterator[QueryEdge]:
        return iter(self._edges.values())

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def __len__(self) -> int:
        """Total number of query elements (vertices + edges)."""
        return len(self._vertices) + len(self._edges)

    # -- derived identifier sets (Eq. 3.4) --------------------------------------

    def _topo(self) -> _Topology:
        """The frozen query's adjacency, built on first use.  (A builder
        may change between calls: it is scanned per call instead.)"""
        if self._topology is None:
            self._topology = _Topology(self._vertices, self._edges.values())
        return self._topology

    def in_set(self, vid: int) -> FrozenSet[int]:
        """``IN(v)``: identifiers of edges whose declared target is ``v``."""
        self.vertex(vid)
        if self._frozen:
            return self._topo().ins[vid]
        return frozenset(e.eid for e in self._edges.values() if e.target == vid)

    def out_set(self, vid: int) -> FrozenSet[int]:
        """``OUT(v)``: identifiers of edges whose declared source is ``v``."""
        self.vertex(vid)
        if self._frozen:
            return self._topo().outs[vid]
        return frozenset(e.eid for e in self._edges.values() if e.source == vid)

    def incident_edges(self, vid: int) -> FrozenSet[int]:
        return self.in_set(vid) | self.out_set(vid)

    def neighbors(self, vid: int) -> FrozenSet[int]:
        """Query vertices adjacent to ``vid`` regardless of orientation."""
        if self._frozen:
            return self._topo().neighbors.get(vid, frozenset())
        out: Set[int] = set()
        for e in self._edges.values():
            if e.source == vid:
                out.add(e.target)
            elif e.target == vid:
                out.add(e.source)
        return frozenset(out)

    # -- mutation (builder phase only) --------------------------------------------

    def remove_edge(self, eid: int) -> QueryEdge:
        """Remove one query edge; returns the removed edge."""
        self._mutable()
        edge = self.edge(eid)
        del self._edges[eid]
        return edge

    def remove_vertex(self, vid: int) -> Tuple[QueryVertex, List[QueryEdge]]:
        """Remove a vertex together with all incident edges."""
        self._mutable()
        vertex = self.vertex(vid)
        removed = [
            self._edges.pop(e.eid)
            for e in list(self._edges.values())
            if vid in e.endpoints()
        ]
        del self._vertices[vid]
        return vertex, removed

    def set_predicate(self, element: Tuple[str, int], attr: str, pred: Predicate) -> None:
        """Set / replace a predicate on ``("vertex", vid)`` or ``("edge", eid)``."""
        self._mutable()
        kind, ident = element
        if kind == "vertex":
            self.vertex(ident).predicates[attr] = pred
        elif kind == "edge":
            self.edge(ident).predicates[attr] = pred
        else:
            raise MalformedQueryError(f"unknown element kind: {kind!r}")

    def drop_predicate(self, element: Tuple[str, int], attr: str) -> Predicate:
        """Remove a predicate; returns the removed predicate interval."""
        self._mutable()
        kind, ident = element
        preds = (
            self.vertex(ident).predicates
            if kind == "vertex"
            else self.edge(ident).predicates
        )
        if attr not in preds:
            raise MalformedQueryError(f"{element} has no predicate on {attr!r}")
        return preds.pop(attr)

    # -- structure -----------------------------------------------------------

    def copy(self) -> "GraphQuery":
        """An unfrozen builder copy: new containers and element objects,
        shared immutable predicates."""
        return self._derive(
            {vid: v.copy() for vid, v in self._vertices.items()},
            {eid: e.copy() for eid, e in self._edges.items()},
            frozen=False,
        )

    def subquery(
        self,
        vertex_ids: Iterable[int],
        edge_ids: Optional[Iterable[int]] = None,
    ) -> "GraphQuery":
        """Subquery induced by ``vertex_ids`` (optionally restricted edges).

        When ``edge_ids`` is omitted, all edges with both endpoints inside
        ``vertex_ids`` are kept.  Identifiers are preserved, which is what
        the comparison metrics of Chapter 3 rely on.  The subquery is
        frozen and shares its element objects with (a frozen form of)
        ``self``; :meth:`copy` it for a builder.
        """
        base = self.as_frozen()
        keep_v = set(vertex_ids)
        unknown = keep_v - set(base._vertices)
        if unknown:
            raise UnknownQueryVertexError(sorted(unknown)[0])
        if edge_ids is None:
            keep_e = {
                e.eid
                for e in base._edges.values()
                if e.source in keep_v and e.target in keep_v
            }
        else:
            keep_e = set(edge_ids)
        edges = {eid: base.edge(eid) for eid in keep_e}
        for edge in edges.values():
            if edge.source not in keep_v or edge.target not in keep_v:
                raise MalformedQueryError(
                    f"edge {edge.eid} has an endpoint outside the subquery"
                )
        return base._derive({vid: base._vertices[vid] for vid in keep_v}, edges)

    def weakly_connected_components(self) -> List[FrozenSet[int]]:
        """Vertex sets of the weakly connected components (Sec. 4.3.1).
        A frozen query remembers them (with its adjacency)."""
        if self._frozen and self._topo().components is not None:
            return list(self._topology.components)
        unseen = set(self._vertices)
        components: List[FrozenSet[int]] = []
        while unseen:
            root = unseen.pop()
            comp = {root}
            frontier = [root]
            while frontier:
                current = frontier.pop()
                for nb in self.neighbors(current):
                    if nb in unseen:
                        unseen.discard(nb)
                        comp.add(nb)
                        frontier.append(nb)
            components.append(frozenset(comp))
        components.sort(key=lambda c: (-len(c), min(c)))
        if self._frozen:
            self._topology.components = components
        return list(components)

    def is_connected(self) -> bool:
        """True when the query has exactly one weakly connected component."""
        return len(self.weakly_connected_components()) <= 1

    def validate(self) -> None:
        """Raise :class:`MalformedQueryError` on structural violations.

        A frozen query that validated remembers it; a builder is checked
        on every call."""
        if self._valid:
            return
        for edge in self._edges.values():
            if edge.source not in self._vertices:
                raise MalformedQueryError(
                    f"edge {edge.eid}: dangling source {edge.source}"
                )
            if edge.target not in self._vertices:
                raise MalformedQueryError(
                    f"edge {edge.eid}: dangling target {edge.target}"
                )
            for attr, pred in edge.predicates.items():
                if not pred.is_satisfiable():
                    raise MalformedQueryError(
                        f"edge {edge.eid}: unsatisfiable predicate on {attr!r}"
                    )
        for vertex in self._vertices.values():
            for attr, pred in vertex.predicates.items():
                if not pred.is_satisfiable():
                    raise MalformedQueryError(
                        f"vertex {vertex.vid}: unsatisfiable predicate on {attr!r}"
                    )
        self._valid = self._frozen

    # -- identity ---------------------------------------------------------------

    def signature(self) -> Hashable:
        """Stable hashable identity (used by the Ch. 5 query cache).
        A frozen query assembles it once, from its elements' signatures."""
        if self._sig is not None:
            return self._sig
        vertices, edges = self._vertices, self._edges
        sig = (
            tuple(vertices[vid].signature() for vid in sorted(vertices)),
            tuple(edges[eid].signature() for eid in sorted(edges)),
        )
        if self._frozen:
            self._sig = sig
        return sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphQuery):
            return NotImplemented
        return self is other or self.signature() == other.signature()

    def __hash__(self) -> int:
        if self._hash is not None:
            return self._hash
        value = hash(self.signature())
        if self._frozen:
            self._hash = value
        return value

    def __getstate__(self):
        return (self._vertices, self._edges, self._next_vid, self._next_eid, self._frozen)

    def __setstate__(self, state) -> None:
        self.__init__()
        (self._vertices, self._edges, self._next_vid, self._next_eid, self._frozen) = state

    def describe(self) -> str:
        """Human-readable multi-line description (used by examples)."""
        lines = [f"GraphQuery |V|={self.num_vertices} |E|={self.num_edges}"]
        for v in sorted(self._vertices.values(), key=lambda v: v.vid):
            preds = ", ".join(f"{a}={p!r}" for a, p in sorted(v.predicates.items()))
            lines.append(f"  v{v.vid}: {preds or '<any>'}")
        for e in sorted(self._edges.values(), key=lambda e: e.eid):
            arrow = {
                FORWARD_ONLY: "->",
                BACKWARD_ONLY: "<-",
                BOTH_DIRECTIONS: "<->",
            }[e.directions]
            types = "|".join(sorted(e.types)) if e.types else "<any>"
            preds = ", ".join(f"{a}={p!r}" for a, p in sorted(e.predicates.items()))
            suffix = f" [{preds}]" if preds else ""
            lines.append(f"  e{e.eid}: v{e.source} {arrow} v{e.target} :{types}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"GraphQuery(|V|={self.num_vertices}, |E|={self.num_edges})"


def path_query(
    specs: Sequence[Mapping[str, Predicate]],
    edge_types: Sequence[Optional[Iterable[str]]],
) -> GraphQuery:
    """Convenience constructor for a simple path-shaped pattern.

    ``specs`` lists vertex predicate maps; ``edge_types`` lists, for each of
    the ``len(specs) - 1`` hops, the admissible edge types (``None`` = any).
    """
    if len(edge_types) != len(specs) - 1:
        raise MalformedQueryError("need exactly len(specs)-1 edge type entries")
    q = GraphQuery()
    vids = [q.add_vertex(predicates=spec) for spec in specs]
    for i, types in enumerate(edge_types):
        q.add_edge(vids[i], vids[i + 1], types=types)
    return q
