"""Interned CSR-style array adjacency for the compiled matching backend.

The interpreter in :mod:`repro.matching.matcher` walks dict/list
adjacency and re-checks predicates object-by-object on every call.  The
compiled backend (:mod:`repro.matching.program`) instead runs over a
*packed* image of the graph built here once per ``(graph, version)``:

* vertex ids are interned to dense indexes ``0..n-1`` in ascending-vid
  order (``vid_of`` / ``ix_of``), edge ids to dense indexes in global
  insertion order (``eid_of``);
* the type-partitioned directional adjacency of
  :class:`~repro.core.graph.PropertyGraph` is packed per ``(edge type,
  direction)`` into CSR triples ``(indptr, edge_ix, other_ix)`` of flat
  4-byte ``array('i')`` rows, replaying the source lists' insertion
  order element for element (the interpreter's enumeration-order
  contract).  The edges are grouped by type once, in the pass that
  interns them; a segment is then a stable sort of its group by row --
  no per-vertex accessor calls;
* attribute predicates are interned by *predicate signature* into
  per-vertex / per-edge bitsets (``bytearray`` masks), so the inner
  matching loop tests a predicate with one index, never an object call.
  The vertex masks (with their seed pools) are the process's only memo
  of which vertices satisfy a predicate signature: the matcher, the
  planner and the rewriters' statistics all read them.  Edge masks are
  interned per ``(type set, predicate signature)`` and filled over the
  admitted types' edges only: the typed segments a kernel scans and the
  type groups path(1) counts probe no other row.  A fill is set algebra
  over the graph's value index of the predicates' attributes (an edge
  fill then keeps the admitted types' rows): its Python work grows with
  the distinct values and the matching rows, never with the other rows.
  A seed pool is the mask ``compress``-ed.  At most
  :data:`MASK_CAP` masks are interned per table: a long fine-grained
  search (one predicate constant per variant) recycles them instead of
  growing the index without bound;
* the planner's statistics (:mod:`repro.matching.plan`): per-row
  degrees of a segment set, counted from the type groups without
  building the segments, and per-signature :class:`DegreeSums` tables
  (sums of degree products over one interned mask), memoised until the
  next patch;
* the rewriters' path(1) counts (:meth:`CSRIndex.path1_count`): per type
  group, C-speed gathers of its edge, source and target rows, and the
  *projections* they make -- one interned mask gathered over the group's
  edges, sources or targets as one int, a bit per row, interned per
  ``(type group, role, predicate signature)`` (at most
  :data:`PROJECTION_CAP`) -- both kept until a write reaches them: a
  patch drops only the groups it extends and the projections whose
  signature names an attribute it wrote (:meth:`CSRIndex._drop_touched`),
  so this is the one store of path(1) state and the one place that
  decides what a write invalidates in it.  A
  count is a few big-int ANDs and a popcount over projections; a
  candidate that edits one element gathers only that element's.  The
  same counts tell whether an edge edit gains or loses any (data edge,
  orientation) pair, which lets the fine-grained search keep a parent's
  count for a child whose edit does neither
  (:mod:`repro.finegrained.propagation`).

One intern rule holds for every lazily derived table: the deriving call
reads ``version`` first and stores its result under the catch-up lock
only if no patch landed meanwhile (a patch fixes only what is stored);
otherwise the result serves that call alone.

The index is cached per graph in a ``WeakKeyDictionary`` registry.  A
mutated graph no longer gets a wholesale rebuild: when the graph's
delta log still holds the records between the index's snapshot version
and the current one, :meth:`CSRIndex.apply_deltas` patches the packed
image **in place** -- appends to the interning tables and flat arrays,
row-local inserts into every built CSR segment, one-bit updates of the
interned predicate masks and seed pools.  Nothing lowered is retained
across evaluations (:mod:`repro.matching.program` re-binds the arrays on
every call), so the next evaluation sees every patch, an empty segment
turning non-empty included.  The patch falls back to a full
rebuild (``csr_rebuilds``) when a delta breaks an interned-order
invariant: a vertex id below the current maximum (the dense interning
is ascending-vid), an edge touching an uninterned endpoint, or a ring
overrun.  Building, patching and rebuilding run under one module lock
that re-checks the version inside it, so two readers arriving after a
write apply the pending run once; the up-to-date check stays lock-free.
"""

from __future__ import annotations

import sys
import threading
import weakref
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import accumulate, compress, repeat
from operator import eq, itemgetter, mul
from typing import Any, Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro.core.delta import DeltaTouch, delta_touch
from repro.core.predicates import ValueSet
from repro.core.query import Direction, QueryEdge, QueryVertex
from repro.matching.candidates import attributes_match
from repro.obs.tracing import SPAN_CSR_BUILD, current_tracer

__all__ = [
    "CSRIndex",
    "csr_entry",
    "csr_for",
    "csr_stats",
]

#: typecode of every dense-index array (4 bytes: two billion elements)
_IX = "i"

#: bound on the interned predicate masks of one index, per table (vertex
#: masks with their seed pools, edge masks).  A mask costs a byte per
#: element and a fine-grained search interns one per predicate constant
#: it tries; a full table is dropped whole and refills from the graph's
#: indexes (nothing lowered outlives one evaluation).  The bound sits
#: above the 325-417 vertex signatures the paper's request mix derives
#: on one graph, mutation rounds included, so that mix never recycles: a
#: refill re-derives a candidate set, and no other memo keeps one.  The
#: worst case is MASK_CAP bytes per vertex plus MASK_CAP per edge
MASK_CAP = 1024

#: bound on the interned path(1) projections of one index: one per
#: (type group, role, predicate signature), so a group's sources and
#: targets each project at most as many signatures as the vertex table
#: holds.  A projection costs a bit per row of its group, so the worst
#: case is MASK_CAP / 4 bytes per edge; the paper's request mix derives
#: at most ~700 on one graph per pass, so it never recycles.  A full
#: table is dropped whole
PROJECTION_CAP = 2 * MASK_CAP

#: a projection's role: the gather (in :meth:`CSRIndex._gather_group`'s
#: tuple) picking its rows -- the group's edges, sources or targets
_EDGES, _SOURCES, _TARGETS = 0, 1, 2

#: a gathered mask's bytes as binary digits
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

_EMPTY_COUNTERS: Dict[str, int] = {
    "csr_builds": 0,
    "csr_bytes": 0,
    "csr_patches": 0,
    "csr_rebuilds": 0,
    "deltas_applied": 0,
    "programs_compiled": 0,
    "program_hits": 0,
    "program_fallbacks": 0,
}


def _gatherer(ixs: list) -> itemgetter:
    """A C-speed gather of the rows ``ixs`` out of a mask, in a form
    ``bytes`` reads: one index would make ``itemgetter`` return a bare
    byte, so a one-row group slices instead."""
    if len(ixs) == 1:
        return itemgetter(slice(ixs[0], ixs[0] + 1))
    return itemgetter(*ixs)


def _picker(rows: array) -> Callable[[bytearray], bytes]:
    """The rows ``rows`` picked out of an edge mask, holding 4 bytes a
    row: few query edges carry predicates, so edge projections are
    gathered rarely, and an ``itemgetter`` would hold a pointer and a
    boxed edge index (40 bytes) a row for them."""
    return lambda mask: bytes(map(mask.__getitem__, rows))


def _matching_rows(
    predicates: Mapping[str, Any], values: Callable, bucket: Callable, attributes_of: Callable
) -> set:
    """The rows satisfying every predicate, by set algebra over a value
    index (``values(attr)``: distinct values; ``bucket(attr, value)``:
    their rows).  A :class:`ValueSet` unions its own values' buckets; any
    other predicate is evaluated once per distinct value, except in the
    buckets ``True`` / ``False`` share with 1 / 0 / 0.0, checked row by
    row.  Each ``&`` walks the smaller set; live buckets see C calls only."""
    rows = None
    # value sets first: they are lookups, and an empty one ends the fill
    by_kind = sorted(predicates.items(), key=lambda item: not isinstance(item[1], ValueSet))
    for attr, pred in by_kind:
        if rows is not None and not rows:
            break
        if isinstance(pred, ValueSet):
            found = set().union(*map(bucket, repeat(attr), pred.values))
        else:
            keys = list(values(attr))
            found = set().union(*map(bucket, repeat(attr), compress(keys, map(pred.matches, keys))))
            for key in (0, 1):
                shared = tuple(bucket(attr, key))
                if shared:
                    found.difference_update(shared)
                    found.update([row for row in shared if pred.matches(attributes_of(row)[attr])])
        rows = found if rows is None else rows & found
    return rows


class CSRIndex:
    """One graph snapshot packed into flat arrays (see module docstring).

    Base tables are built eagerly; adjacency segments and predicate
    masks are interned lazily on first touch, so a workload only pays
    for the types and signatures its queries actually use.  The index
    holds only a weak reference to the graph (the cache below keys on
    the graph, and a strong back-reference would make both immortal).
    """

    __slots__ = (
        "_graph_ref",
        "version",
        "vid_of",
        "ix_of",
        "eid_of",
        "_eix_of",
        "src",
        "tgt",
        "selfloop",
        "seed_universe",
        "_by_type",
        "_adj",
        "_vertex_masks",
        "_seed_pools",
        "_edge_masks",
        "_degrees",
        "_degree_sums",
        "_gathers",
        "_projections",
        "_dense_eids",
    )

    def __init__(self, graph: Any) -> None:
        self._graph_ref = weakref.ref(graph)
        self.version: int = graph.version
        vids = sorted(graph.vertices())
        self.vid_of = array("q", vids)
        self.ix_of: Dict[int, int] = {vid: ix for ix, vid in enumerate(vids)}
        ix_of = self.ix_of
        by_type: Dict[str, list] = defaultdict(list)
        eids: list = []
        src: list = []
        tgt: list = []
        add_eid, add_src, add_tgt = eids.append, src.append, tgt.append
        for eix, record in enumerate(graph.edges()):
            add_eid(record.eid)
            add_src(ix_of[record.source])
            add_tgt(ix_of[record.target])
            by_type[record.type].append(eix)
        self.eid_of = array("q", eids)
        #: every edge id is its own dense index (the graph's default ids):
        #: :meth:`_edge_row` needs no dict.  Patches keep it current
        self._dense_eids: bool = graph.edge_ids_dense
        #: edge id -> dense index, built by the first :meth:`_edge_row`
        #: over sparse ids
        self._eix_of: Optional[Dict[int, int]] = None
        self.selfloop = bytearray(map(eq, src, tgt))
        self.src = array(_IX, src)
        self.tgt = array(_IX, tgt)
        #: edge type -> ascending edge indexes (global insertion order):
        #: the one pass over the edges every typed segment is cut from
        self._by_type: Dict[str, array] = {
            type_key: array(_IX, eixs) for type_key, eixs in by_type.items()
        }
        self.seed_universe = array(_IX, range(len(vids)))
        #: (type | None, "out" | "in") -> (indptr, edge_ix, other_ix)
        self._adj: Dict[Tuple[Optional[str], str], Tuple[array, array, array]] = {}
        #: signature -> (mask, the predicate map it was interned from,
        #: retained so a delta patch can re-evaluate single elements)
        self._vertex_masks: Dict[Hashable, Tuple[bytearray, Dict[str, Any]]] = {}
        self._seed_pools: Dict[Hashable, array] = {}
        #: (type set | None, predicate signature) -> (mask, predicate map)
        self._edge_masks: Dict[Hashable, Tuple[bytearray, Dict[str, Any]]] = {}
        #: segments -> per-row degree summed over them (planner input)
        self._degrees: Dict[Tuple, list] = {}
        #: predicate signature -> its degree-sum table, this version only
        self._degree_sums: Dict[Hashable, DegreeSums] = {}
        #: edge type | None -> path(1) gathers over its group, until an
        #: edge of that group (any edge for ``None``) is added
        self._gathers: Dict[Optional[str], Tuple[Callable, itemgetter, itemgetter, int]] = {}
        #: (edge type | None, role, predicate signature) -> that mask
        #: gathered over the group as one int, until a write reaches it
        self._projections: Dict[Tuple[Optional[str], int, Hashable], int] = {}

    def _graph(self) -> Any:
        graph = self._graph_ref()
        if graph is None:  # pragma: no cover - cache entry dies with the graph
            raise RuntimeError("CSRIndex outlived its graph")
        return graph

    def _edge_row(self, eid: int) -> Optional[int]:
        """Edge ``eid``'s dense index, ``None`` if not interned.  The
        caller holds the catch-up lock."""
        if self._dense_eids:
            return eid if 0 <= eid < len(self.eid_of) else None
        if self._eix_of is None:
            self._eix_of = {eid: eix for eix, eid in enumerate(self.eid_of)}
        return self._eix_of.get(eid)

    def _intern(
        self, version: int, table: dict, key: Hashable, value: Any, cap: int = 0, drops: Tuple = ()
    ) -> Any:
        """Store a lazily derived ``value`` by the intern rule (module
        docstring): under the catch-up lock, and only if this index is
        still at ``version``, read before deriving.  A table at ``cap``
        entries is dropped whole first, with the ``drops`` memos.  Never
        called from ``__init__`` or :meth:`apply_deltas`: the lock is not
        reentrant."""
        with _CSR_LOCK:
            if self.version == version:
                if cap and len(table) >= cap:
                    for memo in (table, *drops):
                        memo.clear()
                table[key] = value
        return value

    def _group(self, type_key: Optional[str]) -> Iterable[int]:
        """Ascending edge indexes of one type (every edge for ``None``)."""
        if type_key is None:
            return range(len(self.eid_of))
        return self._by_type.get(type_key, ())

    @property
    def num_vertices(self) -> int:
        return len(self.vid_of)

    @property
    def num_edges(self) -> int:
        return len(self.eid_of)

    # -- adjacency segments -----------------------------------------------------

    def adjacency(
        self, type_key: Optional[str], direction: str
    ) -> Tuple[array, array, array]:
        """CSR triple ``(indptr, edge_ix, other_ix)`` for one ``(type,
        direction)`` segment (``type_key=None`` is the untyped walk).

        Row ``ix`` spans ``edge_ix[indptr[ix]:indptr[ix+1]]``, in the
        source graph's insertion order; ``other_ix`` carries the
        opposite endpoint so the inner loop never touches edge records.
        A type the graph does not hold gets an all-empty segment, which
        a later delta patch fills like any other.
        """
        key = (type_key, direction)
        segment = self._adj.get(key)
        if segment is None:
            version = self.version
            segment = self._build_adjacency(type_key, direction)
            self._intern(version, self._adj, key, segment)
        return segment

    def _build_adjacency(
        self, type_key: Optional[str], direction: str
    ) -> Tuple[array, array, array]:
        row_of, other_of = (
            (self.src, self.tgt) if direction == "out" else (self.tgt, self.src)
        )
        eixs = self._group(type_key)
        # edge indexes ascend in insertion order and the sort is stable:
        # every row replays its vertex's adjacency list element for element
        order = sorted(eixs, key=row_of.__getitem__)
        return (
            array(_IX, accumulate(self.degrees(((type_key, direction),)), initial=0)),
            array(_IX, order),
            array(_IX, map(other_of.__getitem__, order)),
        )

    # -- predicate masks ---------------------------------------------------------

    def vertex_mask(self, qvertex: QueryVertex) -> Optional[bytearray]:
        """Bitset over vertex indexes satisfying the vertex's predicates,
        or ``None`` when the vertex is unconstrained (nothing to test).

        Interned by predicate signature, so all query variants sharing a
        constraint share one mask: this table is the one memo of which
        vertices satisfy a signature.  A mask is filled from the graph's
        value index (:func:`_matching_rows`).  Rows a graph ahead of this
        index holds are left to the catch-up patch.
        """
        predicates = qvertex.predicates
        if not predicates:
            return None
        sig = qvertex.predicate_signature()
        entry = self._vertex_masks.get(sig)
        if entry is None:
            version = self.version
            graph = self._graph()
            ix_of = self.ix_of
            vids = _matching_rows(
                predicates, graph.vertex_attr_values, graph.vertices_with, graph.vertex_attributes
            )
            stale = vids.difference(ix_of)  # not interned yet: the patch sets them
            mask = bytearray(len(self.vid_of))  # sized after: a patch only appends rows
            for vid in vids - stale if stale else vids:
                mask[ix_of[vid]] = 1
            # every memo holding a vertex mask goes with a full table (a
            # DegreeSums keeps its mask alive)
            entry = self._intern(
                version, self._vertex_masks, sig, (mask, dict(predicates)), MASK_CAP,
                (self._seed_pools, self._degree_sums),
            )
        return entry[0]

    def seed_pool(self, qvertex: QueryVertex) -> array:
        """Ascending vertex-index pool for seeding ``qvertex``: the seed
        universe filtered by the vertex's mask.  Interned by predicate
        signature."""
        sig = qvertex.predicate_signature()
        pool = self._seed_pools.get(sig)
        if pool is None:
            version = self.version
            mask = self.vertex_mask(qvertex)
            if mask is None:
                pool = self.seed_universe
            else:
                pool = array(_IX, compress(range(len(mask)), mask))
            self._intern(version, self._seed_pools, sig, pool)
        return pool

    def edge_mask(self, qedge: QueryEdge) -> Optional[bytearray]:
        """Bitset over edge indexes satisfying the edge's predicates, or
        ``None`` when the edge carries none.  Interned per ``(type set,
        predicate signature)`` and filled over the admitted types' edges
        only -- the rows a typed segment or a path(1) type group can
        probe; every other row reads 0.  Filled like a vertex mask, from
        the graph's value index; edges a graph ahead of this index holds
        are left to the catch-up patch."""
        predicates = qedge.predicates
        if not predicates:
            return None
        types = qedge.type_key()
        key = (types, qedge.predicate_signature())
        entry = self._edge_masks.get(key)
        if entry is None:
            version = self.version
            graph = self._graph()
            eids = _matching_rows(
                predicates, graph.edge_attr_values, graph.edges_with,
                lambda eid: graph.edge(eid).attributes,
            )
            if types is not None:
                eids = set().union(*[eids.intersection(graph.edges_of_type(t)) for t in types])
            with _CSR_LOCK:  # rows and length read off one state of the index
                mask = bytearray(len(self.eid_of))
                for eix in map(self._edge_row, eids):
                    if eix is not None:
                        mask[eix] = 1
            entry = self._intern(version, self._edge_masks, key, (mask, dict(predicates)), MASK_CAP)
        return entry[0]

    # -- planner statistics ------------------------------------------------------

    def degrees(self, segments: Tuple[Tuple[Optional[str], str], ...]) -> list:
        """Per-row degree summed over ``(type, direction)`` segments: the
        row lengths an expansion scanning those segments walks.  Counted
        from the type groups, so the segments themselves need not be
        built."""
        row = self._degrees.get(segments)
        if row is None:
            version = self.version
            if len(segments) > 1:
                row = list(map(sum, zip(*[self.degrees((segment,)) for segment in segments])))
            else:
                ((type_key, direction),) = segments
                row_of = self.src if direction == "out" else self.tgt
                row = [0] * len(self.vid_of)
                for ix, edges in Counter(map(row_of.__getitem__, self._group(type_key))).items():
                    row[ix] = edges
            self._intern(version, self._degrees, segments, row)
        return row

    def degree_sums(self, qvertex: Optional[QueryVertex]) -> "DegreeSums":
        """The planner's degree-sum table over the rows satisfying
        ``qvertex`` (every row for ``None``), interned by predicate
        signature until the next patch; see :class:`DegreeSums`."""
        sig = () if qvertex is None else qvertex.predicate_signature()
        table = self._degree_sums.get(sig)
        if table is None:
            version = self.version
            mask = None if qvertex is None else self.vertex_mask(qvertex)
            table = self._intern(version, self._degree_sums, sig, DegreeSums(self, mask), MASK_CAP)
        return table

    # -- path(1) statistics ------------------------------------------------------

    def path1_count(
        self,
        qedge: QueryEdge,
        source: Optional[QueryVertex] = None,
        target: Optional[QueryVertex] = None,
    ) -> int:
        """Edges satisfying ``qedge``'s type set and predicates whose
        endpoints satisfy ``source`` / ``target`` in at least one admitted
        orientation: the count of the one-edge pattern under homomorphism
        semantics (Sec. 5.2.3's path(1)).  An edge admitted by both
        orientations, a self-loop included, counts once.  Without
        endpoints this is the plain edge cardinality.

        Per admitted type group, the count is the popcount of ``E &
        (S@src & T@tgt | T@src & S@tgt)``, one term per admitted
        orientation, over the group's interned projections
        (:meth:`_projection`): ``E`` the edge mask over the group's
        edges, ``S@src`` the source's mask over their sources, and so
        on.  A candidate that edits one element gathers only that
        element's projections; every other one is a lookup.
        """
        forward = Direction.FORWARD in qedge.directions
        backward = Direction.BACKWARD in qedge.directions
        project = self._projection
        count = 0
        for type_key in (None,) if qedge.types is None else qedge.types:
            edges = project(type_key, _EDGES, qedge)
            if edges is None:
                continue
            way = 0
            if forward:
                way = project(type_key, _SOURCES, source) & project(type_key, _TARGETS, target)
            if backward:
                way |= project(type_key, _SOURCES, target) & project(type_key, _TARGETS, source)
            count += (edges & way).bit_count()
        return count

    def _projection(
        self, type_key: Optional[str], role: int, element: Optional[Any]
    ) -> Optional[int]:
        """``element``'s interned mask gathered over one type group's
        edges, sources or targets (``role``) and read as one int, a bit
        per row; the group's all-ones int for an element without
        predicates, ``None`` for an empty group.  Interned per ``(type
        group, role, predicate signature)`` until a patch drops it
        (:meth:`_drop_touched`): a group's rows are the same for every
        type set admitting it, and an edge mask's rows in it are filled
        alike under each.  The masks are held for this gather only, so
        a ``MASK_CAP`` recycle meanwhile is harmless."""
        if element is None or not element.predicates:
            gathers = self._gather_group(type_key)
            return None if gathers is None else gathers[3]
        key = (type_key, role, element.predicate_signature())
        bits = self._projections.get(key)
        if bits is None:
            # read before the gathers: gathers derived across a patch
            # miss its rows, and so does anything gathered with them
            version = self.version
            gathers = self._gather_group(type_key)
            if gathers is None:
                return None
            mask = self.edge_mask(element) if role == _EDGES else self.vertex_mask(element)
            # a bit per row, row i at bit i: the reversed binary digits
            bits = int(bytes(gathers[role](mask)).translate(_DIGITS)[::-1], 2)
            self._intern(version, self._projections, key, bits, PROJECTION_CAP)
        return bits

    def _gather_group(
        self, type_key: Optional[str]
    ) -> Optional[Tuple[Callable, itemgetter, itemgetter, int]]:
        """``(edges, sources, targets, ones)`` of one type group (every
        edge for ``None``; ``None`` if empty): callables picking the
        group's rows out of an edge mask (a slice for every edge, else
        :func:`_picker`) and its endpoints' rows out of a vertex mask
        (getters sharing ``ix_of``'s one int object per vertex index),
        and the all-ones int of the group's length, a bit per row.
        Memoised per type until an edge of the group is added."""
        gathers = self._gathers.get(type_key)
        if gathers is None:
            version = self.version
            # a copy: patches append to the group in place, and every row
            # read below predates the copy
            group = self._group(type_key)[:]
            if not group:
                return None
            ix_of = self.ix_of
            boxes = [ix_of[vid] for vid in self.vid_of]
            gathers = self._intern(version, self._gathers, type_key, (
                itemgetter(slice(len(group))) if type_key is None else _picker(group),
                _gatherer([boxes[self.src[eix]] for eix in group]),
                _gatherer([boxes[self.tgt[eix]] for eix in group]),
                (1 << len(group)) - 1,
            ))
        return gathers

    # -- delta patching ----------------------------------------------------------

    def _patchable(self, deltas: Iterable[Tuple]) -> bool:
        """Can the whole delta run be applied in place?  Checked *before*
        any mutation, so a rejected run leaves the index untouched and
        the caller can rebuild from a clean state.

        Rejected runs are the ones that would break an interning
        invariant: a vertex id at or below the current dense-interning
        maximum (``vid_of`` is ascending-vid), an edge whose endpoint or
        id is unknown to both the index and the batch, or a record kind
        this index does not understand.
        """
        max_vid = self.vid_of[-1] if self.vid_of else -1
        new_vids: set = set()
        new_eids: set = set()
        for record in deltas:
            kind = record[0]
            if kind == "v":
                vid = record[1]
                if vid <= max_vid or vid in new_vids:
                    return False
                new_vids.add(vid)
                max_vid = max(max_vid, vid)
            elif kind == "e":
                eid, source, target = record[1], record[2], record[3]
                if self._edge_row(eid) is not None or eid in new_eids:
                    return False
                if source not in self.ix_of and source not in new_vids:
                    return False
                if target not in self.ix_of and target not in new_vids:
                    return False
                new_eids.add(eid)
            elif kind == "va":
                if record[1] not in self.ix_of and record[1] not in new_vids:
                    return False
            elif kind == "ea":
                if self._edge_row(record[1]) is None and record[1] not in new_eids:
                    return False
            else:
                return False
        return True

    def apply_deltas(self, deltas: Tuple[Tuple, ...]) -> bool:
        """Patch the packed image in place with a pending delta run.

        Returns ``False`` (index untouched) when the run is not
        patchable; the caller falls back to a full rebuild.  On success
        every flat array keeps its object identity and every interned
        mask and seed pool is patched bit by bit; the planner's degree
        rows and sums are cleared, and the path(1) gathers and projections the run can change are dropped
        (:meth:`_drop_touched`).  Runs under the catch-up lock
        (:func:`csr_entry`), so nothing here may derive a lazy table.
        """
        if not self._patchable(deltas):
            return False
        # a vertex no edge reaches yet moves no row of any type group
        # (its "v" record touches no attribute), and the "e" record that
        # attaches it drops its group
        self._drop_touched(delta_touch(deltas))
        graph = self._graph()
        for record in deltas:
            kind = record[0]
            if kind == "v":
                self._patch_add_vertex(record[1], record[2])
            elif kind == "e":
                self._patch_add_edge(
                    record[1], record[2], record[3], record[4], record[5]
                )
            elif kind == "va":
                self._patch_vertex_attr(graph, record[1], record[2])
            else:  # "ea"
                self._patch_edge_attr(graph, record[1], record[2])
        self._degrees.clear()
        self._degree_sums.clear()
        self.version = graph.version
        return True

    def _drop_touched(self, touch: DeltaTouch) -> None:
        """Drop the path(1) gathers and projections a patch can change.
        A projection is a snapshot of its mask over a group's rows, so
        the bit patch does not reach it.  An ``"e"`` record of type T
        appends a row to groups T and ``None``: their gathers and
        projections go.  An ``"ea"`` write of ``a`` can flip the edge
        masks naming ``a``, a ``"va"`` write the vertex masks naming
        it: the edge-role, respectively source- and target-role,
        projections whose signature names ``a`` go.  Everything else
        is kept; conservative where :func:`delta_touch` is."""
        groups = touch.edge_types | {None} if touch.edges_added else frozenset()
        for type_key in groups:
            self._gathers.pop(type_key, None)
        by_role = (touch.edge_attrs, touch.vertex_attrs, touch.vertex_attrs)
        projections = self._projections
        stale = [
            key for key in projections
            if key[0] in groups or any(attr in by_role[key[1]] for attr, _ in key[2])
        ]
        for key in stale:
            del projections[key]

    def _patch_add_vertex(self, vid: int, attrs: Dict[str, Any]) -> None:
        ix = len(self.vid_of)
        self.vid_of.append(vid)
        self.ix_of[vid] = ix
        # note: unconstrained seed pools *are* this array object
        self.seed_universe.append(ix)
        for indptr, _edge_ix, _other_ix in self._adj.values():
            indptr.append(indptr[-1])
        for sig, (mask, preds) in self._vertex_masks.items():
            bit = 1 if attributes_match(attrs, preds) else 0
            mask.append(bit)
            if bit:
                pool = self._seed_pools.get(sig)
                if pool is not None and pool is not self.seed_universe:
                    pool.append(ix)

    def _patch_add_edge(
        self, eid: int, source: int, target: int, type: str, attrs: Dict[str, Any]
    ) -> None:
        eix = len(self.eid_of)
        self.eid_of.append(eid)
        if eid != eix:
            self._dense_eids = False
        if self._eix_of is not None:
            self._eix_of[eid] = eix
        six = self.ix_of[source]
        tix = self.ix_of[target]
        self.src.append(six)
        self.tgt.append(tix)
        self.selfloop.append(1 if six == tix else 0)
        self._by_type.setdefault(type, array(_IX)).append(eix)
        for (type_key, direction), (indptr, edge_ix, other_ix) in self._adj.items():
            if type_key is not None and type_key != type:
                continue
            if direction == "out":
                row, other = six, tix
            else:
                row, other = tix, six
            # new edges append at the *end* of their row, replaying the
            # graph-side insertion order the interpreter enumerates
            pos = indptr[row + 1]
            edge_ix.insert(pos, eix)
            other_ix.insert(pos, other)
            for j in range(row + 1, len(indptr)):
                indptr[j] += 1
        for (types, _sig), (mask, preds) in self._edge_masks.items():
            admitted = types is None or type in types
            mask.append(1 if admitted and attributes_match(attrs, preds) else 0)

    def _patch_vertex_attr(self, graph: Any, vid: int, attr: str) -> None:
        ix = self.ix_of[vid]
        attrs = graph.vertex_attributes(vid)
        for sig, (mask, preds) in self._vertex_masks.items():
            if attr not in preds:
                continue
            bit = 1 if attributes_match(attrs, preds) else 0
            if mask[ix] == bit:
                continue
            mask[ix] = bit
            pool = self._seed_pools.get(sig)
            if pool is None or pool is self.seed_universe:
                continue
            pos = bisect_left(pool, ix)
            if bit:
                pool.insert(pos, ix)
            elif pos < len(pool) and pool[pos] == ix:
                pool.pop(pos)

    def _patch_edge_attr(self, graph: Any, eid: int, attr: str) -> None:
        eix = self._edge_row(eid)
        record = graph.edge(eid)
        for (types, _sig), (mask, preds) in self._edge_masks.items():
            if attr in preds and (types is None or record.type in types):
                mask[eix] = 1 if attributes_match(record.attributes, preds) else 0

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> int:
        """Bytes held by this index (base tables, type groups, built
        adjacency segments, interned masks and pools, path(1) gathers and
        projections)."""
        total = (
            self.vid_of.itemsize * len(self.vid_of)
            + self.eid_of.itemsize * len(self.eid_of)
            + self.src.itemsize * len(self.src)
            + self.tgt.itemsize * len(self.tgt)
            + len(self.selfloop)
            + self.seed_universe.itemsize * len(self.seed_universe)
        )
        for group in self._by_type.values():
            total += group.itemsize * len(group)
        for indptr, edge_ix, other_ix in self._adj.values():
            total += indptr.itemsize * len(indptr)
            total += edge_ix.itemsize * len(edge_ix)
            total += other_ix.itemsize * len(other_ix)
        for mask, _preds in (*self._vertex_masks.values(), *self._edge_masks.values()):
            total += len(mask)
        for pool in self._seed_pools.values():
            total += pool.itemsize * len(pool)
        for type_key in list(self._gathers):
            # per row: a pointer in each endpoint getter, a bit of the
            # all-ones int and, for a type, its picker's copied row
            rows = len(self._group(type_key))
            total += rows * (2 * 8 if type_key is None else 2 * 8 + 4) + rows // 8
        total += sys.getsizeof(self._projections)
        for key, bits in list(self._projections.items()):
            # most projections of a selective mask are 0, and ints up to
            # 256 are the interpreter's shared singletons
            total += sys.getsizeof(key) + (sys.getsizeof(bits) if bits > 256 else 0)
        return total


class DegreeSums(dict):
    """Degree factors -> the sum, over the rows of one vertex mask, of the
    product of each row's :meth:`CSRIndex.degrees` in every factor (a
    segment tuple); the empty factor tuple counts the rows.  Filled on
    demand, one C-speed pass over the mask per entry."""

    __slots__ = ("_csr", "_mask")

    def __init__(self, csr: CSRIndex, mask: Optional[bytearray]) -> None:
        super().__init__()
        self._csr = csr
        self._mask = mask

    def __missing__(self, factors: Tuple[Tuple, ...]) -> int:
        mask = self._mask
        if not factors:
            total = len(self._csr.vid_of) if mask is None else mask.count(1)
        else:
            rows: Iterable = [self._csr.degrees(segments) for segments in factors]
            if mask is not None:
                rows = [compress(row, mask) for row in rows]
            product = rows[0]
            for row in rows[1:]:
                product = map(mul, product, row)
            total = sum(product)
        self[factors] = total
        return total


class _CsrEntry:
    """Per-graph cache slot: the live index plus lifetime counters that
    survive version-triggered rebuilds and patches."""

    __slots__ = (
        "csr",
        "builds",
        "patches",
        "rebuilds",
        "deltas_applied",
        "programs_compiled",
        "program_hits",
        "program_fallbacks",
    )

    def __init__(self, csr: CSRIndex) -> None:
        self.csr = csr
        self.builds = 1
        self.patches = 0
        self.rebuilds = 0
        self.deltas_applied = 0
        #: kernels generated and ``compile()``d for this graph (shape
        #: misses of the process-wide kernel cache), evaluations served
        #: by an existing kernel, and plans the lowering refused (served
        #: by the interpreter)
        self.programs_compiled = 0
        self.program_hits = 0
        self.program_fallbacks = 0

    def counters(self) -> Dict[str, int]:
        return {
            "csr_builds": self.builds,
            "csr_bytes": self.csr.nbytes(),
            "csr_patches": self.patches,
            "csr_rebuilds": self.rebuilds,
            "deltas_applied": self.deltas_applied,
            "programs_compiled": self.programs_compiled,
            "program_hits": self.program_hits,
            "program_fallbacks": self.program_fallbacks,
        }


_CSR_ENTRIES: "weakref.WeakKeyDictionary[Any, _CsrEntry]" = weakref.WeakKeyDictionary()


def _pending_deltas(graph: Any, version: int) -> Optional[Tuple[Tuple, ...]]:
    """The graph's delta records since ``version``, or ``None`` when the
    graph keeps no log (plain duck-typed graphs) or the ring overran."""
    deltas_since = getattr(graph, "deltas_since", None)
    if deltas_since is None:
        return None
    return deltas_since(version)


#: serialises build, patch and rebuild: two readers arriving after one
#: write must not both apply its delta run to the same index
_CSR_LOCK = threading.Lock()


def csr_entry(graph: Any) -> _CsrEntry:
    """The graph's cache entry, brought up to the graph's *current*
    version: patched in place from the pending delta run when the log
    still holds it, rebuilt otherwise (ring overrun, unpatchable
    record or no log).  An up-to-date entry is returned without the
    lock; catching up takes it and re-checks the version inside."""
    entry = _CSR_ENTRIES.get(graph)
    if entry is not None and entry.csr.version == graph.version:
        return entry
    with _CSR_LOCK:
        entry = _CSR_ENTRIES.get(graph)
        if entry is None:
            with current_tracer().span(SPAN_CSR_BUILD, reason="first"):
                entry = _CsrEntry(CSRIndex(graph))
            _CSR_ENTRIES[graph] = entry
        elif entry.csr.version != graph.version:
            deltas = _pending_deltas(graph, entry.csr.version)
            if deltas is not None and entry.csr.apply_deltas(deltas):
                entry.patches += 1
                entry.deltas_applied += len(deltas)
            else:
                with current_tracer().span(SPAN_CSR_BUILD, reason="rebuild"):
                    entry.csr = CSRIndex(graph)
                entry.builds += 1
                entry.rebuilds += 1
    return entry


def csr_for(graph: Any) -> CSRIndex:
    """The packed index for the graph's *current* version."""
    return csr_entry(graph).csr


def csr_stats(graph: Any) -> Dict[str, int]:
    """Compilation counters for reporting (zeros before any build; never
    forces a build or a rebuild)."""
    entry = _CSR_ENTRIES.get(graph)
    if entry is None:
        return dict(_EMPTY_COUNTERS)
    return entry.counters()
