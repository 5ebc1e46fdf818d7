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
  planner and the rewriters' statistics all read them.  At most
  :data:`MASK_CAP` masks are interned per table: a long fine-grained
  search (one predicate constant per variant) recycles them instead of
  growing the index without bound;
* the planner's statistics (:mod:`repro.matching.plan`): per-row
  degrees of a segment set, counted from the type groups without
  building the segments, and per-signature :class:`DegreeSums` tables
  (sums of degree products over one interned mask), memoised until the
  next patch.

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
Partial graphs -- the worker-side
:class:`~repro.shard.affine.ShardSlice` -- are first-class: the interned
universe covers owned *and* halo vertices (halo attributes are
checkable), ``known`` marks the owned rows whose adjacency is complete,
and the seed universe spans the owned range only, mirroring the slice's
accessor surface exactly.
"""

from __future__ import annotations

import threading
import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from itertools import accumulate, compress
from operator import eq, mul
from typing import AbstractSet, Any, Dict, Hashable, Iterable, Optional, Tuple

from repro.core.query import Direction, QueryEdge, QueryVertex
from repro.matching.candidates import attributes_match, vertex_candidates
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

#: bound on the seed-restrict pool memo (one entry per seed signature
#: and shard of every partition granularity the index is driven under)
_RESTRICT_MEMO_ENTRIES = 64

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
        "partial",
        "shard_index",
        "vid_of",
        "ix_of",
        "eid_of",
        "_eix_of",
        "src",
        "tgt",
        "selfloop",
        "known",
        "seed_universe",
        "_by_type",
        "_adj",
        "_vertex_masks",
        "_mask_preds",
        "_seed_pools",
        "_restrict_pools",
        "_edge_masks",
        "_edge_mask_preds",
        "_degrees",
        "_degree_sums",
    )

    def __init__(self, graph: Any) -> None:
        self._graph_ref = weakref.ref(graph)
        self.version: int = graph.version
        # a ShardSlice exposes its halo attribute map and owned-vid set;
        # duck-typed so matching never imports the shard layer
        halo = getattr(graph, "_halo", None)
        owned = getattr(graph, "vertex_ids", None)
        self.partial: bool = halo is not None and owned is not None
        self.shard_index: Optional[int] = (
            getattr(graph, "index", None) if self.partial else None
        )
        if self.partial:
            vids = sorted(set(owned) | set(halo))
        else:
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
        #: edge id -> dense index; only delta patches ask, so the first
        #: one builds it (see :meth:`_edge_index`)
        self._eix_of: Optional[Dict[int, int]] = None
        self.selfloop = bytearray(map(eq, src, tgt))
        self.src = array(_IX, src)
        self.tgt = array(_IX, tgt)
        #: edge type -> ascending edge indexes (global insertion order):
        #: the one pass over the edges every typed segment is cut from
        self._by_type: Dict[str, array] = {
            type_key: array(_IX, eixs) for type_key, eixs in by_type.items()
        }
        if self.partial:
            self.known: Optional[bytearray] = bytearray(
                1 if vid in owned else 0 for vid in vids
            )
            self.seed_universe = array(
                _IX, (ix for ix, vid in enumerate(vids) if vid in owned)
            )
        else:
            self.known = None
            self.seed_universe = array(_IX, range(len(vids)))
        #: (type | None, "out" | "in") -> (indptr, edge_ix, other_ix)
        self._adj: Dict[Tuple[Optional[str], str], Tuple[array, array, array]] = {}
        self._vertex_masks: Dict[Hashable, bytearray] = {}
        #: signature -> the predicate map the mask was interned from,
        #: retained so a delta patch can re-evaluate single elements
        self._mask_preds: Dict[Hashable, Dict[str, Any]] = {}
        self._seed_pools: Dict[Hashable, array] = {}
        #: (seed signature, restriction) -> clamped copy of the seed pool
        self._restrict_pools: Dict[Hashable, array] = {}
        self._edge_masks: Dict[Hashable, bytearray] = {}
        self._edge_mask_preds: Dict[Hashable, Dict[str, Any]] = {}
        #: segments -> per-row degree summed over them (planner input)
        self._degrees: Dict[Tuple, list] = {}
        #: predicate signature -> its degree-sum table, this version only
        self._degree_sums: Dict[Hashable, DegreeSums] = {}

    def _graph(self) -> Any:
        graph = self._graph_ref()
        if graph is None:  # pragma: no cover - cache entry dies with the graph
            raise RuntimeError("CSRIndex outlived its graph")
        return graph

    def _edge_index(self) -> Dict[int, int]:
        if self._eix_of is None:
            self._eix_of = {eid: eix for eix, eid in enumerate(self.eid_of)}
        return self._eix_of

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
        Unknown-adjacency rows of a partial graph are empty -- the
        program guards them with an explicit miss *before* scanning.
        A type the graph does not hold gets an all-empty segment, which
        a later delta patch fills like any other.
        """
        key = (type_key, direction)
        segment = self._adj.get(key)
        if segment is None:
            segment = self._build_adjacency(type_key, direction)
            self._adj[key] = segment
        return segment

    def _build_adjacency(
        self, type_key: Optional[str], direction: str
    ) -> Tuple[array, array, array]:
        row_of, other_of = (
            (self.src, self.tgt) if direction == "out" else (self.tgt, self.src)
        )
        if type_key is None:
            eixs: Iterable[int] = range(len(self.eid_of))
        else:
            eixs = self._by_type.get(type_key, ())
        known = self.known
        if known is not None:
            eixs = [eix for eix in eixs if known[row_of[eix]]]
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
        indexes (:func:`~repro.matching.candidates.vertex_candidates`);
        on a partial graph those cover the owned range only, so the halo
        attributes are evaluated directly on top -- expansion targets may
        land in the halo.
        """
        predicates = qvertex.predicates
        if not predicates:
            return None
        sig = qvertex.predicate_signature()
        mask = self._vertex_masks.get(sig)
        if mask is None:
            if len(self._vertex_masks) >= MASK_CAP:
                # every memo holding a vertex mask goes with the table
                # (a DegreeSums keeps its mask alive)
                self._vertex_masks.clear()
                self._mask_preds.clear()
                self._seed_pools.clear()
                self._restrict_pools.clear()
                self._degree_sums.clear()
            graph = self._graph()
            mask = bytearray(len(self.vid_of))
            ix_of = self.ix_of
            for vid in vertex_candidates(graph, qvertex):
                mask[ix_of[vid]] = 1
            if self.partial:
                for vid, attributes in graph._halo.items():
                    if attributes_match(attributes, predicates):
                        mask[ix_of[vid]] = 1
            self._vertex_masks[sig] = mask
            self._mask_preds[sig] = dict(predicates)
        return mask

    def seed_pool(self, qvertex: QueryVertex) -> array:
        """Ascending vertex-index pool for seeding ``qvertex``: the seed
        universe (owned range on partial graphs) filtered by the
        vertex's mask.  Interned by predicate signature."""
        sig = qvertex.predicate_signature()
        pool = self._seed_pools.get(sig)
        if pool is None:
            mask = self.vertex_mask(qvertex)
            if mask is None:
                pool = self.seed_universe
            else:
                pool = array(_IX, (ix for ix in self.seed_universe if mask[ix]))
            self._seed_pools[sig] = pool
        return pool

    def restricted_seed_pool(
        self, qvertex: QueryVertex, restrict: AbstractSet[int]
    ) -> array:
        """:meth:`seed_pool` confined to the data vertices ``restrict``
        (the ``seed_restrict`` clamp of a shard-seeded evaluation),
        memoised per ``(signature, restriction)`` until the next patch."""
        if not isinstance(restrict, frozenset):
            restrict = frozenset(restrict)
        key = (qvertex.predicate_signature(), restrict)
        pool = self._restrict_pools.get(key)
        if pool is None:
            pool = self._restricted(self.seed_pool(qvertex), restrict)
            if len(self._restrict_pools) >= _RESTRICT_MEMO_ENTRIES:
                self._restrict_pools.clear()
            self._restrict_pools[key] = pool
        return pool

    def _restricted(self, base: array, restrict: frozenset) -> array:
        if not restrict or not len(base):
            return array(_IX)
        vid_of = self.vid_of
        a = bisect_left(vid_of, min(restrict))
        b = bisect_right(vid_of, max(restrict))
        ix_of = self.ix_of
        if b - a == len(restrict) and all(vid in ix_of for vid in restrict):
            # the restriction is exactly the universe's contiguous vid
            # run [lo, hi] (every shard of the range partitioner is):
            # clamp the pool to the index range -- a pure slice copy
            return base[bisect_left(base, a) : bisect_right(base, b - 1)]
        return array(_IX, (ix for ix in base if vid_of[ix] in restrict))

    def edge_mask(self, qedge: QueryEdge) -> Optional[bytearray]:
        """Bitset over edge indexes satisfying the edge's predicates, or
        ``None`` when the edge carries none.  Types are *not* part of
        the mask -- the typed adjacency segments prefilter them."""
        predicates = qedge.predicates
        if not predicates:
            return None
        sig = qedge.predicate_signature()
        mask = self._edge_masks.get(sig)
        if mask is None:
            if len(self._edge_masks) >= MASK_CAP:
                self._edge_masks.clear()
                self._edge_mask_preds.clear()
            graph = self._graph()
            mask = bytearray(len(self.eid_of))
            for eix, eid in enumerate(self.eid_of):
                if attributes_match(graph.edge(eid).attributes, predicates):
                    mask[eix] = 1
            self._edge_masks[sig] = mask
            self._edge_mask_preds[sig] = dict(predicates)
        return mask

    # -- planner statistics ------------------------------------------------------

    def degrees(self, segments: Tuple[Tuple[Optional[str], str], ...]) -> list:
        """Per-row degree summed over ``(type, direction)`` segments: the
        row lengths an expansion scanning those segments walks (rows of
        unknown adjacency count none).  Counted from the type groups, so
        the segments themselves need not be built."""
        row = self._degrees.get(segments)
        if row is None:
            if len(segments) > 1:
                row = list(map(sum, zip(*[self.degrees((segment,)) for segment in segments])))
            else:
                ((type_key, direction),) = segments
                row_of = self.src if direction == "out" else self.tgt
                if type_key is None:
                    eixs: Iterable[int] = range(len(self.eid_of))
                else:
                    eixs = self._by_type.get(type_key, ())
                row = [0] * len(self.vid_of)
                for ix, edges in Counter(map(row_of.__getitem__, eixs)).items():
                    row[ix] = edges
                if self.known is not None:
                    row = list(map(mul, row, self.known))
            self._degrees[segments] = row
        return row

    def degree_sums(self, qvertex: Optional[QueryVertex]) -> "DegreeSums":
        """The planner's degree-sum table over the rows satisfying
        ``qvertex`` (every row for ``None``), interned by predicate
        signature until the next patch; see :class:`DegreeSums`."""
        sig = () if qvertex is None else qvertex.predicate_signature()
        table = self._degree_sums.get(sig)
        if table is None:
            if len(self._degree_sums) >= MASK_CAP:
                self._degree_sums.clear()
            mask = None if qvertex is None else self.vertex_mask(qvertex)
            table = DegreeSums(self, mask)
            self._degree_sums[sig] = table
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

        One pass over the admitted types' edge groups and the interned
        masks; an absent mask (no predicates) reads as all ones.  The
        masks are held for this call only, so a ``MASK_CAP`` recycle
        between two of them is harmless.
        """
        emask = self.edge_mask(qedge)
        masks = []
        for qvertex in (source, target):
            mask = None if qvertex is None else self.vertex_mask(qvertex)
            masks.append(b"\x01" * len(self.vid_of) if mask is None else mask)
        smask, tmask = masks
        if qedge.types is None:
            groups: Iterable[Iterable[int]] = (range(len(self.eid_of)),)
        else:
            groups = [self._by_type.get(t, ()) for t in qedge.types]
        forward = Direction.FORWARD in qedge.directions
        backward = Direction.BACKWARD in qedge.directions
        src, tgt = self.src, self.tgt
        count = 0
        for group in groups:
            for eix in group if emask is None else filter(emask.__getitem__, group):
                six, tix = src[eix], tgt[eix]
                if (forward and smask[six] and tmask[tix]) or (
                    backward and tmask[six] and smask[tix]
                ):
                    count += 1
        return count

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
        eix_of = self._edge_index()
        new_vids: set = set()
        new_eids: set = set()
        for record in deltas:
            kind = record[0]
            if kind == "v" or kind == "hv":
                vid = record[1]
                if vid <= max_vid or vid in new_vids:
                    return False
                new_vids.add(vid)
                max_vid = max(max_vid, vid)
            elif kind == "e":
                eid, source, target = record[1], record[2], record[3]
                if eid in eix_of or eid in new_eids:
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
                if record[1] not in eix_of and record[1] not in new_eids:
                    return False
            else:
                return False
        return True

    def apply_deltas(self, deltas: Tuple[Tuple, ...]) -> bool:
        """Patch the packed image in place with a pending delta run.

        Returns ``False`` (index untouched) when the run is not
        patchable; the caller falls back to a full rebuild.  On success
        every flat array keeps its object identity; only the derived
        memos (restrict pools, the planner's degree rows and sums) are
        cleared.
        """
        if not self._patchable(deltas):
            return False
        graph = self._graph()
        for record in deltas:
            kind = record[0]
            if kind == "v":
                self._patch_add_vertex(record[1], record[2], owned=True)
            elif kind == "hv":
                self._patch_add_vertex(record[1], record[2], owned=False)
            elif kind == "e":
                self._patch_add_edge(
                    record[1], record[2], record[3], record[4], record[5]
                )
            elif kind == "va":
                self._patch_vertex_attr(graph, record[1], record[2])
            else:  # "ea"
                self._patch_edge_attr(graph, record[1], record[2])
        self._restrict_pools.clear()
        self._degrees.clear()
        self._degree_sums.clear()
        self.version = graph.version
        return True

    def _patch_add_vertex(self, vid: int, attrs: Dict[str, Any], owned: bool) -> None:
        ix = len(self.vid_of)
        self.vid_of.append(vid)
        self.ix_of[vid] = ix
        if self.known is not None:
            self.known.append(1 if owned else 0)
        if owned or self.known is None:
            # note: unconstrained seed pools *are* this array object
            self.seed_universe.append(ix)
        for indptr, _edge_ix, _other_ix in self._adj.values():
            indptr.append(indptr[-1])
        for sig, mask in self._vertex_masks.items():
            bit = 1 if attributes_match(attrs, self._mask_preds[sig]) else 0
            mask.append(bit)
            if bit and (owned or self.known is None):
                pool = self._seed_pools.get(sig)
                if pool is not None and pool is not self.seed_universe:
                    pool.append(ix)

    def _patch_add_edge(
        self, eid: int, source: int, target: int, type: str, attrs: Dict[str, Any]
    ) -> None:
        eix = len(self.eid_of)
        self.eid_of.append(eid)
        self._edge_index()[eid] = eix
        six = self.ix_of[source]
        tix = self.ix_of[target]
        self.src.append(six)
        self.tgt.append(tix)
        self.selfloop.append(1 if six == tix else 0)
        self._by_type.setdefault(type, array(_IX)).append(eix)
        known = self.known
        for (type_key, direction), (indptr, edge_ix, other_ix) in self._adj.items():
            if type_key is not None and type_key != type:
                continue
            if direction == "out":
                row, other = six, tix
            else:
                row, other = tix, six
            if known is not None and not known[row]:
                continue
            # new edges append at the *end* of their row, replaying the
            # graph-side insertion order the interpreter enumerates
            pos = indptr[row + 1]
            edge_ix.insert(pos, eix)
            other_ix.insert(pos, other)
            for j in range(row + 1, len(indptr)):
                indptr[j] += 1
        for sig, mask in self._edge_masks.items():
            mask.append(
                1 if attributes_match(attrs, self._edge_mask_preds[sig]) else 0
            )

    def _patch_vertex_attr(self, graph: Any, vid: int, attr: str) -> None:
        ix = self.ix_of[vid]
        attrs = graph.vertex_attributes(vid)
        in_universe = self.known is None or self.known[ix]
        for sig, preds in self._mask_preds.items():
            if attr not in preds:
                continue
            mask = self._vertex_masks[sig]
            bit = 1 if attributes_match(attrs, preds) else 0
            if mask[ix] == bit:
                continue
            mask[ix] = bit
            pool = self._seed_pools.get(sig)
            if pool is None or pool is self.seed_universe or not in_universe:
                continue
            pos = bisect_left(pool, ix)
            if bit:
                pool.insert(pos, ix)
            elif pos < len(pool) and pool[pos] == ix:
                pool.pop(pos)

    def _patch_edge_attr(self, graph: Any, eid: int, attr: str) -> None:
        eix = self._edge_index()[eid]
        attrs = graph.edge(eid).attributes
        for sig, preds in self._edge_mask_preds.items():
            if attr in preds:
                self._edge_masks[sig][eix] = (
                    1 if attributes_match(attrs, preds) else 0
                )

    # -- accounting --------------------------------------------------------------

    def nbytes(self) -> int:
        """Flat-array bytes held by this index (base tables, type groups,
        built adjacency segments, interned masks and pools)."""
        total = (
            self.vid_of.itemsize * len(self.vid_of)
            + self.eid_of.itemsize * len(self.eid_of)
            + self.src.itemsize * len(self.src)
            + self.tgt.itemsize * len(self.tgt)
            + len(self.selfloop)
            + self.seed_universe.itemsize * len(self.seed_universe)
        )
        if self.known is not None:
            total += len(self.known)
        for group in self._by_type.values():
            total += group.itemsize * len(group)
        for indptr, edge_ix, other_ix in self._adj.values():
            total += indptr.itemsize * len(indptr)
            total += edge_ix.itemsize * len(edge_ix)
            total += other_ix.itemsize * len(other_ix)
        for mask in self._vertex_masks.values():
            total += len(mask)
        for mask in self._edge_masks.values():
            total += len(mask)
        for pool in self._seed_pools.values():
            total += pool.itemsize * len(pool)
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
