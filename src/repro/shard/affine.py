"""Shard-affine placement: per-shard slices, misses, slice evaluation.

PR 4's :class:`~repro.shard.ProcessExecutor` gave every worker the
*full* graph snapshot, so worker memory grew with the worker count.
Shard-affine placement inverts that: each worker holds only the shards
*placed* on it, shipped as the compact per-shard wire form of
:func:`repro.core.serialize.shard_to_wire`.  This module is the
worker-side half of that design:

* :class:`ShardSlice` -- the partial graph a worker rebuilds from one
  shard's wire payload: the shard's owned vertices with their complete
  (typed and untyped) adjacency, every edge record incident to an owned
  vertex, the projected rows of the boundary-edge index, and the
  **halo** -- the attribute maps of the remote endpoints of boundary
  edges.  The slice exposes the :class:`~repro.core.graph.PropertyGraph`
  read-accessor surface, so the unmodified
  :class:`~repro.matching.matcher.PatternMatcher` evaluates a
  seed-restricted block against it directly; any touch of data the
  slice does not hold raises :class:`ShardMiss` instead of returning a
  wrong answer.
* :class:`ShardMiss` -- the "this worker cannot finish the block"
  signal.  One-hop expansions resolve through the shipped halo; a
  search that needs the adjacency of a *remote* vertex (a second hop
  off-shard) misses, and the coordinator re-evaluates that block
  against its full graph (correctness first, locality second).
* :class:`SliceEvaluator` -- the long-lived per-worker evaluation
  state: one warm matcher per held slice, a bounded wire->query memo
  and a bounded per-block result memo.  ``count_block`` returns
  ``None`` on a miss so the verdict crosses the process boundary as a
  plain picklable value; the in-process entry points (``count`` /
  ``match``) accept a coordinator-side fallback and run the *identical*
  code path the worker processes run, which is what the randomized
  differential suite in ``tests/test_property_based.py`` drives.

Determinism: a slice's adjacency lists replay the source graph's
append order exactly (the wire form emits incident edges in global
insertion order), so a seed-restricted search that completes on a slice
takes the same ``steps`` the full graph would under the same plan, and
per-block counts merged by ascending shard index are value-identical to
the unsharded count.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    AbstractSet,
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.errors import GraphError
from repro.core.graph import EdgeRecord
from repro.core.query import GraphQuery
from repro.core.result import ResultSet
from repro.matching.matcher import PatternMatcher
from repro.obs.tracing import SPAN_BLOCK, SPAN_FALLBACK, current_tracer

__all__ = [
    "ShardMiss",
    "ShardSlice",
    "SliceEvaluator",
    "canonical_edge_order",
]

_EMPTY_SEQ: Tuple[int, ...] = ()
_EMPTY_SET: FrozenSet[int] = frozenset()

#: bound on the per-evaluator memos (wire->query and block results): a
#: long-lived worker serves every distinct rewriting candidate a service
#: ever searches and must not grow without limit
_MEMO_ENTRIES = 10_000

#: bound on the per-slice ring of applied delta batches; consumers that
#: lag more than this many catch-up rounds rebuild their derived state
_DELTA_BATCH_LIMIT = 256


class ShardMiss(GraphError, LookupError):
    """The slice does not hold the data this evaluation step touched.

    Raised by :class:`ShardSlice` accessors (never by returning a wrong
    or partial answer); the worker maps it to a ``None`` block result
    and the coordinator re-evaluates the block on the full graph.
    """

    def __init__(self, shard_index: int, what: str) -> None:
        super().__init__(
            f"shard {shard_index} slice does not hold {what}; "
            "coordinator-side resolve required"
        )
        self.shard_index = shard_index


class _SliceCell:
    """Per-vertex storage inside one slice (attributes + adjacency)."""

    __slots__ = ("attributes", "out_edges", "in_edges", "out_by_type", "in_by_type")

    def __init__(self, attributes: Mapping[str, Any]) -> None:
        self.attributes = attributes
        self.out_edges: List[int] = []
        self.in_edges: List[int] = []
        self.out_by_type: Dict[str, List[int]] = {}
        self.in_by_type: Dict[str, List[int]] = {}


class ShardSlice:
    """One shard's owned data plus its one-hop halo, as a partial graph.

    Built from the wire payload of :func:`repro.core.serialize.shard_to_wire`
    (use :func:`repro.core.serialize.shard_from_wire`).  Exposes the
    ``PropertyGraph`` read surface the matcher, the planner and the
    candidate enumeration touch; accessors answer exactly like the full
    graph for data the slice holds and raise :class:`ShardMiss` for
    data it does not:

    * owned vertices: attributes, full adjacency (insertion-ordered,
      typed and untyped) -- identical to the source graph's lists;
    * halo vertices (remote endpoints of boundary edges): attributes
      only -- enough to *check* a one-hop expansion target, never to
      expand from it;
    * anything else: :class:`ShardMiss`.

    Index-backed enumeration (``vertices``/``vertices_with``/type
    counts) covers the owned range only; the matcher's ``seed_restrict``
    confines the seed pool to the owned range anyway, so a restricted
    search never observes the difference.
    """

    def __init__(
        self,
        index: int,
        num_shards: int,
        version: int,
        vertices: Sequence[Tuple[int, Mapping[str, Any]]],
        edges: Sequence[EdgeRecord],
        halo: Sequence[Tuple[int, Mapping[str, Any]]],
        boundary_rows: Mapping[Tuple[int, int], Sequence[int]],
    ) -> None:
        self.index = index
        self.num_shards = num_shards
        self._version = version
        self.vids: Tuple[int, ...] = tuple(vid for vid, _ in vertices)
        self._owned: FrozenSet[int] = frozenset(self.vids)
        self._cells: Dict[int, _SliceCell] = {
            vid: _SliceCell(attributes) for vid, attributes in vertices
        }
        self._halo: Dict[int, Mapping[str, Any]] = {
            vid: attributes for vid, attributes in halo
        }
        self._edges: Dict[int, EdgeRecord] = {}
        self._type_index: Dict[str, Set[int]] = {}
        # replay in payload order == global insertion order, so owned
        # adjacency lists equal the source graph's lists element for
        # element (the determinism contract of the wire format)
        for record in edges:
            self._edges[record.eid] = record
            if record.source in self._cells:
                cell = self._cells[record.source]
                cell.out_edges.append(record.eid)
                cell.out_by_type.setdefault(record.type, []).append(record.eid)
                self._type_index.setdefault(record.type, set()).add(record.eid)
            if record.target in self._cells:
                cell = self._cells[record.target]
                cell.in_edges.append(record.eid)
                cell.in_by_type.setdefault(record.type, []).append(record.eid)
        self.boundary_rows: Dict[Tuple[int, int], Tuple[int, ...]] = {
            key: tuple(eids) for key, eids in boundary_rows.items()
        }
        #: lazily built attr -> value -> owned vertex ids
        self._vertex_index: Dict[str, Dict[Any, Set[int]]] = {}
        self._indexed_attrs: Set[str] = set()
        #: applied catch-up batches as (from_version, to_version,
        #: records); batch-granular because the slice only ever moves
        #: whole wire batches, so consumers (the CSR index, the
        #: evaluation cache) only observe batch-boundary versions
        self._delta_batches: Deque[Tuple[int, int, Tuple[Tuple, ...]]] = deque(
            maxlen=_DELTA_BATCH_LIMIT
        )
        self.deltas_applied = 0

    # -- ownership / identity ---------------------------------------------------

    @property
    def version(self) -> int:
        """Source graph's mutation counter at partition time."""
        return self._version

    @property
    def vertex_ids(self) -> FrozenSet[int]:
        """Owned vertex ids (the block's seed pool)."""
        return self._owned

    def owns(self, vid: int) -> bool:
        return vid in self._owned

    def has_vertex(self, vid: int) -> bool:
        return vid in self._owned or vid in self._halo

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    # -- attribute access (owned + halo) ----------------------------------------

    def vertex_attributes(self, vid: int) -> Mapping[str, Any]:
        cell = self._cells.get(vid)
        if cell is not None:
            return cell.attributes
        attributes = self._halo.get(vid)
        if attributes is not None:
            return attributes
        raise ShardMiss(self.index, f"vertex {vid}")

    def edge(self, eid: int) -> EdgeRecord:
        try:
            return self._edges[eid]
        except KeyError:
            raise ShardMiss(self.index, f"edge {eid}") from None

    # -- adjacency (owned only) --------------------------------------------------

    def _cell(self, vid: int) -> _SliceCell:
        try:
            return self._cells[vid]
        except KeyError:
            raise ShardMiss(self.index, f"adjacency of vertex {vid}") from None

    def out_edges(self, vid: int) -> Sequence[int]:
        return self._cell(vid).out_edges

    def in_edges(self, vid: int) -> Sequence[int]:
        return self._cell(vid).in_edges

    def out_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        return self._cell(vid).out_by_type.get(type, _EMPTY_SEQ)

    def in_edges_of_type(self, vid: int, type: str) -> Sequence[int]:
        return self._cell(vid).in_by_type.get(type, _EMPTY_SEQ)

    def incident_edges(self, vid: int) -> Tuple[int, ...]:
        cell = self._cell(vid)
        return tuple(cell.out_edges) + tuple(cell.in_edges)

    def degree(self, vid: int) -> int:
        cell = self._cell(vid)
        return len(cell.out_edges) + len(cell.in_edges)

    def out_degree_of_type(self, vid: int, type: str) -> int:
        return len(self.out_edges_of_type(vid, type))

    def in_degree_of_type(self, vid: int, type: str) -> int:
        return len(self.in_edges_of_type(vid, type))

    # -- iteration & size (owned range) ------------------------------------------

    def vertices(self) -> Iterator[int]:
        return iter(self.vids)

    @property
    def num_vertices(self) -> int:
        return len(self.vids)

    @property
    def num_edges(self) -> int:
        """Edges *sourced* at an owned vertex (the shard's own share)."""
        return sum(len(eids) for eids in self._type_index.values())

    def edges(self) -> Iterator[EdgeRecord]:
        """Every shipped edge record, in global insertion order."""
        return iter(self._edges.values())

    def edge_types(self) -> FrozenSet[str]:
        return frozenset(self._type_index)

    def edges_of_type(self, type: str) -> AbstractSet[int]:
        return self._type_index.get(type, _EMPTY_SET)

    def num_edges_of_type(self, type: str) -> int:
        return len(self._type_index.get(type, _EMPTY_SET))

    def edge_type_counts(self) -> Dict[str, int]:
        return {t: len(eids) for t, eids in self._type_index.items()}

    # -- secondary indexes (owned range) ------------------------------------------

    def create_vertex_index(self, attr: str) -> None:
        index: Dict[Any, Set[int]] = {}
        for vid in self.vids:
            attributes = self._cells[vid].attributes
            if attr in attributes:
                index.setdefault(attributes[attr], set()).add(vid)
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

    # -- delta catch-up -------------------------------------------------------------

    def deltas_since(self, version: int) -> Optional[Tuple[Tuple, ...]]:
        """Applied delta records after ``version``, or ``None`` when
        ``version`` is not a retained batch boundary (ring overrun or a
        mid-batch version that can never be observed)."""
        if version == self._version:
            return ()
        collected: List[Tuple] = []
        found = False
        for from_version, _to_version, records in self._delta_batches:
            if found:
                collected.extend(records)
            elif from_version == version:
                found = True
                collected.extend(records)
        if not found:
            return None
        return tuple(collected)

    def apply_wire_delta(self, payload: Mapping[str, Any]) -> int:
        """Apply one routed catch-up payload (see
        :func:`repro.core.serialize.route_deltas`); returns the number
        of records applied.

        The payload must continue exactly where this slice stands
        (``from_version == version``) -- the coordinator ships
        contiguous runs.  Application is idempotent per record: an
        ``"hv"`` for a vertex already held, or an edge already present,
        is skipped (cross-shard routing legitimately produces them).
        Only records the packed-index layer understands are logged for
        :meth:`deltas_since`; boundary-index rows (``"be"``) apply
        without being logged.
        """
        from repro.core.serialize import delta_from_wire

        from_version, to_version, records = delta_from_wire(payload)
        if payload.get("shard") not in (None, self.index):
            raise ValueError(
                f"delta payload routed to shard {payload.get('shard')}, "
                f"applied to slice {self.index}"
            )
        if from_version != self._version:
            raise ValueError(
                f"delta run starts at version {from_version}, slice is at "
                f"{self._version}; re-ship the snapshot"
            )
        applied: List[Tuple] = []
        for record in records:
            if self._apply_record(record):
                applied.append(record)
        self._delta_batches.append((self._version, to_version, tuple(applied)))
        self._version = to_version
        self.deltas_applied += len(applied)
        return len(applied)

    def _apply_record(self, record: Tuple) -> bool:
        """Apply one delta record; ``True`` when it changed state the
        packed-index layer must hear about (and so must be logged)."""
        kind = record[0]
        if kind == "hv":
            vid, attrs = record[1], record[2]
            if vid in self._cells or vid in self._halo:
                return False
            self._halo[vid] = dict(attrs)
            return True
        if kind == "e":
            eid = record[1]
            if eid in self._edges:
                return False
            source, target, type_, attrs = record[2], record[3], record[4], record[5]
            if not self.has_vertex(source) or not self.has_vertex(target):
                raise ValueError(
                    f"edge {eid} routed to shard {self.index} before its "
                    "endpoints; malformed delta run"
                )
            edge = EdgeRecord(eid, source, target, type_, dict(attrs))
            self._edges[eid] = edge
            cell = self._cells.get(source)
            if cell is not None:
                cell.out_edges.append(eid)
                cell.out_by_type.setdefault(type_, []).append(eid)
                self._type_index.setdefault(type_, set()).add(eid)
            cell = self._cells.get(target)
            if cell is not None:
                cell.in_edges.append(eid)
                cell.in_by_type.setdefault(type_, []).append(eid)
            return True
        if kind == "va":
            vid, attr, value = record[1], record[2], record[3]
            cell = self._cells.get(vid)
            if cell is not None:
                if attr in self._indexed_attrs:
                    index = self._vertex_index[attr]
                    if attr in cell.attributes:
                        bucket = index.get(cell.attributes[attr])
                        if bucket is not None:
                            bucket.discard(vid)
                    index.setdefault(value, set()).add(vid)
                cell.attributes[attr] = value  # type: ignore[index]
                return True
            halo_attrs = self._halo.get(vid)
            if halo_attrs is not None:
                halo_attrs[attr] = value  # type: ignore[index]
                return True
            # routed before the vertex became visible here; the eventual
            # "hv" ships the final attributes, so skipping is sound
            return False
        if kind == "ea":
            eid, attr, value = record[1], record[2], record[3]
            edge = self._edges.get(eid)
            if edge is None:
                return False
            edge.attributes[attr] = value  # type: ignore[index]
            return True
        if kind == "be":
            key = (record[1], record[2])
            row = self.boundary_rows.get(key, _EMPTY_SEQ)
            if record[3] not in row:
                self.boundary_rows[key] = tuple(row) + (record[3],)
            return False
        raise ValueError(f"unknown delta record kind {record[0]!r}")

    # -- mutation guard ------------------------------------------------------------

    def add_vertex(self, *args: Any, **kwargs: Any) -> int:
        raise TypeError("ShardSlice is a read-only worker snapshot")

    def add_edge(self, *args: Any, **kwargs: Any) -> int:
        raise TypeError("ShardSlice is a read-only worker snapshot")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSlice(index={self.index}/{self.num_shards}, "
            f"|V|={self.num_vertices}, halo={len(self._halo)}, "
            f"edges={len(self._edges)})"
        )


def canonical_edge_order(query: GraphQuery) -> Tuple[int, ...]:
    """Deterministic connected traversal order of a query's edges.

    The shard decomposition is only exact when **every** shard's block
    restricts the *same* first-seed query vertex: blocks seeded at
    different query vertices neither partition nor cover the match set.
    A slice's selectivity-ordered plan is built from its own *local*
    statistics, so two slices can legitimately disagree on the seed --
    the one way the affine path could silently diverge.  This order is
    a pure function of the query (lowest-eid frontier edge first, new
    components at the lowest remaining eid), so every slice, every
    worker process and every coordinator-side fallback derives the
    identical plan -- trading the per-slice selectivity ordering for
    cross-shard consistency.
    """
    remaining = set(query.edge_ids)
    bound: Set[int] = set()
    order: List[int] = []
    while remaining:
        frontier = [
            eid
            for eid in remaining
            if query.edge(eid).source in bound or query.edge(eid).target in bound
        ]
        eid = min(frontier) if frontier else min(remaining)
        edge = query.edge(eid)
        order.append(eid)
        remaining.discard(eid)
        bound.add(edge.source)
        bound.add(edge.target)
    return tuple(order)


class SliceEvaluator:
    """Long-lived slice evaluation state (one per affine worker).

    Holds the :class:`ShardSlice` of every shard placed on this worker,
    one warm :class:`~repro.matching.matcher.PatternMatcher` per slice,
    a bounded wire->query memo and a bounded per-block result memo.

    ``count_block`` is the worker-side unit of work: the matches of one
    query whose first seed binds inside one shard's owned range.  It
    returns the exact bounded count when the slice suffices and ``None``
    when the evaluation missed (cross-shard second hop, disconnected
    query) -- the coordinator resolves misses against the full graph.

    The in-process entry points (:meth:`count` / :meth:`match`) drive
    the identical per-block code path over *all* shards with an explicit
    fallback, which is how the randomized differential suite exercises
    affine placement without paying a process pool per generated case.
    """

    def __init__(
        self,
        slices: Mapping[int, ShardSlice],
        injective: bool = True,
        fallback: Optional[object] = None,
        compiled: bool = True,
    ) -> None:
        if not slices:
            raise ValueError("SliceEvaluator needs at least one slice")
        self.slices: Dict[int, ShardSlice] = dict(slices)
        self.num_shards = next(iter(self.slices.values())).num_shards
        self.injective = injective
        self.compiled = compiled
        #: coordinator-side resolver for missed blocks -- anything
        #: exposing ``count_shard(index, query, limit)`` and a
        #: ``matcher`` with ``seed_restrict`` (a
        #: :class:`~repro.shard.matching.ShardedMatcher` fits); workers
        #: run without one and surface misses as ``None``
        self.fallback = fallback
        self._matchers: Dict[int, PatternMatcher] = {
            index: PatternMatcher(
                slice_,
                injective=injective,
                compiled=compiled,
            )
            for index, slice_ in self.slices.items()
        }
        self._wire_queries: "OrderedDict[Tuple, GraphQuery]" = OrderedDict()
        self._block_counts: "OrderedDict[Tuple, Optional[int]]" = OrderedDict()
        # lifetime counters (worker- or in-process-side)
        self.blocks_served = 0
        self.misses = 0
        self.fallbacks = 0
        self.catchups = 0
        self.deltas_applied = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_wire_payloads(
        cls,
        payloads: Sequence[Mapping[str, Any]],
        injective: bool = True,
        fallback: Optional[object] = None,
        compiled: bool = True,
    ) -> "SliceEvaluator":
        """Rebuild the placed slices from their wire payloads (each slice
        builds its CSR index locally on first compiled evaluation)."""
        from repro.core.serialize import shard_from_wire

        slices = {}
        for payload in payloads:
            slice_ = shard_from_wire(payload)
            slices[slice_.index] = slice_
        return cls(
            slices,
            injective=injective,
            fallback=fallback,
            compiled=compiled,
        )

    @classmethod
    def for_sharded(
        cls,
        sharded,
        injective: bool = True,
        fallback: Optional[object] = None,
        compiled: bool = True,
    ) -> "SliceEvaluator":
        """All of a :class:`~repro.shard.ShardedGraph`'s slices, rebuilt
        through a full wire round-trip (the transport the workers see)."""
        from repro.core.serialize import shards_to_wire

        payloads = shards_to_wire(sharded)
        return cls.from_wire_payloads(
            payloads,
            injective=injective,
            fallback=fallback,
            compiled=compiled,
        )

    # -- delta catch-up -----------------------------------------------------------

    def apply_wire_deltas(self, payloads: Sequence[Mapping[str, Any]]) -> int:
        """Catch the held slices up with routed delta payloads (the
        worker half of the catch-up protocol); returns records applied.

        Payloads routed to shards not placed here are ignored -- the
        coordinator broadcasts one batch per shard and every worker
        picks out its own.  The per-block result memo is dropped
        wholesale (it is keyed by version-free signatures and refills
        cheaply); each slice's packed CSR index catches up lazily from
        the slice's own delta ring on its next compiled evaluation.
        """
        applied = 0
        for payload in payloads:
            slice_ = self.slices.get(payload.get("shard"))
            if slice_ is not None:
                applied += slice_.apply_wire_delta(payload)
        self._block_counts.clear()
        self.catchups += 1
        self.deltas_applied += applied
        return applied

    # -- wire memo ---------------------------------------------------------------

    def query_from_wire(self, wire: Tuple) -> GraphQuery:
        """Memoised wire-form deserialisation (FIFO-bounded)."""
        from repro.core.serialize import query_from_wire

        query = self._wire_queries.get(wire)
        if query is None:
            query = query_from_wire(wire)
            if len(self._wire_queries) >= _MEMO_ENTRIES:
                self._wire_queries.popitem(last=False)
            self._wire_queries[wire] = query
        return query

    # -- block evaluation ---------------------------------------------------------

    def count_block(
        self, shard_index: int, query: GraphQuery, limit: Optional[int] = None
    ) -> Optional[int]:
        """Bounded count of the matches seeded in one shard, or ``None``.

        ``None`` means the slice could not finish the block (the search
        needed data the worker does not hold); the caller must resolve
        the block against the full graph.  Results (including misses)
        are memoised per ``(shard, query signature, limit)``.
        """
        slice_ = self.slices.get(shard_index)
        if slice_ is None:
            raise KeyError(f"shard {shard_index} is not placed on this evaluator")
        self.blocks_served += 1
        key = (shard_index, query.signature(), limit)
        if key in self._block_counts:
            return self._block_counts[key]
        tracer = current_tracer()
        with tracer.span(SPAN_BLOCK, shard=shard_index) as span:
            # a slice enumerates candidates over its owned range only, so a
            # disconnected query's later seeds (which must stay exhaustive
            # over the whole graph) cannot be evaluated shard-affinely
            if self.num_shards > 1 and not query.is_connected():
                result: Optional[int] = None
            else:
                try:
                    result = self._matchers[shard_index].count(
                        query,
                        limit=limit,
                        edge_order=canonical_edge_order(query),
                        seed_restrict=slice_.vertex_ids,
                    )
                except ShardMiss:
                    result = None
            if tracer.enabled:
                span.attributes["served"] = result is not None
        if result is None:
            self.misses += 1
        if len(self._block_counts) >= _MEMO_ENTRIES:
            self._block_counts.popitem(last=False)
        self._block_counts[key] = result
        return result

    def count_block_wire(
        self, wire: Tuple, shard_index: int, limit: Optional[int] = None
    ) -> Optional[int]:
        """:meth:`count_block` for a wire-form query (the worker entry)."""
        return self.count_block(shard_index, self.query_from_wire(wire), limit)

    # -- whole-query evaluation (in-process, with fallback) ------------------------

    def _resolve_count(
        self, shard_index: int, query: GraphQuery, limit: Optional[int]
    ) -> int:
        if self.fallback is None:
            raise ShardMiss(shard_index, "a coordinator-side fallback")
        self.fallbacks += 1
        # the fallback block must restrict the SAME first-seed vertex the
        # slice-evaluated blocks did, or the per-shard union breaks
        with current_tracer().span(SPAN_FALLBACK, shard=shard_index):
            return self.fallback.count_shard(
                shard_index,
                query,
                limit=limit,
                edge_order=canonical_edge_order(query),
            )

    def _require_all_shards(self) -> None:
        """Whole-query merges need every shard's block; a worker-style
        partial evaluator must never silently return a partial total."""
        missing = set(range(self.num_shards)) - set(self.slices)
        if missing:
            raise ValueError(
                f"whole-query evaluation needs every shard placed here; "
                f"missing {sorted(missing)} of {self.num_shards} (workers "
                "serve count_block, the coordinator merges)"
            )

    def match_block(
        self, shard_index: int, query: GraphQuery, limit: Optional[int] = None
    ) -> Optional[ResultSet]:
        """The matches of one shard-seeded block, or ``None`` on a miss.

        Same verdict protocol as :meth:`count_block` (shared connectivity
        guard and miss bookkeeping; result sets are not memoised).
        """
        slice_ = self.slices.get(shard_index)
        if slice_ is None:
            raise KeyError(f"shard {shard_index} is not placed on this evaluator")
        self.blocks_served += 1
        if self.num_shards > 1 and not query.is_connected():
            self.misses += 1
            return None
        try:
            return self._matchers[shard_index].match(
                query,
                limit=limit,
                edge_order=canonical_edge_order(query),
                seed_restrict=slice_.vertex_ids,
            )
        except ShardMiss:
            self.misses += 1
            return None

    def count(self, query: GraphQuery, limit: Optional[int] = None) -> int:
        """Total bounded count over every shard (value-identical merge).

        Requires all shards placed on this evaluator (the in-process
        differential configuration; raises otherwise); missed blocks
        resolve through the ``fallback``.
        """
        self._require_all_shards()
        total = 0
        for shard_index in sorted(self.slices):
            value = self.count_block(shard_index, query, limit=limit)
            if value is None:
                value = self._resolve_count(shard_index, query, limit)
            total += value
        if limit is not None:
            return min(total, limit)
        return total

    def match(self, query: GraphQuery, limit: Optional[int] = None) -> ResultSet:
        """All matches, merged in ascending shard order (permutation-
        identical to the unsharded matcher when ``limit`` is ``None``)."""
        self._require_all_shards()
        merged = ResultSet()
        for shard_index in sorted(self.slices):
            results = self.match_block(shard_index, query, limit=limit)
            if results is None:
                if self.fallback is None:
                    raise ShardMiss(shard_index, "a coordinator-side fallback")
                self.fallbacks += 1
                results = self.fallback.matcher.match(
                    query,
                    limit=limit,
                    edge_order=canonical_edge_order(query),
                    seed_restrict=self.slices[shard_index].vertex_ids,
                )
            for binding in results:
                merged.add(binding)
                if limit is not None and merged.cardinality >= limit:
                    return merged
        return merged

    # -- reporting -----------------------------------------------------------------

    def info(self) -> Dict[str, object]:
        return {
            "shards_held": sorted(self.slices),
            "num_shards": self.num_shards,
            "blocks_served": self.blocks_served,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "catchups": self.catchups,
            "deltas_applied": self.deltas_applied,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SliceEvaluator(shards={sorted(self.slices)}, "
            f"of={self.num_shards}, misses={self.misses})"
        )
