"""Backtracking pattern matcher for property graphs.

Pattern-matching queries return the data subgraphs matching the query graph
(Sec. 3.1.2).  The matcher performs classic backtracking subgraph
isomorphism with:

* candidate pre-filtering from graph indexes,
* connected evaluation plans ordered by estimated search steps -- a
  cost-based join order on degree-weighted fan-out over the CSR image
  (:mod:`repro.matching.plan`),
* direction sets (forward / backward / both, Sec. 3.2.2),
* edge type sets and predicate intervals on vertices and edges,
* injective vertex and edge bindings by default (isomorphism semantics;
  homomorphisms are available via ``injective=False``),
* bounded evaluation: ``limit`` stops after N matches, which the bounded
  explanation algorithms (Ch. 4) and the rewriting engines (Ch. 5-6) use to
  test cardinality thresholds without full enumeration.

The matcher also counts how many match calls it has served (``calls``) and
how many backtracking steps were taken (``steps``); all evaluation-budget
experiments report these counters.  Expansion walks the graph's
type-partitioned adjacency, so a query edge with a type set only ever
visits data edges of those types.  Seed pools are walked in ascending
vertex id on both backends, so a bounded ``match(limit=n)`` returns the
same n matches, in the same order, whichever backend serves it.

Emptiness is decided before planning, for both backends: a query
binding a predicate mask with no bit set has no match (every match binds
every query element), so the call returns 0 with 0 steps, unplanned and
unbound (``decided_empty``).

Two entry points serve counts derived from an exactly counted parent
(:mod:`repro.finegrained.propagation`): :meth:`PatternMatcher.count_filtered`
tests a parent's bound vertices against a restricted mask, and
:meth:`PatternMatcher.count_seeded` counts the matches binding one
vertex into a caller-supplied pool, on either backend.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.graph import PropertyGraph
from repro.core.query import Direction, GraphQuery, QueryEdge, QueryVertex
from repro.core.result import ResultGraph, ResultSet
from repro.matching.candidates import (
    attributes_match,
    vertex_candidates,
    vertex_matches,
)
from repro.matching.csr import CSRIndex, csr_entry, csr_stats
from repro.matching.plan import (
    ExpandStep,
    PlanStep,
    SeedStep,
    build_plan,
    seeded_plan,
)
from repro.matching.program import MatchProgram, ProgramUnsupported, bind_program
from repro.obs.tracing import SPAN_MATCH, SPAN_PLAN, current_tracer
from repro.stats import (
    csr_section,
    deltas_section,
    programs_section,
    unified_stats,
)


class PatternMatcher:
    """Evaluates :class:`~repro.core.query.GraphQuery` patterns on a graph.

    One matcher instance is bound to one data graph; it is stateless
    between calls apart from its instrumentation counters.  The compiled
    backend reads candidates from the graph's CSR image, whose interned
    vertex masks every matcher, planner and statistics provider bound to
    the graph share; the interpreter derives them from the graph's
    indexes on each call, sharing nothing with the path it checks.

    ``compiled=True`` (the default) routes ``match``/``count``/``exists``
    through the compiled backend: the query's plan is bound to a
    shape-keyed kernel over interned CSR arrays
    (:mod:`repro.matching.program`), visiting exactly the candidates
    the interpreter visits, in the same order -- ``steps`` totals and
    bounded match lists are identical.  ``compiled=False`` interprets: the reference
    semantics every differential test compares against.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        injective: bool = True,
        compiled: bool = True,
    ) -> None:
        self.graph = graph
        self.injective = injective
        self.compiled = bool(compiled)
        #: number of match/count/exists invocations served
        self.calls = 0
        #: cumulative number of binding attempts (search effort)
        self.steps = 0
        #: calls answered 0 before planning: the query binds an empty mask
        self.decided_empty = 0
        #: counts derived from an exactly counted parent's matches
        #: (:meth:`count_filtered`), from the vertices a relaxation
        #: newly admits (:meth:`count_seeded`) and, for an edge edit that
        #: gains or loses no data-edge pair, the parent's count itself;
        #: see :mod:`repro.finegrained.propagation`
        self.derived_filtered = 0
        self.derived_seeded = 0
        self.derived_unchanged = 0

    def cache_info(self) -> Dict[str, Any]:
        """Compilation counters in the unified stats schema.

        Emits the :mod:`repro.stats` sections (``csr``/``programs`` hold
        the compilation counters -- zeros until a compiled run; a matcher
        keeps no hit/miss cache, so ``caches`` is empty).
        """
        flat = csr_stats(self.graph)
        matcher = {
            "calls": self.calls,
            "steps": self.steps,
            "decided_empty": self.decided_empty,
            "derived_filtered": self.derived_filtered,
            "derived_seeded": self.derived_seeded,
            "derived_unchanged": self.derived_unchanged,
        }
        return unified_stats(
            csr=csr_section(flat),
            programs=programs_section(flat),
            deltas=deltas_section(applied=flat.get("deltas_applied", 0)),
            extra={"matcher": matcher},
        )

    # -- routing ------------------------------------------------------------------

    def _prepare(
        self, query: GraphQuery, edge_order: Optional[Sequence[int]], seed: Optional[int] = None
    ) -> Tuple[Optional[List[PlanStep]], Optional[MatchProgram]]:
        """``(plan, program)`` for one evaluation: ``program`` is ``None``
        when the interpreter walks ``plan`` (compiled mode off, or a plan
        shape the lowering does not support); ``plan`` is ``None`` when
        nothing can match -- an empty query, or one binding an empty
        predicate mask, decided inside the ``plan`` span.  ``seed``
        names the query vertex the plan must open with."""
        query.validate()
        if query.num_vertices == 0:
            return None, None
        entry = csr_entry(self.graph)
        with current_tracer().span(SPAN_PLAN):
            if _binds_empty_mask(entry.csr, query):
                self.decided_empty += 1
                return None, None
            if seed is None:
                plan = build_plan(self.graph, query, edge_order)
            else:
                plan = seeded_plan(self.graph, query, seed)
        if self.compiled:
            try:
                return plan, bind_program(entry, plan, query, self.injective)
            except ProgramUnsupported:
                pass
        return plan, None

    def _annotate(self, span: Any, query: GraphQuery, before: int, plan: Any, program: Any) -> None:
        span.attributes["steps"] = self.steps - before
        # a call no backend ran reports the matcher's mode
        span.attributes["compiled"] = program is not None or (plan is None and self.compiled)
        if plan is None and query.num_vertices:
            span.attributes["decided"] = "empty"

    # -- public API -----------------------------------------------------------

    def match(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
    ) -> ResultSet:
        """Enumerate matches (up to ``limit``) as a :class:`ResultSet`."""
        self.calls += 1
        tracer = current_tracer()
        with tracer.span(SPAN_MATCH, op="match") as span:
            results = ResultSet()
            if limit is not None and limit <= 0:
                return results
            before = self.steps
            plan, program = self._prepare(query, edge_order)
            if program is not None:
                emitted, steps = program.run_match(limit)
                self.steps += steps
                for binding in emitted:
                    results.add(binding)
            elif plan is not None:
                for binding in self._search(query, plan):
                    results.add(binding)
                    if limit is not None and results.cardinality >= limit:
                        break
            if tracer.enabled:
                self._annotate(span, query, before, plan, program)
            return results

    def count(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
    ) -> int:
        """Count matches, stopping early once ``limit`` is reached.

        Result cardinality (Definition 2) when ``limit`` is ``None``.
        """
        return self._count("count", query, limit, edge_order)

    def exists(
        self, query: GraphQuery, edge_order: Optional[Sequence[int]] = None
    ) -> bool:
        """``True`` when the pattern has at least one match."""
        return self._count("exists", query, 1, edge_order) > 0

    def count_seeded(
        self, query: GraphQuery, vid: int, pool: Sequence[int], limit: Optional[int] = None
    ) -> int:
        """Count the matches binding query vertex ``vid`` into ``pool``,
        stopping early once ``limit`` is reached.

        ``pool`` holds ascending vertex indexes of the graph's CSR image,
        each satisfying ``vid``'s predicates; the plan opens with ``vid``
        (:func:`~repro.matching.plan.seeded_plan`) and walks ``pool`` as
        its first seed on either backend.  An empty pool answers 0 with
        no plan.
        """
        self.derived_seeded += 1
        if not len(pool):
            return 0
        return self._count("count", query, limit, None, vid, pool)

    def count_filtered(self, column: Sequence[int], mask: Sequence[int]) -> int:
        """How many of an exactly counted parent's matches survive a
        restriction of one vertex: ``column`` holds the vertex index each
        parent match binds it to, ``mask`` is the restricted vertex's
        interned predicate mask.  No plan, no kernel, no step."""
        self.derived_filtered += 1
        return sum(map(mask.__getitem__, column))

    def _count(
        self,
        op: str,
        query: GraphQuery,
        limit: Optional[int],
        edge_order: Optional[Sequence[int]],
        seed: Optional[int] = None,
        pool: Optional[Sequence[int]] = None,
    ) -> int:
        """One bounded count under a ``match`` span that names the
        public operation and the backend that served it; ``seed`` and
        ``pool`` are :meth:`count_seeded`'s ``vid`` and ``pool``."""
        self.calls += 1
        tracer = current_tracer()
        with tracer.span(SPAN_MATCH, op=op) as span:
            before = self.steps
            plan, program = self._prepare(query, edge_order, seed)
            n = 0
            if program is not None:
                n, steps = program.run_count(limit, pool)
                self.steps += steps
            elif plan is not None:
                first = None
                if pool is not None:
                    first = list(map(csr_entry(self.graph).csr.vid_of.__getitem__, pool))
                for _ in self._search(query, plan, first):
                    n += 1
                    if limit is not None and n >= limit:
                        break
            if tracer.enabled:
                self._annotate(span, query, before, plan, program)
            return n

    # -- search core -----------------------------------------------------------

    def _search(
        self,
        query: GraphQuery,
        plan: List[PlanStep],
        first: Optional[List[int]] = None,
    ) -> Iterator[ResultGraph]:
        """The interpreter's enumeration of ``plan`` (a validated query's
        :func:`~repro.matching.plan.build_plan`), emptiness undecided.
        ``first`` (ascending data vertex ids satisfying the first seed's
        predicates) replaces that seed's pool."""
        pools = {
            depth: self._seed_pool(query.vertex(step.vid))
            for depth, step in enumerate(plan)
            if isinstance(step, SeedStep) and (depth or first is None)
        }
        if first is not None:
            pools[0] = first
        vbind: Dict[int, int] = {}
        ebind: Dict[int, int] = {}
        used_vertices: Set[int] = set()
        used_edges: Set[int] = set()
        yield from self._step(query, plan, 0, vbind, ebind, used_vertices, used_edges, pools)

    def _seed_pool(self, qvertex: QueryVertex) -> List[int]:
        """The data vertices a seed step walks, in ascending id (the
        kernels' seed order): the vertex's candidates from the graph's
        indexes -- every vertex when it is unconstrained.  Every vertex in
        the pool satisfies the vertex's predicates."""
        candidates = vertex_candidates(self.graph, qvertex)
        return sorted(self.graph.vertices() if candidates is None else candidates)

    def _step(
        self,
        query: GraphQuery,
        plan: List[PlanStep],
        depth: int,
        vbind: Dict[int, int],
        ebind: Dict[int, int],
        used_vertices: Set[int],
        used_edges: Set[int],
        pools: Dict[int, List[int]],
    ) -> Iterator[ResultGraph]:
        if depth == len(plan):
            yield ResultGraph.from_mappings(vbind, ebind)
            return
        step = plan[depth]
        if isinstance(step, SeedStep):
            yield from self._seed(
                query, plan, depth, step, vbind, ebind, used_vertices, used_edges, pools
            )
        else:
            yield from self._expand(
                query, plan, depth, step, vbind, ebind, used_vertices, used_edges, pools
            )

    def _seed(
        self,
        query: GraphQuery,
        plan: List[PlanStep],
        depth: int,
        step: SeedStep,
        vbind: Dict[int, int],
        ebind: Dict[int, int],
        used_vertices: Set[int],
        used_edges: Set[int],
        pools: Dict[int, List[int]],
    ) -> Iterator[ResultGraph]:
        for data_vid in pools[depth]:
            self.steps += 1
            if self.injective and data_vid in used_vertices:
                continue
            vbind[step.vid] = data_vid
            used_vertices.add(data_vid)
            yield from self._step(
                query, plan, depth + 1, vbind, ebind, used_vertices, used_edges, pools
            )
            used_vertices.discard(data_vid)
            del vbind[step.vid]

    def _expand(
        self,
        query: GraphQuery,
        plan: List[PlanStep],
        depth: int,
        step: ExpandStep,
        vbind: Dict[int, int],
        ebind: Dict[int, int],
        used_vertices: Set[int],
        used_edges: Set[int],
        pools: Dict[int, List[int]],
    ) -> Iterator[ResultGraph]:
        qedge = query.edge(step.eid)
        anchor_data = vbind[step.anchor]
        anchor_is_source = step.anchor == qedge.source
        # the typed adjacency walk already filtered edge types, so only the
        # edge predicates remain to be checked per candidate
        predicates = qedge.predicates

        for data_eid, data_other in self._incident_candidates(
            anchor_data, anchor_is_source, qedge
        ):
            self.steps += 1
            if self.injective and data_eid in used_edges:
                continue
            if predicates and not attributes_match(
                self.graph.edge(data_eid).attributes, predicates
            ):
                continue
            if step.new_vid is None:
                # Both endpoints bound: the edge must connect them.
                other_qvid = qedge.other_end(step.anchor)
                if vbind[other_qvid] != data_other:
                    continue
                ebind[step.eid] = data_eid
                used_edges.add(data_eid)
                yield from self._step(
                    query, plan, depth + 1, vbind, ebind, used_vertices, used_edges, pools
                )
                used_edges.discard(data_eid)
                del ebind[step.eid]
            else:
                if self.injective and data_other in used_vertices:
                    continue
                if not vertex_matches(
                    self.graph, data_other, query.vertex(step.new_vid)
                ):
                    continue
                vbind[step.new_vid] = data_other
                ebind[step.eid] = data_eid
                used_vertices.add(data_other)
                used_edges.add(data_eid)
                yield from self._step(
                    query, plan, depth + 1, vbind, ebind, used_vertices, used_edges, pools
                )
                used_edges.discard(data_eid)
                used_vertices.discard(data_other)
                del ebind[step.eid]
                del vbind[step.new_vid]

    def _incident_candidates(
        self,
        anchor_data: int,
        anchor_is_source: bool,
        qedge: QueryEdge,
    ) -> Iterator[tuple]:
        """Yield ``(data_eid, opposite_data_vid)`` pairs honouring directions.

        With the anchor bound to the query edge's *source*, a FORWARD
        direction walks the anchor's outgoing data edges and a BACKWARD
        direction its incoming ones; anchored at the *target* the roles
        swap.  When the query edge carries a type set, only the anchor's
        type-partitioned adjacency lists for those types are walked, so
        edges of other types are never visited (and never counted as
        ``steps``).
        """
        directions = qedge.directions
        want_out = (anchor_is_source and Direction.FORWARD in directions) or (
            not anchor_is_source and Direction.BACKWARD in directions
        )
        want_in = (anchor_is_source and Direction.BACKWARD in directions) or (
            not anchor_is_source and Direction.FORWARD in directions
        )
        graph = self.graph
        edge = graph.edge
        # sorted for deterministic enumeration order (frozenset iteration
        # varies with PYTHONHASHSEED; steps counters are reproducible records)
        types = sorted(qedge.types) if qedge.types is not None else None
        if want_out:
            if types is None:
                for eid in graph.out_edges(anchor_data):
                    yield eid, edge(eid).target
            else:
                for t in types:
                    for eid in graph.out_edges_of_type(anchor_data, t):
                        yield eid, edge(eid).target
        if want_in:
            if types is None:
                for eid in graph.in_edges(anchor_data):
                    record = edge(eid)
                    if want_out and record.source == record.target:
                        continue  # self-loop already yielded via the out walk
                    yield eid, record.source
            else:
                for t in types:
                    for eid in graph.in_edges_of_type(anchor_data, t):
                        record = edge(eid)
                        if want_out and record.source == record.target:
                            continue  # self-loop already yielded via the out walk
                        yield eid, record.source


def _binds_empty_mask(csr: CSRIndex, query: GraphQuery) -> bool:
    """Whether the query binds a predicate mask with no bit set.  Every
    mask is interned before deciding, so the mask tables fill (and
    recycle) exactly as when the query is bound."""
    masks = [csr.vertex_mask(v) for v in query.vertices()]
    masks += [csr.edge_mask(e) for e in query.edges()]
    return any(mask is not None and 1 not in mask for mask in masks)
