"""Backtracking pattern matcher for property graphs.

Pattern-matching queries return the data subgraphs matching the query graph
(Sec. 3.1.2).  The matcher performs classic backtracking subgraph
isomorphism with:

* candidate pre-filtering from graph indexes,
* connected, selectivity-ordered evaluation plans (:mod:`repro.matching.plan`),
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
visits data edges of those types; :meth:`PatternMatcher.cache_info`
reports the shared plan/candidate cache counters next to them.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Iterator, List, Optional, Sequence, Set

from repro.core.graph import PropertyGraph
from repro.core.query import Direction, GraphQuery, QueryEdge
from repro.core.result import ResultGraph, ResultSet
from repro.matching.candidates import (
    attributes_match,
    vertex_matches,
)
from repro.matching.csr import csr_stats
from repro.matching.evalcache import (
    EvaluationCache,
    shared_evaluation_cache,
)
from repro.matching.plan import (
    ExpandStep,
    PlanStep,
    SeedStep,
    build_plan,
    plan_cache_stats,
)
from repro.matching.program import (
    MatchProgram,
    ProgramUnsupported,
    compiled_program,
)
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
    between calls apart from its instrumentation counters.  Matchers bound
    to the same graph share one evaluation cache (candidate sets) and one
    plan cache by default, so independently constructed engines reuse each
    other's derivations; pass ``evalcache`` to isolate a matcher.

    ``compiled=True`` (the default) routes ``match``/``count``/``exists``
    through the compiled backend: the memoised plan is bound to a
    shape-keyed kernel over interned CSR arrays
    (:mod:`repro.matching.program`), visiting exactly the candidates
    the interpreter visits -- ``steps`` totals are identical on
    unbounded evaluations.  ``compiled=False`` interprets: the reference
    semantics every differential test compares against.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        injective: bool = True,
        evalcache: Optional[EvaluationCache] = None,
        compiled: bool = True,
    ) -> None:
        self.graph = graph
        self.injective = injective
        self.evalcache = (
            evalcache if evalcache is not None else shared_evaluation_cache(graph)
        )
        self.compiled = bool(compiled)
        #: number of match/count/exists invocations served
        self.calls = 0
        #: cumulative number of binding attempts (search effort)
        self.steps = 0

    def cache_info(self) -> Dict[str, Any]:
        """Cache and compilation counters in the unified stats schema.

        Emits the :mod:`repro.stats` sections (``caches`` holds the
        ``plan`` and ``vertex_candidates`` layers, ``csr``/``programs``
        the compilation counters -- zeros until a compiled run).
        """
        flat = csr_stats(self.graph)
        return unified_stats(
            caches={
                "plan": plan_cache_stats(self.graph).as_dict(),
                "vertex_candidates": self.evalcache.stats.as_dict(),
            },
            csr=csr_section(flat),
            programs=programs_section(flat),
            deltas=deltas_section(applied=flat.get("deltas_applied", 0)),
            extra={"matcher": {"calls": self.calls, "steps": self.steps}},
        )

    # -- compiled routing -------------------------------------------------------

    def _compiled_program(
        self, query: GraphQuery, edge_order: Optional[Sequence[int]]
    ) -> Optional[MatchProgram]:
        """The query's compiled program, or ``None`` when this call must
        take the interpreter (compiled mode off, empty query, or a plan
        shape the lowering does not support)."""
        if not self.compiled:
            return None
        query.validate()
        if query.num_vertices == 0:
            # the interpreter path returns the same empty result instantly
            return None
        try:
            return compiled_program(
                self.graph,
                query,
                edge_order,
                injective=self.injective,
                evalcache=self.evalcache,
            )
        except ProgramUnsupported:
            return None

    # -- public API -----------------------------------------------------------

    def match(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> ResultSet:
        """Enumerate matches (up to ``limit``) as a :class:`ResultSet`.

        ``seed_restrict`` confines the *first* seed step's candidate pool
        to the given data vertices.  Every match binds the plan's first
        seed to exactly one data vertex, so restricting that pool to the
        blocks of a vertex partition splits the match set into disjoint
        per-block result sets whose union is the unrestricted result --
        the decomposition :mod:`repro.shard` fans out per shard.
        """
        self.calls += 1
        tracer = current_tracer()
        with tracer.span(SPAN_MATCH, op="match") as span:
            results = ResultSet()
            if limit is not None and limit <= 0:
                return results
            before = self.steps
            program = self._compiled_program(query, edge_order)
            if program is not None:
                emitted, steps = program.run_match(self.graph, limit, seed_restrict)
                self.steps += steps
                for binding in emitted:
                    results.add(binding)
            else:
                for binding in self._search(query, edge_order, seed_restrict):
                    results.add(binding)
                    if limit is not None and results.cardinality >= limit:
                        break
            if tracer.enabled:
                span.attributes["steps"] = self.steps - before
                span.attributes["compiled"] = program is not None
            return results

    def count(
        self,
        query: GraphQuery,
        limit: Optional[int] = None,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> int:
        """Count matches, stopping early once ``limit`` is reached.

        Result cardinality (Definition 2) when ``limit`` is ``None``.
        ``seed_restrict`` confines the first seed step (see :meth:`match`).
        """
        return self._count("count", query, limit, edge_order, seed_restrict)

    def exists(
        self,
        query: GraphQuery,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> bool:
        """``True`` when the pattern has at least one match."""
        return self._count("exists", query, 1, edge_order, seed_restrict) > 0

    def _count(
        self,
        op: str,
        query: GraphQuery,
        limit: Optional[int],
        edge_order: Optional[Sequence[int]],
        seed_restrict: Optional[AbstractSet[int]],
    ) -> int:
        """One bounded count under a ``match`` span that names the
        public operation and the backend that served it."""
        self.calls += 1
        tracer = current_tracer()
        with tracer.span(SPAN_MATCH, op=op) as span:
            before = self.steps
            program = self._compiled_program(query, edge_order)
            if program is not None:
                n, steps = program.run_count(self.graph, limit, seed_restrict)
                self.steps += steps
            else:
                n = 0
                for _ in self._search(query, edge_order, seed_restrict):
                    n += 1
                    if limit is not None and n >= limit:
                        break
            if tracer.enabled:
                span.attributes["steps"] = self.steps - before
                span.attributes["compiled"] = program is not None
            return n

    # -- search core -----------------------------------------------------------

    def _search(
        self,
        query: GraphQuery,
        edge_order: Optional[Sequence[int]] = None,
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> Iterator[ResultGraph]:
        query.validate()
        if query.num_vertices == 0:
            return
        with current_tracer().span(SPAN_PLAN):
            plan = build_plan(self.graph, query, edge_order)
        vbind: Dict[int, int] = {}
        ebind: Dict[int, int] = {}
        used_vertices: Set[int] = set()
        used_edges: Set[int] = set()
        yield from self._step(
            query, plan, 0, vbind, ebind, used_vertices, used_edges, seed_restrict
        )

    def _step(
        self,
        query: GraphQuery,
        plan: List[PlanStep],
        depth: int,
        vbind: Dict[int, int],
        ebind: Dict[int, int],
        used_vertices: Set[int],
        used_edges: Set[int],
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> Iterator[ResultGraph]:
        if depth == len(plan):
            yield ResultGraph.from_mappings(vbind, ebind)
            return
        step = plan[depth]
        if isinstance(step, SeedStep):
            # only the plan's *first* seed is partition-restricted: later
            # seeds (disconnected components) must stay exhaustive or the
            # per-shard union would drop cross-shard combinations
            yield from self._seed(
                query,
                plan,
                depth,
                step,
                vbind,
                ebind,
                used_vertices,
                used_edges,
                seed_restrict if depth == 0 else None,
            )
        else:
            yield from self._expand(
                query, plan, depth, step, vbind, ebind, used_vertices, used_edges
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
        seed_restrict: Optional[AbstractSet[int]] = None,
    ) -> Iterator[ResultGraph]:
        qvertex = query.vertex(step.vid)
        candidates = self.evalcache.vertex_candidates(qvertex)
        if seed_restrict is not None and candidates is not None:
            # pre-intersect so the walk below never visits foreign shards
            candidates = candidates & seed_restrict
            pool = candidates
        elif candidates is not None:
            pool = candidates
        elif seed_restrict is not None:
            # unconstrained vertex: the restriction *is* the pool
            pool = seed_restrict
        else:
            pool = self.graph.vertices()
        for data_vid in pool:
            self.steps += 1
            if self.injective and data_vid in used_vertices:
                continue
            # candidates are pre-filtered; restricted/full-scan pools are not
            if candidates is None and not vertex_matches(
                self.graph, data_vid, qvertex
            ):
                continue
            vbind[step.vid] = data_vid
            used_vertices.add(data_vid)
            yield from self._step(
                query, plan, depth + 1, vbind, ebind, used_vertices, used_edges
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
                    query, plan, depth + 1, vbind, ebind, used_vertices, used_edges
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
                    query, plan, depth + 1, vbind, ebind, used_vertices, used_edges
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
