"""DISCOVERMCS -- subgraph-based explanations for why-empty queries (Sec. 4.2.1).

The algorithm traverses the *query* graph, evaluating growing connected
subqueries against the data graph, and returns the maximum common
connected subgraph(s) -- the largest query parts that still deliver
results -- together with differential graphs annotating why each excluded
element failed.

The same lattice search skeleton, parameterised by the success criterion,
also powers BOUNDEDMCS (:mod:`repro.explain.bounded_mcs`); Sec. 4.2's two
algorithms differ exactly in that criterion (existence vs. cardinality
bound).

Strategies (Sec. 4.3):

``"frontier"``
    best-first exploration of all connected subquery extensions; finds a
    true *maximum* common subgraph (within the evaluation budget).
``"single-path"``
    follows one traversal path (selectivity- or preference-ordered,
    Sec. 4.3.2/4.4.2); one evaluation per query edge, returns a *maximal*
    common subgraph that may be smaller than the maximum.

Weakly connected components of the query are processed separately
(Sec. 4.3.1) and merged; remainders disconnected by failures are explored
as separate seeds (Sec. 4.3.3) because every edge seeds the frontier.
Each lattice state is a frozen :meth:`GraphQuery.subquery` sharing the
query's element objects, and every count -- states and failure probes --
is the one count path of an explain, ``ExecutionContext.cache.count``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery, QueryEdge, QueryVertex
from repro.exec.search import bind_private_context
from repro.explain.differential import (
    DifferentialGraph,
    FailureAnnotation,
    FailureReason,
    merge_components,
)
from repro.explain.preferences import (
    UserPreferences,
    preferred_traversal_order,
    rank_explanations,
)

#: ``success_fn(subquery) -> (succeeded, bounded_cardinality_probe)``
SuccessFn = Callable[[GraphQuery], Tuple[bool, int]]


@dataclass
class SearchStats:
    """Instrumentation of one explanation search."""

    evaluations: int = 0
    annotation_evaluations: int = 0
    elapsed: float = 0.0
    budget_exhausted: bool = False


@dataclass
class McsResult:
    """Outcome of DISCOVERMCS / BOUNDEDMCS."""

    #: merged best explanation over all query components
    differential: DifferentialGraph
    #: best explanation per weakly connected component
    components: List[DifferentialGraph]
    #: alternative maximal explanations, rank-ordered (Sec. 4.4.3)
    alternatives: List[DifferentialGraph]
    stats: SearchStats

    @property
    def mcs(self) -> GraphQuery:
        """The maximum common subgraph as a runnable query."""
        return self.differential.mcs_query()


class SubgraphLatticeSearch:
    """Shared engine of the two subgraph-explanation algorithms."""

    def __init__(
        self,
        graph: PropertyGraph,
        query: GraphQuery,
        success_fn: SuccessFn,
        strategy: str = "frontier",
        edge_order: Optional[Sequence[int]] = None,
        preferences: Optional[UserPreferences] = None,
        annotate: bool = True,
        cardinality_mode: bool = False,
        max_evaluations: Optional[int] = None,
        failure_verb: str = "eliminate all matches",
    ) -> None:
        if strategy not in ("frontier", "single-path"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.failure_verb = failure_verb
        self.graph = graph
        self.query = query.as_frozen()
        self.success_fn = success_fn
        self.strategy = strategy
        self.preferences = preferences
        self.annotate = annotate
        self.cardinality_mode = cardinality_mode
        self.max_evaluations = max_evaluations
        self.stats = SearchStats()
        self._order = list(
            edge_order
            if edge_order is not None
            else preferred_traversal_order(self.query, preferences, graph)
        )
        self._state_cache: Dict[FrozenSet[int], Tuple[bool, int]] = {}

    # -- evaluation helpers ---------------------------------------------------

    def _budget_left(self) -> bool:
        return (
            self.max_evaluations is None
            or self.stats.evaluations + self.stats.annotation_evaluations
            < self.max_evaluations
        )

    def _vertices_of(self, edges: FrozenSet[int]) -> FrozenSet[int]:
        out: Set[int] = set()
        for eid in edges:
            edge = self.query.edge(eid)
            out.add(edge.source)
            out.add(edge.target)
        return frozenset(out)

    def _evaluate(self, edges: FrozenSet[int], vertices: FrozenSet[int]) -> Tuple[bool, int]:
        key = edges | frozenset(-(v + 1) for v in vertices - self._vertices_of(edges))
        cached = self._state_cache.get(key)
        if cached is not None:
            return cached
        self.stats.evaluations += 1
        outcome = self.success_fn(self.query.subquery(vertices, edges))
        self._state_cache[key] = outcome
        return outcome

    # -- failure diagnosis ------------------------------------------------------

    def _annotate_failure(
        self,
        base_edges: FrozenSet[int],
        base_vertices: FrozenSet[int],
        eid: int,
    ) -> FailureAnnotation:
        """Pin down why extending by ``eid`` failed (lazy provenance).

        In cardinality mode the element joined structurally but violated
        the bound, so no stripping experiments are needed.
        """
        if self.cardinality_mode:
            return FailureAnnotation(
                ("edge", eid),
                FailureReason.CARDINALITY,
                "joining this edge violates the cardinality bound",
            )
        edge = self.query.edge(eid)
        new_vertices = sorted({edge.source, edge.target} - base_vertices)
        if not self.annotate or not self._budget_left():
            return FailureAnnotation(("edge", eid), FailureReason.TOPOLOGY)
        verb = self.failure_verb
        variant = self.query.subquery(
            base_vertices | {edge.source, edge.target}, base_edges | {eid}
        )

        def succeeds(*stripped) -> bool:
            """Does the extension succeed with these elements in place of
            the query's own (frozen edits of ``variant``)?"""
            probe = variant
            for element in stripped:
                if isinstance(element, QueryEdge):
                    probe = probe.with_edge(element)
                else:
                    probe = probe.with_vertex(element)
            self.stats.annotation_evaluations += 1
            return self.success_fn(probe)[0]

        def culprit_attrs(element) -> List[str]:
            """Which single predicates suffice to unblock the extension."""
            culprits = []
            for attr in sorted(element.predicates):
                if not self._budget_left():
                    break
                kept = {a: p for a, p in element.predicates.items() if a != attr}
                if succeeds(replace(element, predicates=kept)):
                    culprits.append(attr)
            return culprits

        # Minimal-culprit cascade: each probe strips exactly one constraint
        # class; the first class whose removal unblocks the extension is
        # the diagnosis.
        if edge.predicates and succeeds(replace(edge, predicates={})):
            attrs = culprit_attrs(edge) or sorted(edge.predicates)
            return FailureAnnotation(
                ("edge", eid),
                FailureReason.PREDICATE,
                f"edge predicates {attrs} {verb}",
            )
        for vid in new_vertices:
            vertex = self.query.vertex(vid)
            if vertex.predicates and succeeds(QueryVertex(vid)):
                attrs = culprit_attrs(vertex) or sorted(vertex.predicates)
                return FailureAnnotation(
                    ("vertex", vid),
                    FailureReason.PREDICATE,
                    f"vertex predicates {attrs} {verb}",
                )
        if edge.types is not None and succeeds(replace(edge, types=None)):
            return FailureAnnotation(
                ("edge", eid),
                FailureReason.TYPE,
                f"no {'/'.join(sorted(edge.types))} edge connects here",
            )
        # No single class suffices: try stripping everything at once --
        # with fewer than two classes that repeats a probe that failed
        stripable = tuple(
            vid for vid in new_vertices if self.query.vertex(vid).predicates
        )
        classes = bool(edge.predicates) + (edge.types is not None) + len(stripable)
        if classes >= 2 and succeeds(
            replace(edge, predicates={}, types=None), *map(QueryVertex, stripable)
        ):
            return FailureAnnotation(
                ("edge", eid),
                FailureReason.PREDICATE,
                f"only the combination of constraints on edge {eid} and "
                f"vertices {list(stripable)} {verb}",
            )
        return FailureAnnotation(
            ("edge", eid),
            FailureReason.TOPOLOGY,
            "no data edge connects the matched part here",
        )

    # -- component searches ----------------------------------------------------

    def run_component(self, vertices: FrozenSet[int]) -> List[DifferentialGraph]:
        """Explanations for one weakly connected component, best first."""
        component = self.query.subquery(vertices)
        edges = frozenset(component.edge_ids)
        if not edges:
            return [self._singleton_vertex(component, next(iter(vertices)))]
        if self.strategy == "single-path":
            return [self._single_path(component)]
        return self._frontier(component)

    def _singleton_vertex(self, component: GraphQuery, vid: int) -> DifferentialGraph:
        ok, card = self._evaluate(frozenset(), frozenset({vid}))
        if ok:
            return DifferentialGraph(
                component, frozenset(), frozenset({vid}), {}, card
            )
        annotation = FailureAnnotation(
            ("vertex", vid),
            FailureReason.CARDINALITY if self.cardinality_mode else FailureReason.PREDICATE,
            "isolated query vertex fails on its own",
        )
        return DifferentialGraph(
            component, frozenset(), frozenset(), {("vertex", vid): annotation}, 0
        )

    def _frontier(self, component: GraphQuery) -> List[DifferentialGraph]:
        """Best-first lattice exploration over connected edge sets."""
        order = [eid for eid in self._order if component.has_edge(eid)]
        succeeded: Dict[FrozenSet[int], int] = {}
        # eid -> (base size the annotation was computed from, annotation);
        # a diagnosis against a larger matched part is more precise.
        failures: Dict[int, Tuple[int, FailureAnnotation]] = {}
        visited: Set[FrozenSet[int]] = set()
        stack: List[FrozenSet[int]] = []

        def record_failure(eid: int, base: FrozenSet[int], base_v: FrozenSet[int]) -> None:
            known = failures.get(eid)
            if known is not None and known[0] >= len(base):
                return
            failures[eid] = (len(base), self._annotate_failure(base, base_v, eid))

        for eid in order:
            state = frozenset({eid})
            visited.add(state)
            if not self._budget_left():
                self.stats.budget_exhausted = True
                break
            ok, card = self._evaluate(state, self._vertices_of(state))
            if ok:
                succeeded[state] = card
                stack.append(state)
            else:
                record_failure(eid, frozenset(), frozenset())

        if not succeeded:
            return [
                self._vertex_fallback(
                    component, {eid: ann for eid, (_, ann) in failures.items()}
                )
            ]

        while stack and self._budget_left():
            stack.sort(key=len)
            state = stack.pop()  # largest first
            state_vertices = self._vertices_of(state)
            for eid in order:
                if eid in state:
                    continue
                edge = component.edge(eid)
                if (
                    edge.source not in state_vertices
                    and edge.target not in state_vertices
                ):
                    continue
                nxt = state | {eid}
                if nxt in visited:
                    continue
                visited.add(nxt)
                if not self._budget_left():
                    self.stats.budget_exhausted = True
                    break
                ok, card = self._evaluate(nxt, self._vertices_of(nxt))
                if ok:
                    succeeded[nxt] = card
                    stack.append(nxt)
                else:
                    record_failure(eid, state, state_vertices)
        failed_extensions = {eid: ann for eid, (_, ann) in failures.items()}

        maximal = [
            s
            for s in succeeded
            if not any(s < other for other in succeeded)
        ]
        maximal.sort(key=lambda s: (-len(s), sorted(s)))
        return [
            self._build_differential(component, s, succeeded[s], failed_extensions)
            for s in maximal
        ]

    def _single_path(self, component: GraphQuery) -> DifferentialGraph:
        """Greedy traversal along one (preference-ordered) path, Sec. 4.3.2."""
        order = [eid for eid in self._order if component.has_edge(eid)]
        failed: Dict[int, FailureAnnotation] = {}
        state: FrozenSet[int] = frozenset()
        covered: FrozenSet[int] = frozenset()
        card = 0
        progress = True
        tried: Set[int] = set()
        while progress and self._budget_left():
            progress = False
            for eid in order:
                if eid in state or eid in tried:
                    continue
                edge = component.edge(eid)
                if state and (
                    edge.source not in covered and edge.target not in covered
                ):
                    continue
                tried.add(eid)
                nxt = state | {eid}
                nxt_vertices = self._vertices_of(nxt)
                ok, probe = self._evaluate(nxt, nxt_vertices)
                if ok:
                    state, covered, card = nxt, nxt_vertices, probe
                else:
                    failed[eid] = self._annotate_failure(state, covered, eid)
                progress = True
                break
        if not state:
            return self._vertex_fallback(component, failed)
        return self._build_differential(component, state, card, failed)

    def _vertex_fallback(
        self, component: GraphQuery, failed: Dict[int, FailureAnnotation]
    ) -> DifferentialGraph:
        """No single edge succeeds: fall back to per-vertex evaluation.

        The common subgraph degenerates to the satisfiable vertices (an
        unconnected vertex set would not be a *connected* subgraph, so we
        keep the best single vertex and annotate the rest).
        """
        best: Optional[Tuple[int, int]] = None
        annotations: Dict[Tuple[str, int], FailureAnnotation] = {}
        for eid, ann in failed.items():
            annotations.setdefault(ann.element, ann)
            if ann.element != ("edge", eid):
                annotations.setdefault(
                    ("edge", eid),
                    FailureAnnotation(
                        ("edge", eid),
                        ann.reason,
                        ann.detail or f"fails together with {ann.element}",
                    ),
                )
        for vid in sorted(component.vertex_ids):
            if not self._budget_left():
                self.stats.budget_exhausted = True
                break
            ok, card = self._evaluate(frozenset(), frozenset({vid}))
            if ok and (best is None or card > best[1]):
                best = (vid, card)
            elif not ok:
                annotations[("vertex", vid)] = FailureAnnotation(
                    ("vertex", vid),
                    FailureReason.CARDINALITY
                    if self.cardinality_mode
                    else FailureReason.PREDICATE,
                    "vertex alone fails the criterion",
                )
        if best is None:
            return DifferentialGraph(
                component, frozenset(), frozenset(), annotations, 0
            )
        return DifferentialGraph(
            component, frozenset(), frozenset({best[0]}), annotations, best[1]
        )

    def _build_differential(
        self,
        component: GraphQuery,
        state: FrozenSet[int],
        cardinality: int,
        failed: Dict[int, FailureAnnotation],
    ) -> DifferentialGraph:
        vertices = self._vertices_of(state)
        failed = dict(failed)
        # A failed extension may have been recorded against a different
        # base state than the reported MCS (e.g. a cycle-closing edge fails
        # from whichever side the frontier tried first).  Diagnose missing
        # adjacent edges on demand so the differential is fully annotated.
        for eid in component.edge_ids - state:
            if eid in failed:
                continue
            edge = component.edge(eid)
            if state and not (
                edge.source in vertices or edge.target in vertices
            ):
                continue
            if self._budget_left():
                failed[eid] = self._annotate_failure(state, vertices, eid)
        # Key each diagnosis by the element it blames; fill the remaining
        # missing elements with UNREACHED placeholders.
        annotations: Dict[Tuple[str, int], FailureAnnotation] = {}
        for eid, ann in failed.items():
            if eid in state:
                continue
            kind, ident = ann.element
            blamed_in_mcs = (kind == "vertex" and ident in vertices) or (
                kind == "edge" and ident in state
            )
            if not blamed_in_mcs:
                annotations.setdefault(ann.element, ann)
            annotations.setdefault(
                ("edge", eid),
                FailureAnnotation(
                    ("edge", eid),
                    ann.reason,
                    ann.detail or f"fails together with {ann.element}",
                )
                if ann.element != ("edge", eid)
                else ann,
            )
        for eid in component.edge_ids - state:
            annotations.setdefault(
                ("edge", eid),
                FailureAnnotation(("edge", eid), FailureReason.UNREACHED),
            )
        for vid in component.vertex_ids - vertices:
            annotations.setdefault(
                ("vertex", vid),
                FailureAnnotation(("vertex", vid), FailureReason.UNREACHED),
            )
        return DifferentialGraph(component, state, vertices, annotations, cardinality)

    # -- top level -------------------------------------------------------------

    def run(self) -> McsResult:
        start = time.perf_counter()
        per_component: List[List[DifferentialGraph]] = []
        for vertices in self.query.weakly_connected_components():
            per_component.append(self.run_component(vertices))
        best_parts = [options[0] for options in per_component]
        merged = merge_components(best_parts, self.query)
        alternatives: List[DifferentialGraph] = [
            option for options in per_component for option in options[1:]
        ]
        alternatives = rank_explanations(alternatives, self.preferences)
        rank_explanations([merged], self.preferences)
        self.stats.elapsed = time.perf_counter() - start
        return McsResult(merged, best_parts, alternatives, self.stats)


def discover_mcs(
    graph: Optional[PropertyGraph],
    query: GraphQuery,
    strategy: str = "frontier",
    edge_order: Optional[Sequence[int]] = None,
    preferences: Optional[UserPreferences] = None,
    annotate: bool = True,
    max_evaluations: Optional[int] = None,
    context=None,
) -> McsResult:
    """DISCOVERMCS (Sec. 4.2.1): explain a why-empty query.

    Success criterion: the subquery delivers at least one result
    (existence probe with ``limit=1`` -- lazy, bounded evaluation).
    Returns the maximum common connected subgraph per query component and
    the differential graphs describing the failed parts.  Counts go
    through ``context``'s result cache (a private context over ``graph``
    when none is given).
    """
    context = bind_private_context(graph, context)

    def success(subquery: GraphQuery) -> Tuple[bool, int]:
        card = context.cache.count(subquery, limit=1)
        return card > 0, card

    search = SubgraphLatticeSearch(
        context.graph,
        query,
        success,
        strategy=strategy,
        edge_order=edge_order,
        preferences=preferences,
        annotate=annotate,
        cardinality_mode=False,
        max_evaluations=max_evaluations,
    )
    return search.run()
