"""Holistic why-query engine (Sec. 3.1.3, Fig. 3.1).

The user hands over a pattern query and (optionally) a cardinality
threshold interval; the engine executes the query, classifies the outcome
as *why-empty*, *why-so-few*, *why-so-many* or *expected*, and dispatches
to the matching debuggers:

===========  ==========================  ================================
problem      subgraph explanation        modification-based explanation
===========  ==========================  ================================
why-empty    DISCOVERMCS (Ch. 4)         coarse-grained rewriting (Ch. 5)
why-so-few   BOUNDEDMCS (Ch. 4)          TRAVERSESEARCHTREE (Ch. 6)
why-so-many  BOUNDEDMCS (Ch. 4)          TRAVERSESEARCHTREE (Ch. 6)
===========  ==========================  ================================

All engines evaluate through one shared
:class:`~repro.exec.context.ExecutionContext` (matcher + query-result
cache + statistics + candidate caches), so the work one debugger performs
(e.g. the bounded counts of BOUNDEDMCS) is reused by the next (the
rewriting search), and the cardinality can oscillate around the threshold
without re-paying for previously evaluated variants.  By default the
engine binds to the graph's process-wide shared context
(:meth:`ExecutionContext.for_graph`), so independently constructed
engines over the same graph reuse each other's evaluation work too;
:meth:`WhyQueryEngine.cache_report` exposes every layer's counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.context import ExecutionContext
from repro.exec.evaluator import BatchExecutor, EvaluationBudget
from repro.explain.bounded_mcs import bounded_mcs
from repro.explain.discover_mcs import McsResult, discover_mcs
from repro.explain.preferences import UserPreferences
from repro.finegrained.traverse_search_tree import (
    FineRewriteResult,
    TraverseSearchTree,
)
from repro.metrics.cardinality import CardinalityProblem, CardinalityThreshold
from repro.obs.tracing import (
    SPAN_CLASSIFY,
    SPAN_SUBGRAPH,
    current_tracer,
)
from repro.rewrite.coarse import CoarseRewriteResult, CoarseRewriter
from repro.rewrite.preference_model import RewritePreferenceModel

RewritingOutcome = Union[CoarseRewriteResult, FineRewriteResult, None]


@dataclass
class WhyQueryReport:
    """Everything the engine found out about one unexpected result."""

    query: GraphQuery
    problem: CardinalityProblem
    observed_cardinality: int
    threshold: CardinalityThreshold
    subgraph_explanation: Optional[McsResult]
    rewriting: RewritingOutcome
    elapsed: float
    #: span tree of the request (``None`` when tracing was off); a
    #: JSON-ready dict, the same shape the protocol's ``trace`` frame
    #: carries.  Volatile by nature -- ``strip_volatile`` removes it
    #: alongside ``elapsed_s`` for report-identity comparisons.
    trace: Optional[dict] = None

    def summary(self) -> str:
        """Human-readable report (what the DebEAQ-style frontend shows)."""
        lines = [
            f"problem: {self.problem.value} "
            f"(observed cardinality {self.observed_cardinality}, "
            f"expected {self.threshold})"
        ]
        if self.problem == CardinalityProblem.EXPECTED:
            lines.append("the result size meets the expectation; nothing to debug")
            return "\n".join(lines)
        if self.subgraph_explanation is not None:
            lines.append("-- subgraph-based explanation (why did it fail?) --")
            lines.append(self.subgraph_explanation.differential.describe())
        if isinstance(self.rewriting, CoarseRewriteResult):
            lines.append("-- modification-based explanations (how to fix it?) --")
            if self.rewriting.explanations:
                for rewriting in self.rewriting.explanations:
                    lines.append(rewriting.describe())
            else:
                lines.append("no non-empty rewriting found within the budget")
        elif isinstance(self.rewriting, FineRewriteResult):
            lines.append("-- modification-based explanation (how to fix it?) --")
            lines.append(self.rewriting.describe())
            if not self.rewriting.converged:
                lines.append("(threshold not fully reached within the budget)")
        return "\n".join(lines)


class WhyQueryEngine:
    """One-stop debugging interface over a property graph."""

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        preferences: Optional[UserPreferences] = None,
        preference_model: Optional[RewritePreferenceModel] = None,
        mcs_strategy: str = "frontier",
        max_explanation_evaluations: Optional[int] = 200,
        max_rewrite_evaluations: int = 300,
        rewrite_k: int = 3,
        include_topology: bool = False,
        context: Optional[ExecutionContext] = None,
        executor: Optional[BatchExecutor] = None,
        evaluation_budget: Optional[EvaluationBudget] = None,
        on_candidate: Optional[Callable[..., None]] = None,
        tracer=None,
    ) -> None:
        # one shared spine per graph: engines constructed independently
        # over the same graph reuse each other's evaluation work; pass a
        # private ``ExecutionContext(graph)`` for isolation
        self.context = ExecutionContext.bind(graph, context, shared=True)
        self.graph = self.context.graph
        self.matcher = self.context.matcher
        self.cache = self.context.cache
        self.preferences = preferences
        self.preference_model = preference_model
        self.mcs_strategy = mcs_strategy
        self.max_explanation_evaluations = max_explanation_evaluations
        self.max_rewrite_evaluations = max_rewrite_evaluations
        self.rewrite_k = rewrite_k
        self.include_topology = include_topology
        self.executor = executor
        #: shared allowance for the rewriting search (e.g. a per-request
        #: lease from a service-level BudgetPool); when set it bounds the
        #: rewriting evaluations instead of ``max_rewrite_evaluations``
        self.evaluation_budget = evaluation_budget
        #: incremental-results seam: forwarded to the rewriting engines,
        #: which invoke it once per evaluated candidate as batches finish
        #: (how the protocol server streams partial results); exceptions
        #: raised here abort the search (cooperative cancellation)
        self.on_candidate = on_candidate
        #: request tracer; ``None`` resolves the ambient one per debug()
        self.tracer = tracer

    @property
    def domain(self):
        """The context's (version-refreshed) attribute domain."""
        return self.context.attribute_domain()

    def cache_report(self) -> dict:
        """Hit/miss counters of every cache layer this engine touches.

        Folded into the shared :class:`ExecutionContext`; engines bound to
        the same graph report (and contribute to) the same counters.
        """
        return self.context.cache_report()

    def classify(
        self, query: GraphQuery, threshold: Optional[CardinalityThreshold] = None
    ) -> CardinalityProblem:
        """Classify the query's result size without debugging it."""
        thr = threshold or CardinalityThreshold.at_least(1)
        observed = self.cache.count(query, limit=thr.probe_limit)
        return thr.classify(observed)

    def _tracer(self):
        return self.tracer if self.tracer is not None else current_tracer()

    def subgraph(
        self,
        query: GraphQuery,
        problem: CardinalityProblem,
        threshold: CardinalityThreshold,
    ) -> Optional[McsResult]:
        """The subgraph-based explanation of ``problem`` (left column of
        the dispatch table); ``None`` for an expected result size."""
        if problem == CardinalityProblem.EXPECTED:
            return None
        options = dict(
            strategy=self.mcs_strategy,
            preferences=self.preferences,
            max_evaluations=self.max_explanation_evaluations,
            matcher=self.matcher,
        )
        if problem == CardinalityProblem.EMPTY:
            with self._tracer().span(SPAN_SUBGRAPH, algorithm="discover_mcs"):
                return discover_mcs(self.graph, query, **options)
        with self._tracer().span(SPAN_SUBGRAPH, algorithm="bounded_mcs"):
            return bounded_mcs(
                self.graph, query, threshold, problem=problem, **options
            )

    def rewrite(
        self,
        query: GraphQuery,
        problem: CardinalityProblem,
        threshold: CardinalityThreshold,
        k: Optional[int] = None,
    ) -> RewritingOutcome:
        """The modification-based explanation of ``problem`` (right column
        of the dispatch table); ``None`` for an expected result size.
        ``k`` overrides ``rewrite_k`` for a why-empty query."""
        if problem == CardinalityProblem.EXPECTED:
            return None
        options = dict(
            context=self.context,
            max_evaluations=self.max_rewrite_evaluations,
            executor=self.executor,
            budget=self.evaluation_budget,
            on_candidate=self.on_candidate,
            tracer=self.tracer,
        )
        if problem == CardinalityProblem.EMPTY:
            rewriter = CoarseRewriter(
                preference_model=self.preference_model, **options
            )
            return rewriter.rewrite(query, k=self.rewrite_k if k is None else k)
        return TraverseSearchTree(
            threshold=threshold,
            include_topology=self.include_topology,
            constrainable_attrs=self.domain.common_vertex_attrs(),
            **options,
        ).search(query)

    def debug(
        self,
        query: GraphQuery,
        threshold: Optional[CardinalityThreshold] = None,
        explain: bool = True,
        rewrite: bool = True,
    ) -> WhyQueryReport:
        """Full debugging pass: classify, explain, rewrite.

        Without an explicit threshold only the empty-answer problem is
        detectable (``at_least(1)``), mirroring the thesis: too-few /
        too-many need a user-provided cardinality expectation.
        """
        start = time.perf_counter()
        tracer = self._tracer()
        thr = threshold or CardinalityThreshold.at_least(1)
        with tracer.span(SPAN_CLASSIFY) as span:
            observed = self.cache.count(query, limit=thr.search_probe_limit)
            problem = thr.classify(observed)
            if tracer.enabled:
                span.attributes["problem"] = problem.value
                span.attributes["observed"] = observed

        subgraph = self.subgraph(query, problem, thr) if explain else None
        rewriting = self.rewrite(query, problem, thr) if rewrite else None
        return WhyQueryReport(
            query=query,
            problem=problem,
            observed_cardinality=observed,
            threshold=thr,
            subgraph_explanation=subgraph,
            rewriting=rewriting,
            elapsed=time.perf_counter() - start,
        )
