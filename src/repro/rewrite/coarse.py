"""Coarse-grained why-empty query rewriting (Chapter 5).

System architecture (Sec. 5.1.1): a candidate generator applies
whole-constraint relaxations (predicates, types, directions, edges,
vertices) to the failed query; a statistics-driven priority function
(Sec. 5.3) orders the open candidates; the evaluator executes the most
promising candidate with a bounded count, consulting the query-result
cache (App. B.2) first; the first non-empty candidates are returned as
modification-based explanations.  A user-preference model (Sec. 5.4) can
re-weight priorities between calls.

The evaluator drains the queue in *budgeted batches* through the shared
:class:`~repro.exec.evaluator.CandidateEvaluator`.  The batch size is
the executor's ``preferred_batch``, not a parameter: 1 with the default
:class:`~repro.exec.evaluator.SerialExecutor` (the thesis' sequential
formulation, no speculative budget spend); with the process-backed
:class:`~repro.shard.ProcessExecutor` its worker count, that many top
candidates evaluated concurrently and folded back in priority order,
which keeps the search deterministic for a fixed executor.  Binding,
budget, evaluator and span are :class:`~repro.exec.search.BudgetedSearch`'s.

The engine purposely ignores a cardinality threshold: "this approach does
not consider the cardinality threshold and therefore is more appropriate
for solving why-empty queries" (Contribution 4).  Threshold-driven
rewriting is Chapter 6's fine-grained engine.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Set, Tuple, Union

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.evaluator import BatchExecutor, CandidateEvaluator, EvaluationBudget
from repro.exec.search import BudgetedSearch, valid_children
from repro.metrics.syntactic import DistanceTable
from repro.rewrite.operations import Modification, coarse_relaxations
from repro.rewrite.preference_model import RewritePreferenceModel
from repro.rewrite.priority import (
    CandidateContext,
    PriorityFunction,
    get_priority_function,
)
from repro.rewrite.statistics import CardinalityProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.exec.context import ExecutionContext

#: bound of every candidate count: a rewriting only has to be non-empty,
#: its cardinality is reported up to this many matches
COUNT_LIMIT = 1000


@dataclass(frozen=True)
class RewrittenQuery:
    """One modification-based explanation produced by the rewriter."""

    query: GraphQuery
    cardinality: int
    syntactic: float
    modifications: Tuple[Modification, ...]
    estimate: float

    def describe(self) -> str:
        steps = "; ".join(op.describe() for op in self.modifications)
        return (
            f"cardinality {self.cardinality}, syntactic distance "
            f"{self.syntactic:.3f}: {steps}"
        )


@dataclass
class ConvergencePoint:
    """One sample of the search progress (Sec. 5.5.2)."""

    evaluations: int
    elapsed: float
    found: int
    best_syntactic: Optional[float]


@dataclass
class CoarseRewriteResult:
    """Explanations plus full search instrumentation.

    ``explanations`` is sorted by syntactic closeness (the user-facing
    ranking); ``discovered`` keeps the same rewritings in the order the
    search produced them (the order an interactive session shows them).
    """

    explanations: List[RewrittenQuery]
    evaluated: int
    generated: int
    queue_peak: int
    elapsed: float
    budget_exhausted: bool
    convergence: List[ConvergencePoint] = field(default_factory=list)
    discovered: List[RewrittenQuery] = field(default_factory=list)

    @property
    def best(self) -> Optional[RewrittenQuery]:
        return self.explanations[0] if self.explanations else None


@dataclass(order=True)
class _QueueEntry:
    #: (preference bucket, -priority, tiebreak counter): the preference
    #: bucket is lexicographically dominant, so user objections re-order
    #: the queue regardless of the priority function's scale (Sec. 5.4.2)
    sort_key: Tuple[int, float, int]
    query: GraphQuery = field(compare=False)
    modifications: Tuple[Modification, ...] = field(compare=False)
    #: what the candidate's children derive their scores from
    profile: CardinalityProfile = field(compare=False)
    distances: DistanceTable = field(compare=False)


class CoarseRewriter(BudgetedSearch):
    """Priority-driven relaxation search for why-empty queries."""

    span_engine = "coarse"

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        priority: Union[str, PriorityFunction] = "hybrid",
        preference_model: Optional[RewritePreferenceModel] = None,
        max_evaluations: int = 300,
        max_depth: Optional[int] = None,
        op_filter: Optional[Callable[[Modification], bool]] = None,
        context: Optional["ExecutionContext"] = None,
        executor: Optional[BatchExecutor] = None,
        budget: Optional[EvaluationBudget] = None,
        on_candidate: Optional[Callable[..., None]] = None,
    ) -> None:
        super().__init__(
            graph, context, executor, max_evaluations, budget, on_candidate
        )
        self.preference_model = preference_model
        self.priority_fn = (
            get_priority_function(priority) if isinstance(priority, str) else priority
        )
        self.max_depth = max_depth
        #: optional hard constraint on applicable operations (e.g. the
        #: user's immutable elements); rejected operations are never
        #: generated, unlike the soft preference-model re-weighting
        self.op_filter = op_filter

    # -- public API ----------------------------------------------------------

    def rewrite(self, query: GraphQuery, k: int = 1) -> CoarseRewriteResult:
        """Produce up to ``k`` non-empty rewritings of a failed query.

        Raises :class:`ValueError` when the input query is not actually
        empty (the holistic engine dispatches those cases elsewhere).
        """
        return self._traced(self._rewrite, query, COUNT_LIMIT, k)

    def _outcome(self, result: CoarseRewriteResult) -> dict:
        return {"found": len(result.explanations)}

    def _rewrite(
        self, query: GraphQuery, evaluator: CandidateEvaluator, k: int
    ) -> CoarseRewriteResult:
        if self.cache.count(query, limit=1) > 0:
            raise ValueError(
                "query delivers results; coarse rewriting targets why-empty"
            )
        start = time.perf_counter()
        counter = itertools.count()
        budget = evaluator.budget

        heap: List[_QueueEntry] = []
        seen: Set[GraphQuery] = {query}
        generated = 0
        queue_peak = 0
        budget_exhausted = False
        found: List[RewrittenQuery] = []
        convergence: List[ConvergencePoint] = []

        def push_children(
            base: GraphQuery,
            base_mods: Tuple[Modification, ...],
            base_profile: CardinalityProfile,
            base_distances: DistanceTable,
        ) -> None:
            nonlocal generated
            if self.max_depth is not None and len(base_mods) >= self.max_depth:
                return
            ops = coarse_relaxations(base)
            if self.op_filter is not None:
                ops = filter(self.op_filter, ops)
            for op, child in valid_children(base, ops):
                if child in seen:
                    continue
                seen.add(child)
                generated += 1
                mods = base_mods + (op,)
                ctx = CandidateContext(
                    original=query,
                    query=child,
                    modifications=mods,
                    parent_estimate=base_profile.estimate,
                    statistics=self.statistics,
                    profile=self.statistics.profile(child, base_profile),
                    distances=base_distances.child(child),
                )
                priority = self.priority_fn(ctx)
                bucket = 0
                if self.preference_model is not None:
                    bucket = self.preference_model.penalty_bucket(mods)
                heapq.heappush(
                    heap,
                    _QueueEntry(
                        (bucket, -priority, next(counter)),
                        child,
                        mods,
                        ctx.profile,
                        ctx.distances,
                    ),
                )

        push_children(
            query, (), self.statistics.profile(query), DistanceTable(query, query)
        )

        def record_point() -> None:
            convergence.append(
                ConvergencePoint(
                    evaluations=budget.spent,
                    elapsed=time.perf_counter() - start,
                    found=len(found),
                    best_syntactic=min((f.syntactic for f in found), default=None),
                )
            )

        # Budgeted batch drain: pop the `batch_size` most promising open
        # candidates, evaluate them as one batch through the shared
        # evaluator, then fold the results back in priority order.  The
        # batch is truncated to the remaining budget, so the budget is a
        # hard bound exactly as in the sequential formulation.
        while heap and len(found) < k:
            if budget.exhausted:
                budget_exhausted = True
                break
            queue_peak = max(queue_peak, len(heap))
            entries: List[_QueueEntry] = []
            while heap and len(entries) < self.batch_size:
                entries.append(heapq.heappop(heap))
            results = evaluator.evaluate([e.query for e in entries])
            if len(results) < len(entries):
                # candidates past the budget: return them to the queue so
                # the reported queue state stays meaningful
                for entry in entries[len(results):]:
                    heapq.heappush(heap, entry)
                budget_exhausted = True
            for entry, result in zip(entries, results):
                if result.cardinality > 0:
                    if len(found) < k:
                        found.append(
                            RewrittenQuery(
                                query=entry.query,
                                cardinality=result.cardinality,
                                syntactic=entry.distances.total,
                                modifications=entry.modifications,
                                estimate=entry.profile.estimate,
                            )
                        )
                        record_point()
                    continue
                push_children(
                    entry.query, entry.modifications, entry.profile, entry.distances
                )
            if budget_exhausted:
                break
            # sample the convergence curve roughly every 10 evaluations
            if budget.spent % 10 < len(results):
                record_point()

        discovered = list(found)
        found.sort(key=lambda f: (f.syntactic, -f.cardinality))
        record_point()
        return CoarseRewriteResult(
            explanations=found,
            evaluated=budget.spent,
            generated=generated,
            queue_peak=queue_peak,
            elapsed=time.perf_counter() - start,
            budget_exhausted=budget_exhausted,
            convergence=convergence,
            discovered=discovered,
        )
