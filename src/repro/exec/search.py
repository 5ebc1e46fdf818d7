"""What every rewriting search does before and around its own loop.

The coarse rewriter (Ch. 5), TRAVERSESEARCHTREE (Ch. 6) and the two
Ch. 6 baselines differ in what they generate, how they order it and when
they stop.  The rest is here, once: the binding to an
:class:`~repro.exec.context.ExecutionContext`, the executor and its batch
size, the budget, the :class:`~repro.exec.evaluator.CandidateEvaluator`,
the ``rewrite`` span and the apply-validate-skip walk over operations.

One driver *loop* for both engines is deliberately not here: the coarse
search scores children from statistics and evaluates on pop across the
whole frontier, the fine search evaluates a popped node's siblings on
generation and scores them by measured distance -- a shared loop would
switch mode on every line to keep either trajectory (ROADMAP item 3).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.core.errors import MalformedQueryError, RewritingError
from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.evaluator import (
    BatchExecutor,
    CandidateEvaluator,
    EvaluationBudget,
    SerialExecutor,
)
from repro.obs.tracing import SPAN_REWRITE, current_tracer

__all__ = ["BudgetedSearch", "bind_private_context", "valid_children"]


def bind_private_context(graph: Optional[PropertyGraph], context):
    """A search's context: ``context``, or a private one over ``graph``."""
    # imported here: repro.exec.context imports repro.rewrite, whose
    # package import reaches the searches built on this module
    from repro.exec.context import ExecutionContext

    return ExecutionContext.bind(graph, context, shared=False)


def valid_children(
    base: GraphQuery, ops: Iterable
) -> Iterator[Tuple[object, GraphQuery]]:
    """``(op, op.apply(base))`` per operation that yields a valid query;
    one that no longer applies, or whose result is malformed (e.g.
    disconnected), is skipped -- validity is only known once applied."""
    for op in ops:
        try:
            child = op.apply(base)
            child.validate()
        except (RewritingError, MalformedQueryError):
            continue
        yield op, child


class BudgetedSearch:
    """Base of the two rewriting engines: binding, budget, evaluator, span."""

    #: ``engine`` attribute of the search's ``rewrite`` span
    span_engine = ""

    def __init__(
        self,
        graph: Optional[PropertyGraph],
        context,
        executor: Optional[BatchExecutor],
        max_evaluations: int,
        budget: Optional[EvaluationBudget],
        on_candidate: Optional[Callable[..., None]],
    ) -> None:
        self.context = bind_private_context(graph, context)
        self.graph = self.context.graph
        self.matcher = self.context.matcher
        self.cache = self.context.cache
        self.statistics = self.context.statistics
        self.executor: BatchExecutor = executor or SerialExecutor()
        #: candidates evaluated per round: what the executor prefers (1
        #: serial, the worker count for the process pool)
        self.batch_size = self.executor.preferred_batch
        if self.batch_size < 1:
            raise ValueError("executor.preferred_batch must be >= 1")
        self.max_evaluations = max_evaluations
        #: externally managed evaluation allowance (e.g. a per-request
        #: lease carved from a service-level budget pool); when given it
        #: is the hard bound instead of ``max_evaluations``, and spend is
        #: shared with every other engine holding the same budget
        self.budget = budget
        #: incremental-results seam: invoked once per evaluated candidate
        #: (an :class:`~repro.exec.evaluator.EvaluatedCandidate`) as each
        #: batch finishes, so streaming consumers see the search progress
        #: live; exceptions raised here abort the search (cooperative
        #: cancellation)
        self.on_candidate = on_candidate

    def _traced(self, search, query: GraphQuery, count_limit: Optional[int], *args):
        """Run ``search(query, evaluator, *args)`` in the ``rewrite`` span.

        ``query`` arrives frozen (candidates are frozen values: a child
        shares what its operation left alone and is scored from its
        parent's tables); the evaluator counts up to ``count_limit``
        against the engine's budget.
        """
        tracer = current_tracer()
        with tracer.span(SPAN_REWRITE, engine=self.span_engine) as span:
            evaluator = CandidateEvaluator(
                self.cache,
                executor=self.executor,
                budget=self.budget or EvaluationBudget(self.max_evaluations),
                count_limit=count_limit,
                on_result=self.on_candidate,
            )
            result = search(query.as_frozen(), evaluator, *args)
            if tracer.enabled:
                span.attributes["evaluated"] = result.evaluated
                span.attributes.update(self._outcome(result))
                span.attributes["budget_exhausted"] = result.budget_exhausted
            return result

    def _outcome(self, result) -> dict:
        """The engine-specific span attribute (``found`` / ``converged``)."""
        raise NotImplementedError
