"""Batched candidate evaluation with pluggable executors.

Every rewriting engine ultimately does the same thing in its inner loop:
take a set of *independent* query variants, obtain a (bounded) result
cardinality for each, and decide how the search continues.  Before this
module existed, that loop was hand-written per engine and strictly
sequential -- one candidate popped, one ``count`` issued, repeat.

:class:`CandidateEvaluator` centralises the loop:

* candidates are submitted as a **batch** and results come back in the
  *submission order*, regardless of the executor's scheduling -- search
  code stays deterministic;
* signature-identical duplicates inside one batch are evaluated once
  (search frontiers reach the same relaxed query through different
  modification paths all the time);
* every admitted candidate is counted against a shared
  :class:`EvaluationBudget`, so a batch can never overrun the engine's
  evaluation budget -- the batch is truncated instead;
* the actual execution strategy is pluggable: :class:`SerialExecutor`
  runs in the calling thread (batch size 1 -- the searches are
  sequential, each count decides what is generated next), and the
  process-backed :class:`~repro.shard.ProcessExecutor` (batch size =
  worker count) escapes the GIL: executors advertising
  ``supports_queries`` receive the *queries* (closures cannot cross a
  process boundary) via ``run_queries`` and evaluate them against their
  own long-lived per-worker contexts.

Thread-safety: the evaluation stack underneath
(:class:`~repro.rewrite.cache.QueryResultCache`,
:class:`~repro.matching.matcher.PatternMatcher`,
:class:`~repro.matching.evalcache.EvaluationCache`) keeps all per-call
search state on the stack and mutates only dictionaries and integer
counters, which CPython performs atomically under the GIL; the evaluator
additionally deduplicates a batch *before* submission so one cache entry
is computed at most once per batch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Protocol, Sequence, TypeVar

from repro.core.query import GraphQuery
from repro.obs.tracing import SPAN_EVALUATE, current_tracer

T = TypeVar("T")

__all__ = [
    "BatchExecutor",
    "CandidateEvaluator",
    "EvaluatedCandidate",
    "EvaluationBudget",
    "SerialExecutor",
]


class EvaluationBudget:
    """Thread-safe evaluation allowance shared by co-operating engines.

    ``None`` means unlimited.  Engines *reserve* admissions with
    :meth:`grant` before spending them, so concurrent batches cannot
    collectively overrun the limit.
    """

    def __init__(self, max_evaluations: Optional[int] = None) -> None:
        if max_evaluations is not None and max_evaluations < 0:
            raise ValueError("max_evaluations must be >= 0 or None")
        self.max_evaluations = max_evaluations
        self._spent = 0
        self._lock = threading.Lock()

    @property
    def spent(self) -> int:
        """Number of evaluations admitted so far."""
        return self._spent

    @property
    def remaining(self) -> Optional[int]:
        """Evaluations left (``None`` = unlimited)."""
        if self.max_evaluations is None:
            return None
        return max(0, self.max_evaluations - self._spent)

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0

    def grant(self, requested: int) -> int:
        """Admit up to ``requested`` evaluations; returns how many fit."""
        if requested <= 0:
            return 0
        with self._lock:
            if self.max_evaluations is None:
                self._spent += requested
                return requested
            granted = min(requested, self.max_evaluations - self._spent)
            granted = max(0, granted)
            self._spent += granted
            return granted


class BatchExecutor(Protocol):
    """Strategy interface: run a list of thunks, return results in order."""

    name: str
    #: batch size the engines should drain per round for this executor
    preferred_batch: int

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Evaluate the batch in the calling thread, one task after another."""

    name = "serial"
    #: natural batch size: without parallelism, speculative batching only
    #: wastes evaluation budget, so engines drain one candidate at a time
    preferred_batch = 1

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        return [task() for task in tasks]


@dataclass(frozen=True)
class EvaluatedCandidate:
    """One batch member with its evaluated (bounded) cardinality."""

    index: int
    query: GraphQuery
    cardinality: int


class CandidateEvaluator:
    """Evaluates batches of independent query variants against one graph.

    ``counter`` is anything exposing ``count(query, limit=...) -> int``
    (normally an :class:`~repro.exec.context.ExecutionContext` or its
    :class:`~repro.rewrite.cache.QueryResultCache`).  Construction from a
    context::

        evaluator = CandidateEvaluator(context.cache, budget=budget)
        for item in evaluator.evaluate(variants, limit=1000):
            ...

    ``evaluate`` admits candidates against the budget *in submission
    order* and returns one :class:`EvaluatedCandidate` per admitted
    candidate, also in submission order; candidates that did not fit the
    budget are simply absent from the result (callers detect truncation
    by comparing lengths).
    """

    def __init__(
        self,
        counter,
        executor: Optional[BatchExecutor] = None,
        budget: Optional[EvaluationBudget] = None,
        count_limit: Optional[int] = None,
        on_result: Optional[Callable[[EvaluatedCandidate], None]] = None,
        tracer=None,
    ) -> None:
        if not hasattr(counter, "count"):
            raise TypeError("counter must expose count(query, limit=...)")
        self.counter = counter
        self.executor: BatchExecutor = executor if executor is not None else SerialExecutor()
        self.budget = budget if budget is not None else EvaluationBudget(None)
        self.count_limit = count_limit
        #: request tracer; ``None`` resolves the ambient one per batch
        self.tracer = tracer
        #: incremental-results seam: called once per admitted candidate,
        #: in submission order, as soon as its batch finishes -- streaming
        #: consumers (the protocol server) see candidates while the search
        #: is still running.  Exceptions propagate into the engine, which
        #: is how cooperative cancellation unwinds an in-flight search.
        self.on_result = on_result
        #: total candidates admitted through this evaluator
        self.evaluated = 0
        #: batches served (for throughput reporting)
        self.batches = 0

    def evaluate(
        self,
        queries: Sequence[GraphQuery],
        limit: Optional[int] = ...,  # type: ignore[assignment]
    ) -> List[EvaluatedCandidate]:
        """Evaluate a batch; results in submission order, budget-truncated."""
        if limit is ...:
            limit = self.count_limit
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(SPAN_EVALUATE) as span:
            results = self._evaluate(queries, limit, tracer, span)
        return results

    def _evaluate(self, queries, limit, tracer, span) -> List[EvaluatedCandidate]:
        admitted = self.budget.grant(len(queries))
        if tracer.enabled:
            span.attributes["submitted"] = len(queries)
            span.attributes["admitted"] = admitted
            span.attributes["truncated"] = admitted < len(queries)
        batch = list(queries[:admitted])
        if not batch:
            return []
        # one evaluation per distinct signature; duplicates share the result
        signatures: List[Hashable] = [q.signature() for q in batch]
        first_at: Dict[Hashable, int] = {}
        unique_queries: List[GraphQuery] = []
        for sig, query in zip(signatures, batch):
            if sig not in first_at:
                first_at[sig] = len(unique_queries)
                unique_queries.append(query)
        counter = self.counter
        if getattr(self.executor, "supports_queries", False):
            # query-shipping executor (e.g. the process-pool executor):
            # closures cannot cross a process boundary, so the executor
            # receives the queries themselves and evaluates them against
            # its own long-lived per-worker contexts; the local counter
            # is bypassed (results are identical -- the matcher is
            # deterministic -- only the cache locality differs)
            counts = self.executor.run_queries(unique_queries, limit=limit)
        else:
            tasks: List[Callable[[], int]] = [
                (lambda q=query: counter.count(q, limit=limit))
                for query in unique_queries
            ]
            counts = self.executor.run(tasks)
        self.evaluated += len(batch)
        self.batches += 1
        results = [
            EvaluatedCandidate(
                index=i, query=query, cardinality=counts[first_at[sig]]
            )
            for i, (sig, query) in enumerate(zip(signatures, batch))
        ]
        if self.on_result is not None:
            for item in results:
                self.on_result(item)
        return results
