"""Shared execution spine: per-graph contexts and batched evaluation.

``repro.exec`` is the layer between the matching substrate and the
debugging engines.  An :class:`ExecutionContext` is *the* binding of an
engine to a graph: it holds the per-graph evaluation stack (matcher,
result cache, statistics, attribute domain, preference models), and every
engine takes a context (or a graph, shorthand for one) and nothing below
it.  Every count of an explain -- classification, the subgraph lattice,
the rewriting searches -- is one call, ``context.cache.count``.
:class:`CandidateEvaluator` evaluates batches of independent query
variants through a pluggable executor under a shared
:class:`EvaluationBudget`; :class:`BudgetedSearch`
(:mod:`repro.exec.search`) is what both rewriting searches set up around
their loops.  Executors: :class:`SerialExecutor` (one task after
another, in the calling thread) and anything else speaking the
:class:`BatchExecutor` protocol -- the process-backed
:class:`~repro.shard.ProcessExecutor` is the one other implementation.
"""

from repro.exec.context import ExecutionContext, execution_context
from repro.exec.evaluator import (
    BatchExecutor,
    CandidateEvaluator,
    EvaluatedCandidate,
    EvaluationBudget,
    SerialExecutor,
)
from repro.exec.search import BudgetedSearch

__all__ = [
    "BatchExecutor",
    "BudgetedSearch",
    "CandidateEvaluator",
    "EvaluatedCandidate",
    "EvaluationBudget",
    "ExecutionContext",
    "SerialExecutor",
    "execution_context",
]
