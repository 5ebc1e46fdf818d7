"""repro -- Why-query support in graph databases.

A production-quality reproduction of Elena Vasilyeva's dissertation
*"Why-Query Support in Graph Databases"* (TU Dresden, 2016): debugging
support for pattern-matching queries over property graphs that deliver
unexpectedly empty, too few, or too many results.

Public API overview
-------------------

Core model
    :class:`~repro.core.PropertyGraph`, :class:`~repro.core.GraphQuery`,
    predicate constructors (:func:`~repro.core.equals`,
    :func:`~repro.core.one_of`, :func:`~repro.core.between`, ...).
Matching
    :class:`~repro.matching.PatternMatcher` evaluates queries.
Metrics (Ch. 3)
    :func:`~repro.metrics.syntactic_distance`,
    :func:`~repro.metrics.result_set_distance`,
    :func:`~repro.metrics.cardinality_distance`,
    :class:`~repro.metrics.CardinalityThreshold`.
Explanations (Ch. 4-6)
    :func:`~repro.explain.discover_mcs`, :func:`~repro.explain.bounded_mcs`
    (subgraph-based); :class:`~repro.rewrite.CoarseRewriter` (why-empty
    rewriting); :class:`~repro.finegrained.TraverseSearchTree`
    (cardinality-driven fine-grained rewriting).
Holistic engine
    :class:`~repro.why.WhyQueryEngine` dispatches to the right debugger
    from the observed cardinality (Fig. 3.1);
    :class:`~repro.why.DebugSession` is the interactive loop over the
    same dispatch.
Execution spine
    :class:`~repro.exec.ExecutionContext` is the per-graph evaluation
    stack and the one way an engine binds to a graph (``context=``, or a
    graph as shorthand for one);
    :class:`~repro.exec.CandidateEvaluator` evaluates candidate batches
    through :class:`~repro.exec.SerialExecutor` or the process pool
    below -- the batch size is the executor's (1, or the worker count).
Sharding & process parallelism
    :class:`~repro.shard.GraphPartitioner` splits a graph into
    vertex-range :class:`~repro.shard.GraphShard` blocks behind the
    :class:`~repro.shard.ShardedGraph` façade;
    :class:`~repro.shard.ShardedMatcher` fans candidate enumeration and
    expansion out per shard; :class:`~repro.shard.ProcessExecutor`
    evaluates candidate batches on worker processes (outside the GIL),
    warmed from the full snapshot (``shards=1``) or from shard-affine
    slices (``shards > 1``).
Service
    :class:`~repro.service.WhyQueryService` keeps a bounded pool of warm
    per-graph contexts and serves concurrent ``explain()`` /
    ``open_session()`` requests -- blocking, thread-safe calls (asyncio
    callers wrap them in ``asyncio.to_thread``) -- with service-level
    admission control via :class:`~repro.service.BudgetPool`;
    ``executor="process"`` gives every pooled graph its own warm worker
    pool.
Network front door
    :class:`~repro.server.WhyQueryProtocolServer` serves the service
    over a length-prefixed JSON-frame protocol (session multiplexing,
    streamed rewrite candidates, cooperative cancellation, per-tenant
    quotas); :func:`~repro.client.connect` returns a
    :class:`~repro.client.WhyQueryClient` speaking it.  See
    ``docs/protocol.md``.
Unified stats
    Every surface (``service.stats()``, ``matcher.cache_info()``,
    ``executor.info()``) emits the :mod:`repro.stats` schema.
"""

from repro.core import (
    BOTH_DIRECTIONS,
    Direction,
    GraphQuery,
    Interval,
    Predicate,
    PropertyGraph,
    ResultGraph,
    ResultSet,
    ValueSet,
    at_least,
    at_most,
    between,
    equals,
    one_of,
)
from repro.exec import (
    CandidateEvaluator,
    EvaluationBudget,
    ExecutionContext,
    SerialExecutor,
    execution_context,
)
from repro.matching import PatternMatcher
from repro.shard import (
    GraphPartitioner,
    GraphShard,
    ProcessExecutor,
    ShardedGraph,
    ShardedMatcher,
)
from repro.metrics import (
    CardinalityProblem,
    CardinalityThreshold,
    cardinality_distance,
    result_set_distance,
    syntactic_distance,
)

from repro.service import AdmissionRejected, BudgetPool, WhyQueryService
from repro.client import WhyQueryClient, connect
from repro.server import WhyQueryProtocolServer, serve_in_thread

__version__ = "1.7.0"

__all__ = [
    "AdmissionRejected",
    "BOTH_DIRECTIONS",
    "BudgetPool",
    "CandidateEvaluator",
    "CardinalityProblem",
    "CardinalityThreshold",
    "Direction",
    "EvaluationBudget",
    "ExecutionContext",
    "GraphPartitioner",
    "GraphQuery",
    "GraphShard",
    "Interval",
    "PatternMatcher",
    "Predicate",
    "ProcessExecutor",
    "PropertyGraph",
    "ResultGraph",
    "ResultSet",
    "SerialExecutor",
    "ShardedGraph",
    "ShardedMatcher",
    "ValueSet",
    "WhyQueryClient",
    "WhyQueryProtocolServer",
    "WhyQueryService",
    "__version__",
    "at_least",
    "at_most",
    "between",
    "cardinality_distance",
    "connect",
    "equals",
    "execution_context",
    "one_of",
    "result_set_distance",
    "serve_in_thread",
    "syntactic_distance",
]
