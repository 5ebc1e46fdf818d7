"""ExecutionContext + CandidateEvaluator: the shared evaluation spine."""

from __future__ import annotations

import pytest

from repro.core import GraphQuery, PropertyGraph, equals
from repro.exec import (
    CandidateEvaluator,
    EvaluationBudget,
    ExecutionContext,
    SerialExecutor,
    execution_context,
)
from repro.rewrite import CoarseRewriter
from repro.rewrite.operations import coarse_relaxations
from repro.why import DebugSession, WhyQueryEngine


def typed_query(vertex_type: str, edge_type: str) -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals(vertex_type)})
    b = q.add_vertex()
    q.add_edge(a, b, types={edge_type})
    return q


class TestExecutionContext:
    def test_for_graph_is_one_per_graph(self, tiny_graph):
        assert ExecutionContext.for_graph(tiny_graph) is ExecutionContext.for_graph(
            tiny_graph
        )
        assert execution_context(tiny_graph) is ExecutionContext.for_graph(tiny_graph)

    def test_distinct_graphs_distinct_contexts(self, tiny_graph):
        other = PropertyGraph()
        other.add_vertex(type="person")
        assert ExecutionContext.for_graph(tiny_graph) is not ExecutionContext.for_graph(
            other
        )

    def test_private_context_is_isolated(self, tiny_graph):
        shared = ExecutionContext.for_graph(tiny_graph)
        private = ExecutionContext(tiny_graph)
        assert private is not shared
        assert private.cache is not shared.cache
        assert private.statistics is not shared.statistics
        # ... but both read the graph's one CSR image and its masks
        assert not hasattr(private, "evalcache")

    def test_spine_is_wired_together(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        assert ctx.cache.matcher is ctx.matcher
        assert ctx.statistics.graph is ctx.matcher.graph is tiny_graph
        assert ctx.graph is tiny_graph

    def test_count_goes_through_result_cache(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        q = typed_query("person", "workAt")
        first = ctx.count(q)
        assert ctx.cache.stats.misses == 1
        assert ctx.count(q) == first
        assert ctx.cache.stats.hits == 1

    def test_cache_report_layers(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        ctx.count(typed_query("person", "workAt"))
        report = ctx.cache_report()
        # the unified repro.stats schema: seven typed sections + extras
        assert set(report) == {
            "schema",
            "caches",
            "csr",
            "programs",
            "pools",
            "admission",
            "deltas",
            "metrics",
            "matcher",
        }
        assert set(report["caches"]) == {"results"}
        assert report["caches"]["results"]["misses"] == 1
        assert report["matcher"]["calls"] == 1
        # a plain dict: the pre-unification top-level keys are gone
        assert type(report) is dict
        with pytest.raises(KeyError):
            report["results"]

    def test_removed_options_and_executors_stay_removed(self, tiny_graph):
        """The untyped walk and the thread/asyncio executors were deleted,
        not deprecated: no flag, no alias, no awaitable count."""
        with pytest.raises(TypeError):
            ExecutionContext(tiny_graph, typed_adjacency=False)
        with pytest.raises(ImportError):
            from repro import AsyncExecutor  # noqa: F401
        with pytest.raises(ImportError):
            from repro import ParallelExecutor  # noqa: F401
        import repro.exec

        for name in ("AsyncExecutor", "ParallelExecutor"):
            assert not hasattr(repro.exec, name) and name not in repro.__all__
        assert not hasattr(ExecutionContext, "count_async")

    def test_result_cache_is_bounded(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph, result_cache_entries=2)
        queries = [
            typed_query("person", "workAt"),
            typed_query("person", "studyAt"),
            typed_query("university", "locatedIn"),
        ]
        for q in queries:
            ctx.count(q)
        assert len(ctx.cache) == 2
        # the oldest entry was evicted: re-counting it is a miss again
        misses = ctx.cache.stats.misses
        ctx.count(queries[0])
        assert ctx.cache.stats.misses == misses + 1

    def test_attribute_domain_refreshes_on_mutation(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        before = ctx.attribute_domain()
        assert ctx.attribute_domain() is before
        tiny_graph.add_vertex(type="person", name="Eve")
        after = ctx.attribute_domain()
        assert after is not before
        assert after.vertex_values("name")["Eve"] == 1


class TestWeakContextRegistry:
    """Satellite (ISSUE 4): the ``for_graph`` registry must not leak --
    a shared context dies with its graph, and a context alone must keep
    the graph alive (a pooled service context *pins* its graph)."""

    def test_shared_context_collected_after_graph_release(self):
        import gc
        import weakref

        graph = PropertyGraph()
        graph.add_vertex(type="person")
        context_ref = weakref.ref(ExecutionContext.for_graph(graph))
        assert context_ref() is not None
        del graph
        gc.collect()
        assert context_ref() is None

    def test_context_pins_its_graph(self):
        import gc
        import weakref

        graph = PropertyGraph()
        graph.add_vertex(type="person")
        graph_ref = weakref.ref(graph)
        context = ExecutionContext.for_graph(graph)
        del graph
        gc.collect()
        # the registry is weak, but a live context holds a strong
        # reference: the graph survives exactly as long as the context
        assert graph_ref() is not None
        assert context.graph is graph_ref()
        del context
        gc.collect()
        assert graph_ref() is None

    def test_registry_entry_is_fresh_after_collection(self):
        import gc

        graph = PropertyGraph()
        graph.add_vertex(type="person")
        first_id = id(ExecutionContext.for_graph(graph))
        del graph
        gc.collect()
        other = PropertyGraph()
        other.add_vertex(type="person")
        # a new graph gets a new shared context, never a recycled one
        assert ExecutionContext.for_graph(other).graph is other
        del first_id


class TestEvaluationBudget:
    def test_unlimited(self):
        budget = EvaluationBudget(None)
        assert budget.grant(1000) == 1000
        assert budget.remaining is None
        assert not budget.exhausted

    def test_truncating_grant(self):
        budget = EvaluationBudget(5)
        assert budget.grant(3) == 3
        assert budget.grant(3) == 2
        assert budget.grant(3) == 0
        assert budget.exhausted
        assert budget.spent == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EvaluationBudget(-1)


class TestCandidateEvaluator:
    def test_results_in_submission_order(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        queries = [
            typed_query("person", "workAt"),
            typed_query("person", "studyAt"),
            typed_query("university", "locatedIn"),
        ]
        results = CandidateEvaluator(ctx.cache).evaluate(queries)
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.cardinality for r in results] == [3, 1, 2]

    def test_budget_truncates_batch(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        budget = EvaluationBudget(2)
        evaluator = CandidateEvaluator(ctx.cache, budget=budget)
        results = evaluator.evaluate([typed_query("person", "workAt")] * 5)
        assert len(results) == 2
        assert budget.exhausted

    def test_duplicates_evaluated_once(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        q = typed_query("person", "workAt")
        results = CandidateEvaluator(ctx.cache).evaluate([q, q, q])
        assert [r.cardinality for r in results] == [3, 3, 3]
        # one miss; the duplicates never touched the cache again
        assert ctx.cache.stats.misses == 1
        assert ctx.cache.stats.hits == 0

    def test_serial_and_parallel_identical_result_sets(
        self, tiny_graph, make_batch_executor
    ):
        """Acceptance: executor choice never changes evaluation results."""
        failed = typed_query("person", "missingEdgeType")
        variants = []
        for op in coarse_relaxations(failed):
            try:
                child = op.apply(failed)
                child.validate()
            except Exception:
                continue
            variants.append(child)
        assert len(variants) >= 4
        serial_ctx = ExecutionContext(tiny_graph)
        parallel_ctx = ExecutionContext(tiny_graph)
        serial_results = CandidateEvaluator(
            serial_ctx.cache, executor=SerialExecutor()
        ).evaluate(variants)
        parallel_results = CandidateEvaluator(
            parallel_ctx.cache, executor=make_batch_executor()
        ).evaluate(variants)
        as_set = lambda rs: sorted(
            (repr(r.query.signature()), r.cardinality) for r in rs
        )
        assert as_set(serial_results) == as_set(parallel_results)
        # ... and in fact in identical (deterministic submission) order
        assert [r.cardinality for r in serial_results] == [
            r.cardinality for r in parallel_results
        ]

    def test_counter_without_count_rejected(self):
        with pytest.raises(TypeError):
            CandidateEvaluator(object())


class TestEnginesShareOneContext:
    def test_engine_and_session_share_cache(self, tiny_graph):
        """Regression: WhyQueryEngine + DebugSession used to build private
        QueryResultCache instances over the same graph; both now ride the
        shared per-graph context, so hits accumulate across engines."""
        failed = typed_query("person", "missingEdgeType")
        engine = WhyQueryEngine(tiny_graph)
        session = DebugSession(tiny_graph, failed)
        assert engine.context is session.context
        assert engine.cache is session.context.cache

        engine.debug(failed)
        hits_before = engine.cache.stats.hits
        session.propose()
        # the session's classification + search re-count variants the
        # engine already evaluated: shared-cache hits must climb
        assert engine.cache.stats.hits > hits_before

    def test_rewriter_from_context_shares_results(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        failed = typed_query("person", "missingEdgeType")
        CoarseRewriter(context=ctx).rewrite(failed, k=1)
        misses_before = ctx.cache.stats.misses
        hits_before = ctx.cache.stats.hits
        CoarseRewriter(context=ctx).rewrite(failed, k=1)
        # the second rewriter re-evaluates the same frontier: all hits
        assert ctx.cache.stats.misses == misses_before
        assert ctx.cache.stats.hits > hits_before

    def test_explicit_context_still_isolates(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        engine = WhyQueryEngine(context=ctx)
        assert engine.context is ctx and engine.cache is ctx.cache
        assert engine.context is not ExecutionContext.for_graph(tiny_graph)
        assert WhyQueryEngine(tiny_graph).context is ExecutionContext.for_graph(
            tiny_graph
        )


class TestBatchedEngines:
    def test_coarse_rewriter_parallel_executor_same_explanations(
        self, tiny_graph, make_batch_executor
    ):
        """At equal batch size the drain trajectory is executor-independent:
        an executor that runs its batch in another order must not change
        what the search finds."""
        failed = typed_query("person", "missingEdgeType")
        in_order = SerialExecutor()
        in_order.preferred_batch = 4
        serial = CoarseRewriter(
            context=ExecutionContext(tiny_graph),
            executor=in_order,
            max_evaluations=100,
        ).rewrite(failed, k=3)
        parallel = CoarseRewriter(
            context=ExecutionContext(tiny_graph),
            executor=make_batch_executor(4),
            max_evaluations=100,
        ).rewrite(failed, k=3)
        key = lambda r: (repr(r.query.signature()), r.cardinality)
        assert serial.evaluated == parallel.evaluated
        assert sorted(map(key, serial.explanations)) == sorted(
            map(key, parallel.explanations)
        )
        # same trajectory -> same discovery order, not just the same set
        assert list(map(key, serial.discovered)) == list(
            map(key, parallel.discovered)
        )

    def test_coarse_rewriter_batch_size_follows_executor(
        self, tiny_graph, make_batch_executor
    ):
        assert CoarseRewriter(tiny_graph).batch_size == 1
        pool = make_batch_executor(6)
        assert CoarseRewriter(tiny_graph, executor=pool).batch_size == 6
        with pytest.raises(ValueError):
            CoarseRewriter(tiny_graph, executor=make_batch_executor(0))

    def test_traverse_search_tree_parallel_same_best(
        self, tiny_graph, make_batch_executor
    ):
        from repro.metrics import CardinalityThreshold

        query = typed_query("person", "workAt")
        threshold = CardinalityThreshold.at_least(4)
        serial = TraverseSearchTreeRun(tiny_graph, threshold, None).run(query)
        parallel = TraverseSearchTreeRun(
            tiny_graph, threshold, make_batch_executor(4)
        ).run(query)
        assert serial.best_cardinality == parallel.best_cardinality
        assert serial.converged == parallel.converged
        assert serial.best_query.signature() == parallel.best_query.signature()


class TraverseSearchTreeRun:
    """Helper wiring one isolated TST run (serial or batched)."""

    def __init__(self, graph, threshold, executor):
        from repro.finegrained import TraverseSearchTree

        self.engine = TraverseSearchTree(
            context=ExecutionContext(graph),
            threshold=threshold,
            executor=executor,
            max_evaluations=100,
        )

    def run(self, query):
        return self.engine.search(query)
