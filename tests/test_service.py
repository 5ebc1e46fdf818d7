"""WhyQueryService: warm context pool, concurrency, LRU eviction, and
``explain`` driven from asyncio through ``asyncio.to_thread``."""

from __future__ import annotations

import asyncio
import gc
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import GraphQuery, PropertyGraph, equals
from repro.exec import ExecutionContext
from repro.metrics import CardinalityProblem, CardinalityThreshold
from repro.service import BudgetPool, WhyQueryService


def failing_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"missingEdgeType"})
    return q


def working_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"workAt"})
    return q


def small_graph(tag: int) -> PropertyGraph:
    g = PropertyGraph()
    p = g.add_vertex(type="person", name=f"p{tag}")
    u = g.add_vertex(type="university", name=f"u{tag}")
    g.add_edge(p, u, "workAt")
    return g


class TestContextPool:
    def test_context_reused_per_graph(self, tiny_graph):
        service = WhyQueryService()
        assert service.context_for(tiny_graph) is service.context_for(tiny_graph)
        assert len(service) == 1

    def test_service_contexts_are_private(self, tiny_graph):
        service = WhyQueryService()
        assert service.context_for(tiny_graph) is not ExecutionContext.for_graph(
            tiny_graph
        )

    def test_lru_eviction(self):
        service = WhyQueryService(max_contexts=2)
        graphs = [small_graph(i) for i in range(3)]
        first = service.context_for(graphs[0])
        service.context_for(graphs[1])
        # touch graph 0 again: it becomes most-recently-used
        assert service.context_for(graphs[0]) is first
        service.context_for(graphs[2])  # evicts graph 1, not graph 0
        assert len(service) == 2
        assert service.context_for(graphs[0]) is first
        stats = service.stats()["service"]
        assert stats["evictions"] == 1
        assert stats["contexts_created"] == 3
        # graph 1 returns -> a cold, fresh context (created anew)
        service.context_for(graphs[1])
        assert service.stats()["service"]["contexts_created"] == 4

    def test_eviction_releases_the_graph(self):
        import weakref

        service = WhyQueryService(max_contexts=1)
        graph = small_graph(0)
        ref = weakref.ref(graph)
        service.context_for(graph)
        del graph
        gc.collect()
        # the warm pool deliberately pins the graph ...
        assert ref() is not None
        # ... until LRU eviction drops the context (and the graph with it)
        service.context_for(small_graph(1))
        gc.collect()
        assert ref() is None

    def test_evicted_context_is_collectable(self):
        """Satellite (ISSUE 4): eviction must unpin completely -- the
        dropped context itself becomes garbage, not just its graph."""
        import weakref

        service = WhyQueryService(max_contexts=1)
        graph = small_graph(0)
        context_ref = weakref.ref(service.context_for(graph))
        assert context_ref() is not None
        service.context_for(small_graph(1))  # evicts graph 0's slot
        gc.collect()
        assert context_ref() is None

    def test_shared_registry_does_not_block_unpin(self):
        """A pooled (private) context and the process-wide shared
        ``for_graph`` context may coexist; both are released once the
        pool evicts and no caller holds the graph."""
        import weakref

        service = WhyQueryService(max_contexts=1)
        graph = small_graph(0)
        graph_ref = weakref.ref(graph)
        shared_ref = weakref.ref(ExecutionContext.for_graph(graph))
        pooled_ref = weakref.ref(service.context_for(graph))
        del graph
        gc.collect()
        # the pooled context pins the graph; the weak shared registry
        # rides along (its entry lives while the graph does)
        assert graph_ref() is not None
        assert shared_ref() is not None
        service.context_for(small_graph(1))
        gc.collect()
        assert pooled_ref() is None
        assert graph_ref() is None
        assert shared_ref() is None

    def test_max_contexts_validated(self):
        with pytest.raises(ValueError):
            WhyQueryService(max_contexts=0)

    def test_reserved_engine_options_rejected_at_construction(self):
        from repro.rewrite import RewritePreferenceModel

        with pytest.raises(TypeError):
            WhyQueryService(preference_model=RewritePreferenceModel())
        with pytest.raises(TypeError):
            WhyQueryService(context=None)
        # genuine engine knobs still pass through
        service = WhyQueryService(rewrite_k=1, mcs_strategy="single-path")
        assert service.engine_options == {
            "rewrite_k": 1,
            "mcs_strategy": "single-path",
        }


class TestRequests:
    def test_explain_classifies_and_rewrites(self, tiny_graph):
        service = WhyQueryService()
        report = service.explain(tiny_graph, failing_query())
        assert report.problem == CardinalityProblem.EMPTY
        assert report.rewriting is not None
        assert report.rewriting.explanations

    def test_cache_hits_accumulate_across_engine_boundaries(self, tiny_graph):
        """Acceptance: explain() -> open_session() share one context."""
        service = WhyQueryService()
        query = failing_query()
        service.explain(tiny_graph, query)
        context = service.context_for(tiny_graph)
        hits_before = context.cache.stats.hits
        session = service.open_session(tiny_graph, query)
        assert session.context is context
        session.propose()
        assert context.cache.stats.hits > hits_before

    def test_session_ratings_steer_later_sessions(self, tiny_graph):
        service = WhyQueryService()
        query = failing_query()
        first = service.open_session(tiny_graph, query)
        proposal = first.propose()
        assert proposal is not None
        first.rate(0.0)
        # the context's preference model carries the objection over
        context = service.context_for(tiny_graph)
        assert context.preference_model.penalty_bucket(proposal.modifications) > 0

    def test_explain_with_threshold(self, tiny_graph):
        service = WhyQueryService()
        report = service.explain(
            tiny_graph, working_query(), CardinalityThreshold.at_least(30)
        )
        assert report.problem == CardinalityProblem.TOO_FEW

    def test_throughput_counters(self, tiny_graph):
        service = WhyQueryService()
        service.explain(tiny_graph, failing_query())
        service.open_session(tiny_graph, failing_query())
        stats = service.stats()
        assert stats["service"]["requests"] == 2
        assert stats["service"]["explain_calls"] == 1
        assert stats["service"]["session_calls"] == 1
        assert stats["service"]["contexts_live"] == 1
        assert stats["service"]["busy_seconds"] > 0
        assert stats["matcher"]["calls"] > 0
        assert stats["per_graph"][0]["requests"] == 2

    def test_compiled_counters_flow_into_stats(self, tiny_graph):
        """Satellite (ISSUE 6): the compilation counters of every pooled
        context's graph aggregate into the service totals -- on a
        default-constructed service, which serves from the compiled
        matcher."""
        service = WhyQueryService()
        service.explain(tiny_graph, failing_query())
        stats = service.stats()
        programs, csr = stats["programs"], stats["csr"]
        # kernels are process-wide: this graph generated some or was
        # served by the ones an earlier graph generated
        assert programs["compiled"] + programs["hits"] > 0
        assert programs["fallbacks"] == 0
        assert csr["builds"] > 0
        assert csr["bytes"] > 0
        # a repeat evaluation through the pooled context binds to an
        # existing kernel
        hits = programs["hits"]
        service.context_for(tiny_graph).matcher.count(failing_query())
        assert service.stats()["programs"]["hits"] == hits + 1

    def test_interpreted_service_reports_zero_compiled_counters(self, tiny_graph):
        def factory(graph):
            return ExecutionContext(graph, compiled=False)

        service = WhyQueryService(context_factory=factory)
        service.explain(tiny_graph, failing_query())
        programs = service.stats()["programs"]
        assert programs["compiled"] == 0
        assert programs["hits"] == 0


class TestConcurrency:
    def test_concurrent_explains_one_graph(self, tiny_graph):
        """Eight threads debug the same graph through one warm context."""
        service = WhyQueryService()
        query = failing_query()
        reference = service.explain(tiny_graph, query)
        ref_key = sorted(
            (r.query.signature(), r.cardinality)
            for r in reference.rewriting.explanations
        )
        with ThreadPoolExecutor(max_workers=8) as pool:
            reports = list(
                pool.map(lambda _: service.explain(tiny_graph, query), range(8))
            )
        for report in reports:
            assert report.problem == CardinalityProblem.EMPTY
            assert (
                sorted(
                    (r.query.signature(), r.cardinality)
                    for r in report.rewriting.explanations
                )
                == ref_key
            )
        assert service.stats()["service"]["explain_calls"] == 9
        assert len(service) == 1

    def test_concurrent_explains_many_graphs_with_eviction(self):
        graphs = [small_graph(i) for i in range(6)]
        service = WhyQueryService(max_contexts=3)
        query = failing_query()
        with ThreadPoolExecutor(max_workers=6) as pool:
            reports = list(
                pool.map(lambda g: service.explain(g, query), graphs * 2)
            )
        assert all(r.problem == CardinalityProblem.EMPTY for r in reports)
        assert len(service) <= 3
        stats = service.stats()["service"]
        assert stats["explain_calls"] == 12
        assert stats["evictions"] >= 3

    def test_parallel_executor_service_deterministic(
        self, tiny_graph, make_batch_executor
    ):
        """A service draining rewrite candidates in batches of 4 through
        an injected executor is deterministic across requests, and its
        explanations are genuine (non-empty rewritings of the empty
        query)."""
        query = failing_query()
        batched_service = WhyQueryService(executor=make_batch_executor(4))
        first = batched_service.explain(tiny_graph, query)
        second = batched_service.explain(tiny_graph, query)
        key = lambda rep: [
            (repr(r.query.signature()), r.cardinality)
            for r in rep.rewriting.discovered
        ]
        assert key(first) == key(second)
        assert first.problem == CardinalityProblem.EMPTY
        assert all(r.cardinality > 0 for r in first.rewriting.explanations)


def explanation_key(report):
    return sorted(
        (repr(r.query.signature()), r.cardinality)
        for r in report.rewriting.explanations
    )


class TestServiceAsyncConcurrency:
    """N concurrent explain() calls hopped onto threads from asyncio over
    2 graphs produce the same reports as serial execution and never
    exceed the budget pool."""

    def test_concurrent_explain_async_matches_serial(self):
        graphs = [small_graph(0), small_graph(1)]
        query = failing_query()
        n = 12

        serial_service = WhyQueryService()
        reference = {
            id(g): explanation_key(serial_service.explain(g, query)) for g in graphs
        }

        # the concurrency is all at the request level.  The pool is sized
        # so the fair share never clips a request's budget (grant ==
        # requested even with n requests active).
        pool = BudgetPool(total=300 * (n + 1), min_grant=8, max_waiting=n)
        with WhyQueryService(budget_pool=pool) as service:

            async def main():
                return await asyncio.gather(
                    *(
                        asyncio.to_thread(service.explain, graphs[i % 2], query)
                        for i in range(n)
                    )
                )

            reports = asyncio.run(main())
            stats = service.stats()

        for i, report in enumerate(reports):
            assert report.problem == CardinalityProblem.EMPTY
            assert explanation_key(report) == reference[id(graphs[i % 2])]

        admission = stats["admission"]
        assert admission["admitted"] == n
        assert admission["rejected"] == 0
        # the pool is never overdrawn, and every lease was returned
        assert admission["peak_in_use"] <= pool.total
        assert admission["in_use"] == 0
        assert admission["active_requests"] == 0
        assert admission["evaluations_spent"] <= admission["evaluations_granted"]
        assert stats["service"]["explain_calls"] == n
        assert stats["service"]["contexts_live"] == 2
