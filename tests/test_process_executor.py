"""Process-parallel evaluation: :class:`repro.shard.ProcessExecutor`.

Every worker holds one warm context over the full graph snapshot.  At
batch size 1 the executor reproduces the serial search trajectory
bit-identically, its counts equal the in-process matcher's, and the
service's process mode matches the plain service.
"""

from __future__ import annotations

import pytest

from repro.core import (
    BACKWARD_ONLY,
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    at_least,
    between,
    equals,
)
from repro.datasets import dbpedia, ldbc
from repro.exec import (
    CandidateEvaluator,
    EvaluationBudget,
    ExecutionContext,
    SerialExecutor,
)
from repro.finegrained import TraverseSearchTree
from repro.matching import PatternMatcher
from repro.metrics import CardinalityProblem, CardinalityThreshold
from repro.rewrite import CoarseRewriter
from repro.service import WhyQueryService
from repro.shard import ProcessExecutor


def typed_query(vertex_type: str, edge_type: str) -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals(vertex_type)})
    b = q.add_vertex()
    q.add_edge(a, b, types={edge_type})
    return q


@pytest.fixture(scope="module")
def process_graph():
    g = PropertyGraph()
    for tag in range(6):
        p = g.add_vertex(type="person", name=f"p{tag}")
        u = g.add_vertex(type="university", name=f"u{tag % 2}")
        g.add_edge(p, u, "workAt", sinceYear=2000 + tag)
        g.add_edge(p, u, "studyAt")
        g.add_edge(p, p, "knows")  # self-loop, exercises snapshot fidelity
    return g


@pytest.fixture(scope="module")
def process_executor(process_graph):
    with ProcessExecutor(process_graph, max_workers=2) as executor:
        executor.warm_up()
        yield executor


class TestProcessExecutor:
    def test_protocol_surface(self, process_executor):
        assert process_executor.name == "process"
        assert process_executor.supports_queries
        assert process_executor.preferred_batch == 2

    def test_warm_up_spawns_distinct_workers(self, process_graph):
        # no sleep to win: the two warm-up tasks meet at the pool's
        # barrier, which one process alone can never pass
        with ProcessExecutor(process_graph, max_workers=2) as executor:
            pids = executor.warm_up()
            assert len(set(pids)) == 2
            # the barrier is cyclic and the workers stay: again, same pids
            assert set(executor.warm_up()) == set(pids)

    def test_warm_up_after_a_single_task_batch(self, process_graph):
        # one task spawned one worker; warm-up must still bring the second
        query = typed_query("person", "workAt")
        with ProcessExecutor(process_graph, max_workers=2) as executor:
            assert executor.run_queries([query]) == [
                PatternMatcher(process_graph).count(query)
            ]
            assert len(set(executor.warm_up())) == 2

    def test_warm_up_times_out_instead_of_hanging(self, process_graph):
        with ProcessExecutor(process_graph, max_workers=2) as executor:
            # nobody waits for the other: the barrier breaks at once
            with pytest.raises(RuntimeError, match="not up within"):
                executor.warm_up(timeout_s=0.0)
            # the broken pool was closed; the next use builds a fresh one
            assert len(set(executor.warm_up())) == 2

    def test_counts_match_in_process_matcher(self, process_graph, process_executor):
        reference = PatternMatcher(process_graph, compiled=False)
        queries = [
            typed_query("person", "workAt"),
            typed_query("person", "studyAt"),
            typed_query("person", "missingEdgeType"),
            typed_query("university", "workAt"),
        ]
        counts = process_executor.run_queries(queries)
        assert counts == [reference.count(q) for q in queries]

    def test_submission_order_and_limit(self, process_graph, process_executor):
        queries = [typed_query("person", "workAt"), typed_query("person", "knows")]
        # the knows edges are self-loops: injectively unmatchable, so the
        # positional results must show [clamped, zero] in submission order
        assert process_executor.run_queries(queries, limit=2) == [2, 0]
        assert process_executor.run_queries([]) == []

    def test_bounded_counts_value_identical(self, process_graph, process_executor):
        reference = PatternMatcher(process_graph, compiled=False)
        query = typed_query("person", "workAt")
        assert process_executor.run_queries([query]) == [reference.count(query)]
        for limit in (1, 3, 50):
            assert process_executor.run_queries([query], limit=limit) == [
                reference.count(query, limit=limit)
            ]

    def test_evaluator_routes_queries_through_pool(
        self, process_graph, process_executor
    ):
        context = ExecutionContext(process_graph)
        q = typed_query("person", "workAt")
        evaluator = CandidateEvaluator(context, executor=process_executor)
        results = evaluator.evaluate([q, q, typed_query("person", "studyAt")])
        assert [(r.index, r.cardinality) for r in results] == [
            (0, 6),
            (1, 6),
            (2, 6),
        ]
        # duplicates were deduplicated before shipping; the local cache
        # was bypassed entirely (the workers own the evaluation)
        assert context.cache.stats.misses == 0

    def test_budget_truncation_at_coordinator(self, process_graph, process_executor):
        budget = EvaluationBudget(2)
        evaluator = CandidateEvaluator(
            ExecutionContext(process_graph),
            executor=process_executor,
            budget=budget,
        )
        results = evaluator.evaluate([typed_query("person", "workAt")] * 5)
        assert len(results) == 2
        assert budget.exhausted

    def test_stale_snapshot_rebuilds_pool(self):
        g = PropertyGraph()
        a = g.add_vertex(type="person", name="solo")
        b = g.add_vertex(type="university", name="uni")
        g.add_edge(a, b, "workAt")
        query = typed_query("person", "workAt")
        with ProcessExecutor(g, max_workers=1) as executor:
            assert executor.run_queries([query]) == [1]
            rebuilds = executor.pool_rebuilds
            c = g.add_vertex(type="person", name="later")
            g.add_edge(c, b, "workAt")
            assert executor.run_queries([query]) == [2]
            assert executor.pool_rebuilds == rebuilds + 1
            assert executor.info()["pools"]["snapshot_version"] == g.version

    def test_generic_thunks_fall_back_in_process(self, process_executor):
        assert process_executor.run([lambda: 1, lambda: 2]) == [1, 2]

    def test_validation(self, process_graph):
        with pytest.raises(ValueError):
            ProcessExecutor(process_graph, max_workers=0)

    def test_concurrent_first_touch_builds_one_pool(self, process_graph):
        """The service serves concurrent explains; two threads racing
        the first batch must not each spawn (and leak) a worker pool."""
        from concurrent.futures import ThreadPoolExecutor as Threads

        query = typed_query("person", "workAt")
        with ProcessExecutor(process_graph, max_workers=1) as executor:
            with Threads(max_workers=4) as threads:
                results = list(
                    threads.map(
                        lambda _: executor.run_queries([query]), range(4)
                    )
                )
            assert results == [[6]] * 4
            assert executor.pool_rebuilds == 1

    def test_close_is_idempotent_and_pool_respawns(self, process_graph):
        executor = ProcessExecutor(process_graph, max_workers=1)
        query = typed_query("person", "workAt")
        assert executor.run_queries([query]) == [6]
        executor.close()
        executor.close()
        assert executor.run_queries([query]) == [6]
        executor.close()


def coarse_trajectory(result):
    """Everything the coarse search decided, minus wall-clock times."""
    return {
        "evaluated": result.evaluated,
        "generated": result.generated,
        "queue_peak": result.queue_peak,
        "budget_exhausted": result.budget_exhausted,
        "discovered": [
            (
                repr(r.query.signature()),
                r.cardinality,
                r.syntactic,
                tuple(op.describe() for op in r.modifications),
            )
            for r in result.discovered
        ],
        "explanations": [
            (repr(r.query.signature()), r.cardinality) for r in result.explanations
        ],
        "convergence": [
            (p.evaluations, p.found, p.best_syntactic) for p in result.convergence
        ],
    }


def fine_trajectory(result):
    return {
        "best": repr(result.best_query.signature()),
        "cardinality": result.best_cardinality,
        "distance": result.best_distance,
        "syntactic": result.best_syntactic,
        "modifications": tuple(op.describe() for op in result.modifications),
        "trace": result.cardinality_trace,
        "evaluated": result.evaluated,
        "generated": result.generated,
        "tree_size": result.tree_size,
        "converged": result.converged,
    }


class TestProcessTrajectoryIdentity:
    """Acceptance: ProcessExecutor at batch size 1 reproduces the serial
    search trajectory bit-identically -- the worker-side counts must be
    indistinguishable from in-process evaluation."""

    def test_coarse_batch1_bit_identical(
        self, process_graph, process_executor, monkeypatch
    ):
        monkeypatch.setattr(process_executor, "preferred_batch", 1)
        failed = typed_query("person", "missingEdgeType")
        serial = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=SerialExecutor(),
            max_evaluations=120,
        ).rewrite(failed, k=3)
        process = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=process_executor,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        assert coarse_trajectory(serial) == coarse_trajectory(process)

    def test_coarse_equal_batch_size_identical(
        self, process_graph, process_executor, make_batch_executor
    ):
        failed = typed_query("person", "missingEdgeType")
        in_process = make_batch_executor(process_executor.preferred_batch)
        serial = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=in_process,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        process = CoarseRewriter(
            context=ExecutionContext(process_graph),
            executor=process_executor,
            max_evaluations=120,
        ).rewrite(failed, k=3)
        assert coarse_trajectory(serial) == coarse_trajectory(process)

    def test_traverse_search_tree_batch1_bit_identical(
        self, process_graph, process_executor, monkeypatch
    ):
        monkeypatch.setattr(process_executor, "preferred_batch", 1)
        query = typed_query("person", "workAt")
        threshold = CardinalityThreshold.at_least(8)
        serial = TraverseSearchTree(
            context=ExecutionContext(process_graph),
            threshold=threshold,
            max_evaluations=100,
        ).search(query)
        process = TraverseSearchTree(
            context=ExecutionContext(process_graph),
            threshold=threshold,
            executor=process_executor,
            max_evaluations=100,
        ).search(query)
        assert fine_trajectory(serial) == fine_trajectory(process)


class TestServiceProcessMode:
    def failing_query(self) -> GraphQuery:
        return typed_query("person", "missingEdgeType")

    def explanation_key(self, report):
        return sorted(
            (repr(r.query.signature()), r.cardinality)
            for r in report.rewriting.explanations
        )

    def test_explain_matches_serial_service(self, process_graph):
        """process_workers=1 -> preferred batch 1 -> every request walks
        the serial trajectory, so the reports must match the plain
        service exactly (same construction as the async batch-1 test)."""
        query = self.failing_query()
        reference = WhyQueryService().explain(process_graph, query)
        with WhyQueryService(executor="process", process_workers=1) as service:
            report = service.explain(process_graph, query)
            stats = service.stats()
        assert report.problem is CardinalityProblem.EMPTY
        assert self.explanation_key(report) == self.explanation_key(reference)
        assert stats["pools"] is None
        (graph_stats,) = stats["per_graph"]
        pools = graph_stats["process_pool"]["pools"]
        assert pools["pool_live"]
        assert pools["max_workers"] == 1
        assert pools["queries_shipped"] > 0

    def test_batched_process_service_is_deterministic(self, process_graph):
        """With a real worker batch (preferred batch = workers) the
        drained trajectory may legitimately differ from the serial one,
        but it must be deterministic request-over-request and its
        explanations genuine."""
        query = self.failing_query()
        with WhyQueryService(executor="process", process_workers=2) as service:
            reports = [service.explain(process_graph, query) for _ in range(3)]
            stats = service.stats()
        keys = [self.explanation_key(r) for r in reports]
        assert all(k == keys[0] for k in keys)
        assert all(r.rewriting.explanations for r in reports)
        assert all(
            x.cardinality > 0
            for r in reports
            for x in r.rewriting.explanations
        )
        assert stats["per_graph"][0]["process_pool"]["pools"]["max_workers"] == 2

    def test_eviction_closes_worker_pool(self, process_graph):
        other = PropertyGraph()
        p = other.add_vertex(type="person", name="solo")
        u = other.add_vertex(type="university", name="uni")
        other.add_edge(p, u, "workAt")
        query = self.failing_query()
        with WhyQueryService(
            executor="process", process_workers=1, max_contexts=1
        ) as service:
            service.explain(process_graph, query)
            first_entry = service._pool[id(process_graph)]
            assert first_entry.executor.info()["pools"]["pool_live"]
            service.explain(other, query)
            stats = service.stats()
            # the first graph's slot was evicted and its pool shut down
            assert stats["service"]["evictions"] == 1
            assert not first_entry.executor.info()["pools"]["pool_live"]
            (graph_stats,) = stats["per_graph"]
            assert graph_stats["process_pool"]["pools"]["pool_live"]

    def test_worker_semantics_follow_context_factory(self, process_graph):
        """A context_factory changing matcher semantics (homomorphic
        matching here) must reach the workers, or process-mode counts
        silently diverge from the serial service's."""
        def homomorphic(graph):
            return ExecutionContext(graph, injective=False)

        query = typed_query("person", "knows")  # self-loops: 0 injective
        serial = WhyQueryService(context_factory=homomorphic)
        reference = serial.context_for(process_graph).count(query)
        assert reference > 0  # non-injective finds the self-loops
        with WhyQueryService(
            executor="process", process_workers=1, context_factory=homomorphic
        ) as service:
            entry = service._entry_for(process_graph)
            assert entry.executor.injective is False
            assert entry.executor.run_queries([query]) == [reference]

    def test_eviction_defers_close_until_requests_drain(self, process_graph):
        """An entry evicted while a request is still executing keeps its
        worker pool alive until that request releases its lease."""
        other = PropertyGraph()
        p = other.add_vertex(type="person", name="solo")
        u = other.add_vertex(type="university", name="uni")
        other.add_edge(p, u, "workAt")
        with WhyQueryService(
            executor="process", process_workers=1, max_contexts=1
        ) as service:
            entry = service._entry_for(process_graph, lease=True)
            entry.executor.run_queries([typed_query("person", "workAt")])
            # another graph's request evicts the leased entry ...
            service.explain(other, self.failing_query())
            assert entry.retired
            # ... but the leased request's pool must still be usable
            assert entry.executor.run_queries(
                [typed_query("person", "studyAt")]
            ) == [6]
            assert entry.executor.info()["pools"]["pool_live"]
            # dropping the last lease closes the retired pool
            service._release_entry(entry)
            assert not entry.executor.info()["pools"]["pool_live"]

    def test_unknown_executor_string_rejected(self):
        with pytest.raises(ValueError):
            WhyQueryService(executor="threads")

    def test_validation(self):
        with pytest.raises(ValueError):
            WhyQueryService(executor="process", process_workers=0)


def build_shapes_graph() -> PropertyGraph:
    """Explicit ids out of order, self-loops of two types, parallel edges
    of one and of two types, a two-way pair and a bare vertex: every
    shape a worker's snapshot replay has to keep exactly."""
    g = PropertyGraph()
    g.add_vertex(vid=9, type="person", age=31)
    g.add_vertex(vid=3, type="person", age=45)
    g.add_vertex(vid=6, type="person", age=27)
    g.add_vertex(vid=1, type="university")
    g.add_vertex(vid=4)  # no attributes at all
    g.add_edge(9, 9, "knows", eid=8)  # self-loop, highest id first
    g.add_edge(3, 3, "likes", eid=2)  # self-loop of a second type
    g.add_edge(9, 3, "knows", eid=5)
    g.add_edge(3, 9, "knows", eid=0)  # two-way pair
    g.add_edge(9, 1, "workAt", eid=7, since=2003)
    g.add_edge(9, 1, "workAt", eid=1, since=2011)  # parallel, same type
    g.add_edge(9, 1, "studyAt", eid=3)  # parallel, other type
    g.add_edge(6, 1, "studyAt", eid=6)
    g.add_edge(6, 4, "likes", eid=4)
    g.add_edge(3, 6, "knows", eid=9)
    return g


def shapes_self_loop() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    q.add_edge(a, a, types={"knows", "likes"})
    return q


def shapes_two_types() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"workAt", "studyAt"})
    return q


def shapes_parallel_query_edges() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex()
    q.add_edge(a, b, types={"workAt"})
    q.add_edge(a, b, types={"studyAt"})
    return q


def shapes_untyped_both_ways() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex()
    q.add_edge(a, b, directions=BOTH_DIRECTIONS)
    return q


def shapes_edge_interval() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"age": between(25, 35)})
    b = q.add_vertex()
    q.add_edge(a, b, types={"workAt"}, predicates={"since": at_least(2005)})
    return q


def shapes_backward_path() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("university")})
    b = q.add_vertex(predicates={"type": equals("person")})
    c = q.add_vertex(predicates={"type": equals("person")})
    q.add_edge(a, b, types={"studyAt", "workAt"}, directions=BACKWARD_ONLY)
    q.add_edge(b, c, types={"knows"}, directions=BOTH_DIRECTIONS)
    return q


def shapes_disconnected() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex()
    q.add_edge(a, b, types={"likes"})
    q.add_vertex(predicates={"type": equals("university")})
    return q


def shapes_unknown_type() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex()
    b = q.add_vertex()
    q.add_edge(a, b, types={"isPartOf"})
    return q


def shapes_lone_vertex() -> GraphQuery:
    q = GraphQuery()
    q.add_vertex()
    return q


SHAPES_QUERIES = [
    shapes_self_loop,
    shapes_two_types,
    shapes_parallel_query_edges,
    shapes_untyped_both_ways,
    shapes_edge_interval,
    shapes_backward_path,
    shapes_disconnected,
    shapes_unknown_type,
    shapes_lone_vertex,
]


@pytest.fixture(scope="module")
def shapes_graph():
    return build_shapes_graph()


@pytest.fixture(
    scope="module", params=[True, False], ids=["injective", "homomorphic"]
)
def shapes_executor(request, shapes_graph):
    with ProcessExecutor(
        shapes_graph, max_workers=1, injective=request.param
    ) as executor:
        yield executor


class TestProcessExecutorGraphShapes:
    """A worker rebuilds its graph from the snapshot; every shape the
    replay could get wrong must count as it does in-process, under the
    executor's own semantics, bounded or not."""

    @pytest.mark.parametrize(
        "build", SHAPES_QUERIES, ids=[b.__name__ for b in SHAPES_QUERIES]
    )
    def test_counts_match_both_backends(self, shapes_graph, shapes_executor, build):
        query = build()
        injective = shapes_executor.injective
        compiled = PatternMatcher(shapes_graph, injective=injective)
        reference = PatternMatcher(shapes_graph, injective=injective, compiled=False)
        for limit in (None, 1, 2):
            expected = reference.count(query, limit=limit)
            assert compiled.count(query, limit=limit) == expected
            assert shapes_executor.run_queries([query], limit=limit) == [expected]

    def test_the_shapes_are_not_vacuous(self, shapes_graph):
        counts = {
            build.__name__: PatternMatcher(shapes_graph).count(build())
            for build in SHAPES_QUERIES
        }
        assert counts["shapes_unknown_type"] == 0
        assert sum(1 for c in counts.values() if c > 0) >= len(SHAPES_QUERIES) - 2
        # injectivity matters on these shapes: a self-loop binds one vertex
        homomorphic = PatternMatcher(shapes_graph, injective=False)
        assert homomorphic.count(shapes_untyped_both_ways()) > counts[
            "shapes_untyped_both_ways"
        ]


DATASET_QUERIES = [
    pytest.param("ldbc", name, id=name) for name in ldbc.queries()
] + [pytest.param("dbpedia", name, id=name) for name in dbpedia.queries()]


@pytest.fixture(scope="module")
def dataset_executors(ldbc_small, dbpedia_small):
    graphs = {"ldbc": ldbc_small.graph, "dbpedia": dbpedia_small.graph}
    executors = {
        key: ProcessExecutor(graph, max_workers=1) for key, graph in graphs.items()
    }
    try:
        yield graphs, executors
    finally:
        for executor in executors.values():
            executor.close()


class TestProcessExecutorDatasets:
    """The paper queries and their empty variants, shipped as one batch
    per query: the worker's counts equal the in-process matcher's, in
    submission order."""

    @pytest.mark.parametrize("dataset, name", DATASET_QUERIES)
    def test_paper_query_batch(self, dataset_executors, dataset, name):
        graphs, executors = dataset_executors
        module = {"ldbc": ldbc, "dbpedia": dbpedia}[dataset]
        batch = [
            module.queries()[name],
            module.empty_variant(name),
            module.empty_variant_edge(name),
        ]
        matcher = PatternMatcher(graphs[dataset])
        for limit in (None, 3):
            expected = [matcher.count(q, limit=limit) for q in batch]
            assert executors[dataset].run_queries(batch, limit=limit) == expected
        assert expected[1:] == [0, 0]  # the variants are empty ...
        # ... and the batch still reached a worker, not a local fallback
        assert executors[dataset].info()["pools"]["pool_live"]
