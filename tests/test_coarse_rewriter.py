"""Tests for the coarse-grained why-empty rewriter (Chapter 5)."""

import pytest

from repro.core import GraphQuery, equals
from repro.datasets import ldbc
from repro.exec import ExecutionContext
from repro.matching import PatternMatcher
from repro.rewrite import CoarseRewriter, RewritePreferenceModel
from repro.rewrite.priority import (
    CandidateContext,
    PRIORITY_FUNCTIONS,
    get_priority_function,
)
from repro.rewrite.statistics import GraphStatistics


def failing_query() -> GraphQuery:
    """person -workAt-> university -locatedIn-> city(name=Nowhere)."""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    c = q.add_vertex(predicates={"type": equals("city"), "name": equals("Nowhere")})
    q.add_edge(p, u, types={"workAt"})
    q.add_edge(u, c, types={"locatedIn"})
    return q


class TestRewriting:
    def test_finds_nonempty_rewriting(self, tiny_graph):
        result = CoarseRewriter(tiny_graph).rewrite(failing_query())
        assert result.best is not None
        assert result.best.cardinality > 0

    def test_rewriting_actually_runs_nonempty(self, tiny_graph):
        result = CoarseRewriter(tiny_graph).rewrite(failing_query())
        matcher = PatternMatcher(tiny_graph)
        assert matcher.count(result.best.query) == result.best.cardinality

    def test_minimal_fix_found_with_syntactic_priority(self, tiny_graph):
        result = CoarseRewriter(tiny_graph, priority="syntactic").rewrite(
            failing_query()
        )
        ops = result.best.modifications
        assert len(ops) == 1
        assert ops[0].describe() == "drop predicate 'name' from vertex 2"

    def test_rejects_non_empty_input(self, tiny_graph):
        q = failing_query()
        q.vertex(2).predicates["name"] = equals("Dresden")
        with pytest.raises(ValueError):
            CoarseRewriter(tiny_graph).rewrite(q)

    def test_top_k_explanations_sorted_by_distance(self, tiny_graph):
        result = CoarseRewriter(tiny_graph, max_evaluations=200).rewrite(
            failing_query(), k=3
        )
        assert len(result.explanations) >= 2
        distances = [e.syntactic for e in result.explanations]
        assert distances == sorted(distances)

    def test_budget_respected(self, ldbc_small):
        failed = ldbc.empty_variant("LDBC QUERY 4")
        result = CoarseRewriter(
            ldbc_small.graph, priority="syntactic", max_evaluations=2
        ).rewrite(failed, k=50)
        assert result.evaluated <= 2

    def test_all_priorities_find_a_fix(self, tiny_graph):
        for priority in PRIORITY_FUNCTIONS:
            result = CoarseRewriter(tiny_graph, priority=priority).rewrite(
                failing_query()
            )
            assert result.best is not None, priority

    def test_convergence_trace_monotone(self, tiny_graph):
        result = CoarseRewriter(tiny_graph).rewrite(failing_query(), k=3)
        founds = [p.found for p in result.convergence]
        assert founds == sorted(founds)
        evals = [p.evaluations for p in result.convergence]
        assert evals == sorted(evals)

    def test_shared_cache_reused(self, tiny_graph):
        context = ExecutionContext(tiny_graph)
        cache = context.cache
        rewriter = CoarseRewriter(context=context)
        assert rewriter.cache is cache
        rewriter.rewrite(failing_query())
        hits_before = cache.stats.hits
        rewriter.rewrite(failing_query())
        assert cache.stats.hits > hits_before

    def test_unknown_priority_rejected(self, tiny_graph):
        with pytest.raises(KeyError):
            CoarseRewriter(tiny_graph, priority="nope")

    def test_max_depth_limits_modifications(self, tiny_graph):
        result = CoarseRewriter(
            tiny_graph, priority="syntactic", max_depth=1, max_evaluations=100
        ).rewrite(failing_query(), k=5)
        assert all(len(e.modifications) <= 1 for e in result.explanations)


class TestPriorityFunctions:
    def test_context_depth(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        q = failing_query()
        ctx = CandidateContext(q, q.copy(), (), None, stats)
        assert ctx.depth == 0

    def test_syntactic_priority_prefers_smaller_change(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        original = failing_query()
        small = original.copy()
        del small.vertex(2).predicates["name"]
        big = original.copy()
        big.remove_vertex(2)
        f = get_priority_function("syntactic")
        assert f(CandidateContext(original, small, (), None, stats)) > f(
            CandidateContext(original, big, (), None, stats)
        )

    def test_estimated_cardinality_priority_prefers_unblocked(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        original = failing_query()
        fixed = original.copy()
        del fixed.vertex(2).predicates["name"]
        f = get_priority_function("estimated_cardinality")
        assert f(CandidateContext(original, fixed, (), None, stats)) > f(
            CandidateContext(original, original.copy(), (), None, stats)
        )

    def test_induced_change_measures_gain(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        original = failing_query()
        fixed = original.copy()
        del fixed.vertex(2).predicates["name"]
        f = get_priority_function("induced_change")
        gained = f(CandidateContext(original, fixed, (), 0.0, stats))
        nothing = f(CandidateContext(original, original.copy(), (), 0.0, stats))
        assert gained > nothing


def edge_poisoned_query() -> GraphQuery:
    """person -workAt(sinceYear=1800)-> university: the poison sits on the
    edge, so fixes with disjoint targets exist (drop the predicate / the
    edge / an endpoint vertex)."""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": equals(1800)})
    return q


class TestPreferenceIntegration:
    def test_model_redirects_search(self, tiny_graph):
        """After the user rejects the edge-targeting fix, the rewriter must
        propose a fix avoiding that element."""
        model = RewritePreferenceModel(learning_rate=1.0, penalty_strength=1.0)
        rewriter = CoarseRewriter(
            tiny_graph, priority="syntactic", preference_model=model
        )
        first = rewriter.rewrite(edge_poisoned_query()).best
        assert first is not None
        first_targets = {op.target for op in first.modifications}
        model.rate_proposal(first.modifications, rating=0.0)
        second = CoarseRewriter(
            tiny_graph, priority="syntactic", preference_model=model
        ).rewrite(edge_poisoned_query()).best
        assert second is not None
        second_targets = {op.target for op in second.modifications}
        assert not (first_targets & second_targets)

    def test_positive_rating_keeps_proposal(self, tiny_graph):
        model = RewritePreferenceModel(learning_rate=1.0)
        rewriter = CoarseRewriter(
            tiny_graph, priority="syntactic", preference_model=model
        )
        first = rewriter.rewrite(edge_poisoned_query()).best
        model.rate_proposal(first.modifications, rating=1.0)
        second = CoarseRewriter(
            tiny_graph, priority="syntactic", preference_model=model
        ).rewrite(edge_poisoned_query()).best
        assert {op.target for op in second.modifications} == {
            op.target for op in first.modifications
        }


class TestOnDatasets:
    @pytest.mark.parametrize("name", list(ldbc.queries()))
    def test_rewrites_all_ldbc_empty_variants(self, ldbc_small, name):
        failed = ldbc.empty_variant(name)
        matcher = PatternMatcher(ldbc_small.graph)
        if matcher.count(failed, limit=1) > 0:
            pytest.skip("variant not empty on the scaled-down graph")
        result = CoarseRewriter(ldbc_small.graph, max_evaluations=200).rewrite(failed)
        assert result.best is not None
        assert result.best.cardinality > 0


# -- golden trajectories -------------------------------------------------------
#
# Captured on the commit before candidates became frozen, structurally
# shared values scored from their parent's tables: every evaluated
# candidate in evaluation order as (modifications, cardinality, syntactic).
# "Same search, less work" is asserted here, not only by the e2e oracle.

GOLDEN_LDBC_QUERY_1 = (
    [
        (("drop vertex 2 (with incident edges)",), 416, 0.4666666666666666),
        (("drop predicate 'name' from vertex 2",), 10, 0.04),
        (("relax direction of edge 1 to both",), 0, 0.02),
        (
            ("relax direction of edge 1 to both", "drop predicate 'name' from vertex 2"),
            10,
            0.06000000000000001,
        ),
    ],
    26,
)

GOLDEN_DBPEDIA_QUERY_1 = (
    [
        (("drop predicate 'population' from vertex 2",), 2, 0.05),
        (("drop predicate 'genre' from vertex 0",), 0, 0.05),
        (
            ("drop predicate 'genre' from vertex 0", "drop predicate 'population' from vertex 2"),
            105,
            0.1,
        ),
        (("drop predicate 'genre' from vertex 0", "drop type constraint of edge 0"), 0, 0.1),
        (
            (
                "drop predicate 'genre' from vertex 0",
                "drop type constraint of edge 0",
                "drop predicate 'population' from vertex 2",
            ),
            371,
            0.15,
        ),
    ],
    35,
)


def coarse_trajectory(graph, query):
    """``(evaluated candidates, generated)`` of the default (hybrid) search
    for three explanations; a candidate's modifications are read off the
    context its priority was computed from."""
    from repro.metrics.syntactic import syntactic_distance
    from repro.rewrite.priority import hybrid_priority

    modifications = {}

    def priority(ctx):
        modifications[ctx.query] = tuple(op.describe() for op in ctx.modifications)
        return hybrid_priority(ctx)

    evaluated = []

    def on_candidate(item):
        evaluated.append(
            (modifications[item.query], item.cardinality, syntactic_distance(query, item.query))
        )

    result = CoarseRewriter(graph, priority=priority, on_candidate=on_candidate).rewrite(
        query, k=3
    )
    found = [e for e in evaluated if e[1] > 0]
    assert [
        (tuple(op.describe() for op in r.modifications), r.cardinality, r.syntactic)
        for r in result.discovered
    ] == found
    return evaluated, result.generated


class TestGoldenTrajectory:
    def test_ldbc_request(self, ldbc_small):
        trajectory = coarse_trajectory(ldbc_small.graph, ldbc.empty_variant("LDBC QUERY 1"))
        assert trajectory == GOLDEN_LDBC_QUERY_1

    def test_dbpedia_request(self, dbpedia_small):
        from repro.datasets import dbpedia

        trajectory = coarse_trajectory(
            dbpedia_small.graph, dbpedia.empty_variant("DBPEDIA QUERY 1")
        )
        assert trajectory == GOLDEN_DBPEDIA_QUERY_1
