"""Integration tests for the holistic why-query engine (Sec. 3.1.3)."""

import pytest

from repro.core import GraphQuery, equals
from repro.exec import ExecutionContext
from repro.metrics.cardinality import CardinalityProblem, CardinalityThreshold
from repro.rewrite.coarse import CoarseRewriteResult
from repro.finegrained.traverse_search_tree import FineRewriteResult
from repro.server.protocol import report_to_dict, strip_volatile
from repro.why import WhyQueryEngine


def poisoned_query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    c = q.add_vertex(predicates={"type": equals("city"), "name": equals("Nowhere")})
    q.add_edge(p, u, types={"workAt"})
    q.add_edge(u, c, types={"locatedIn"})
    return q


def person_pattern() -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates={"type": equals("person")})
    return q


class TestDispatch:
    def test_empty_dispatches_to_discover_and_coarse(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        report = engine.debug(poisoned_query())
        assert report.problem == CardinalityProblem.EMPTY
        assert report.subgraph_explanation is not None
        assert isinstance(report.rewriting, CoarseRewriteResult)
        assert report.rewriting.best is not None

    def test_too_few_dispatches_to_bounded_and_fine(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        report = engine.debug(person_pattern(), CardinalityThreshold.at_least(6))
        assert report.problem == CardinalityProblem.TOO_FEW
        assert isinstance(report.rewriting, FineRewriteResult)

    def test_too_many_dispatches_to_bounded_and_fine(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        report = engine.debug(person_pattern(), CardinalityThreshold.at_most(2))
        assert report.problem == CardinalityProblem.TOO_MANY
        assert isinstance(report.rewriting, FineRewriteResult)
        assert report.rewriting.best_cardinality <= 2

    def test_expected_result_debugs_nothing(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        report = engine.debug(person_pattern(), CardinalityThreshold(lower=1, upper=10))
        assert report.problem == CardinalityProblem.EXPECTED
        assert report.subgraph_explanation is None
        assert report.rewriting is None

    def test_classify_only(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        assert engine.classify(poisoned_query()) == CardinalityProblem.EMPTY
        assert (
            engine.classify(person_pattern(), CardinalityThreshold.at_most(2))
            == CardinalityProblem.TOO_MANY
        )

    def test_explain_and_rewrite_flags(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        report = engine.debug(poisoned_query(), explain=False, rewrite=False)
        assert report.subgraph_explanation is None
        assert report.rewriting is None

    def test_observed_cardinality_reported(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        report = engine.debug(person_pattern(), CardinalityThreshold.at_most(2))
        assert report.observed_cardinality == 4


class TestSummaries:
    def test_empty_summary_sections(self, tiny_graph):
        report = WhyQueryEngine(tiny_graph).debug(poisoned_query())
        text = report.summary()
        assert "why-empty" in text
        assert "subgraph-based explanation" in text
        assert "modification-based explanations" in text

    def test_expected_summary(self, tiny_graph):
        report = WhyQueryEngine(tiny_graph).debug(
            person_pattern(), CardinalityThreshold(lower=1, upper=10)
        )
        assert "nothing to debug" in report.summary()

    def test_fine_summary_mentions_convergence(self, tiny_graph):
        report = WhyQueryEngine(tiny_graph).debug(
            person_pattern(), CardinalityThreshold.at_most(2)
        )
        assert "modification-based explanation" in report.summary()


class TestSharedInfrastructure:
    def test_cache_shared_between_stages(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        engine.debug(poisoned_query())
        assert engine.cache.stats.requests > 0

    def test_repeated_debug_uses_cache(self, tiny_graph):
        engine = WhyQueryEngine(tiny_graph)
        engine.debug(poisoned_query())
        hits = engine.cache.stats.hits
        engine.debug(poisoned_query())
        assert engine.cache.stats.hits > hits

    @pytest.mark.parametrize(
        "query, threshold",
        [(poisoned_query(), None), (person_pattern(), CardinalityThreshold.at_most(2))],
        ids=["why_empty", "why_so_many"],
    )
    def test_repeat_debug_makes_no_matcher_call(self, tiny_graph, query, threshold):
        """Every count of an explain -- classification, the subgraph
        lattice and the rewriting search -- goes through the context's
        result cache, so a warm repeat counts nothing."""
        context = ExecutionContext(tiny_graph)
        engine = WhyQueryEngine(context=context)
        first = engine.debug(query, threshold)
        assert first.subgraph_explanation is not None
        calls = context.matcher.calls
        assert calls > 0
        repeat = engine.debug(query, threshold)
        assert context.matcher.calls == calls
        assert strip_volatile(report_to_dict(repeat)) == strip_volatile(
            report_to_dict(first)
        )

    def test_end_to_end_on_ldbc(self, ldbc_small):
        from repro.datasets import ldbc

        engine = WhyQueryEngine(ldbc_small.graph, max_rewrite_evaluations=100)
        failed = ldbc.empty_variant("LDBC QUERY 1")
        from repro.matching import PatternMatcher

        if PatternMatcher(ldbc_small.graph).count(failed, limit=1) > 0:
            pytest.skip("variant not empty on the scaled-down graph")
        report = engine.debug(failed)
        assert report.problem == CardinalityProblem.EMPTY
        assert report.rewriting.best is not None
