"""Tests for the interactive debugging session (DebEAQ workflow)."""

import pytest

from repro.core import ExplanationError, GraphQuery, equals
from repro.metrics.cardinality import CardinalityProblem, CardinalityThreshold
from repro.why.session import DebugSession


def failing_query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": equals(1800)})
    return q


class TestSessionLifecycle:
    def test_problem_classification(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        assert session.problem == CardinalityProblem.EMPTY

    def test_propose_rate_accept(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        first = session.propose()
        assert first is not None and first.cardinality > 0
        session.rate(0.0)
        second = session.propose()
        assert second is not None
        assert second.query.signature() != first.query.signature()
        session.rate(1.0)
        accepted = session.accept()
        assert accepted is second
        assert session.accepted is second

    def test_rejection_redirects_targets(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        first = session.propose()
        session.rate(0.0)
        second = session.propose()
        first_targets = {op.target for op in first.modifications}
        second_targets = {op.target for op in second.modifications}
        assert not (first_targets & second_targets)

    def test_pending_must_be_rated_before_next(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        session.propose()
        with pytest.raises(ExplanationError):
            session.propose()

    def test_rate_without_pending_raises(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        with pytest.raises(ExplanationError):
            session.rate(0.5)

    def test_accept_without_proposal_raises(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        with pytest.raises(ExplanationError):
            session.accept()

    def test_no_proposals_after_accept(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        session.propose()
        session.accept()
        with pytest.raises(ExplanationError):
            session.propose()

    def test_accept_implies_top_rating(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        session.propose()
        session.accept()
        assert session.transcript[-1].rating == 1.0

    def test_expected_query_refuses_session(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        session = DebugSession(
            tiny_graph, q, threshold=CardinalityThreshold(lower=1, upper=10)
        )
        with pytest.raises(ExplanationError):
            session.propose()


class TestSessionExplanation:
    def test_explanation_available(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        explanation = session.explanation()
        assert explanation.differential.coverage < 1.0
        assert session.explanation() is explanation  # cached

    def test_preferences_learn_from_ratings(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        proposal = session.propose()
        session.rate(0.0)
        for op in proposal.modifications:
            assert session.preferences.relevance(op.target) > 0.5


class TestCardinalitySession:
    def test_too_few_session(self, tiny_graph):
        from repro.core import between

        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(
            p, u, types={"workAt"}, predicates={"sinceYear": between(2003, 2003)}
        )
        session = DebugSession(
            tiny_graph, q, threshold=CardinalityThreshold.at_least(3)
        )
        assert session.problem == CardinalityProblem.TOO_FEW
        proposal = session.propose()
        assert proposal is not None
        assert proposal.cardinality >= 3

    def test_summary_transcript(self, tiny_graph):
        session = DebugSession(tiny_graph, failing_query())
        session.propose()
        session.rate(0.0)
        session.propose()
        session.accept()
        text = session.summary()
        assert "round 1" in text and "round 2" in text
        assert "[accepted]" in text


def cardinality_requests():
    """The too-few / too-many half of the e2e request mix (its Ch. 6
    scenario rule, rebuilt here): ``(name, graph, query, threshold)``."""
    from repro.datasets import dbpedia, ldbc
    from repro.matching import PatternMatcher

    for module in (ldbc, dbpedia):
        graph = module.generate().graph
        matcher = PatternMatcher(graph)
        for name, query in module.queries().items():
            count = matcher.count(query)
            upper = int(0.3 * count)
            yield f"{name} too_few", graph, query, CardinalityThreshold(
                2 * count, 4 * count
            )
            yield f"{name} too_many", graph, query, CardinalityThreshold(
                max(1, upper // 2), upper
            )


class TestSessionRunsTheEnginesDispatch:
    """A session is a loop over the engine ``explain()`` runs.  When it
    configured the searches itself it forgot ``constrainable_attrs`` and
    explained with DISCOVERMCS: 3 of the 8 too-many first proposals
    missed the threshold that ``explain()`` reached."""

    @staticmethod
    def pairs():
        from repro.exec import ExecutionContext
        from repro.why import WhyQueryEngine

        for name, graph, query, threshold in cardinality_requests():
            engine = WhyQueryEngine(context=ExecutionContext(graph))
            session = DebugSession(
                query=query, context=ExecutionContext(graph), threshold=threshold
            )
            yield name, engine, session

    def test_first_proposal_is_explains_rewriting(self):
        checked = 0
        for name, engine, session in self.pairs():
            rewriting = engine.debug(
                session.query, session.threshold, explain=False
            ).rewriting
            proposal = session.propose()
            assert proposal.query.signature() == rewriting.best_query.signature(), name
            assert proposal.cardinality == rewriting.best_cardinality, name
            assert proposal.syntactic == rewriting.best_syntactic, name
            checked += 1
        assert checked == 16

    def test_explanation_is_explains_bounded_mcs(self):
        for name, engine, session in self.pairs():
            report = engine.debug(session.query, session.threshold, rewrite=False)
            assert (
                session.explanation().differential
                == report.subgraph_explanation.differential
            ), name
