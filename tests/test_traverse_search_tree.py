"""Tests for TRAVERSESEARCHTREE (Sec. 6.2) on hand-checkable scenarios."""

from repro.core import GraphQuery, between, equals
from repro.finegrained import TraverseSearchTree
from repro.matching import PatternMatcher
from repro.metrics.cardinality import CardinalityThreshold
from repro.rewrite.operations import RelaxDirection


def work_query() -> GraphQuery:
    """person -workAt(sinceYear=2003)-> university: 1 match on tiny graph
    (anna@tud; dave works at su which is also a university -> 2)."""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": between(2003, 2003)})
    return q


class TestWhySoFew:
    def test_relaxes_to_reach_lower_bound(self, tiny_graph):
        # 2 matches initially; demand >= 3 requires widening sinceYear
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(3), max_evaluations=100
        )
        result = engine.search(work_query())
        assert result.converged
        assert result.best_cardinality >= 3
        matcher = PatternMatcher(tiny_graph)
        assert matcher.count(result.best_query) == result.best_cardinality

    def test_modifications_are_fine_grained(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(3), max_evaluations=100
        )
        result = engine.search(work_query())
        names = {type(op).__name__ for op in result.modifications}
        assert names <= {"WidenInterval", "AddPredicateValue", "RelaxDirection"}

    def test_trace_starts_at_original(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(3), max_evaluations=100
        )
        result = engine.search(work_query())
        assert result.cardinality_trace[0] == 2

    def test_syntactic_distance_small(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(3), max_evaluations=100
        )
        result = engine.search(work_query())
        assert result.best_syntactic < 0.2


class TestWhySoMany:
    def test_concretises_to_reach_upper_bound(self, tiny_graph):
        # person alone: 4 matches; demand <= 2
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        engine = TraverseSearchTree(
            tiny_graph,
            CardinalityThreshold.at_most(2),
            constrainable_attrs=["gender", "name"],
            max_evaluations=100,
        )
        result = engine.search(q)
        assert result.converged
        assert 0 < result.best_cardinality <= 2

    def test_value_retraction_used(self, tiny_graph):
        from repro.core import one_of

        q = GraphQuery()
        q.add_vertex(
            predicates={"type": equals("person"), "name": one_of("Anna", "Bob", "Carol")}
        )
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_most(2), max_evaluations=50
        )
        result = engine.search(q)
        assert result.converged
        assert result.best_cardinality <= 2


class TestAlreadySatisfied:
    def test_no_modification_needed(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold(lower=1, upper=5), max_evaluations=10
        )
        result = engine.search(work_query())
        assert result.converged
        assert result.modifications == ()
        assert result.evaluated == 0


class TestBudget:
    def test_budget_respected(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(10**6), max_evaluations=7
        )
        result = engine.search(work_query())
        assert result.evaluated <= 7
        assert not result.converged
        assert result.budget_exhausted

    def test_best_so_far_returned_on_budget(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(10**6), max_evaluations=7
        )
        result = engine.search(work_query())
        # the best variant must never be worse than the original
        assert result.best_distance <= 10**6 - 2


class TestTreeAdaptation:
    def test_non_contributing_counted(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(4), max_evaluations=150
        )
        result = engine.search(work_query())
        # widenings into value-free year bands contribute nothing
        assert result.non_contributing > 0

    def test_tree_smaller_than_generated(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(4), max_evaluations=150
        )
        result = engine.search(work_query())
        assert result.tree_size <= result.generated + 1

    def test_prefix_cache_shared(self, tiny_graph):
        from repro.exec import ExecutionContext

        context = ExecutionContext(tiny_graph)
        cache = context.cache
        engine = TraverseSearchTree(
            context=context,
            threshold=CardinalityThreshold.at_least(3),
            max_evaluations=100,
        )
        assert engine.cache is cache
        engine.search(work_query())
        first_misses = cache.stats.misses
        engine.search(work_query())
        # the second search replays entirely from the cache until it
        # reaches unexplored variants
        assert cache.stats.misses <= first_misses * 2
        assert cache.stats.hits > 0


class TestDescribe:
    def test_describe_mentions_steps(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold.at_least(3), max_evaluations=100
        )
        result = engine.search(work_query())
        assert "widen" in result.describe() or "admit" in result.describe()

    def test_describe_unchanged(self, tiny_graph):
        engine = TraverseSearchTree(
            tiny_graph, CardinalityThreshold(lower=1, upper=5)
        )
        result = engine.search(work_query())
        assert "<unchanged>" in result.describe()


# -- golden trajectory -----------------------------------------------------------
#
# Captured on the commit before variants became frozen, structurally shared
# values scored from their parent's tables: every evaluated variant of the
# why-so-few search for DBPEDIA QUERY 2 (count 6, threshold [12; 24]) in
# evaluation order as (modifications, cardinality, syntactic).

_W4, _W1 = "widen year by 4.0 on vertex 0", "widen year by 1.0 on vertex 0"
_SINGLE_STEPS = (
    ("admit type='person' on vertex 0", 0.03125, 0.04407051282051282),
    ("admit type='city' on vertex 0", 0.03125, 0.04407051282051282),
    ("admit type='organisation' on vertex 0", 0.03125, 0.04407051282051282),
    ("relax direction of edge 0 to both", 0.03125, 0.04407051282051282),
    ("relax direction of edge 1 to both", 0.03125, 0.04407051282051282),
    ("admit type='organisation' on vertex 1", 0.041666666666666664, 0.05448717948717949),
    ("admit type='city' on vertex 1", 0.041666666666666664, 0.05448717948717949),
    ("admit type='film' on vertex 1", 0.041666666666666664, 0.05448717948717949),
)
GOLDEN_DBPEDIA_QUERY_2_TOO_FEW = (
    [((_W4,), 10, 0.01282051282051282), ((_W1,), 6, 0.003787878787878788)]
    + [((step,), 6, alone) for step, alone, _ in _SINGLE_STEPS]
    + [((_W4, _W4), 10, 0.02127659574468085), ((_W4, _W1), 10, 0.01524390243902439)]
    + [((_W4, step), 10, after) for step, _, after in _SINGLE_STEPS]
)


class TestGoldenTrajectory:
    def test_dbpedia_request(self, dbpedia_small, monkeypatch):
        import repro.finegrained.traverse_search_tree as module
        from repro.datasets import dbpedia
        from repro.exec import ExecutionContext

        evaluated = []

        class RecordingTree(module.ModificationTree):
            def add_child(self, parent, query, modification, cardinality, distance, syntactic):
                path = [op.describe() for op in self.modifications_to(parent)]
                evaluated.append((tuple(path + [modification.describe()]), cardinality, syntactic))
                return super().add_child(
                    parent, query, modification, cardinality, distance, syntactic
                )

        monkeypatch.setattr(module, "ModificationTree", RecordingTree)
        query = dbpedia.queries()["DBPEDIA QUERY 2"]
        context = ExecutionContext(dbpedia_small.graph)
        assert context.count(query) == 6
        result = TraverseSearchTree(
            context=context,
            threshold=CardinalityThreshold(12, 24),
            constrainable_attrs=context.attribute_domain().common_vertex_attrs(),
        ).search(query)
        assert evaluated == GOLDEN_DBPEDIA_QUERY_2_TOO_FEW
        assert result.evaluated == 20 and not result.converged
        assert tuple(op.describe() for op in result.modifications) == (_W4,)
        assert (result.best_cardinality, result.best_syntactic) == (10, 0.01282051282051282)


class TestChangePropagation:
    """Children edited at one vertex are counted from their exactly
    counted parent (Sec. 6.3): the search reports how many on its
    ``rewrite`` span, the matcher in its counters, and each derived
    count is the one the matcher would have returned."""

    def traced_search(self, graph, query, threshold, **kwargs):
        from repro.exec import ExecutionContext
        from repro.obs import SPAN_REWRITE, Tracer

        context = ExecutionContext(graph)
        tracer = Tracer()
        with tracer.activate():
            result = TraverseSearchTree(
                context=context, threshold=threshold, max_evaluations=100, **kwargs
            ).search(query)
        (span,) = [s for root in tracer.roots for s in root.walk() if s.kind == SPAN_REWRITE]
        return context, result, span

    def test_restrictions_filter_the_parents_matches(self, tiny_graph):
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex()
        q.add_edge(a, u)
        context, result, span = self.traced_search(
            tiny_graph, q, CardinalityThreshold.at_most(2), constrainable_attrs=["gender", "name"]
        )
        assert result.converged and result.derived_filtered > 0
        assert span.attributes["derived_filtered"] == result.derived_filtered
        assert span.attributes["derived_seeded"] == result.derived_seeded
        matcher = context.cache_report()["matcher"]
        assert matcher["derived_filtered"] == result.derived_filtered
        assert PatternMatcher(tiny_graph).count(result.best_query) == result.best_cardinality

    def test_relaxations_count_the_admitted_vertices(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"name": equals("Anna")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt", "studyAt"})
        context, result, span = self.traced_search(
            tiny_graph, q, CardinalityThreshold.at_least(3)
        )
        assert result.converged and result.derived_seeded > 0
        assert span.attributes["derived_seeded"] == result.derived_seeded
        assert context.cache_report()["matcher"]["derived_seeded"] >= result.derived_seeded
        assert PatternMatcher(tiny_graph).count(result.best_query) == result.best_cardinality

    def test_edge_edits_that_gain_no_pair_keep_the_parents_count(self, tiny_graph):
        """No university works at or studies at Anna: the edge's
        relaxed direction gains no pair, so that child is the parent's
        count, on the span and in the matcher's counters alike."""
        q = GraphQuery()
        p = q.add_vertex(predicates={"name": equals("Anna")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt", "studyAt"})
        context, result, span = self.traced_search(
            tiny_graph, q, CardinalityThreshold.at_least(3)
        )
        assert result.derived_unchanged > 0
        assert span.attributes["derived_unchanged"] == result.derived_unchanged
        assert context.cache_report()["matcher"]["derived_unchanged"] == result.derived_unchanged
        relaxed = RelaxDirection(0).apply(q.as_frozen())
        assert PatternMatcher(tiny_graph).count(relaxed) == PatternMatcher(tiny_graph).count(q)
