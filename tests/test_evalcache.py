"""Tests for the typed-adjacency storage and the shared evaluation caches:
zero-copy accessors, per-type counts, plan memoisation, candidate-set
memoisation, version-based invalidation, and the newly exercised matcher
corners (homomorphic matching, self-loops under BOTH, typed expansion)."""

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    equals,
    one_of,
)
from repro.matching import (
    EvaluationCache,
    PatternMatcher,
    plan_cache_stats,
    shared_evaluation_cache,
)
from repro.rewrite import GraphStatistics, QueryResultCache


class TestTypedAdjacency:
    def test_typed_lists_partition_untyped(self, tiny_graph):
        for vid in tiny_graph.vertices():
            typed_out = [
                eid
                for t in tiny_graph.edge_types()
                for eid in tiny_graph.out_edges_of_type(vid, t)
            ]
            assert sorted(typed_out) == sorted(tiny_graph.out_edges(vid))
            typed_in = [
                eid
                for t in tiny_graph.edge_types()
                for eid in tiny_graph.in_edges_of_type(vid, t)
            ]
            assert sorted(typed_in) == sorted(tiny_graph.in_edges(vid))

    def test_typed_adjacency_maintained_on_add_edge(self, tiny_graph):
        new = tiny_graph.add_edge(0, 3, "knows")
        assert new in tiny_graph.out_edges_of_type(0, "knows")
        assert new in tiny_graph.in_edges_of_type(3, "knows")
        assert tiny_graph.out_degree_of_type(0, "knows") == 2

    def test_per_type_counts_are_consistent(self, tiny_graph):
        for t, count in tiny_graph.edge_type_counts().items():
            assert tiny_graph.num_edges_of_type(t) == count
        assert tiny_graph.num_edges_of_type("no-such-type") == 0
        assert tiny_graph.out_edges_of_type(0, "no-such-type") == ()

    def test_num_vertices_with_matches_index(self, tiny_graph):
        assert tiny_graph.num_vertices_with("type", "person") == 4
        assert tiny_graph.num_vertices_with("type", "robot") == 0

    def test_zero_copy_views_are_live(self, tiny_graph):
        out = tiny_graph.out_edges(0)
        persons = tiny_graph.vertices_with("type", "person")
        before_out, before_persons = len(out), len(persons)
        tiny_graph.add_edge(0, 8, "livesIn")
        tiny_graph.add_vertex(type="person", name="Eve")
        assert len(out) == before_out + 1
        assert len(persons) == before_persons + 1

    def test_version_counter_bumps_on_mutation(self, tiny_graph):
        v0 = tiny_graph.version
        tiny_graph.add_vertex(type="person")
        assert tiny_graph.version == v0 + 1
        tiny_graph.add_edge(0, 1, "knows")
        assert tiny_graph.version == v0 + 2


class TestTypedExpansion:
    def test_typed_and_untyped_matchers_agree(self, tiny_graph):
        """The untyped walk is gone; the kernels and the interpreter -- the
        one semantics pair left -- agree on a multi-type BOTH expansion."""
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt", "studyAt"}, directions=BOTH_DIRECTIONS)
        compiled = PatternMatcher(tiny_graph)
        interpreter = PatternMatcher(tiny_graph, compiled=False)
        assert compiled.count(q) == interpreter.count(q) == 4
        with pytest.raises(TypeError):
            PatternMatcher(tiny_graph, typed_adjacency=False)

    def test_typed_expansion_visits_strictly_fewer_edges(self, tiny_graph):
        # tud(4) has 3 incoming edges but only 1 of type studyAt; the
        # typed walk must not even *visit* the workAt edges
        q = GraphQuery()
        u = q.add_vertex(predicates={"type": equals("university")})
        s = q.add_vertex()
        q.add_edge(s, u, types={"studyAt"})
        compiled = PatternMatcher(tiny_graph)
        interpreter = PatternMatcher(tiny_graph, compiled=False)
        assert compiled.count(q) == interpreter.count(q) == 1
        # two university seeds + tud's one studyAt edge; scanning all
        # incident edges would take 6 (tud's two workAt edges, su's one)
        assert compiled.steps == interpreter.steps == 3

    def test_self_loop_under_both_directions_yields_once(self):
        g = PropertyGraph()
        a = g.add_vertex(type="page", name="a")
        b = g.add_vertex(type="page", name="b")
        g.add_edge(a, a, "linksTo")  # self-loop
        g.add_edge(a, b, "linksTo")
        q = GraphQuery()
        v = q.add_vertex(predicates={"name": equals("a")})
        w = q.add_vertex()
        q.add_edge(v, w, types={"linksTo"}, directions=BOTH_DIRECTIONS)
        matcher = PatternMatcher(g, injective=False)
        matches = matcher.match(q)
        # homomorphic semantics: the self-loop binds w to a exactly once
        # (not twice via out + in), plus the a->b edge
        bound = sorted(m.data_vertex(w) for m in matches)
        assert bound == [a, b]

    def test_self_loop_single_direction_matches(self):
        g = PropertyGraph()
        a = g.add_vertex(type="page")
        g.add_edge(a, a, "linksTo")
        q = GraphQuery()
        v = q.add_vertex()
        w = q.add_vertex()
        q.add_edge(v, w, types={"linksTo"})
        assert PatternMatcher(g, injective=False).count(q) == 1
        # injective matching cannot bind v and w to the same data vertex
        assert PatternMatcher(g).count(q) == 0

    def test_homomorphism_reuses_data_vertices(self, tiny_graph):
        # triangle-free pattern: p1 -knows-> p2 -knows-> p3 where p1 and
        # p3 may be the same person only under homomorphism semantics
        g = PropertyGraph()
        x = g.add_vertex(type="person")
        y = g.add_vertex(type="person")
        g.add_edge(x, y, "knows")
        g.add_edge(y, x, "knows")
        q = GraphQuery()
        p1 = q.add_vertex(predicates={"type": equals("person")})
        p2 = q.add_vertex(predicates={"type": equals("person")})
        p3 = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(p1, p2, types={"knows"})
        q.add_edge(p2, p3, types={"knows"})
        assert PatternMatcher(g).count(q) == 0  # injective: needs 3 people
        assert PatternMatcher(g, injective=False).count(q) == 2  # x-y-x, y-x-y


class TestPlanCache:
    def test_same_variant_twice_hits_plan_cache(self, tiny_graph, person_works_at_university):
        matcher = PatternMatcher(tiny_graph)
        stats = plan_cache_stats(tiny_graph)
        before_hits, before_misses = stats.hits, stats.misses
        matcher.count(person_works_at_university)
        matcher.count(person_works_at_university)
        assert stats.misses == before_misses + 1
        assert stats.hits == before_hits + 1

    def test_plan_cache_shared_across_matchers(self, tiny_graph, person_works_at_university):
        m1 = PatternMatcher(tiny_graph)
        m2 = PatternMatcher(tiny_graph)
        stats = plan_cache_stats(tiny_graph)
        before_hits = stats.hits
        m1.count(person_works_at_university)
        m2.count(person_works_at_university)
        assert stats.hits == before_hits + 1

    def test_edge_order_is_part_of_the_key(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        c = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(p, u, types={"workAt"})
        q.add_edge(u, c, types={"locatedIn"})
        matcher = PatternMatcher(tiny_graph)
        assert matcher.count(q) == matcher.count(q, edge_order=[1, 0])
        stats = plan_cache_stats(tiny_graph)
        matcher.count(q, edge_order=[1, 0])
        assert stats.hits >= 1  # second [1, 0] evaluation reuses its plan

    def test_mutation_invalidates_plan_cache(self, tiny_graph, person_works_at_university):
        matcher = PatternMatcher(tiny_graph)
        matcher.count(person_works_at_university)
        assert plan_cache_stats(tiny_graph).size > 0
        tiny_graph.add_vertex(type="person")
        matcher.count(person_works_at_university)
        # rebuilt after invalidation: exactly the one fresh entry
        assert plan_cache_stats(tiny_graph).size == 1


class TestEvaluationCache:
    def test_candidates_cached_by_predicate_signature(self, tiny_graph):
        cache = EvaluationCache(tiny_graph)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("person")})
        first = cache.vertex_candidates(q.vertex(a))
        second = cache.vertex_candidates(q.vertex(b))  # same predicates, other vid
        assert first == {0, 1, 2, 3}
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_unconstrained_vertex_cached_as_none(self, tiny_graph):
        cache = EvaluationCache(tiny_graph)
        q = GraphQuery()
        v = q.add_vertex()
        assert cache.vertex_candidates(q.vertex(v)) is None
        assert cache.vertex_candidates(q.vertex(v)) is None
        assert cache.stats.hits == 1

    def test_shared_cache_is_per_graph(self, tiny_graph):
        other = PropertyGraph()
        other.add_vertex(type="person")
        assert shared_evaluation_cache(tiny_graph) is shared_evaluation_cache(tiny_graph)
        assert shared_evaluation_cache(tiny_graph) is not shared_evaluation_cache(other)

    def test_matcher_and_statistics_share_hits(self, tiny_graph, person_works_at_university):
        matcher = PatternMatcher(tiny_graph)
        stats_provider = GraphStatistics(tiny_graph)
        assert stats_provider.evalcache is matcher.evalcache
        shared = matcher.evalcache.stats
        before = shared.requests
        matcher.count(person_works_at_university)
        # the matcher seeded the selective university vertex; the
        # statistics read of the same predicate signature must reuse it
        stats_provider.vertex_cardinality(person_works_at_university.vertex(1))
        assert shared.requests > before
        assert shared.hits >= 1

    def test_mutation_invalidates_candidates(self, tiny_graph):
        cache = EvaluationCache(tiny_graph)
        q = GraphQuery()
        v = q.add_vertex(predicates={"type": equals("person")})
        assert len(cache.vertex_candidates(q.vertex(v))) == 4
        tiny_graph.add_vertex(type="person", name="Eve")
        assert len(cache.vertex_candidates(q.vertex(v))) == 5

    def test_multi_value_predicate_candidates(self, tiny_graph):
        # exercises the freeze-once union accumulation
        cache = EvaluationCache(tiny_graph)
        q = GraphQuery()
        v = q.add_vertex(predicates={"type": one_of("person", "city", "ghost")})
        assert cache.vertex_candidates(q.vertex(v)) == {0, 1, 2, 3, 6, 7}


class TestEndToEndSharing:
    def test_result_cache_exposes_evalcache(self, tiny_graph):
        matcher = PatternMatcher(tiny_graph)
        cache = QueryResultCache(matcher)
        assert cache.evalcache is matcher.evalcache

    def test_cache_info_reports_all_layers(self, tiny_graph, person_works_at_university):
        matcher = PatternMatcher(tiny_graph)
        matcher.count(person_works_at_university)
        matcher.count(person_works_at_university)
        info = matcher.cache_info()
        assert info["caches"]["plan"]["hits"] >= 1
        if matcher.compiled:
            # candidate sets are interned into program bitsets once; the
            # repeat evaluation is served by the program cache instead
            assert info["programs"]["hits"] >= 1
        else:
            assert info["caches"]["vertex_candidates"]["hits"] >= 1
        assert 0.0 <= info["caches"]["plan"]["hit_rate"] <= 1.0
