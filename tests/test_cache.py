"""Tests for the query-result cache (App. B.2 resource accounting)."""

import pytest

from repro.core import GraphQuery, equals
from repro.matching import PatternMatcher
from repro.rewrite.cache import QueryResultCache


def person_query() -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates={"type": equals("person")})
    return q


class TestCaching:
    def test_second_call_hits(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        q = person_query()
        assert cache.count(q) == 4
        assert cache.count(q) == 4
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_equal_queries_share_entries(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        cache.count(person_query())
        cache.count(person_query())
        assert len(cache) == 1

    def test_different_queries_dont_collide(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        cache.count(person_query())
        q2 = GraphQuery()
        q2.add_vertex(predicates={"type": equals("city")})
        assert cache.count(q2) == 2
        assert len(cache) == 2

    def test_unbounded_entry_serves_bounded_request(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        q = person_query()
        assert cache.count(q) == 4  # unbounded
        assert cache.count(q, limit=2) == 2  # clamped from cache
        assert cache.stats.hits == 1

    def test_bounded_entry_does_not_serve_larger_request(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        q = person_query()
        assert cache.count(q, limit=2) == 2
        assert cache.count(q, limit=4) == 4  # must re-execute
        assert cache.stats.misses == 2

    def test_exact_bounded_count_is_reusable(self, tiny_graph):
        # count < limit means the count is exact: reusable for any limit
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        q = person_query()
        assert cache.count(q, limit=100) == 4
        assert cache.count(q) == 4
        assert cache.stats.hits == 1

    def test_hit_rate(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        q = person_query()
        cache.count(q)
        cache.count(q)
        cache.count(q)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        assert cache.stats.hit_rate == 0.0

    def test_saves_matcher_calls(self, tiny_graph):
        matcher = PatternMatcher(tiny_graph)
        cache = QueryResultCache(matcher)
        q = person_query()
        for _ in range(5):
            cache.count(q)
        assert matcher.calls == 1


def typed_vertex_query(vertex_type: str) -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates={"type": equals(vertex_type)})
    return q


class TestLruEviction:
    def test_hit_promotes_entry(self, tiny_graph):
        """Regression: eviction used to be oldest-insertion, so a warm
        service context would drop its hottest query just because it was
        cached first.  Hits must promote, making eviction LRU."""
        cache = QueryResultCache(PatternMatcher(tiny_graph), max_entries=2)
        person, city, university = (
            typed_vertex_query("person"),
            typed_vertex_query("city"),
            typed_vertex_query("university"),
        )
        cache.count(person)  # miss
        cache.count(city)  # miss
        cache.count(person)  # hit -> person is now most-recently-used
        cache.count(university)  # miss -> evicts city, NOT person
        assert cache.count(person) == 4  # still cached: a hit
        assert cache.stats.hits == 2
        assert cache.stats.misses == 3
        cache.count(city)  # evicted earlier: a miss again
        assert cache.stats.misses == 4
        assert len(cache) == 2

    def test_recomputed_entry_is_promoted(self, tiny_graph):
        """A bounded entry re-executed with a larger limit is as freshly
        used as a new insertion: it must move to the back of the line."""
        cache = QueryResultCache(PatternMatcher(tiny_graph), max_entries=2)
        person, city = typed_vertex_query("person"), typed_vertex_query("city")
        cache.count(person, limit=1)  # miss, bounded entry
        cache.count(city)  # miss
        cache.count(person, limit=3)  # miss (limit too small) -> recompute
        cache.count(typed_vertex_query("university"))  # miss -> evicts city
        assert cache.count(person, limit=2) == 2  # hit against the (3,3) entry
        assert cache.stats.hits == 1
        assert len(cache) == 2

    def test_unbounded_cache_unaffected(self, tiny_graph):
        cache = QueryResultCache(PatternMatcher(tiny_graph))
        q = person_query()
        for _ in range(3):
            cache.count(q)
        assert len(cache) == 1
        assert cache.stats.hits == 2
