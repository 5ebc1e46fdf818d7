"""The unified stats schema (ISSUE 8 satellite).

All three metrics surfaces -- ``PatternMatcher.cache_info()``,
``ProcessExecutor.info()`` and ``WhyQueryService.stats()`` -- must emit
the :mod:`repro.stats` schema (``schema`` marker plus the seven typed
sections) as a plain ``dict`` -- the pre-unification flat keys and their
one-release deprecation shim are gone -- and the whole report must
survive the JSON round-trip the protocol ``stats`` message performs.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core.graph import PropertyGraph
from repro.core.predicates import equals
from repro.core.query import GraphQuery
from repro.matching import PatternMatcher
from repro.service import WhyQueryService
from repro.stats import SECTIONS, STATS_SCHEMA, unified_stats


def tiny_graph() -> PropertyGraph:
    g = PropertyGraph()
    a = g.add_vertex(type="person", name="a")
    b = g.add_vertex(type="person", name="b")
    u = g.add_vertex(type="university", name="u")
    g.add_edge(a, u, "workAt")
    g.add_edge(b, u, "studyAt")
    return g


def typed_query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"})
    return q


def assert_unified(report) -> None:
    assert report["schema"] == STATS_SCHEMA
    for section in SECTIONS:
        assert section in report, section


class TestStatsReport:
    def test_sections_always_present(self):
        report = unified_stats()
        assert_unified(report)
        assert report["caches"] == {}
        assert report["csr"]["builds"] == 0
        assert report["programs"]["compiled"] == 0
        assert report["deltas"]["applied"] == 0

    def test_unknown_key_still_raises(self):
        report = unified_stats()
        assert type(report) is dict  # no shim subclass, no __missing__
        with pytest.raises(KeyError):
            report["never_existed"]
        with pytest.raises(TypeError):
            unified_stats(legacy={"old_key": 42})

    def test_iteration_and_json_see_only_unified_keys(self):
        report = unified_stats(extra={"service": {"requests": 3}})
        assert set(report) == {"schema", *SECTIONS, "service"}
        round_tripped = json.loads(json.dumps(report))
        assert round_tripped == report
        assert_unified(round_tripped)


class TestMatcherSurface:
    def test_cache_info_is_unified(self):
        matcher = PatternMatcher(tiny_graph(), compiled=True)
        assert matcher.count(typed_query()) == 1
        assert matcher.count(typed_query()) == 1
        info = matcher.cache_info()
        assert_unified(info)
        assert info["caches"] == {}
        # kernels are process-wide: the first count generated one or bound
        # to one an earlier graph generated; the second certainly bound
        assert info["programs"]["compiled"] + info["programs"]["hits"] == 2
        assert info["programs"]["hits"] >= 1
        assert info["programs"]["fallbacks"] == 0
        assert info["csr"]["builds"] >= 1
        assert info["matcher"]["calls"] == 2

    def test_cache_info_flat_keys_are_gone(self):
        matcher = PatternMatcher(tiny_graph(), compiled=True)
        matcher.count(typed_query())
        info = matcher.cache_info()
        assert type(info) is dict and type(info["programs"]) is dict
        with pytest.raises(KeyError):
            info["vertex_candidates"]
        with pytest.raises(KeyError):
            info["programs"]["programs_compiled"]


class TestServiceSurface:
    def test_stats_is_unified_and_json_serialisable(self):
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, typed_query(), explain=False, rewrite=False)
            stats = service.stats()
            assert_unified(stats)
            assert stats["service"]["explain_calls"] == 1
            assert stats["service"]["contexts_live"] == 1
            assert set(stats["deltas"]) == {"applied"}
            payload = json.loads(json.dumps(stats))
            assert_unified(payload)

    def test_matcher_section_sums_every_matcher_counter(self):
        """``stats()["matcher"]`` is the per-context ``cache_report()
        ["matcher"]`` summed key by key: calls, steps, counts decided
        empty and counts derived from a parent (all three rules)."""
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, typed_query(), explain=False, rewrite=False)
            matcher = service.stats()["matcher"]
            assert set(matcher) == {
                "calls", "steps", "decided_empty",
                "derived_filtered", "derived_seeded", "derived_unchanged",
            }
            assert matcher == service.context_for(g).cache_report()["matcher"]

    def test_stats_flat_keys_are_gone(self):
        with WhyQueryService() as service:
            service.explain(tiny_graph(), typed_query(), explain=False, rewrite=False)
            stats = service.stats()
            assert type(stats) is dict
            for key in ("totals", "process_pools", "explain_calls"):
                with pytest.raises(KeyError):
                    stats[key]

    def test_unified_consumers_do_not_warn(self):
        """Reading only unified keys must be warning-free (the migrated
        examples and benchmarks rely on this)."""
        with WhyQueryService() as service:
            service.explain(tiny_graph(), typed_query(), explain=False, rewrite=False)
            stats = service.stats()
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                stats["service"]["requests"]
                stats["caches"]["results"]
                stats["pools"]
                stats["admission"]
                dict(stats)


class TestExecutorSurface:
    def test_info_is_unified(self):
        from repro.shard import ProcessExecutor

        executor = ProcessExecutor(tiny_graph(), max_workers=1)
        try:
            info = executor.info()
            assert_unified(info)
            assert set(info["pools"]) == {
                "max_workers", "start_method", "pool_live", "pool_rebuilds",
                "batches", "queries_shipped", "snapshot_version",
            }
            assert info["pools"]["max_workers"] == 1
            assert info["deltas"] == {"applied": 0}
        finally:
            executor.close()

    def test_info_flat_keys_are_gone(self):
        from repro.shard import ProcessExecutor

        executor = ProcessExecutor(tiny_graph(), max_workers=1)
        try:
            info = executor.info()
            assert type(info) is dict
            assert info["pools"]["pool_live"] is False
            for key in ("pool_live", "max_workers"):
                with pytest.raises(KeyError):
                    info[key]
        finally:
            executor.close()


class TestStatisticsMemoLayer:
    """``["caches"]["path1"]``: the one cache ``cache_report()`` used to
    omit -- "why was this explain slow after a write" from ``stats()``."""

    KEYS = {"hits", "misses", "size", "hit_rate", "dropped", "retained"}

    def test_cache_report_and_service_stats_carry_the_memo(self):
        failing = typed_query()
        failing.vertex(1).predicates["name"] = equals("nowhere")
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, failing)
            (per_graph,) = service.stats()["per_graph"]
            layer = per_graph["cache_report"]["caches"]["path1"]
            assert set(layer) == self.KEYS
            assert layer["misses"] >= 1 and layer["size"] >= 1
            assert layer["dropped"] == layer["retained"] == 0

            g.add_vertex(bench_label="bench")  # nothing a statistic mentions
            service.explain(g, failing)
            g.add_edge(0, 2, "workAt")  # every workAt statistic
            service.explain(g, failing)
            stats = service.stats()
            totals = stats["caches"]["path1"]
            assert set(totals) == {"hits", "misses", "dropped", "retained"}
            assert totals["retained"] >= 1 and totals["dropped"] >= 1
            (per_graph,) = stats["per_graph"]
            layer = per_graph["cache_report"]["caches"]["path1"]
            assert {key: layer[key] for key in totals} == totals
            assert json.loads(json.dumps(stats))["caches"]["path1"] == totals

    def test_a_touching_batch_retains_what_it_cannot_reach(self):
        """Cloned vertices carry every attribute the endpoint predicates
        mention; alone they drop nothing, and the edge that follows drops
        its own type's statistics only."""
        failing = typed_query()
        failing.vertex(1).predicates["name"] = equals("nowhere")
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, failing)
            clone = g.add_vertex(**dict(g.vertex_attributes(0)))
            service.explain(g, failing)
            row = service.stats()["caches"]["path1"]
            assert row["dropped"] == 0 and row["retained"] > 0
            g.add_edge(clone, 1, "knows")  # reaches the untyped statistics only
            service.explain(g, failing)
            after = service.stats()["caches"]["path1"]
            assert after["retained"] > row["retained"]
