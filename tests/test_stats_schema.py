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
import re
import warnings
from pathlib import Path

import pytest

from repro.core.graph import PropertyGraph
from repro.core.predicates import equals
from repro.core.query import GraphQuery
from repro.matching import PatternMatcher
from repro.matching.csr import csr_for
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


class TestPath1State:
    """Path(1) state lives in the CSR index alone: ``["caches"]`` is the
    result cache, and a write drops only the projections it reaches."""

    def test_caches_are_the_result_cache_only(self):
        failing = typed_query()
        failing.vertex(1).predicates["name"] = equals("nowhere")
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, failing)
            g.add_edge(0, 2, "workAt")
            service.explain(g, failing)
            stats = service.stats()
        assert set(stats["caches"]) == {"results"}
        (per_graph,) = stats["per_graph"]
        assert set(per_graph["cache_report"]["caches"]) == {"results"}
        assert stats["csr"]["patches"] == 1 and stats["csr"]["bytes"] > 0
        assert json.loads(json.dumps(stats))["caches"] == stats["caches"]

    def test_the_docs_list_exactly_the_cache_layers(self):
        """``docs/observability.md``'s layer table names each row of
        ``stats()["caches"]``, and no other: a deleted row cannot linger
        in the docs."""
        text = (Path(__file__).resolve().parent.parent / "docs" / "observability.md").read_text()
        section = text.split("### Cache layers", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        with WhyQueryService() as service:
            service.explain(tiny_graph(), typed_query())
            layers = set(service.stats()["caches"])
        assert len(rows) == len(set(rows))
        assert set(rows) == layers

    def test_a_touching_batch_retains_what_it_cannot_reach(self):
        """Cloned vertices carry every attribute the endpoint predicates
        name; alone they drop no projection, and the edge that follows
        drops the all-edges group's only (its own type's group held no
        edge before)."""
        failing = typed_query()
        failing.vertex(1).predicates["name"] = equals("nowhere")
        with WhyQueryService() as service:
            g = tiny_graph()
            service.explain(g, failing)
            before = dict(csr_for(g)._projections)
            assert {key[0] for key in before} == {"workAt", None}
            clone = g.add_vertex(**dict(g.vertex_attributes(0)))
            table = csr_for(g)._projections  # caught up, nothing re-asked yet
            assert all(table.get(key) is bits for key, bits in before.items())
            service.explain(g, failing)
            g.add_edge(clone, 1, "knows")
            table = csr_for(g)._projections
            kept = {key for key, bits in before.items() if table.get(key) is bits}
            assert kept == {key for key in before if key[0] == "workAt"}
            service.explain(g, failing)
            assert service.stats()["csr"]["patches"] == 2
