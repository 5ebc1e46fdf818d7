"""Tombstones: what the culls deleted stays deleted.

Three parts.  The scan fails, naming file and line, when a removed
identifier is mentioned again anywhere a reader would take it for a
live name (source, docs, examples, CI, the verify skill).  The pins
exercise the removals at run time: no alias, no flag, no ignored
argument.  The surface gate lists every constructor option of the
engine stack, so adding one means editing a list a reviewer sees.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro.client
import repro.matching
import repro.matching.plan
from repro.core import GraphQuery, PropertyGraph, equals
from repro.exec import EvaluationBudget, ExecutionContext
from repro.finegrained import (
    GreedyCoarseSearch,
    RandomModificationSearch,
    TraverseSearchTree,
)
from repro.harness.experiments import PriorityRow, ResourceRow
from repro.matching import PatternMatcher, csr_stats
from repro.metrics import CardinalityThreshold
from repro.persist import RestoreReport
from repro.rewrite import CoarseRewriter, GraphStatistics
from repro.service import WhyQueryService
from repro.shard import ProcessExecutor
from repro.why import DebugSession, WhyQueryEngine

ROOT = Path(__file__).resolve().parent.parent

#: identifiers deleted without replacement, oldest cull first
REMOVED_NAMES = (
    "AsyncExecutor",
    "ParallelExecutor",
    "count_async",
    "typed_adjacency=",
    "StatsReport",
    "explain_async",
    "open_session_async",
    "max_async_requests",
    "AsyncWhyQueryClient",
    "AsyncExplainStream",
    "connect_async",
    "REPRO_CSR_BYTES_BUDGET",
    "csr_evictions",
    "REPRO_COMPILED_MATCH",
    "resolve_spine",
    "repro.exec.wiring",
    "placement=",
    "PLACEMENT_MODES",
    "placement_mode",
    "supports_placement",
    "submit_block",
    "_BlockHandle",
    "_count_placed",
    "count_sharded",
    "_worker_count_shard",
    "sharded_counts",
    "_measure_full_snapshot",
    "full_snapshot_bytes",
    "payload_ratio",
    "sharded_expansion",
    "plan_cache_stats",
    "export_plans",
    "restore_plans",
    "plan_covers_query",
    "_PLAN_CACHES",
    "plans_restored",
    "plan_hits",
    "estimate_vertex_candidates",
    "EvaluationCache",
    "shared_evaluation_cache",
    "candidate_hits",
    "candidate_hit_rate",
    "repro.matching.evalcache",
    "evalcache=",
    "GraphPartitioner",
    "GraphShard",
    "ShardedGraph",
    "ShardedMatcher",
    "ShardSlice",
    "SliceEvaluator",
    "ShardMiss",
    "affine_placement",
    "canonical_edge_order",
    "shard_to_wire",
    "shards_to_wire",
    "shard_from_wire",
    "delta_to_wire",
    "delta_from_wire",
    "route_deltas",
    "_halo_holders",
    "seed_restrict",
    "restricted_seed_pool",
    "shards=",
    "shards_per_pool",
    "SPAN_BLOCK",
    "SPAN_FALLBACK",
    "shard_fallbacks",
    "placement_map",
    "affine_fallbacks",
    "payload_bytes",
    "worker_catchups",
    "_ensure_affine_pools",
    "_try_catch_up_locked",
    "_run_queries_affine",
    "adjmiss",
)

#: where a mention would read as a live name.  CHANGES.md, ROADMAP.md
#: and tests/ record the removals; benchmarks/e2e/ is frozen outside
#: benchmark PRs.
SCANNED = ("src", "docs", "examples", ".github", ".claude/skills/verify")
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".txt", ".cfg"}

_REMOVED = re.compile("|".join(re.escape(name) for name in REMOVED_NAMES))


def scanned_files():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in TEXT_SUFFIXES:
                yield path


def test_no_live_file_mentions_a_removed_name():
    files = list(scanned_files())
    assert any(path.name == "__init__.py" for path in files)  # the scan sees src/
    mentions = [
        f"{path.relative_to(ROOT)}:{number}: {match.group(0)}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in _REMOVED.finditer(line)
    ]
    assert not mentions, "removed names are back:\n" + "\n".join(mentions)


def failing_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"missingEdgeType"})
    return q


def test_async_twins_are_gone_not_aliased(tiny_graph):
    with pytest.raises(ImportError):
        from repro import AsyncWhyQueryClient  # noqa: F401
    with pytest.raises(ImportError):
        from repro import connect_async  # noqa: F401
    for name in ("AsyncWhyQueryClient", "AsyncExplainStream", "connect_async"):
        assert not hasattr(repro.client, name) and name not in repro.__all__
    # one client class and one stream class
    classes = {
        name
        for name, value in vars(repro.client).items()
        if isinstance(value, type) and value.__module__ == "repro.client"
    }
    assert {n for n in classes if n.endswith("Client")} == {"WhyQueryClient"}
    assert {n for n in classes if n.endswith("Stream")} == {"ExplainStream"}

    for name in ("explain_async", "open_session_async", "max_async_requests"):
        assert not hasattr(WhyQueryService, name)
    with pytest.raises(TypeError):
        WhyQueryService(max_async_requests=1)
    service = WhyQueryService()
    assert not hasattr(service, "max_async_requests")
    with pytest.raises(TypeError):
        service.explain(tiny_graph, failing_query(), budget=EvaluationBudget(8))
    service.explain(tiny_graph, failing_query())
    with pytest.raises(KeyError):
        service.stats()["service"]["async_calls"]
    with pytest.raises(KeyError):
        service.stats()["csr"]["evictions"]


def test_csr_byte_budget_variable_evicts_nothing(monkeypatch):
    def graph() -> PropertyGraph:
        g = PropertyGraph()
        for _ in range(4):
            g.add_vertex(type="person")
        return g

    q = GraphQuery()
    q.add_vertex(predicates={"type": equals("person")})
    cold, hot = graph(), graph()
    PatternMatcher(cold).count(q)
    monkeypatch.setenv("REPRO_CSR_BYTES_BUDGET", "1")
    assert PatternMatcher(hot).count(q) == 4
    for g in (cold, hot):
        stats = csr_stats(g)
        assert stats["csr_bytes"] > 0 and stats["csr_builds"] == 1
        with pytest.raises(KeyError):
            stats["csr_evictions"]


# -- PR 26: plans are built, not cached -----------------------------------------


def test_plan_cache_is_gone(tiny_graph, tmp_path):
    for name in (
        "plan_cache_stats", "export_plans", "restore_plans", "plan_covers_query",
        "_PLAN_CACHES", "_PlanCache", "_plan_cache",
    ):
        assert not hasattr(repro.matching.plan, name), name
        assert not hasattr(repro.matching, name), name
    matcher = PatternMatcher(tiny_graph)
    matcher.count(failing_query())
    with pytest.raises(KeyError):
        matcher.cache_info()["caches"]["plan"]
    with pytest.raises(KeyError):
        ExecutionContext(tiny_graph).cache_report()["caches"]["plan"]
    with WhyQueryService(persist=str(tmp_path)) as service:
        service.explain(tiny_graph, failing_query())
        stats = service.stats()
        with pytest.raises(KeyError):
            stats["caches"]["plan"]
        with pytest.raises(KeyError):
            stats["persistence"]["plans_restored"]
    fields = {f.name for f in dataclasses.fields(RestoreReport)}
    assert not {"plans_restored", "plans_dropped"} & fields


# -- the cost-based planner reads degrees, not candidate-count estimates -------


def test_vertex_candidate_estimate_is_gone():
    import repro.matching.candidates

    for module in (repro.matching, repro.matching.candidates, repro.matching.plan):
        assert not hasattr(module, "estimate_vertex_candidates")
    assert "estimate_vertex_candidates" not in repro.matching.__all__


# -- the CSR image's interned masks are the only candidate memo ---------------


def test_candidate_cache_is_gone(tiny_graph):
    with pytest.raises(ImportError):
        importlib.import_module("repro.matching.evalcache")
    for name in ("EvaluationCache", "shared_evaluation_cache", "CacheStats"):
        assert not hasattr(repro.matching, name), name
        assert name not in repro.matching.__all__
    with pytest.raises(TypeError):
        PatternMatcher(tiny_graph, evalcache=None)
    with pytest.raises(TypeError):
        GraphStatistics(tiny_graph, evalcache=None)
    context = ExecutionContext(tiny_graph)
    for holder in (context, context.matcher, context.cache, context.statistics):
        assert not hasattr(holder, "evalcache"), holder
    assert "vertex" not in context.statistics.cache_sizes
    assert context.matcher.cache_info()["caches"] == {}
    with WhyQueryService() as service:
        service.explain(tiny_graph, failing_query())
        stats = service.stats()
        with pytest.raises(KeyError):
            stats["caches"]["vertex_candidates"]
        (per_graph,) = stats["per_graph"]
        assert set(per_graph["cache_report"]["caches"]) == {"results", "path1"}
    for row in (PriorityRow, ResourceRow):
        fields = {f.name for f in dataclasses.fields(row)}
        assert not {"candidate_hits", "candidate_hit_rate"} & fields, row


# -- one process pool: every worker holds the full snapshot -------------------


@pytest.mark.parametrize("placement", ["full", "affine"])
def test_placement_is_a_type_error(tiny_graph, placement):
    with pytest.raises(TypeError):
        WhyQueryService(executor="process", placement=placement)
    with pytest.raises(TypeError):
        ProcessExecutor(tiny_graph, placement=placement)


def test_shards_is_a_type_error(tiny_graph):
    with pytest.raises(TypeError):
        WhyQueryService(executor="process", shards=2)
    with pytest.raises(TypeError):
        ProcessExecutor(tiny_graph, shards=2)
    for holder in (WhyQueryService(), ProcessExecutor(tiny_graph)):
        assert not hasattr(holder, "shards"), holder


def test_shard_layer_is_the_process_pool_only():
    import repro.core.serialize
    import repro.obs
    import repro.obs.tracing
    import repro.shard

    assert repro.shard.__all__ == ["ProcessExecutor"]
    for module in ("partition", "affine", "matching"):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.shard.{module}")
    for name in (
        "GraphPartitioner", "GraphShard", "ShardedGraph", "ShardedMatcher",
        "ShardSlice", "SliceEvaluator", "ShardMiss", "ProcessExecutor",
    ):
        assert not hasattr(repro, name) and name not in repro.__all__, name
        if name != "ProcessExecutor":
            assert not hasattr(repro.shard, name), name
    import repro.shard.process_executor as process_executor

    for name in (
        "affine_placement", "canonical_edge_order", "_affine_worker_init",
        "_affine_worker_count_block", "_affine_worker_apply_deltas",
    ):
        assert not hasattr(process_executor, name), name
    for name in (
        "_ensure_affine_pools", "_try_catch_up_locked", "_local",
        "_resolve_block", "_run_queries_affine",
    ):
        assert not hasattr(ProcessExecutor, name), name
    for name in (
        "shard_to_wire", "shards_to_wire", "shard_from_wire", "delta_to_wire",
        "delta_from_wire", "route_deltas", "_halo_holders",
    ):
        assert not hasattr(repro.core.serialize, name), name
    for name in ("SPAN_BLOCK", "SPAN_FALLBACK"):
        assert not hasattr(repro.obs, name) and not hasattr(repro.obs.tracing, name)


def test_partial_graph_matching_is_gone(tiny_graph):
    from repro.core.delta import delta_touch
    from repro.matching.csr import CSRIndex, csr_for

    q = GraphQuery()
    q.add_vertex(predicates={"type": equals("person")})
    for compiled in (True, False):
        matcher = PatternMatcher(tiny_graph, compiled=compiled)
        for call in (matcher.match, matcher.count, matcher.exists):
            with pytest.raises(TypeError):
                call(q, seed_restrict={0})
    csr = csr_for(tiny_graph)
    assert not hasattr(CSRIndex, "restricted_seed_pool")
    for name in ("partial", "known", "shard_index", "_restrict_pools"):
        assert not hasattr(csr, name), name
    # the halo-vertex delta record only shard routing produced
    with pytest.raises(ValueError):
        delta_touch([("hv", 99, {})])
    assert not csr._patchable([("hv", 10_000, {})])


def test_affine_stats_keys_are_gone(tiny_graph):
    with ProcessExecutor(tiny_graph, max_workers=1) as executor:
        assert executor.run_queries([failing_query()]) == [0]
        info = executor.info()
    for key in (
        "shards", "placement", "placement_map", "affine_fallbacks",
        "payload_bytes_per_worker", "payload_bytes_max", "sharded_counts",
    ):
        with pytest.raises(KeyError):
            info["pools"][key]
    assert set(info["deltas"]) == {"applied"}
    with WhyQueryService(executor="process", process_workers=1) as service:
        service.explain(tiny_graph, failing_query())
        stats = service.stats()
        (entry,) = service.slow_queries()
    assert stats["pools"] is None  # per-graph pools report under per_graph
    assert set(stats["deltas"]) == {"applied"}
    assert "process_pool" in stats["per_graph"][0]
    assert "shard_fallbacks" not in entry


# -- PR 24: a context is the only binding ------------------------------------

_THRESHOLD = CardinalityThreshold.at_least(1)

#: how each entry point is built from ``graph`` / ``context``
ENTRY_POINTS = {
    "CoarseRewriter": CoarseRewriter,
    "TraverseSearchTree": lambda *a, **kw: TraverseSearchTree(
        *a, threshold=_THRESHOLD, **kw
    ),
    "RandomModificationSearch": lambda *a, **kw: RandomModificationSearch(
        *a, threshold=_THRESHOLD, **kw
    ),
    "GreedyCoarseSearch": lambda *a, **kw: GreedyCoarseSearch(
        *a, threshold=_THRESHOLD, **kw
    ),
    "WhyQueryEngine": WhyQueryEngine,
    "DebugSession": lambda *a, **kw: DebugSession(*a, query=failing_query(), **kw),
}

#: the component overrides each class took before PR 24
REMOVED_OVERRIDES = {
    "CoarseRewriter": ("matcher", "cache", "statistics", "batch_size"),
    "TraverseSearchTree": ("matcher", "cache", "statistics", "domain", "batch_size"),
    "RandomModificationSearch": ("matcher", "cache", "domain"),
    "GreedyCoarseSearch": ("matcher", "cache", "domain"),
    "WhyQueryEngine": ("matcher",),
}


@pytest.mark.parametrize(
    "entry, keyword",
    [(entry, kw) for entry, kws in REMOVED_OVERRIDES.items() for kw in kws],
)
def test_component_overrides_are_type_errors(tiny_graph, entry, keyword):
    context = ExecutionContext(tiny_graph)
    own = 1 if keyword == "batch_size" else getattr(context, keyword)
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](context=context, **{keyword: own})


@pytest.mark.parametrize(
    "keyword",
    ["matcher", "cache", "statistics", "domain", "preference_model", "preferences"],
)
def test_a_context_builds_its_own_components(tiny_graph, keyword):
    own = getattr(ExecutionContext(tiny_graph), keyword)
    with pytest.raises(TypeError):
        ExecutionContext(tiny_graph, **{keyword: own})


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_graph_and_context_must_agree(tiny_graph, entry):
    build = ENTRY_POINTS[entry]
    other = PropertyGraph()
    other.add_vertex(type="person")
    with pytest.raises(ValueError, match="differ"):
        build(tiny_graph, context=ExecutionContext(other))
    with pytest.raises(ValueError, match="graph or context"):
        build()
    context = ExecutionContext(tiny_graph)
    assert build(tiny_graph, context=context).graph is tiny_graph
    assert build(context=context).graph is tiny_graph


#: every constructor option of the engine stack, in signature order
CONSTRUCTOR_SURFACE = {
    WhyQueryService: (
        "max_contexts", "executor", "budget_pool", "context_factory",
        "process_workers", "slow_log_capacity", "persist", "engine_options",
    ),
    ProcessExecutor: (
        "graph", "max_workers", "injective", "start_method", "compiled",
    ),
    PatternMatcher: ("graph", "injective", "compiled"),
    GraphStatistics: ("graph",),
    WhyQueryEngine: (
        "graph", "preferences", "preference_model", "mcs_strategy",
        "max_explanation_evaluations", "max_rewrite_evaluations", "rewrite_k",
        "include_topology", "context", "executor", "evaluation_budget",
        "on_candidate", "tracer",
    ),
    CoarseRewriter: (
        "graph", "priority", "preference_model", "max_evaluations", "max_depth",
        "count_limit", "op_filter", "context", "executor", "budget",
        "on_candidate", "tracer",
    ),
    TraverseSearchTree: (
        "graph", "threshold", "include_topology", "constrainable_attrs",
        "max_evaluations", "max_depth", "context", "executor", "budget",
        "on_candidate", "tracer",
    ),
    ExecutionContext: ("graph", "injective", "compiled", "result_cache_entries"),
    RandomModificationSearch: (
        "graph", "threshold", "include_topology", "constrainable_attrs",
        "max_evaluations", "walk_length", "seed", "context",
    ),
    GreedyCoarseSearch: (
        "graph", "threshold", "max_evaluations", "max_depth", "context",
    ),
}

DEBUG_SESSION_FIELDS = (
    "graph", "query", "threshold", "max_evaluations", "model", "preferences",
    "transcript", "accepted", "context",
)


def test_constructor_surface_is_pinned():
    """An option added to (or dropped from) any of these has to edit the
    lists above -- and argue for itself in the same diff."""
    for cls, expected in CONSTRUCTOR_SURFACE.items():
        assert tuple(inspect.signature(cls).parameters) == expected, cls.__name__
    assert (
        tuple(f.name for f in dataclasses.fields(DebugSession))
        == DEBUG_SESSION_FIELDS
    )
