"""Tombstones: what PR 20, PR 23 and PR 24 deleted stays deleted.

Three parts.  The scan fails, naming file and line, when a removed
identifier is mentioned again anywhere a reader would take it for a
live name (source, docs, examples, CI, the verify skill).  The pins
exercise the removals at run time: no alias, no flag, no ignored
argument.  The surface gate lists every constructor option of the
engine stack, so adding one means editing a list a reviewer sees.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro.client
from repro.core import GraphQuery, PropertyGraph, equals
from repro.exec import EvaluationBudget, ExecutionContext
from repro.finegrained import (
    GreedyCoarseSearch,
    RandomModificationSearch,
    TraverseSearchTree,
)
from repro.matching import PatternMatcher, csr_stats
from repro.metrics import CardinalityThreshold
from repro.rewrite import CoarseRewriter
from repro.service import WhyQueryService
from repro.why import DebugSession, WhyQueryEngine

ROOT = Path(__file__).resolve().parent.parent

#: identifiers deleted without replacement (PR 20, PR 23, then PR 24)
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
        "max_contexts", "executor", "budget_pool", "context_factory", "shards",
        "process_workers", "placement", "slow_log_capacity", "persist",
        "engine_options",
    ),
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
