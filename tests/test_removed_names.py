"""Tombstones: what PR 20 and PR 23 deleted stays deleted.

Two halves.  The scan fails, naming file and line, when a removed
identifier is mentioned again anywhere a reader would take it for a
live name (source, docs, examples, CI, the verify skill).  The pins
exercise the removals at run time: no alias, no flag, no ignored
argument.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.client
from repro.core import GraphQuery, PropertyGraph, equals
from repro.exec import EvaluationBudget
from repro.matching import PatternMatcher, csr_stats
from repro.service import WhyQueryService

ROOT = Path(__file__).resolve().parent.parent

#: identifiers deleted without replacement (PR 20, then PR 23)
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
