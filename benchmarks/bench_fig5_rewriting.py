"""Sec. 5.5 + App. B: coarse-grained why-empty rewriting evaluation.

Covers the priority-function comparison (5.5.1), runtime convergence
(5.5.2), the hybrid path(1)+induced-change selector (5.5.3), the user
integration experiment (5.5.4 / B.1) and the resource-consumption report
(B.2).
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.harness import (
    appB_resources,
    fig5_convergence,
    fig5_priorities,
    fig5_user_integration,
    format_table,
)
from repro.rewrite import CoarseRewriter


@pytest.fixture(scope="module")
def priority_rows():
    return fig5_priorities("ldbc") + fig5_priorities("dbpedia")


def test_fig5_priority_functions(priority_rows, write_result, benchmark, ldbc_bundle):
    report = format_table(
        [
            "query",
            "priority",
            "found",
            "evaluated",
            "generated",
            "C",
            "syntactic",
            "sec",
        ],
        [
            (
                r.query,
                r.priority,
                r.found,
                r.evaluated,
                r.generated,
                r.best_cardinality,
                r.best_syntactic,
                r.elapsed,
            )
            for r in priority_rows
        ],
        title="Sec. 5.5.1: query-candidate selector priority functions",
    )
    write_result("fig5_priorities", report)

    # the compiled backend's counters must flow through the same
    # reporting seam (compiled-matching PR acceptance criterion): a
    # repeated evaluation binds to a process-wide kernel -- generated
    # here or by the rewriting runs above -- and reports it, plus the
    # CSR build it ran over
    from repro.datasets import ldbc as ldbc_dataset
    from repro.matching import PatternMatcher

    compiled = PatternMatcher(ldbc_bundle.graph, compiled=True)
    assert compiled.count(ldbc_dataset.query_1()) > 0
    assert compiled.count(ldbc_dataset.query_1()) > 0
    info = compiled.cache_info()
    assert info["programs"]["compiled"] + info["programs"]["hits"] >= 2
    assert info["programs"]["hits"] > 0
    assert info["csr"]["builds"] > 0
    assert info["csr"]["bytes"] > 0

    by_priority = defaultdict(list)
    for r in priority_rows:
        by_priority[r.priority].append(r)
    # every priority function eventually finds a rewriting on every query
    for priority, rows in by_priority.items():
        assert all(r.found for r in rows), priority
    # statistics-driven selectors need no more evaluations than blind
    # syntactic ordering (the Sec. 5.5.1 headline), on average
    mean = lambda rows: sum(r.evaluated for r in rows) / len(rows)
    assert mean(by_priority["hybrid"]) <= mean(by_priority["syntactic"])
    # the hybrid stays syntactically competitive (Sec. 5.5.3)
    mean_syn = lambda rows: sum(r.best_syntactic for r in rows) / len(rows)
    assert mean_syn(by_priority["hybrid"]) <= mean_syn(by_priority["avg_path1"]) + 1e-9

    from repro.datasets import ldbc
    from repro.exec import ExecutionContext

    failed = ldbc.empty_variant("LDBC QUERY 1")
    benchmark.pedantic(
        lambda: CoarseRewriter(
            context=ExecutionContext(ldbc_bundle.graph), priority="hybrid"
        ).rewrite(failed),
        rounds=3,
        iterations=1,
    )


def test_fig5_convergence(write_result, benchmark):
    traces = fig5_convergence("ldbc", k=5, max_evaluations=150)
    lines = []
    for priority, points in traces.items():
        for p in points:
            lines.append(
                f"{priority:10s} evals={p.evaluations:4d} "
                f"t={p.elapsed:.3f}s found={p.found} "
                f"best_syn={p.best_syntactic if p.best_syntactic is not None else '-'}"
            )
    write_result(
        "fig5_convergence",
        "Sec. 5.5.2 runtime convergence (found explanations over time)\n"
        + "\n".join(lines),
    )
    for priority, points in traces.items():
        founds = [p.found for p in points]
        assert founds == sorted(founds), priority
        assert founds[-1] >= 1, priority
    benchmark.pedantic(
        lambda: fig5_convergence("ldbc", priorities=("hybrid",), k=2, max_evaluations=60),
        rounds=1,
        iterations=1,
    )


def test_fig5_user_integration(write_result, benchmark):
    rows = fig5_user_integration("ldbc")
    report = format_table(
        ["query", "protected element", "proposals w/o model", "proposals w/ model"],
        [
            (r.query, r.protected, r.proposals_without_model, r.proposals_with_model)
            for r in rows
        ],
        title="Sec. 5.5.4 / App. B.1: user integration in why-empty rewriting",
    )
    write_result("fig5_user_integration", report)
    assert rows
    # the preference model never needs more proposals than the plain
    # top-k walk, and both eventually satisfy the user
    for r in rows:
        assert r.accepted_with, r.query
        assert r.proposals_with_model <= r.proposals_without_model + 1, r.query
    total_with = sum(r.proposals_with_model for r in rows)
    total_without = sum(r.proposals_without_model for r in rows)
    assert total_with <= total_without
    benchmark.pedantic(
        lambda: fig5_user_integration("dbpedia"), rounds=1, iterations=1
    )


def test_appB_resource_consumption(write_result, benchmark):
    rows = appB_resources("ldbc") + appB_resources("dbpedia")
    report = format_table(
        [
            "query",
            "evaluated",
            "generated",
            "queue peak",
            "cache entries",
            "hits",
            "hit rate",
            "steps",
        ],
        [
            (
                r.query,
                r.evaluated,
                r.generated,
                r.queue_peak,
                r.cache_entries,
                r.cache_hits,
                r.cache_hit_rate,
                r.matcher_steps,
            )
            for r in rows
        ],
        title="App. B.2: resource consumption of why-empty rewriting",
    )
    write_result("appB_resources", report)
    for r in rows:
        assert r.generated >= r.evaluated
        assert r.cache_entries > 0
    benchmark.pedantic(lambda: appB_resources("dbpedia", k=1), rounds=1, iterations=1)
