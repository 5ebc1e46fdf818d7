"""Engineering micro-benchmarks of the core kernels.

Not a paper artifact; keeps regressions in the substrate visible: the
matcher, the three distance levels, the Hungarian solver, statistics and
the cache.

``test_micro_emit_machine_readable`` additionally writes
``BENCH_micro_core.json`` at the repository root: per-op wall-clock
timings plus the interpreter-vs-compiled matching record
(``compiled_match``: the compiled CSR backend against the interpreter
on a type-constrained expansion workload and on the 32-variant rewrite
batch, with the kernel counters -- the batch's variants share one plan
shape, so it may generate at most a handful of kernels; single-core,
pure CPU, gated at >= 2x), the pure-CPU process-pool batch workload
(``process_pool``: ``ProcessExecutor`` vs in-process serial), the
delta-sync churn record (``mutate_while_serving``: interleaved
mutations absorbed by in-place CSR patching, gated on the patch rate)
and the tracing-overhead
record (``observability``: traced-vs-untraced matcher throughput with a
fresh activated tracer per request, gated at >= 0.9 so tracing stays
cheap enough to leave on) and the warm-restart record
(``restart_warm``).  No section times a modeled stall: every number is
real work.  The JSON is the machine-readable
record of the hot-path performance trajectory; CI diffs a fresh run
against the committed baseline with ``benchmarks/check_trajectory.py``
and fails on >25% regression in the gated ratios.

Honesty note: the process section records ``cpu_cores``; on a
single-core machine process parallelism cannot beat serial for pure CPU
work, so the recorded speedups are what the machine can actually do and
the trajectory gate only enforces the multi-core speedup targets when
``cpu_cores >= 2``.  Those wall-clock ratios are gated there, with
tolerance, and not asserted in-bench: the same commit reads 1.4-1.9x
run to run, so an in-bench floor fails on its own parent.

``REPRO_BENCH_PROCESS_WORKERS`` caps the worker processes (default 2,
which matches the smallest CI runners).
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

from repro.core import GraphQuery, PropertyGraph, equals
from repro.datasets import ldbc
from repro.exec import ExecutionContext
from repro.matching import PatternMatcher, csr_stats
from repro.metrics.assignment import assignment_cost
from repro.metrics.result_distance import result_set_distance
from repro.metrics.syntactic import syntactic_distance
from repro.obs import Tracer
from repro.rewrite.statistics import GraphStatistics
from repro.service import WhyQueryService
from repro.shard import ProcessExecutor

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_micro_core.json"

#: worker-process cap: CI pins this to 2 so the job is stable on 2-core
#: runners; a beefier machine can raise it to see further scaling
PROCESS_WORKERS = max(1, int(os.environ.get("REPRO_BENCH_PROCESS_WORKERS", "2")))


def _cpu_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_micro_generate_ldbc(benchmark):
    bundle = benchmark.pedantic(ldbc.generate, rounds=3, iterations=1)
    assert bundle.graph.num_vertices > 0


def test_micro_matcher_count(ldbc_bundle, benchmark):
    matcher = PatternMatcher(ldbc_bundle.graph)
    query = ldbc.query_1()
    count = benchmark(matcher.count, query)
    assert count > 0


def test_micro_matcher_exists(ldbc_bundle, benchmark):
    matcher = PatternMatcher(ldbc_bundle.graph)
    query = ldbc.query_3()
    assert benchmark(matcher.exists, query)


def test_micro_syntactic_distance(benchmark):
    q1 = ldbc.query_2()
    q2 = ldbc.empty_variant("LDBC QUERY 2")
    d = benchmark(syntactic_distance, q1, q2)
    assert 0 < d < 1


def test_micro_result_set_distance(ldbc_bundle, benchmark):
    matcher = PatternMatcher(ldbc_bundle.graph)
    a = matcher.match(ldbc.query_3(), limit=64)
    b = matcher.match(ldbc.query_3(), limit=48)
    d = benchmark(result_set_distance, a, b)
    assert 0.0 <= d <= 1.0


def test_micro_hungarian_64(benchmark):
    rng = random.Random(1)
    cost = [[rng.random() for _ in range(64)] for _ in range(64)]
    total, _ = benchmark(assignment_cost, cost)
    assert total >= 0.0


def test_micro_statistics_estimate(ldbc_bundle, benchmark):
    stats = GraphStatistics(ldbc_bundle.graph)
    query = ldbc.query_4()
    stats.estimate_query_cardinality(query)  # warm the caches
    estimate = benchmark(stats.estimate_query_cardinality, query)
    assert estimate > 0


def test_micro_cache_hit(ldbc_bundle, benchmark):
    context = ExecutionContext(ldbc_bundle.graph)
    query = ldbc.query_1()
    context.count(query)
    count = benchmark(context.count, query)
    assert count > 0


# ---------------------------------------------------------------------------
# machine-readable output: BENCH_micro_core.json
# ---------------------------------------------------------------------------


def _expansion_workload(num_hubs: int = 48, num_types: int = 24, fanout: int = 8):
    """Type-skewed expansion graph: hubs with ``num_types`` relation types,
    ``fanout`` edges each; the query constrains a single type, so typed
    adjacency should visit ``fanout`` edges per hub instead of
    ``num_types * fanout``."""
    g = PropertyGraph()
    hubs = [g.add_vertex(type="hub") for _ in range(num_hubs)]
    for hub in hubs:
        for t in range(num_types):
            for _ in range(fanout):
                leaf = g.add_vertex(type="leaf")
                g.add_edge(hub, leaf, f"rel{t}")
    q = GraphQuery()
    h = q.add_vertex(predicates={"type": equals("hub")})
    leaf_v = q.add_vertex(predicates={"type": equals("leaf")})
    q.add_edge(h, leaf_v, types={"rel7"})
    return g, q, num_hubs * fanout


def _best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_each(fns, rounds: int) -> list:
    """:func:`_best_of` for several functions whose *ratio* is the
    result: their rounds alternate, so a slow phase of the machine falls
    on all of them instead of on whichever happened to run second."""
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# compiled-match workload: interpreter vs compiled backend, same queries
# ---------------------------------------------------------------------------


def _compiled_match_section() -> dict:
    """Single-core, pure-CPU record of the compiled matching backend.

    Two workloads: the typed-expansion count (steady-state evaluation of
    one hot query) and the 32-variant rewrite batch (the rewriting
    frontier shape: the variants differ in one edge type, so all of
    them bind to one shape-keyed kernel -- ``program_cache`` records how
    many each graph had generated; kernels are process-wide, so a shape
    an earlier section met counts for that section).  Both sides
    evaluate identical queries over identical graphs;
    the compiled kernels visit exactly the interpreter's candidates
    (asserted below via the ``steps`` counters), so the speedup is pure
    per-step overhead removed -- no core gate, no modeled latency.
    """
    graph, query, expected = _expansion_workload()
    interp = PatternMatcher(graph, compiled=False)
    comp = PatternMatcher(graph, compiled=True)
    assert interp.count(query) == comp.count(query) == expected  # warm-up
    # the arms' rounds alternate: the result is their ratio
    interp_s, comp_s = _best_of_each(
        [lambda: interp.count(query), lambda: comp.count(query)], rounds=5
    )
    interp.steps = comp.steps = 0
    interp.count(query)
    comp.count(query)
    # candidate-identity: the compiled kernel's search effort is the
    # interpreter's, so steps/sec ratios *are* per-step cost ratios
    assert comp.steps == interp.steps, (comp.steps, interp.steps)
    steps = comp.steps
    speedup = interp_s / comp_s if comp_s > 0 else float("inf")

    bgraph, variants, per_variant = _rewrite_batch_workload()
    binterp = PatternMatcher(bgraph, compiled=False)
    bcomp = PatternMatcher(bgraph, compiled=True)
    baseline = [binterp.count(q) for q in variants]
    assert baseline == [bcomp.count(q) for q in variants] == [per_variant] * len(
        variants
    )
    batch_interp_s, batch_comp_s = _best_of_each(
        [
            lambda: [binterp.count(q) for q in variants],
            lambda: [bcomp.count(q) for q in variants],
        ],
        rounds=5,
    )

    return {
        "workload": {
            "hubs": 48,
            "types": 24,
            "fanout_per_type": 8,
            "matches": expected,
            "steps_per_count": steps,
        },
        "interpreter": {
            "best_s": interp_s,
            "steps_per_sec": steps / interp_s if interp_s > 0 else float("inf"),
        },
        "compiled": {
            "best_s": comp_s,
            "steps_per_sec": steps / comp_s if comp_s > 0 else float("inf"),
        },
        "speedup": speedup,
        "rewrite_batch": {
            "variants": len(variants),
            "interpreter_s": batch_interp_s,
            "compiled_s": batch_comp_s,
            "speedup": batch_interp_s / batch_comp_s
            if batch_comp_s > 0
            else float("inf"),
        },
        "program_cache": {
            "expansion": csr_stats(graph),
            "rewrite_batch": csr_stats(bgraph),
        },
    }


# ---------------------------------------------------------------------------
# rewrite-batch workload: the shape of a rewriting frontier
# ---------------------------------------------------------------------------


def _rewrite_batch_workload(num_types: int = 32, hubs: int = 12, fanout: int = 6):
    """32 independent single-type expansion variants over one graph --
    the shape of a rewriting frontier: same pattern, different constraint
    per candidate."""
    g = PropertyGraph()
    hub_ids = [g.add_vertex(type="hub") for _ in range(hubs)]
    for hub in hub_ids:
        for t in range(num_types):
            for _ in range(fanout):
                leaf = g.add_vertex(type="leaf")
                g.add_edge(hub, leaf, f"rel{t}")
    variants = []
    for t in range(num_types):
        q = GraphQuery()
        h = q.add_vertex(predicates={"type": equals("hub")})
        leaf_v = q.add_vertex(predicates={"type": equals("leaf")})
        q.add_edge(h, leaf_v, types={f"rel{t}"})
        variants.append(q)
    return g, variants, hubs * fanout


# ---------------------------------------------------------------------------
# process-pool workload: pure-CPU candidate batches across worker processes
# ---------------------------------------------------------------------------


def _process_workload(hubs: int = 300, fanout: int = 80, names: int = 72):
    """One hub layer fanning out to name-labelled leaves.

    Every variant is the same expansion with a different leaf-name
    filter, so each count walks the full ``hubs * fanout`` adjacency --
    pure backtracking CPU with zero blocking, the exact shape the GIL
    serialises for threads.  Distinct names give every variant a
    distinct signature (no memoisation can shortcut a timing round) at
    identical per-count cost.
    """
    g = PropertyGraph()
    n = 0
    for _ in range(hubs):
        hub = g.add_vertex(type="hub")
        for _ in range(fanout):
            leaf = g.add_vertex(type="leaf", name=f"n{n % names}")
            g.add_edge(hub, leaf, "rel")
            n += 1

    def variant(index: int) -> GraphQuery:
        q = GraphQuery()
        h = q.add_vertex(predicates={"type": equals("hub")})
        leaf_v = q.add_vertex(
            predicates={"type": equals("leaf"), "name": equals(f"n{index % names}")}
        )
        q.add_edge(h, leaf_v, types={"rel"})
        return q

    return g, variant, hubs * fanout // names


def _process_pool_section(batch: int = 8, rounds: int = 3) -> dict:
    graph, variant, matches = _process_workload()
    cores = _cpu_cores()
    worker_counts = {1, min(2, PROCESS_WORKERS), PROCESS_WORKERS}
    if cores >= 4 and PROCESS_WORKERS >= 4:
        # a 4-worker point only means something when both the hardware
        # and the cap allow 4-way overlap; 2-core CI records just 1/2
        worker_counts.add(4)
    worker_counts = sorted(worker_counts)

    # disjoint variant slices per timed round and per executor: every
    # measured count is a first-touch evaluation on both sides, so no
    # cache (coordinator- or worker-side) can flatter either executor
    slices = iter(range(10_000))

    def fresh_batch() -> list:
        return [variant(next(slices)) for _ in range(batch)]

    matcher = PatternMatcher(graph)
    matcher.count(variant(next(slices)))  # build the lazy name index once

    serial_s = min(
        _timed(lambda qs=fresh_batch(): [matcher.count(q) for q in qs])
        for _ in range(rounds)
    )

    workers: dict = {}
    for count in worker_counts:
        with ProcessExecutor(graph, max_workers=count) as executor:
            executor.warm_up()
            # untimed first batch: the workers build their lazy indexes
            baseline = executor.run_queries(fresh_batch())
            assert baseline == [matches] * batch
            process_s = min(
                _timed(lambda qs=fresh_batch(): executor.run_queries(qs))
                for _ in range(rounds)
            )
        workers[str(count)] = {
            "process_s": process_s,
            "speedup": serial_s / process_s if process_s > 0 else float("inf"),
        }
    # single-worker overhead: how much the IPC + wire-form round trip
    # costs relative to staying in-process (recorded, never gated)
    workers["1"]["overhead_vs_serial"] = (
        workers["1"]["process_s"] / serial_s if serial_s > 0 else float("inf")
    )

    two_key = str(min(2, PROCESS_WORKERS))
    section = {
        "workload": {
            "hubs": 300,
            "fanout": 80,
            "edges": graph.num_edges,
            "distinct_names": 72,
            "matches_per_variant": matches,
        },
        "cpu_cores": cores,
        # the gate skips machines where the cap (not the hardware) makes
        # a 2-worker speedup unobservable
        "workers_cap": PROCESS_WORKERS,
        "batch": batch,
        "serial_s": serial_s,
        "workers": workers,
        "speedup_2w": workers[two_key]["speedup"],
    }
    if "4" in workers:
        section["speedup_4w"] = workers["4"]["speedup"]
    return section


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# mutate-while-serving workload: the delta-sync pipeline under churn
# ---------------------------------------------------------------------------


def _mutate_while_serving_section(csr_mutations: int = 24) -> dict:
    """Delta-sync record: serving cost of a mutation is O(delta).

    ``csr``: ``csr_mutations`` rounds each apply one small delta (an
    appended vertex+edge, an edge between existing vertices, or an
    attribute flip) and then serve compiled queries.  The interned CSR
    entry must absorb >= 90% of the rounds by in-place patching
    (``csr_patches``) instead of rebuilding, with compiled counts *and*
    ``steps`` identical to the interpreter after every patch.
    """
    # -- csr: in-place patching under interleaved mutation ------------------
    graph = PropertyGraph()
    hubs, fanout, names = 40, 20, 12
    leaves = []
    for _ in range(hubs):
        hub = graph.add_vertex(type="hub")
        for _ in range(fanout):
            leaf = graph.add_vertex(type="leaf", name=f"n{len(leaves) % names}")
            graph.add_edge(hub, leaf, "rel")
            leaves.append(leaf)

    def variant(index: int) -> GraphQuery:
        q = GraphQuery()
        h = q.add_vertex(predicates={"type": equals("hub")})
        leaf_v = q.add_vertex(
            predicates={"type": equals("leaf"), "name": equals(f"n{index % names}")}
        )
        q.add_edge(h, leaf_v, types={"rel"})
        return q

    interp = PatternMatcher(graph, compiled=False)
    comp = PatternMatcher(graph, compiled=True)
    served = [variant(i) for i in range(4)]
    assert [comp.count(q) for q in served] == [interp.count(q) for q in served]

    counts_identical = True
    steps_identical = True
    serve_s = 0.0
    queries_served = 0
    for i in range(csr_mutations):
        kind = i % 3
        if kind == 0:  # appended vertex + its edge
            leaf = graph.add_vertex(type="leaf", name=f"n{i % names}")
            graph.add_edge((i % hubs) * (fanout + 1), leaf, "rel")
            leaves.append(leaf)
        elif kind == 1:  # edge between existing vertices
            graph.add_edge((i % hubs) * (fanout + 1), leaves[-1 - i], "rel")
        else:  # attribute flip
            graph.set_vertex_attribute(leaves[i], "name", f"n{(i + 5) % names}")
        start = time.perf_counter()
        compiled_counts = [comp.count(q) for q in served]
        serve_s += time.perf_counter() - start
        queries_served += len(served)
        counts_identical &= compiled_counts == [interp.count(q) for q in served]
        # steps-identity directly after the patch: the patched kernel
        # visits exactly the interpreter's candidates
        interp.steps = comp.steps = 0
        interp.count(served[0])
        comp.count(served[0])
        steps_identical &= interp.steps == comp.steps

    stats = csr_stats(graph)
    refreshes = stats["csr_patches"] + stats["csr_rebuilds"]
    patch_rate = stats["csr_patches"] / refreshes if refreshes else 0.0

    return {
        "csr": {
            "workload": {"hubs": hubs, "fanout": fanout, "names": names},
            "mutations": csr_mutations,
            "patches": stats["csr_patches"],
            "rebuilds": stats["csr_rebuilds"],
            "patch_rate": patch_rate,
            "deltas_applied": stats["deltas_applied"],
            "program_hits": stats["program_hits"],
            "counts_identical": counts_identical,
            "steps_identical": steps_identical,
            "serve_qps": queries_served / serve_s if serve_s > 0 else float("inf"),
        },
    }


def _observability_section(batch_rounds: int = 40) -> dict:
    """Tracing overhead on the hot matching path (ISSUE 9).

    Two shapes, both single-core pure CPU, both on the default
    (compiled) matcher -- the base every request is served from, and the
    one where a span weighs most against the search work it wraps:

    * the typed-expansion count -- one heavy matcher call, where the
      span cost amortises over thousands of search steps;
    * the 32-variant rewrite batch -- the span-overhead-heavy shape:
      every count opens match + plan spans against some thirty
      microseconds of search work.  One fresh activated tracer per
      *batch* is the per-request pattern the service runs (one tracer
      per ``explain``, a rewrite search of many counts under it).

    ``enabled_ratio`` is traced-over-untraced throughput on the batch
    shape (the unfavourable one); the acceptance target -- asserted
    here and gated in ``check_trajectory.py`` -- is >= 0.9, i.e.
    tracing must stay cheap enough to leave on in production.
    ``rewrite_batch.tracer_per_count_ratio`` is the same batch with a
    fresh activated tracer around *every count*: what ``enabled_ratio``
    measured while a count cost 170 us on the interpreter.  On the
    compiled default a count costs a fifth of that, so the same three
    microseconds (two spans, one activation; less than before) weigh
    five times as much; it is recorded, not gated -- no request is one
    count long.
    """
    graph, query, expected = _expansion_workload()
    matcher = PatternMatcher(graph)
    assert matcher.count(query) == expected  # warm-up

    def heavy_traced() -> None:
        tracer = Tracer()
        with tracer.activate():
            matcher.count(query)

    heavy_disabled_s, heavy_enabled_s = _best_of_each(
        [lambda: matcher.count(query), heavy_traced], rounds=5
    )

    bgraph, variants, per_variant = _rewrite_batch_workload()
    bmatcher = PatternMatcher(bgraph)
    assert [bmatcher.count(q) for q in variants] == [per_variant] * len(variants)

    def batch_traced() -> None:
        tracer = Tracer()
        with tracer.activate():
            for q in variants:
                bmatcher.count(q)

    def batch_traced_per_count() -> None:
        for q in variants:
            tracer = Tracer()
            with tracer.activate():
                bmatcher.count(q)

    # a pass takes about a millisecond now that the default matcher is
    # the compiled one: many alternating rounds, or the ratio measures
    # the machine's speed phases instead of the spans
    batch_disabled_s, batch_enabled_s, per_count_s = _best_of_each(
        [
            lambda: [bmatcher.count(q) for q in variants],
            batch_traced,
            batch_traced_per_count,
        ],
        rounds=batch_rounds,
    )

    enabled_ratio = (
        batch_disabled_s / batch_enabled_s if batch_enabled_s > 0 else float("inf")
    )
    return {
        "heavy_count": {
            "disabled_best_s": heavy_disabled_s,
            "enabled_best_s": heavy_enabled_s,
            "enabled_ratio": heavy_disabled_s / heavy_enabled_s
            if heavy_enabled_s > 0
            else float("inf"),
        },
        "rewrite_batch": {
            "variants": len(variants),
            "disabled_best_s": batch_disabled_s,
            "enabled_best_s": batch_enabled_s,
            "tracer_per_count_ratio": batch_disabled_s / per_count_s
            if per_count_s > 0
            else float("inf"),
        },
        "enabled_ratio": enabled_ratio,
    }


def _restart_warm_section() -> dict:
    """Warm-restart persistence (ISSUE 10): kill the service, start a new
    one over the same persist directory, and measure how much evaluation
    state survived.

    Three runs over the deterministic 32-variant rewrite batch, all
    through the real :class:`WhyQueryService` spill/prewarm path:

    * **cold** -- a fresh service computes every variant (the baseline
      first pass) and checkpoints on ``close()``;
    * **unmutated restart** -- a second service over the same directory
      prewarms its context from the snapshot; every variant must come
      back as a result-cache hit (``warm_hit_rate`` is gated >= 0.9 in
      ``check_trajectory.py``) and the restored counts must be
      bit-identical to the cold computes;
    * **delta-mutated restart** -- the rebuilt graph takes one extra
      ``rel0`` edge before the prewarm, so the snapshot is one delta
      behind.  Replay drops exactly the touched entries: the recorded
      hit rate is *partial* (deterministic, not gated to an absolute
      floor), and counts stay identical to a cold evaluation of an
      identically mutated twin.

    Hit rates and counts are deterministic -- not wall-clock -- so the
    gates are not core-aware.  The first-pass wall-clock times are
    recorded for the JSON reader but never gated.
    """
    import shutil
    import tempfile

    from repro.persist import set_persist_name

    def fresh_workload():
        g, variants, per_variant = _rewrite_batch_workload()
        # name the graph so the restarted process maps onto the same
        # snapshot file, exactly like the protocol server does
        set_persist_name(g, "bench-restart")
        return g, variants, per_variant

    persist_dir = tempfile.mkdtemp(prefix="repro-bench-restart-")
    try:
        # -- run 1: cold service, then checkpoint via close() --------------
        graph, variants, per_variant = fresh_workload()
        service = WhyQueryService(persist=persist_dir)
        context = service.context_for(graph)
        cold_counts = []
        cold_s = _timed(
            lambda: cold_counts.extend(context.count(q) for q in variants)
        )
        assert cold_counts == [per_variant] * len(variants)
        service.close()

        # -- run 2: unmutated restart ---------------------------------------
        graph2, variants2, _ = fresh_workload()
        service2 = WhyQueryService(persist=persist_dir)
        context2 = service2.context_for(graph2)  # prewarms here
        hits_before = context2.cache.stats.hits
        warm_counts = []
        warm_s = _timed(
            lambda: warm_counts.extend(context2.count(q) for q in variants2)
        )
        warm_hits = context2.cache.stats.hits - hits_before
        warm_hit_rate = warm_hits / len(variants2)
        unmutated_restore = dict(
            service2.stats()["persistence"]["last_restore"] or {}
        )
        service2.close()

        # -- run 3: restart one delta behind the snapshot -------------------
        graph3, variants3, _ = fresh_workload()
        # hub->hub edge: touches the rel0 entries without changing any
        # count (the rel0 variant requires a leaf target)
        graph3.add_edge(0, 1, "rel0")
        service3 = WhyQueryService(persist=persist_dir)
        context3 = service3.context_for(graph3)
        hits_before3 = context3.cache.stats.hits
        mutated_counts = [context3.count(q) for q in variants3]
        mutated_hits = context3.cache.stats.hits - hits_before3
        mutated_hit_rate = mutated_hits / len(variants3)
        mutated_restore = dict(
            service3.stats()["persistence"]["last_restore"] or {}
        )
        service3.close()

        # differential: a cold twin of the mutated graph must agree
        twin, twin_variants, _ = fresh_workload()
        twin.add_edge(0, 1, "rel0")
        twin_counts = [PatternMatcher(twin).count(q) for q in twin_variants]
    finally:
        shutil.rmtree(persist_dir, ignore_errors=True)

    return {
        "workload": {"variants": len(variants), "matches_per_variant": per_variant},
        "cold_first_pass_s": cold_s,
        "unmutated": {
            "warm_first_pass_s": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "warm_hit_rate": warm_hit_rate,
            "counts_identical": warm_counts == cold_counts,
            "restore": unmutated_restore,
        },
        "mutated": {
            "warm_hit_rate": mutated_hit_rate,
            "counts_identical": mutated_counts == twin_counts,
            "restore": mutated_restore,
        },
    }


#: the ``rewrite_identity`` counters on the parent of the PR that made
#: search candidates frozen, structurally shared values (commit c5ccb21:
#: every candidate deep-copied, re-signed per lookup and re-scored by a
#: full Algorithm 1 pass), measured by this same section
REWRITE_IDENTITY_PARENT = {
    "coarse": {
        "candidates": 40,
        "queries_signed": 44,
        "query_signature_builds": 58,
        "element_signature_builds": 423,
        "distance_evaluations": 316,
        "path1_lookups": 427,
        "candidate_edges": 145,
    },
    "fine": {
        "candidates": 64,
        "queries_signed": 85,
        "query_signature_builds": 344,
        "element_signature_builds": 2752,
        "distance_evaluations": 512,
        "path1_lookups": 352,
        "candidate_edges": 340,
    },
}


def _rewrite_identity_section(graph) -> dict:
    """Identity and scoring work per search candidate (ISSUE 21).

    One fixed coarse pass (``LDBC QUERY 3`` why-empty, three explanations)
    and one fixed fine-grained pass (``LDBC QUERY 3`` why-so-few,
    ``[2C; 4C]``), each on a fresh context, with the functions below
    wrapped from here for the duration of the pass:

    * ``query_signature_builds`` -- :meth:`GraphQuery.signature` calls that
      assemble the tuple (a frozen query answers later calls from its
      slot), next to ``queries_signed``, the distinct query objects asked;
    * ``element_signature_builds`` -- element signatures computed;
    * ``distance_evaluations`` -- ``vertex_distance`` + ``edge_distance``
      calls, next to ``distance_evaluation_bound``: the elements whose
      object is not the parent candidate's plus the vertices whose IN /
      OUT set moved, summed over every table derived from a parent (every
      element of the union for a table built from scratch);
    * ``path1_lookups`` -- :meth:`GraphStatistics._path1` calls, next to
      ``candidate_edges``: one pass over each scored candidate's edges.

    ``candidates`` is what the pass generated (coarse) or evaluated
    (fine-grained).  All of it is exact: the passes are deterministic.
    """
    import repro.metrics.syntactic as syntactic
    from repro.core.query import QueryEdge, QueryVertex
    from repro.finegrained import TraverseSearchTree
    from repro.metrics.cardinality import CardinalityThreshold
    from repro.rewrite import CoarseRewriter

    counts: dict = {}
    signed: dict = {}

    def counted(name, fn, weight=lambda *args, **kwargs: 1):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + weight(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def builds(query) -> int:
        signed.setdefault(id(query), query)  # held: ids must stay distinct
        return 1 if query._sig is None else 0

    def bound(table, original, query, parent=None) -> int:
        if parent is None:
            return len(original.vertex_ids | query.vertex_ids) + len(
                original.edge_ids | query.edge_ids
            )
        old = parent.query
        moved = sum(
            1
            for v in query.vertices()
            if original.has_vertex(v.vid)
            and (
                not old.has_vertex(v.vid)
                or old.vertex(v.vid) is not v
                or old.in_set(v.vid) != query.in_set(v.vid)
                or old.out_set(v.vid) != query.out_set(v.vid)
            )
        )
        return moved + sum(
            1
            for e in query.edges()
            if original.has_edge(e.eid)
            and not (old.has_edge(e.eid) and old.edge(e.eid) is e)
        )

    def edges(stats, query, parent=None) -> int:
        return query.num_edges

    patches = [
        (GraphQuery, "signature", "query_signature_builds", builds),
        (QueryVertex, "_signature", "element_signature_builds", None),
        (QueryEdge, "_signature", "element_signature_builds", None),
        (syntactic, "vertex_distance", "distance_evaluations", None),
        (syntactic, "edge_distance", "distance_evaluations", None),
        (syntactic.DistanceTable, "__init__", "distance_evaluation_bound", bound),
        (GraphStatistics, "_path1", "path1_lookups", None),
        (GraphStatistics, "profile", "candidate_edges", edges),
    ]

    def measured(run) -> dict:
        counts.clear()
        signed.clear()
        originals = [(owner, name, getattr(owner, name)) for owner, name, _, _ in patches]
        try:
            for (owner, name, key, weight), (_, _, fn) in zip(patches, originals):
                wrapped = counted(key, fn, weight) if weight else counted(key, fn)
                setattr(owner, name, wrapped)
            candidates = run()
        finally:
            for owner, name, fn in originals:
                setattr(owner, name, fn)
        return {
            "candidates": candidates,
            "queries_signed": len(signed),
            **{key: counts.get(key, 0) for _, _, key, _ in patches},
        }

    def coarse() -> int:
        context = ExecutionContext(graph)
        result = CoarseRewriter(context=context).rewrite(
            ldbc.empty_variant("LDBC QUERY 3"), k=3
        )
        return result.generated

    def fine() -> int:
        context = ExecutionContext(graph)
        query = ldbc.query_3().freeze()  # a builder is re-signed per lookup
        count = context.count(query)
        result = TraverseSearchTree(
            context=context,
            threshold=CardinalityThreshold(2 * count, 4 * count),
            constrainable_attrs=context.attribute_domain().common_vertex_attrs(),
        ).search(query)
        return result.evaluated

    return {
        "parent": REWRITE_IDENTITY_PARENT,
        "coarse": measured(coarse),
        "fine": measured(fine),
    }


def test_micro_emit_machine_readable(ldbc_bundle):
    """Write BENCH_micro_core.json: per-op timings + the section records."""
    context = ExecutionContext(ldbc_bundle.graph)
    matcher = context.matcher
    stats = context.statistics
    cache = context.cache
    q1, q4 = ldbc.query_1(), ldbc.query_4()
    cache.count(q1)  # warm the result cache for the hit timing
    stats.estimate_query_cardinality(q4)
    # steps of exactly one q1 count, isolated from the timing rounds
    before_steps = matcher.steps
    matcher.count(q1)
    q1_steps = matcher.steps - before_steps
    ops = {
        "matcher_count_ldbc_q1": {"best_s": _best_of(lambda: matcher.count(q1))},
        "matcher_exists_ldbc_q3": {
            "best_s": _best_of(lambda: matcher.exists(ldbc.query_3()))
        },
        "syntactic_distance": {
            "best_s": _best_of(
                lambda: syntactic_distance(
                    ldbc.query_2(), ldbc.empty_variant("LDBC QUERY 2")
                )
            )
        },
        "statistics_estimate_q4": {
            "best_s": _best_of(lambda: stats.estimate_query_cardinality(q4))
        },
        # the op above times memo hits only; this one is the lookup itself:
        # a fresh provider (empty memo) over the graph's warm CSR image
        # and its interned masks
        "statistics_estimate_q4_fresh": {
            "best_s": _best_of(
                lambda: GraphStatistics(ldbc_bundle.graph).estimate_query_cardinality(q4)
            )
        },
        "result_cache_hit": {"best_s": _best_of(lambda: cache.count(q1))},
    }
    ops["matcher_count_ldbc_q1"]["steps"] = q1_steps

    compiled_match = _compiled_match_section()
    process_pool = _process_pool_section()
    mutate_while_serving = _mutate_while_serving_section()
    observability = _observability_section()
    restart_warm = _restart_warm_section()
    rewrite_identity = _rewrite_identity_section(ldbc_bundle.graph)

    payload = {
        "benchmark": "bench_micro_core",
        "schema_version": 17,
        "compiled_match": compiled_match,
        "process_pool": process_pool,
        "mutate_while_serving": mutate_while_serving,
        "observability": observability,
        "restart_warm": restart_warm,
        "rewrite_identity": rewrite_identity,
        "ops": ops,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nwrote {JSON_PATH} ("
        f"compiled-match speedup {compiled_match['speedup']:.1f}x, "
        f"process-pool speedup@2w {process_pool['speedup_2w']:.2f}x, "
        f"delta-sync patch rate "
        f"{mutate_while_serving['csr']['patch_rate']:.2f}, "
        f"tracing-enabled ratio {observability['enabled_ratio']:.2f}, "
        f"restart warm-hit rate {restart_warm['unmutated']['warm_hit_rate']:.2f} "
        f"(mutated {restart_warm['mutated']['warm_hit_rate']:.2f}) "
        f"on {process_pool['cpu_cores']} core(s))"
    )

    # acceptance: the compiled backend removes per-step interpretation
    # overhead -- >=2x over the interpreter on the typed-expansion
    # workload, single-core, pure CPU (measured ~10x on an idle box; the
    # bound is looser so contended CI runners cannot flake the gate)
    assert compiled_match["speedup"] >= 2.0, compiled_match["speedup"]
    assert compiled_match["program_cache"]["expansion"]["program_hits"] > 0
    # kernels are keyed on plan shape: the 32 variants (one edge type
    # each) bind to one kernel, generated here or by an earlier section
    batch_kernels = compiled_match["program_cache"]["rewrite_batch"]
    assert batch_kernels["programs_compiled"] <= 4, batch_kernels
    assert batch_kernels["program_hits"] >= 32, batch_kernels
    assert batch_kernels["program_fallbacks"] == 0, batch_kernels
    # acceptance (delta-sync): interleaved small mutations are absorbed
    # by in-place CSR patching on >= 90% of refreshes, with the patched
    # kernels count- and steps-identical to the interpreter.
    # Deterministic counts, not wall-clock -- no core gate.
    mws_csr = mutate_while_serving["csr"]
    assert mws_csr["patch_rate"] >= 0.9, mws_csr["patch_rate"]
    assert mws_csr["counts_identical"] and mws_csr["steps_identical"], mws_csr
    # acceptance (ISSUE 9): tracing must be cheap enough to leave on --
    # enabled-over-disabled throughput >= 0.9 even on the span-heavy
    # rewrite-batch shape (one traced request of 32 compiled counts)
    assert observability["enabled_ratio"] >= 0.9, observability["enabled_ratio"]
    # acceptance (ISSUE 10): an unmutated restart prewarms the whole
    # result cache from the snapshot -- warm-hit rate >= 0.9 (measured
    # 1.0; the rate is a deterministic count, not wall-clock) with the
    # restored counts bit-identical to the cold computes.  A restart one
    # delta behind the snapshot keeps a *partial* warm set: strictly
    # more than cold, strictly less than full, still count-identical to
    # a cold twin -- snapshots can only cost warmth, never correctness.
    rw_unmutated = restart_warm["unmutated"]
    rw_mutated = restart_warm["mutated"]
    assert rw_unmutated["warm_hit_rate"] >= 0.9, rw_unmutated["warm_hit_rate"]
    assert rw_unmutated["counts_identical"], rw_unmutated
    assert 0.0 < rw_mutated["warm_hit_rate"] < 1.0, rw_mutated["warm_hit_rate"]
    assert rw_mutated["counts_identical"], rw_mutated
    # acceptance (ISSUE 21): a candidate is signed at most once, scored in
    # O(delta) -- no more Eq. 3.11 / 3.12 evaluations than elements it
    # does not share with its parent plus moved neighbours -- and its
    # path(1) rows cost at most one pass over its edges.  Exact counts.
    for name in ("coarse", "fine"):
        work = rewrite_identity[name]
        assert work["query_signature_builds"] <= work["queries_signed"], (name, work)
        assert work["distance_evaluations"] <= work["distance_evaluation_bound"], (name, work)
        assert work["path1_lookups"] <= work["candidate_edges"], (name, work)
