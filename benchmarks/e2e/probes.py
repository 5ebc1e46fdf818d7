"""Per-layer probes: each layer of ``src/repro`` timed from outside.

A layer is a package under ``src/repro``.  Every probe calls the layer's
public functions over the same 32 requests as the workloads and reports
the lower quartile of the raw wall time over ``env.repeats`` passes --
``env.heavy_repeats`` where one pass takes tenths of a second, a single pass
where it takes seconds; counts are exact.  A probe imports its layer lazily
and any exception turns its metrics into ``null`` with the reason, so a
later cull can delete a package without editing the benchmark.  The probes
do not depend on the workload.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import (
    Request,
    apply_batch,
    build_requests,
    generate_graphs,
    graph_profile,
    lower_quartile,
)

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")


@dataclass
class ProbeEnv:
    scale: float = 1.0
    repeats: int = 7
    heavy_repeats: int = 3
    #: directory the persist probe may write its snapshots into
    out_dir: str = "."
    requests: List[Request] = field(init=False)

    def __post_init__(self) -> None:
        self.requests = build_requests(self.scale)

    def of_kind(self, *kinds: str) -> List[Request]:
        return [r for r in self.requests if r.kind in kinds]

    def fresh_graphs(self) -> Dict[str, Any]:
        return generate_graphs(self.scale)

    def timed(self, fn: Callable, setup: Optional[Callable] = None, repeats: int = 0) -> float:
        """Lower quartile of ``fn``'s wall time in seconds; ``setup`` runs
        untimed before each pass and its result is handed to ``fn``."""
        samples = []
        for _ in range(repeats or self.repeats):
            state = setup() if setup is not None else None
            started = time.perf_counter()
            if setup is not None:
                fn(state)
            else:
                fn()
            samples.append(time.perf_counter() - started)
        return lower_quartile(samples)


def contexts_for(graphs: Dict[str, Any]) -> Dict[str, Any]:
    """A fresh ``ExecutionContext`` (empty result cache) per graph."""
    from repro.exec import ExecutionContext

    return {name: ExecutionContext(graph) for name, graph in graphs.items()}


PROBES: List[Tuple[Tuple[str, ...], Callable[[ProbeEnv], Dict[str, float]]]] = []


def probe(*names: str):
    def register(fn):
        PROBES.append((names, fn))
        return fn

    return register


def run_probes(env: ProbeEnv) -> Dict[str, Dict[str, Any]]:
    """Every probe's metrics as ``{name: {"value": ...}}``; a probe that
    raises yields ``{"value": None, "reason": ...}`` for each of its names."""
    results: Dict[str, Dict[str, Any]] = {}
    for names, fn in PROBES:
        try:
            values = fn(env)
            for name in names:
                results[name] = {"value": values[name]}
        except Exception as exc:  # one broken layer must not sink the ledger
            reason = f"{fn.__name__}: {type(exc).__name__}: {exc}"
            for name in names:
                results[name] = {"value": None, "reason": reason}
    return results


# -- matching ----------------------------------------------------------------------


@probe(
    "matching.interp_count_ms",
    "matching.compiled_count_ms",
    "matching.compiled_first_count_ms",
    "matching.steps_per_count",
    "matching.plan_ms",
    "matching.csr_build_ms",
    "matching.csr_bytes",
    "matching.post_mutation_count_ms",
)
def matching_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.matching import PatternMatcher, build_plan, csr_for, csr_stats

    queries = [(r.graph, r.query) for r in env.requests]
    per_count = 1e3 / len(queries)

    def count_all(matchers) -> None:
        for name, query in queries:
            matchers[name].count(query)

    def matchers_for(graphs, compiled: bool):
        return {n: PatternMatcher(g, compiled=compiled) for n, g in graphs.items()}

    graphs = env.fresh_graphs()
    interp = matchers_for(graphs, False)
    count_all(interp)
    steps = sum(m.steps for m in interp.values()) / len(queries)
    compiled = matchers_for(graphs, True)
    count_all(compiled)

    profiles = {name: graph_profile(env.requests, name) for name in graphs}
    rng = random.Random(0)

    def mutate():
        for name, graph in graphs.items():
            apply_batch(graph, "touching", rng, *profiles[name])

    return {
        "matching.interp_count_ms": per_count * env.timed(lambda: count_all(interp)),
        "matching.compiled_count_ms": per_count * env.timed(lambda: count_all(compiled)),
        "matching.compiled_first_count_ms": per_count
        * env.timed(lambda g: count_all(matchers_for(g, True)), setup=env.fresh_graphs),
        "matching.steps_per_count": steps,
        "matching.plan_ms": per_count
        * env.timed(
            lambda g: [build_plan(g[n], q) for n, q in queries], setup=env.fresh_graphs
        ),
        "matching.csr_build_ms": 1e3
        * env.timed(lambda g: [csr_for(x) for x in g.values()], setup=env.fresh_graphs)
        / len(graphs),
        "matching.csr_bytes": sum(csr_stats(g)["csr_bytes"] for g in graphs.values()),
        "matching.post_mutation_count_ms": per_count
        * env.timed(lambda _: count_all(interp), setup=mutate),
    }


@probe("matching.programs_compiled")
def programs_probe(env: ProbeEnv) -> Dict[str, float]:
    """Programs compiled by the 16 why-empty requests on a compiled
    context -- the ROADMAP's per-variant-compile suspect."""
    from repro.exec import ExecutionContext
    from repro.matching import csr_stats
    from repro.service import WhyQueryService

    graphs = env.fresh_graphs()
    factory = lambda graph: ExecutionContext(graph, compiled=True)
    with WhyQueryService(context_factory=factory) as service:
        for request in env.of_kind("empty"):
            service.explain(graphs[request.graph], request.query, request.threshold)
    return {
        "matching.programs_compiled": sum(
            csr_stats(g)["programs_compiled"] for g in graphs.values()
        )
    }


# -- explain -----------------------------------------------------------------------


@probe(
    "explain.discover_mcs_ms",
    "explain.discover_mcs_evaluations",
    "explain.bounded_mcs_ms",
    "explain.bounded_mcs_evaluations",
)
def explain_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.explain.bounded_mcs import bounded_mcs
    from repro.explain.discover_mcs import discover_mcs

    graphs = env.fresh_graphs()
    empty = env.of_kind("empty")
    bounded = env.of_kind("too_few", "too_many")

    # the evaluation caps are the engine's shipped default
    def discover():
        return [
            discover_mcs(graphs[r.graph], r.query, max_evaluations=200) for r in empty
        ]

    def bound():
        return [
            bounded_mcs(graphs[r.graph], r.query, r.threshold, max_evaluations=200)
            for r in bounded
        ]

    return {
        "explain.discover_mcs_evaluations": sum(r.stats.evaluations for r in discover()),
        "explain.discover_mcs_ms": 1e3 * env.timed(discover) / len(empty),
        "explain.bounded_mcs_evaluations": sum(r.stats.evaluations for r in bound()),
        "explain.bounded_mcs_ms": 1e3
        * env.timed(bound, repeats=env.heavy_repeats)
        / len(bounded),
    }


# -- rewrite -----------------------------------------------------------------------


@probe(
    "rewrite.coarse_ms",
    "rewrite.coarse_generated",
    "rewrite.coarse_evaluated",
    "rewrite.useful_ratio",
    "rewrite.candidates_gen_us",
    "rewrite.statistics_build_ms",
    "rewrite.domain_build_ms",
    "rewrite.hit_rate_after_touching",
    "rewrite.hit_rate_after_non_touching",
)
def rewrite_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.rewrite import (
        AttributeDomain,
        CoarseRewriter,
        GraphStatistics,
        coarse_relaxations,
    )

    graphs = env.fresh_graphs()
    empty = env.of_kind("empty")

    def contexts():
        return contexts_for(graphs)

    def coarse(ctx):
        return [CoarseRewriter(context=ctx[r.graph]).rewrite(r.query, k=3) for r in empty]

    results = coarse(contexts())
    evaluated = sum(r.evaluated for r in results)

    def statistics_build(fresh):
        for request in env.requests:
            GraphStatistics(fresh[request.graph]).estimate_query_cardinality(request.query)

    def domain_build(fresh):
        for graph in fresh.values():
            domain = AttributeDomain(graph)
            for attr in domain.common_vertex_attrs():
                domain.vertex_values(attr)

    def hit_rate_after(kind: str) -> float:
        ctx = contexts()
        for request in env.requests:
            ctx[request.graph].count(request.query)
        rng = random.Random(0)
        for name, graph in graphs.items():
            apply_batch(graph, kind, rng, *graph_profile(env.requests, name))
        hits = sum(c.cache.stats.hits for c in ctx.values())
        for request in env.requests:
            ctx[request.graph].count(request.query)
        return (sum(c.cache.stats.hits for c in ctx.values()) - hits) / len(env.requests)

    return {
        "rewrite.coarse_ms": 1e3
        * env.timed(coarse, setup=contexts, repeats=env.heavy_repeats)
        / len(empty),
        "rewrite.coarse_generated": sum(r.generated for r in results),
        "rewrite.coarse_evaluated": evaluated,
        "rewrite.useful_ratio": sum(len(r.explanations) for r in results) / evaluated,
        "rewrite.candidates_gen_us": 1e6
        * env.timed(lambda: [coarse_relaxations(r.query) for r in env.requests])
        / len(env.requests),
        "rewrite.statistics_build_ms": 1e3
        * env.timed(statistics_build, setup=env.fresh_graphs),
        "rewrite.domain_build_ms": 1e3 * env.timed(domain_build, setup=env.fresh_graphs),
        # after coarse(): the mutations below must not disturb its graphs
        "rewrite.hit_rate_after_non_touching": hit_rate_after("non_touching"),
        "rewrite.hit_rate_after_touching": hit_rate_after("touching"),
    }


# -- finegrained -------------------------------------------------------------------


@probe("finegrained.search_ms", "finegrained.evaluated", "finegrained.converged_share")
def finegrained_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.finegrained import TraverseSearchTree

    graphs = env.fresh_graphs()
    requests = env.of_kind("too_few", "too_many")
    results: List[Any] = []

    def search(ctx):
        results.clear()
        for request in requests:
            context = ctx[request.graph]
            engine = TraverseSearchTree(
                context=context,
                threshold=request.threshold,
                constrainable_attrs=context.attribute_domain().common_vertex_attrs(),
            )
            results.append(engine.search(request.query))

    elapsed = env.timed(search, setup=lambda: contexts_for(graphs), repeats=1)
    return {
        "finegrained.search_ms": 1e3 * elapsed / len(requests),
        "finegrained.evaluated": sum(r.evaluated for r in results),
        "finegrained.converged_share": sum(r.converged for r in results) / len(results),
    }


# -- metrics -----------------------------------------------------------------------


@probe("metrics.syntactic_us", "metrics.result_distance_ms")
def metrics_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.matching import PatternMatcher
    from repro.metrics import result_set_distance, syntactic_distance
    from repro.rewrite import coarse_relaxations

    graphs = env.fresh_graphs()
    base = {r.base: r for r in env.of_kind("too_few")}
    pairs = [(base[r.base].query, r.query) for r in env.of_kind("empty") if r.base in base]
    result_sets = []
    for request in base.values():
        matcher = PatternMatcher(graphs[request.graph])
        relaxed = coarse_relaxations(request.query)[0].apply(request.query)
        result_sets.append(
            (matcher.match(request.query, limit=50), matcher.match(relaxed, limit=50))
        )
    return {
        "metrics.syntactic_us": 1e6
        * env.timed(lambda: [syntactic_distance(a, b) for a, b in pairs])
        / len(pairs),
        "metrics.result_distance_ms": 1e3
        * env.timed(lambda: [result_set_distance(a, b) for a, b in result_sets])
        / len(result_sets),
    }


# -- exec --------------------------------------------------------------------------


@probe("exec.context_build_ms", "exec.evaluate_batch_ms", "exec.dedup_ratio")
def exec_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.exec import CandidateEvaluator, SerialExecutor

    graphs = env.fresh_graphs()

    def evaluate(ctx):
        for name, context in ctx.items():
            batch = [r.query for r in env.requests if r.graph == name]
            CandidateEvaluator(context.cache, SerialExecutor()).evaluate(batch, limit=1000)

    distinct = len({(r.graph, r.query.signature()) for r in env.requests})
    return {
        "exec.context_build_ms": 1e3
        * env.timed(contexts_for, setup=env.fresh_graphs)
        / len(graphs),
        "exec.evaluate_batch_ms": 1e3 * env.timed(evaluate, setup=lambda: contexts_for(graphs)),
        "exec.dedup_ratio": distinct / len(env.requests),
    }


# -- why and service ---------------------------------------------------------------


def _service_pass(service, graphs, requests) -> List[Tuple[float, float]]:
    """``(wall, report.elapsed)`` per request through ``service.explain``;
    ``report.elapsed`` is the why engine's own wall around ``debug()``."""
    timings = []
    for request in requests:
        started = time.perf_counter()
        report = service.explain(graphs[request.graph], request.query, request.threshold)
        timings.append((time.perf_counter() - started, report.elapsed))
    return timings


@probe(
    "why.engine_debug_ms",
    "why.p50_ms.empty",
    "why.p50_ms.too_few",
    "why.p50_ms.too_many",
    "service.overhead_ms",
    "service.stats_ms",
)
def service_probe(env: ProbeEnv) -> Dict[str, float]:
    """One pass of all requests through a fresh serial service.  A single
    pass: it takes seconds."""
    from repro.service import WhyQueryService

    graphs = env.fresh_graphs()
    with WhyQueryService() as service:
        timings = _service_pass(service, graphs, env.requests)
        stats_s = env.timed(service.stats)

    def p50(kind: Optional[str] = None) -> float:
        return 1e3 * statistics.median(
            t[1] for r, t in zip(env.requests, timings) if kind in (None, r.kind)
        )

    return {
        "why.engine_debug_ms": p50(),
        "why.p50_ms.empty": p50("empty"),
        "why.p50_ms.too_few": p50("too_few"),
        "why.p50_ms.too_many": p50("too_many"),
        "service.overhead_ms": 1e3 * statistics.median(w - e for w, e in timings),
        "service.stats_ms": 1e3 * stats_s,
    }


# -- shard: the process tier -------------------------------------------------------


@probe("shard.process_pass_ratio", "shard.warm_up_s")
def shard_probe(env: ProbeEnv) -> Dict[str, float]:
    """One why_cardinality episode through the process tier over the same
    episode through the serial service: the real-explain number ROADMAP
    item 2 needs to keep or delete that tier.  On its own, so that deleting
    the tier nulls these two metrics and no other."""
    from repro.service import WhyQueryService
    from repro.shard import ProcessExecutor

    requests = env.of_kind("too_few", "too_many")
    workers = min(2, os.cpu_count() or 1)
    walls = []
    for options in ({}, {"executor": "process", "process_workers": workers}):
        graphs = env.fresh_graphs()
        with WhyQueryService(**options) as service:
            walls.append(sum(wall for wall, _ in _service_pass(service, graphs, requests)))

    executor = ProcessExecutor(next(iter(graphs.values())), max_workers=workers)
    try:
        warm_up = env.timed(executor.warm_up, repeats=1)
    finally:
        executor.close()
    return {"shard.process_pass_ratio": walls[1] / walls[0], "shard.warm_up_s": warm_up}


# -- client and server -------------------------------------------------------------


@probe(
    "client.wire_overhead_ms",
    "client.put_graph_ms",
    "server.frame_encode_us",
    "server.frame_decode_us",
    "server.report_to_dict_us",
    "server.report_bytes",
    "server.streamed_candidates",
)
def wire_probe(env: ProbeEnv) -> Dict[str, float]:
    """The 16 why-empty requests over ``serve_in_thread`` + ``connect``:
    one fresh pass, then warm passes where the wire is the largest share."""
    from repro.client import connect
    from repro.server import serve_in_thread
    from repro.server.protocol import FrameDecoder, encode_frame, report_to_dict
    from repro.service import WhyQueryService

    requests = env.of_kind("empty")
    graphs = env.fresh_graphs()
    service = WhyQueryService()
    server = serve_in_thread(service=service)
    try:
        client = connect(*server.address)
        try:
            put_graph = env.timed(
                lambda: [client.put_graph(name, graph) for name, graph in graphs.items()],
                repeats=env.heavy_repeats,
            ) / len(graphs)
            overheads: Dict[str, List[float]] = {r.key: [] for r in requests}
            for index in range(1 + env.repeats):
                for request in requests:
                    started = time.perf_counter()
                    report = client.explain_stream(
                        request.graph, request.query, request.threshold
                    ).result()
                    wall = time.perf_counter() - started
                    if index:  # the first pass only warms the caches
                        overheads[request.key].append(wall - report["elapsed_s"])
            streamed = client.stats()["server"]["streamed_candidates"]
        finally:
            client.close()
        reports = [
            service.explain(server.server.graphs[r.graph], r.query, r.threshold)
            for r in requests
        ]
    finally:
        server.stop()
        service.close()
    dicts = [report_to_dict(r) for r in reports]

    def encode_all():
        return [
            encode_frame({"type": "result", "id": 1, "report": d, "streamed": 0}) for d in dicts
        ]

    frames = encode_all()
    per_report = 1e6 / len(reports)
    return {
        "client.wire_overhead_ms": 1e3
        * statistics.median(lower_quartile(v) for v in overheads.values()),
        "client.put_graph_ms": 1e3 * put_graph,
        "server.frame_encode_us": per_report * env.timed(encode_all),
        "server.frame_decode_us": per_report
        * env.timed(lambda: [FrameDecoder().feed(frame) for frame in frames]),
        "server.report_to_dict_us": per_report
        * env.timed(lambda: [report_to_dict(r) for r in reports]),
        "server.report_bytes": statistics.fmean(len(frame) for frame in frames),
        "server.streamed_candidates": streamed / (1 + env.repeats),
    }


# -- core and datasets -------------------------------------------------------------


@probe("core.mutation_us", "core.graph_to_dict_ms", "core.query_wire_us", "datasets.generate_s")
def core_probe(env: ProbeEnv) -> Dict[str, float]:
    from repro.core.serialize import graph_to_dict, query_to_wire

    graphs = env.fresh_graphs()
    anchors = {name: sorted(graph.vertices()) for name, graph in graphs.items()}
    rounds = 100

    def mutate():
        # one of each public mutator per round, on records no query mentions
        for name, graph in graphs.items():
            for i, vid in zip(range(rounds), anchors[name]):
                added = graph.add_vertex(bench_label="bench", bench_rank=i)
                graph.add_edge(vid, added, "bench_link", bench_weight=i)
                graph.set_vertex_attribute(vid, "bench_rank", i)

    return {
        "core.mutation_us": 1e6 * env.timed(mutate) / (rounds * len(graphs) * 3),
        "core.graph_to_dict_ms": 1e3
        * env.timed(lambda: [graph_to_dict(g) for g in graphs.values()])
        / len(graphs),
        "core.query_wire_us": 1e6
        * env.timed(lambda: [query_to_wire(r.query) for r in env.requests])
        / len(env.requests),
        "datasets.generate_s": env.timed(env.fresh_graphs),
    }


# -- persist -----------------------------------------------------------------------


@probe(
    "persist.snapshot_ms",
    "persist.snapshot_bytes",
    "persist.restore_ms",
    "persist.restored_share",
)
def persist_probe(env: ProbeEnv) -> Dict[str, float]:
    """Snapshot and restore of the contexts the why-empty requests warmed."""
    from repro.persist import SnapshotStore, persist_key, restore_context, snapshot_context
    from repro.why import WhyQueryEngine

    graphs = env.fresh_graphs()
    contexts = contexts_for(graphs)
    for request in env.of_kind("empty"):
        WhyQueryEngine(context=contexts[request.graph]).debug(request.query)

    with tempfile.TemporaryDirectory(dir=env.out_dir) as directory:
        store = SnapshotStore(directory)

        def snapshot():
            return [
                store.save(persist_key(c.graph), snapshot_context(c)) for c in contexts.values()
            ]

        snapshot_s = env.timed(snapshot, repeats=env.heavy_repeats)
        size = sum(os.path.getsize(path) for path in snapshot())
        reports: List[Any] = []

        def restore():
            reports.clear()
            for context in contexts_for(graphs).values():
                payload = store.load(persist_key(context.graph))
                reports.append(restore_context(context, payload))

        restore_s = env.timed(restore, repeats=env.heavy_repeats)
        entries = sum(len(c.cache) for c in contexts.values())
    return {
        "persist.snapshot_ms": 1e3 * snapshot_s / len(graphs),
        "persist.snapshot_bytes": size,
        "persist.restore_ms": 1e3 * restore_s / len(graphs),
        "persist.restored_share": sum(r.results_restored for r in reports) / entries,
    }


# -- the repository ----------------------------------------------------------------


@probe("repo.src_lines", "repo.import_s")
def repo_probe(env: ProbeEnv) -> Dict[str, float]:
    lines = 0
    for root, _dirs, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
    code = "import repro, repro.service, repro.client, repro.server"
    child_env = dict(os.environ, PYTHONPATH=SRC_DIR)

    def fresh_import():
        subprocess.run([sys.executable, "-c", code], env=child_env, check=True, timeout=60)

    return {
        "repo.src_lines": lines,
        "repo.import_s": env.timed(fresh_import, repeats=min(3, env.repeats)),
    }

