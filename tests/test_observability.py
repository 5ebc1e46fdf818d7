"""Observability (ISSUE 9): request tracing, metrics, the slow-query
log, and their wire/protocol surfaces.

Covers the tracer's span-tree mechanics (nesting, attributes, the
null fast path, remote-summary grafting), Prometheus histogram bucket
boundaries, slow-log retention order, the traced end-to-end explain
(in-process and over the protocol, including the ``trace`` frame and
report-identity modulo :data:`VOLATILE_REPORT_FIELDS`), the stdlib
metrics HTTP endpoint, worker span summaries crossing the process
boundary, and the torn-read regression on ``ProcessExecutor.info()``
under concurrent batches."""

from __future__ import annotations

import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.client import connect
from repro.core import GraphQuery, PropertyGraph, equals
from repro.obs import (
    NULL_TRACER,
    REGISTRY,
    SPAN_ADMISSION,
    SPAN_CLASSIFY,
    SPAN_EVALUATE,
    SPAN_EXPLAIN,
    SPAN_MATCH,
    SPAN_PLAN,
    SPAN_REWRITE,
    SPAN_SUBGRAPH,
    SPAN_WORKER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    SlowQueryLog,
    Tracer,
    current_tracer,
    start_metrics_server,
    tracing_default,
)
from repro.server import (
    VOLATILE_REPORT_FIELDS,
    serve_in_thread,
    strip_volatile,
)
from repro.server.protocol import report_to_dict
from repro.service import WhyQueryService
from repro.shard import ProcessExecutor

CORE_EXPLAIN_KINDS = {
    SPAN_EXPLAIN,
    SPAN_ADMISSION,
    SPAN_CLASSIFY,
    SPAN_SUBGRAPH,
    SPAN_REWRITE,
    SPAN_EVALUATE,
    SPAN_MATCH,
    SPAN_PLAN,
}


def failing_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"missingEdgeType"})
    return q


def working_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"workAt"})
    return q


def obs_graph(tag: str) -> PropertyGraph:
    g = PropertyGraph()
    for i in range(3):
        p = g.add_vertex(type="person", name=f"{tag}-p{i}")
        u = g.add_vertex(type="university", name=f"{tag}-u{i % 2}")
        g.add_edge(p, u, "workAt", sinceYear=2000 + i)
    return g


def tree_kinds(node, acc=None):
    """All span kinds in a serialized (``to_dict``) trace tree."""
    acc = set() if acc is None else acc
    acc.add(node["kind"])
    for child in node.get("spans", ()):
        tree_kinds(child, acc)
    return acc


# -- tracer mechanics ---------------------------------------------------------


class TestTracer:
    def test_nesting_and_walk(self):
        tracer = Tracer()
        with tracer.span("explain"):
            with tracer.span("classify"):
                with tracer.span("match", op="count"):
                    pass
            with tracer.span("rewrite"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.kind == "explain"
        assert [c.kind for c in root.children] == ["classify", "rewrite"]
        assert [s.kind for s in root.walk()] == [
            "explain",
            "classify",
            "match",
            "rewrite",
        ]
        assert tracer.kinds() == {"explain", "classify", "match", "rewrite"}

    def test_elapsed_monotonic_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.elapsed_s >= inner.elapsed_s >= 0.0

    def test_attributes_and_annotate(self):
        tracer = Tracer()
        with tracer.span("match", op="count") as span:
            span.attributes["steps"] = 7
            tracer.annotate(compiled=False)
        assert tracer.roots[0].attributes == {
            "op": "count",
            "steps": 7,
            "compiled": False,
        }
        # annotate with no open span must not raise
        tracer.annotate(ignored=True)

    def test_exception_stamps_error_and_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("explain"):
                raise ValueError("boom")
        assert tracer._open is None
        assert tracer.roots[0].attributes["error"] == "ValueError"

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        assert current_tracer() is NULL_TRACER
        with tracer.activate():
            assert current_tracer() is tracer
            inner = Tracer()
            with inner.activate():
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_attach_summary_grafts_remote_kinds(self):
        tracer = Tracer()
        with tracer.span("explain"):
            tracer.attach_summary(
                SPAN_WORKER,
                {"match": {"count": 3, "total_s": 0.5}, "plan": {"count": 1, "total_s": 0.1}},
                task=2,
            )
        worker = tracer.roots[0].children[0]
        assert worker.kind == SPAN_WORKER
        assert worker.attributes == {"task": 2}
        assert {c.kind for c in worker.children} == {"match", "plan"}
        assert worker.elapsed_s == pytest.approx(0.6)
        assert tracer.summarize()["match"] == {"count": 3, "total_s": 0.5}

    def test_to_dict_shapes(self):
        tracer = Tracer()
        assert tracer.to_dict() is None
        with tracer.span("explain"):
            pass
        assert tracer.to_dict()["kind"] == "explain"
        with tracer.span("orphan"):
            pass
        multi = tracer.to_dict()
        assert multi["kind"] == "trace"
        assert [s["kind"] for s in multi["spans"]] == ["explain", "orphan"]

    def test_null_tracer_is_allocation_free_noop(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        handle_a = NULL_TRACER.span("match", op="count")
        handle_b = NULL_TRACER.span("plan")
        assert handle_a is handle_b  # the shared no-op handle
        with handle_a:
            pass
        assert NULL_TRACER.kinds() == set()
        assert NULL_TRACER.summarize() == {}
        assert NULL_TRACER.to_dict() is None

    def test_tracing_default_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert tracing_default() is False
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert tracing_default() is False
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert tracing_default() is True


# -- histogram bucket boundaries ----------------------------------------------


class TestHistogram:
    def test_le_inclusive_bucket_boundaries(self):
        h = Histogram("h", buckets=(0.001, 0.01, 0.1))
        h.observe(0.001)  # exactly the first bound: le-inclusive
        h.observe(0.0010000001)  # just above: next bucket
        h.observe(0.1)  # exactly the last bound
        h.observe(0.11)  # above every bound: +Inf
        h.observe(-1.0)  # negative: first bucket
        h.observe(0.0)  # zero: first bucket
        snap = h.snapshot()
        assert snap["buckets"] == [0.001, 0.01, 0.1]
        assert snap["counts"] == [3, 1, 1, 1]  # last slot is +Inf
        assert snap["count"] == 6
        assert snap["sum"] == pytest.approx(0.001 + 0.0010000001 + 0.1 + 0.11 - 1.0)

    def test_unsorted_bounds_are_sorted(self):
        h = Histogram("h", buckets=(0.1, 0.001, 0.01))
        assert h.bounds == (0.001, 0.01, 0.1)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.1, 0.1))

    def test_render_is_cumulative(self):
        registry = MetricsRegistry()
        h = registry.histogram("repro_test_seconds", buckets=(0.001, 0.01))
        h.observe(0.0001)
        h.observe(0.005)
        h.observe(5.0)
        text = registry.render()
        assert '# TYPE repro_test_seconds histogram' in text
        assert 'repro_test_seconds_bucket{le="0.001"} 1' in text
        assert 'repro_test_seconds_bucket{le="0.01"} 2' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 3' in text
        assert 'repro_test_seconds_count 3' in text

    def test_registry_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c", help="x")
        assert registry.counter("c") is a
        assert registry.counter("c", labels={"k": "v"}) is not a
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_labelled_snapshot_keys(self):
        registry = MetricsRegistry()
        registry.histogram("s", labels={"kind": "match"}).observe(0.5)
        registry.gauge("g").set(3)
        snap = registry.snapshot()
        assert 's{kind="match"}' in snap["histograms"]
        assert snap["gauges"]["g"] == 3.0


# -- slow-query log -----------------------------------------------------------


class TestSlowQueryLog:
    def test_keeps_slowest_and_orders_descending(self):
        log = SlowQueryLog(capacity=3)
        for ms in (5, 1, 9, 3, 7):
            assert log.record({"elapsed_s": ms / 1000.0, "tag": ms}) in (True, False)
        entries = log.entries()
        assert [e["tag"] for e in entries] == [9, 7, 5]
        assert len(log) == 3

    def test_fast_burst_cannot_flush_outliers(self):
        log = SlowQueryLog(capacity=2)
        log.record({"elapsed_s": 1.0, "tag": "slow"})
        log.record({"elapsed_s": 0.9, "tag": "slowish"})
        for _ in range(50):
            assert log.record({"elapsed_s": 0.001}) is False
        assert [e["tag"] for e in log.entries()] == ["slow", "slowish"]

    def test_limit_and_clear(self):
        log = SlowQueryLog(capacity=4)
        for i in range(4):
            log.record({"elapsed_s": float(i)})
        assert len(log.entries(limit=2)) == 2
        assert log.entries(limit=0) == []
        log.clear()
        assert len(log) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)


# -- traced explain through the service ---------------------------------------


class TestServiceTracing:
    def test_traced_explain_attaches_span_tree(self):
        service = WhyQueryService()
        report = service.explain(obs_graph("svc-a"), failing_query(), trace=True)
        assert report.trace is not None
        assert report.trace["kind"] == SPAN_EXPLAIN
        assert CORE_EXPLAIN_KINDS <= tree_kinds(report.trace)
        assert report.trace["attributes"]["problem"] == report.problem.value

    def test_untraced_explain_has_no_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        service = WhyQueryService()
        report = service.explain(obs_graph("svc-b"), failing_query())
        assert report.trace is None
        # an explicit opt-out wins over the ambient session default
        monkeypatch.setenv("REPRO_TRACE", "1")
        report = service.explain(obs_graph("svc-b"), failing_query(), trace=False)
        assert report.trace is None

    def test_repro_trace_env_flips_default(self, monkeypatch):
        service = WhyQueryService()
        monkeypatch.setenv("REPRO_TRACE", "1")
        report = service.explain(obs_graph("svc-c"), failing_query())
        assert report.trace is not None
        monkeypatch.setenv("REPRO_TRACE", "0")
        report = service.explain(obs_graph("svc-c"), failing_query())
        assert report.trace is None

    def test_explain_records_metrics_and_slow_log(self):
        service = WhyQueryService()
        latency = REGISTRY.histogram("repro_explain_latency_seconds")
        calls = REGISTRY.counter("repro_explain_total")
        count_before = latency.count
        calls_before = calls.value
        service.explain(obs_graph("svc-d"), failing_query(), trace=True)
        service.explain(obs_graph("svc-d"), working_query())
        assert latency.count == count_before + 2
        assert calls.value == calls_before + 2
        entries = service.slow_queries()
        assert len(entries) == 2
        traced = next(e for e in entries if e["traced"])
        assert traced["problem"] == "why-empty"
        assert traced["profile"][SPAN_EXPLAIN]["count"] == 1
        assert traced["matcher_steps"] > 0
        assert set(traced["cache"]) == {"hits", "misses"}
        assert "signature" in traced and "budget_truncated" in traced
        # per-span-kind histograms were fed from the traced request
        kind_hist = REGISTRY.histogram(
            "repro_span_seconds", labels={"kind": SPAN_EXPLAIN}
        )
        assert kind_hist.count > 0

    def test_stats_carries_metrics_section(self):
        service = WhyQueryService()
        service.explain(obs_graph("svc-e"), failing_query())
        stats = service.stats()
        assert "metrics" in stats
        assert "repro_explain_latency_seconds" in stats["metrics"]["histograms"]
        assert "repro_explain_total" in stats["metrics"]["counters"]

    def test_slow_log_capacity_option(self):
        service = WhyQueryService(slow_log_capacity=1)
        g = obs_graph("svc-f")
        service.explain(g, failing_query())
        service.explain(g, working_query())
        assert len(service.slow_queries()) == 1


# -- the wire: trace frame, metrics and slow_queries messages ------------------


@pytest.fixture(scope="module")
def wire():
    service = WhyQueryService()
    graph = obs_graph("wire")
    handle = serve_in_thread(service=service, graphs={"g": graph})
    client = connect(*handle.address)
    yield client, service, graph
    client.close()
    handle.stop()


class TestWireObservability:
    def test_volatile_fields_are_centralized(self):
        assert VOLATILE_REPORT_FIELDS == frozenset({"elapsed_s", "trace"})

    def test_traced_wire_explain_matches_in_process(self, wire):
        client, service, graph = wire
        traced = client.explain("g", failing_query(), trace=True)
        untraced = client.explain("g", failing_query())
        assert CORE_EXPLAIN_KINDS <= tree_kinds(traced["trace"])
        assert "trace" not in untraced
        assert strip_volatile(traced) == strip_volatile(untraced)
        local = service.explain(graph, failing_query(), trace=True)
        assert strip_volatile(report_to_dict(local)) == strip_volatile(traced)

    def test_streamed_traced_explain(self, wire):
        client, _, _ = wire
        stream = client.explain_stream("g", failing_query(), trace=True)
        candidates = list(stream)
        assert candidates, "the failing query must stream rewrite candidates"
        report = stream.result()
        assert stream.trace is not None
        assert report["trace"] == stream.trace
        assert CORE_EXPLAIN_KINDS <= tree_kinds(stream.trace)

    def test_metrics_message(self, wire):
        client, _, _ = wire
        payload = client.metrics()
        assert "repro_explain_latency_seconds" in payload["metrics"]["histograms"]
        assert "# TYPE repro_explain_latency_seconds histogram" in payload["text"]

    def test_slow_queries_message(self, wire):
        client, _, _ = wire
        client.explain("g", failing_query())
        entries = client.slow_queries(limit=4)
        assert entries
        assert len(entries) <= 4
        elapsed = [e["elapsed_s"] for e in entries]
        assert elapsed == sorted(elapsed, reverse=True)


# -- the Prometheus HTTP endpoint ---------------------------------------------


class TestMetricsEndpoint:
    def test_serves_text_exposition(self):
        REGISTRY.counter("repro_explain_total").inc(0)
        with start_metrics_server(port=0) as handle:
            host, port = handle.address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ).read().decode("utf-8")
            assert "# TYPE repro_explain_total counter" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5)

    def test_isolated_registry(self):
        registry = MetricsRegistry()
        registry.gauge("repro_private_gauge").set(42)
        with start_metrics_server(port=0, registry=registry) as handle:
            host, port = handle.address
            body = urllib.request.urlopen(
                f"http://{host}:{port}/", timeout=5
            ).read().decode("utf-8")
            assert "repro_private_gauge 42.0" in body


# -- process boundary: worker summaries + the info() torn-read regression ------


@pytest.fixture(scope="module")
def pool_graph():
    g = PropertyGraph()
    for tag in range(6):
        p = g.add_vertex(type="person", name=f"p{tag}")
        u = g.add_vertex(type="university", name=f"u{tag % 2}")
        g.add_edge(p, u, "workAt", sinceYear=2000 + tag)
    return g


@pytest.fixture(scope="module")
def obs_executor(pool_graph):
    with ProcessExecutor(pool_graph, max_workers=2) as executor:
        executor.warm_up()
        yield executor


class TestProcessExecutorObservability:
    def test_worker_spans_cross_the_boundary(self, obs_executor):
        tracer = Tracer()
        with tracer.activate():
            counts = obs_executor.run_queries([working_query()] * 3)
        assert counts == [6, 6, 6]
        kinds = tracer.kinds()
        assert SPAN_WORKER in kinds
        # the workers' own kinds are replayed under the worker spans
        assert SPAN_MATCH in kinds

    def test_untraced_batches_are_unchanged(self, obs_executor):
        assert current_tracer() is NULL_TRACER
        assert obs_executor.run_queries([working_query()]) == [6]

    def test_info_consistent_under_concurrent_batches(self, obs_executor):
        """Regression (ISSUE 9 satellite): ``info()`` used to read the
        lifetime counters unlocked, so a stats call racing a batch could
        observe a torn batches/queries_shipped pair."""
        stop = threading.Event()
        failures = []

        def hammer():
            while not stop.is_set():
                pools = obs_executor.info()["pools"]
                if not (
                    isinstance(pools["batches"], int)
                    and isinstance(pools["queries_shipped"], int)
                    and pools["queries_shipped"] >= pools["batches"] >= 0
                ):
                    failures.append(dict(pools))
                    return

        before = obs_executor.info()["pools"]
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                batches = [
                    pool.submit(obs_executor.run_queries, [working_query()] * 2)
                    for _ in range(12)
                ]
                for future in batches:
                    assert future.result() == [6, 6]
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not failures, failures[:3]
        after = obs_executor.info()["pools"]
        assert after["batches"] >= before["batches"] + 12
        assert after["queries_shipped"] >= before["queries_shipped"] + 24
