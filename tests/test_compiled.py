"""Tests for the compiled matching backend: the interned CSR arrays
(:mod:`repro.matching.csr`), the lowered match programs
(:mod:`repro.matching.program`) and the ``compiled=True`` routing of
:class:`~repro.matching.matcher.PatternMatcher`.

The interpreter stays the correctness oracle throughout: every compiled
evaluation here is checked for value-identity against a fresh
interpreted matcher, and on unbounded evaluations for *steps*-identity
-- the compiled kernels must visit exactly the candidates the
interpreter visits, in the same order."""

import random

import pytest

import repro.matching.program as program_module
from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    between,
    equals,
    one_of,
)
from repro.exec import ExecutionContext
from repro.matching import (
    MatchProgram,
    PatternMatcher,
    ProgramUnsupported,
    compiled_program,
    csr_for,
    csr_stats,
)
from repro.matching.csr import csr_entry
from repro.obs.tracing import SPAN_MATCH, SPAN_PLAN, SPAN_PROGRAM_COMPILE, Tracer


def oracle_pair(graph, injective=True):
    """(interpreted oracle, compiled matcher) over the same graph."""
    return (
        PatternMatcher(graph, injective=injective, compiled=False),
        PatternMatcher(graph, injective=injective, compiled=True),
    )


def match_key(results):
    return sorted((r.vertex_bindings, r.edge_bindings) for r in results)


@pytest.fixture
def two_hop() -> GraphQuery:
    """person -workAt-> university -locatedIn-> city"""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    c = q.add_vertex(predicates={"type": equals("city")})
    q.add_edge(p, u, types={"workAt"})
    q.add_edge(u, c, types={"locatedIn"})
    return q


class TestCompiledAgreesWithInterpreter:
    def test_count_match_exists_and_steps(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.compiled and not oracle.compiled
        assert compiled.count(two_hop) == oracle.count(two_hop) == 3
        assert compiled.steps == oracle.steps  # exact candidate-identity
        assert match_key(compiled.match(two_hop)) == match_key(oracle.match(two_hop))
        assert compiled.exists(two_hop) is oracle.exists(two_hop) is True

    def test_multi_type_both_directions(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt", "studyAt"}, directions=BOTH_DIRECTIONS)
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 4
        assert compiled.steps == oracle.steps

    def test_edge_attribute_predicates(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": equals(2003)})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 2
        assert compiled.steps == oracle.steps

    def test_interval_and_value_set_predicates(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(
            predicates={"type": equals("person"), "age": between(28, 40)}
        )
        other = q.add_vertex(predicates={"type": one_of("person", "university")})
        q.add_edge(p, other)
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)
        assert compiled.steps == oracle.steps

    def test_self_loop_under_both_directions(self):
        g = PropertyGraph()
        a = g.add_vertex(type="page", name="a")
        b = g.add_vertex(type="page", name="b")
        g.add_edge(a, a, "linksTo")
        g.add_edge(a, b, "linksTo")
        q = GraphQuery()
        v = q.add_vertex(predicates={"name": equals("a")})
        w = q.add_vertex()
        q.add_edge(v, w, types={"linksTo"}, directions=BOTH_DIRECTIONS)
        oracle, compiled = oracle_pair(g, injective=False)
        assert match_key(compiled.match(q)) == match_key(oracle.match(q))
        assert compiled.steps == oracle.steps

    def test_homomorphic_mode(self):
        g = PropertyGraph()
        x = g.add_vertex(type="person")
        y = g.add_vertex(type="person")
        g.add_edge(x, y, "knows")
        g.add_edge(y, x, "knows")
        q = GraphQuery()
        p1 = q.add_vertex(predicates={"type": equals("person")})
        p2 = q.add_vertex(predicates={"type": equals("person")})
        p3 = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(p1, p2, types={"knows"})
        q.add_edge(p2, p3, types={"knows"})
        assert PatternMatcher(g, compiled=True).count(q) == 0
        assert PatternMatcher(g, injective=False, compiled=True).count(q) == 2

    def test_closing_edge_between_bound_vertices(self, tiny_graph):
        # two parallel query edges over the same endpoints: the second
        # expand closes on an already-bound vertex (new_vid is None)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"knows"})
        q.add_edge(a, b, directions=BOTH_DIRECTIONS)
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)
        assert compiled.steps == oracle.steps

    def test_disconnected_query(self, tiny_graph):
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"knows"})
        q.add_vertex(predicates={"type": equals("city")})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)
        assert match_key(compiled.match(q)) == match_key(oracle.match(q))

    def test_single_vertex_query(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 4
        assert compiled.steps == oracle.steps

    def test_explicit_edge_order(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(two_hop, edge_order=[1, 0]) == oracle.count(
            two_hop, edge_order=[1, 0]
        )
        assert compiled.steps == oracle.steps

    def test_limit_semantics(self, tiny_graph, two_hop):
        oracle, compiled = oracle_pair(tiny_graph)
        for limit in (None, 0, 1, 2, 100):
            assert compiled.count(two_hop, limit=limit) == oracle.count(
                two_hop, limit=limit
            ), limit
            assert match_key(compiled.match(two_hop, limit=limit)) == match_key(
                oracle.match(two_hop, limit=limit)
            ), limit

    def test_empty_query_falls_back(self, tiny_graph):
        q = GraphQuery()
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q)


@pytest.fixture
def cold_kernels():
    """An empty process-wide kernel cache: compile counts asserted under
    it do not depend on which tests ran before."""
    saved = dict(program_module._KERNELS)
    program_module._KERNELS.clear()
    yield program_module._KERNELS
    program_module._KERNELS.clear()
    program_module._KERNELS.update(saved)


class TestInvalidation:
    def test_mutation_patches_csr_in_place(self, tiny_graph, two_hop):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        assert compiled.count(two_hop) == 3
        builds = csr_stats(tiny_graph)["csr_builds"]
        compiled_before = csr_stats(tiny_graph)["programs_compiled"]
        index = csr_for(tiny_graph)
        # a fifth person working at TU Dresden adds one match; the
        # appended vertex + edge are delta-patched into the *same*
        # index, and the next evaluation binds the patched arrays to
        # the kernel it already has
        eve = tiny_graph.add_vertex(type="person", name="Eve")
        tiny_graph.add_edge(eve, 4, "workAt")
        assert compiled.count(two_hop) == 4
        stats = csr_stats(tiny_graph)
        assert stats["csr_builds"] == builds
        assert stats["csr_patches"] == 1
        assert stats["csr_rebuilds"] == 0
        assert csr_for(tiny_graph) is index
        assert stats["programs_compiled"] == compiled_before

    def test_unpatchable_mutation_rebuilds_csr_not_kernels(
        self, tiny_graph, two_hop, cold_kernels
    ):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        assert compiled.count(two_hop) == 3
        builds = csr_stats(tiny_graph)["csr_builds"]
        index = csr_for(tiny_graph)
        # interning is ascending-by-vid: an explicit id *below* the max
        # cannot be appended, so this falls back to a full rebuild
        eve = tiny_graph.add_vertex(vid=-1, type="person", name="Eve")
        tiny_graph.add_edge(eve, 4, "workAt")
        assert compiled.count(two_hop) == 4
        stats = csr_stats(tiny_graph)
        assert stats["csr_builds"] == builds + 1
        assert stats["csr_rebuilds"] == 1
        assert csr_for(tiny_graph) is not index
        # kernels are graph-independent: the fresh index re-binds the one
        # the stale index compiled
        assert stats["programs_compiled"] == 1

    def test_version_check_never_serves_stale_arrays(self, tiny_graph):
        index = csr_for(tiny_graph)
        assert index.version == tiny_graph.version
        tiny_graph.add_vertex(type="person")
        assert csr_for(tiny_graph).version == tiny_graph.version

    def test_revived_segment_is_seen_by_the_next_evaluation(self, tiny_graph):
        # no data edge has the type yet: the segment is built empty.
        # The old lowering pruned the dead subtree into the program and
        # had to drop every program when such a segment came alive
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(a, b, types={"bornIn"})
        oracle, compiled = oracle_pair(tiny_graph)
        assert compiled.count(q) == oracle.count(q) == 0
        index = csr_for(tiny_graph)
        assert len(index.adjacency("bornIn", "out")[1]) == 0
        tiny_graph.add_edge(0, 6, "bornIn")
        assert compiled.count(q) == oracle.count(q) == 1
        assert csr_for(tiny_graph) is index
        assert csr_stats(tiny_graph)["csr_rebuilds"] == 0
        assert compiled.steps == oracle.steps


class TestCounters:
    def test_program_cache_counters(self, tiny_graph, two_hop, cold_kernels):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        before = csr_stats(tiny_graph)
        compiled.count(two_hop)
        compiled.count(two_hop)
        compiled.exists(two_hop)
        compiled.match(two_hop)
        after = csr_stats(tiny_graph)
        # one shape: a count kernel and a match kernel generated ...
        assert after["programs_compiled"] == before["programs_compiled"] + 2
        # ... and the other two evaluations bound to the count kernel
        assert after["program_hits"] == before["program_hits"] + 2
        assert after["program_fallbacks"] == 0
        assert after["csr_bytes"] > 0
        assert after["csr_builds"] >= 1

    def test_cache_info_exposes_program_section(self, tiny_graph, two_hop):
        compiled = PatternMatcher(tiny_graph, compiled=True)
        compiled.count(two_hop)
        compiled.count(two_hop)
        info = compiled.cache_info()
        assert info["programs"]["hits"] >= 1
        assert info["programs"]["fallbacks"] == 0
        assert info["csr"]["bytes"] > 0

    def test_stats_are_zero_before_any_build(self):
        g = PropertyGraph()
        g.add_vertex(type="a")
        assert csr_stats(g) == {
            "csr_builds": 0,
            "csr_bytes": 0,
            "csr_patches": 0,
            "csr_rebuilds": 0,
            "deltas_applied": 0,
            "programs_compiled": 0,
            "program_hits": 0,
            "program_fallbacks": 0,
        }

    def test_injective_modes_compile_distinct_kernels(
        self, tiny_graph, two_hop, cold_kernels
    ):
        PatternMatcher(tiny_graph, compiled=True).count(two_hop)
        before = csr_stats(tiny_graph)["programs_compiled"]
        PatternMatcher(tiny_graph, injective=False, compiled=True).count(two_hop)
        assert csr_stats(tiny_graph)["programs_compiled"] == before + 1

    def test_unsupported_plan_is_a_counted_fallback(self):
        # 21 chained hops need 21 nested loops plus the seed's: more than
        # one code object may hold.  The matcher interprets and says so
        g = PropertyGraph()
        vids = [g.add_vertex(type="n") for _ in range(23)]
        for a, b in zip(vids, vids[1:]):
            g.add_edge(a, b, "next")
        q = GraphQuery()
        qv = [q.add_vertex() for _ in range(22)]
        for a, b in zip(qv, qv[1:]):
            q.add_edge(a, b, types={"next"})
        oracle, compiled = oracle_pair(g)
        with pytest.raises(ProgramUnsupported):
            compiled_program(g, q)
        assert csr_stats(g)["program_fallbacks"] == 1
        assert compiled.count(q) == oracle.count(q) == 2
        assert compiled.steps == oracle.steps
        assert csr_stats(g)["program_fallbacks"] == 2

    def test_exists_span_names_the_backend(self, tiny_graph, two_hop):
        for matcher in oracle_pair(tiny_graph):
            tracer = Tracer()
            with tracer.activate():
                assert matcher.exists(two_hop)
            (span,) = [s for s in tracer.roots if s.kind == SPAN_MATCH]
            assert span.attributes["op"] == "exists"
            assert span.attributes["compiled"] is matcher.compiled
            assert span.attributes["steps"] == matcher.steps > 0


def dead_queries():
    """``(vertex-decided, edge-decided)``: a city named Paris, and a
    workAt edge of a year nobody started in."""
    by_vertex = GraphQuery()
    p = by_vertex.add_vertex(predicates={"type": equals("person")})
    c = by_vertex.add_vertex(predicates={"name": equals("Paris")})
    by_vertex.add_edge(p, c, types={"workAt"})
    by_edge = GraphQuery()
    p = by_edge.add_vertex(predicates={"type": equals("person")})
    u = by_edge.add_vertex()
    by_edge.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": equals(1999)})
    return by_vertex, by_edge


class TestDecidedEmpty:
    def test_both_backends_answer_zero_with_zero_steps(self, tiny_graph):
        for query in dead_queries():
            for matcher in oracle_pair(tiny_graph):
                assert matcher.count(query) == 0
                assert not matcher.exists(query)
                assert matcher.match(query).cardinality == 0
                assert matcher.match(query, limit=3).cardinality == 0
                assert (matcher.steps, matcher.calls, matcher.decided_empty) == (0, 4, 4)
                info = matcher.cache_info()["matcher"]
                assert info == {
                    "calls": 4, "steps": 0, "decided_empty": 4,
                    "derived_filtered": 0, "derived_seeded": 0, "derived_unchanged": 0,
                }

    def test_one_plan_and_one_match_span_per_decided_call(self, tiny_graph, cold_kernels):
        for query in dead_queries():
            for matcher in oracle_pair(tiny_graph):
                before = csr_stats(tiny_graph)
                tracer = Tracer()
                with tracer.activate():
                    matcher.count(query)
                    matcher.exists(query)
                    matcher.match(query, limit=3)
                kinds = [span.kind for root in tracer.roots for span in root.walk()]
                assert kinds.count(SPAN_MATCH) == kinds.count(SPAN_PLAN) == 3, kinds
                assert SPAN_PROGRAM_COMPILE not in kinds
                for root in tracer.roots:
                    assert root.attributes["steps"] == 0
                    assert root.attributes["decided"] == "empty"
                    # no backend ran: the span names the matcher's mode
                    assert root.attributes["compiled"] is matcher.compiled
                after = csr_stats(tiny_graph)
                for counter in ("program_fallbacks", "program_hits", "programs_compiled"):
                    assert after[counter] == before[counter], counter

    def test_an_undecided_call_carries_no_decision(self, tiny_graph, two_hop):
        for matcher in oracle_pair(tiny_graph):
            tracer = Tracer()
            with tracer.activate():
                assert matcher.count(two_hop) == 3
            (span,) = tracer.roots
            assert "decided" not in span.attributes
            assert matcher.decided_empty == 0

    def test_every_mask_is_interned_before_deciding(self, tiny_graph):
        # the dead vertex comes first: the edge mask is interned anyway,
        # so the tables fill exactly as when the query is bound
        q = GraphQuery()
        c = q.add_vertex(predicates={"name": equals("Paris")})
        p = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(p, c, types={"workAt"}, predicates={"sinceYear": equals(2003)})
        assert PatternMatcher(tiny_graph).count(q) == 0
        index = csr_for(tiny_graph)
        assert len(index._vertex_masks) == 2
        assert index.edge_mask(q.edge(0)).count(1) == 2
        assert len(index._edge_masks) == 1


class TestProgramInternals:
    def test_kernel_source_is_generated_per_mode(self, tiny_graph, two_hop):
        program = compiled_program(tiny_graph, two_hop)
        count_source, match_source = program.source("count"), program.source("match")
        assert "def _kernel(" in count_source
        assert "def _kernel(" in match_source
        # the match kernel emits bindings; the count kernel must not
        assert "out_append" in match_source
        assert "out_append" not in count_source
        # nothing of the query is baked in: constants arrive in the binding
        assert "person" not in count_source and "workAt" not in count_source

    def test_kernels_shared_across_matchers(self, tiny_graph, two_hop):
        m1 = PatternMatcher(tiny_graph, compiled=True)
        m2 = PatternMatcher(tiny_graph, compiled=True)
        m1.count(two_hop)
        hits = csr_stats(tiny_graph)["program_hits"]
        m2.count(two_hop)
        assert csr_stats(tiny_graph)["program_hits"] == hits + 1

    def test_unsupported_plan_raises(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        with pytest.raises(ProgramUnsupported):
            # an empty plan cannot open with a seed step
            MatchProgram(csr_entry(tiny_graph), [], q)

    def test_typed_adjacency_off_keeps_the_oracle_interpreted(self, tiny_graph):
        # the typed_adjacency switch is gone: compiled=False alone pins
        # the oracle to the interpreter
        assert not PatternMatcher(tiny_graph, compiled=False).compiled

    def test_compiled_is_the_default(self, tiny_graph):
        assert PatternMatcher(tiny_graph).compiled
        assert ExecutionContext(tiny_graph).matcher.compiled
        assert not ExecutionContext(tiny_graph, compiled=False).matcher.compiled


def variant(kind="person", year=None, edge_type="workAt"):
    """person -workAt-> university with the constants left open."""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals(kind)})
    u = q.add_vertex(predicates={"type": equals("university")})
    predicates = {"sinceYear": equals(year)} if year is not None else {}
    q.add_edge(p, u, types={edge_type}, predicates=predicates)
    return q


class TestShapeKeyedKernels:
    def test_variants_share_one_kernel_object(self, tiny_graph):
        # predicate constants and edge types of equal arity are binding,
        # not shape
        a = compiled_program(tiny_graph, variant("person", 2003, "workAt"))
        b = compiled_program(tiny_graph, variant("person", 2010, "studyAt"))
        assert a.shape == b.shape
        assert a.kernel("count") is b.kernel("count")
        assert a.kernel("match") is b.kernel("match")
        assert a.binding != b.binding
        # an edge mask more is another shape
        c = compiled_program(tiny_graph, variant("person", None, "workAt"))
        assert c.shape != a.shape
        assert c.kernel("count") is not a.kernel("count")

    def test_rewrite_batch_compiles_a_handful(self, cold_kernels):
        # the rewriting-frontier shape of bench_micro_core's
        # ``rewrite_batch``: one pattern, another edge type per variant
        def workload(num_types=32, hubs=6, fanout=3):
            g = PropertyGraph()
            for hub in [g.add_vertex(type="hub") for _ in range(hubs)]:
                for t in range(num_types):
                    for _ in range(fanout):
                        g.add_edge(hub, g.add_vertex(type="leaf"), f"rel{t}")
            return g

        batch = []
        for t in range(32):
            q = GraphQuery()
            h = q.add_vertex(predicates={"type": equals("hub")})
            leaf = q.add_vertex(predicates={"type": equals("leaf")})
            q.add_edge(h, leaf, types={f"rel{t}"})
            batch.append(q)
        graph = workload()
        oracle, compiled = oracle_pair(graph)
        for q in batch:
            assert compiled.count(q) == oracle.count(q) == 18
        assert compiled.steps == oracle.steps
        assert 1 <= csr_stats(graph)["programs_compiled"] <= 4

        # kernel code is graph-independent: a second graph compiles none
        second = workload()
        matcher = PatternMatcher(second)
        for q in batch:
            matcher.count(q)
        stats = csr_stats(second)
        assert stats["programs_compiled"] == 0
        assert stats["program_hits"] == 32

    def test_eviction_under_the_cap_stays_correct(
        self, tiny_graph, two_hop, cold_kernels, monkeypatch
    ):
        monkeypatch.setattr(program_module, "KERNEL_CACHE_ENTRIES", 2)
        oracle, compiled = oracle_pair(tiny_graph)
        queries = [two_hop, variant(), variant(year=2003), variant(edge_type="studyAt")]
        for _ in range(3):
            for q in queries:
                assert compiled.count(q) == oracle.count(q)
                assert match_key(compiled.match(q)) == match_key(oracle.match(q))
                assert len(cold_kernels) <= 2
        assert compiled.steps == oracle.steps
        # the evicted shapes were simply generated again
        assert csr_stats(tiny_graph)["programs_compiled"] > len(queries)


    def test_concurrent_generation_and_eviction(
        self, tiny_graph, two_hop, cold_kernels, monkeypatch
    ):
        """More threads than cores race lookups, generation and eviction
        on a two-entry cache: every count must still equal the oracle's
        (a lost or half-inserted kernel would raise or miscount)."""
        import sys
        import threading

        monkeypatch.setattr(program_module, "KERNEL_CACHE_ENTRIES", 2)
        queries = [two_hop, variant(), variant(year=2003), variant(edge_type="studyAt")]
        oracle = PatternMatcher(tiny_graph, compiled=False)
        expected = [oracle.count(q) for q in queries]
        failures = []

        def worker(offset):
            matcher = PatternMatcher(tiny_graph)
            try:
                for i in range(150):
                    k = (i + offset) % len(queries)
                    if matcher.count(queries[k]) != expected[k]:
                        failures.append((offset, i))
            except Exception as exc:  # surfaced by the assertion below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(cold_kernels) <= 2


class TestBoundedRetention:
    def test_distinct_predicate_variants_stay_bounded(self):
        import tracemalloc

        from repro.matching.csr import MASK_CAP

        g = PropertyGraph()
        people = [g.add_vertex(type="person", rank=i) for i in range(600)]
        hub = g.add_vertex(type="university")
        for i, vid in enumerate(people):
            g.add_edge(vid, hub, "workAt", sinceYear=i)
        matcher = PatternMatcher(g)

        def variants(start, n):
            # one shape; the predicate constants differ at both ends:
            # a new seed pool, vertex mask and edge mask per variant
            for i in range(start, start + n):
                q = GraphQuery()
                u = q.add_vertex(predicates={"type": equals("university")})
                p = q.add_vertex(predicates={"rank": equals(i)})
                q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": equals(i)})
                yield i, q

        for i, q in variants(0, 50):  # warm: kernels, index, first masks
            assert matcher.count(q) == 1, i
        index = csr_for(g)
        compiled_before = csr_stats(g)["programs_compiled"]
        sizes = []
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for i, q in variants(50, MASK_CAP + 100):
            assert matcher.count(q) == (1 if i < len(people) else 0), i
            sizes.append(len(index._vertex_masks))
            assert sizes[-1] <= MASK_CAP
            assert len(index._edge_masks) <= MASK_CAP
            assert len(index._seed_pools) <= MASK_CAP + 1
            assert len(index._degree_sums) <= MASK_CAP + 1
        after, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert csr_stats(g)["programs_compiled"] == compiled_before
        # the vertex table filled to the cap and recycled whole ...
        assert max(sizes) == MASK_CAP and sizes[-1] < MASK_CAP // 2
        # ... and no degree table keeps a recycled mask alive
        live = {id(mask) for mask, _preds in index._vertex_masks.values()}
        assert all(
            table._mask is None or id(table._mask) in live
            for table in index._degree_sums.values()
        )
        # at most MASK_CAP signatures' masks, pools and degree tables are
        # held at once (~3.6 KB each here) -- no plan, no kernel, no
        # source per variant (the per-query program of the old lowering
        # alone held ~12 KB) ...
        assert peak - before < MASK_CAP * 4_000
        # ... and after the recycle only the signatures interned since
        # remain (~4.2 KB each, ~0.64 MB in all)
        assert after - before < 1_000_000
        assert csr_stats(g)["csr_bytes"] < 3 * MASK_CAP * 601 + 64 * 1024


def per_vertex_segment(graph, index, type_key, direction):
    """The reference builder: one accessor call per vertex."""
    eix_of = {eid: eix for eix, eid in enumerate(index.eid_of)}
    endpoint = index.tgt if direction == "out" else index.src
    indptr, edge_ix, other_ix = [0], [], []
    for vid in index.vid_of:
        if type_key is None:
            eids = graph.out_edges(vid) if direction == "out" else graph.in_edges(vid)
        elif direction == "out":
            eids = graph.out_edges_of_type(vid, type_key)
        else:
            eids = graph.in_edges_of_type(vid, type_key)
        for eid in eids:
            edge_ix.append(eix_of[eid])
            other_ix.append(endpoint[eix_of[eid]])
        indptr.append(len(edge_ix))
    return indptr, edge_ix, other_ix


class TestOnePassSegments:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_per_vertex_builder(self, seed):
        from test_property_based import (
            EDGE_TYPES,
            random_differential_graph,
            random_mutations,
        )

        rng = random.Random(seed)
        graph = random_differential_graph(rng)
        keys = [(t, d) for t in (None, "absent") + EDGE_TYPES for d in ("out", "in")]

        def check():
            index = csr_for(graph)
            for type_key, direction in keys:
                built = index.adjacency(type_key, direction)
                assert all(a.typecode == "i" for a in built)
                assert [list(a) for a in built] == list(
                    per_vertex_segment(graph, index, type_key, direction)
                ), (seed, type_key, direction)

        check()
        # ... and patched rows keep replaying the adjacency lists
        random_mutations(rng, graph, 6)
        check()
        assert csr_stats(graph)["csr_rebuilds"] == 0
