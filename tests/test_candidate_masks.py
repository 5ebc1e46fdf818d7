"""Tests for the typed-adjacency storage and the CSR image's interned
candidate masks: zero-copy accessors, per-type counts, plan construction,
one mask per predicate signature (the only candidate memo), in-place
patching on writes, the mask cap, and the newly exercised matcher corners
(homomorphic matching, self-loops under BOTH, typed expansion)."""

from collections import Counter

import pytest

import repro.matching.csr as csr_module
from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    equals,
    one_of,
)
from repro.matching import (
    CSRIndex,
    ExpandStep,
    PatternMatcher,
    SeedStep,
    build_plan,
    csr_for,
    csr_stats,
    vertex_candidates,
)
from repro.matching.csr import MASK_CAP
from repro.rewrite import GraphStatistics


class TestTypedAdjacency:
    def test_typed_lists_partition_untyped(self, tiny_graph):
        for vid in tiny_graph.vertices():
            typed_out = [
                eid
                for t in tiny_graph.edge_types()
                for eid in tiny_graph.out_edges_of_type(vid, t)
            ]
            assert sorted(typed_out) == sorted(tiny_graph.out_edges(vid))
            typed_in = [
                eid
                for t in tiny_graph.edge_types()
                for eid in tiny_graph.in_edges_of_type(vid, t)
            ]
            assert sorted(typed_in) == sorted(tiny_graph.in_edges(vid))

    def test_typed_adjacency_maintained_on_add_edge(self, tiny_graph):
        new = tiny_graph.add_edge(0, 3, "knows")
        assert new in tiny_graph.out_edges_of_type(0, "knows")
        assert new in tiny_graph.in_edges_of_type(3, "knows")
        assert tiny_graph.out_degree_of_type(0, "knows") == 2

    def test_per_type_counts_are_consistent(self, tiny_graph):
        for t, count in tiny_graph.edge_type_counts().items():
            assert tiny_graph.num_edges_of_type(t) == count
        assert tiny_graph.num_edges_of_type("no-such-type") == 0
        assert tiny_graph.out_edges_of_type(0, "no-such-type") == ()

    def test_num_vertices_with_matches_index(self, tiny_graph):
        assert tiny_graph.num_vertices_with("type", "person") == 4
        assert tiny_graph.num_vertices_with("type", "robot") == 0

    def test_zero_copy_views_are_live(self, tiny_graph):
        out = tiny_graph.out_edges(0)
        persons = tiny_graph.vertices_with("type", "person")
        before_out, before_persons = len(out), len(persons)
        tiny_graph.add_edge(0, 8, "livesIn")
        tiny_graph.add_vertex(type="person", name="Eve")
        assert len(out) == before_out + 1
        assert len(persons) == before_persons + 1

    def test_version_counter_bumps_on_mutation(self, tiny_graph):
        v0 = tiny_graph.version
        tiny_graph.add_vertex(type="person")
        assert tiny_graph.version == v0 + 1
        tiny_graph.add_edge(0, 1, "knows")
        assert tiny_graph.version == v0 + 2


class TestTypedExpansion:
    def test_typed_and_untyped_matchers_agree(self, tiny_graph):
        """The untyped walk is gone; the kernels and the interpreter -- the
        one semantics pair left -- agree on a multi-type BOTH expansion."""
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt", "studyAt"}, directions=BOTH_DIRECTIONS)
        compiled = PatternMatcher(tiny_graph)
        interpreter = PatternMatcher(tiny_graph, compiled=False)
        assert compiled.count(q) == interpreter.count(q) == 4
        with pytest.raises(TypeError):
            PatternMatcher(tiny_graph, typed_adjacency=False)

    def test_typed_expansion_visits_strictly_fewer_edges(self, tiny_graph):
        # tud(4) has 3 incoming edges but only 1 of type studyAt; the
        # typed walk must not even *visit* the workAt edges
        q = GraphQuery()
        u = q.add_vertex(predicates={"type": equals("university")})
        s = q.add_vertex()
        q.add_edge(s, u, types={"studyAt"})
        compiled = PatternMatcher(tiny_graph)
        interpreter = PatternMatcher(tiny_graph, compiled=False)
        assert compiled.count(q) == interpreter.count(q) == 1
        # two university seeds + tud's one studyAt edge; scanning all
        # incident edges would take 6 (tud's two workAt edges, su's one)
        assert compiled.steps == interpreter.steps == 3

    def test_self_loop_under_both_directions_yields_once(self):
        g = PropertyGraph()
        a = g.add_vertex(type="page", name="a")
        b = g.add_vertex(type="page", name="b")
        g.add_edge(a, a, "linksTo")  # self-loop
        g.add_edge(a, b, "linksTo")
        q = GraphQuery()
        v = q.add_vertex(predicates={"name": equals("a")})
        w = q.add_vertex()
        q.add_edge(v, w, types={"linksTo"}, directions=BOTH_DIRECTIONS)
        matcher = PatternMatcher(g, injective=False)
        matches = matcher.match(q)
        # homomorphic semantics: the self-loop binds w to a exactly once
        # (not twice via out + in), plus the a->b edge
        bound = sorted(m.data_vertex(w) for m in matches)
        assert bound == [a, b]

    def test_self_loop_single_direction_matches(self):
        g = PropertyGraph()
        a = g.add_vertex(type="page")
        g.add_edge(a, a, "linksTo")
        q = GraphQuery()
        v = q.add_vertex()
        w = q.add_vertex()
        q.add_edge(v, w, types={"linksTo"})
        assert PatternMatcher(g, injective=False).count(q) == 1
        # injective matching cannot bind v and w to the same data vertex
        assert PatternMatcher(g).count(q) == 0

    def test_homomorphism_reuses_data_vertices(self, tiny_graph):
        # triangle-free pattern: p1 -knows-> p2 -knows-> p3 where p1 and
        # p3 may be the same person only under homomorphism semantics
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
        assert PatternMatcher(g).count(q) == 0  # injective: needs 3 people
        assert PatternMatcher(g, injective=False).count(q) == 2  # x-y-x, y-x-y


class TestBuildPlan:
    def test_repeated_calls_build_equal_fresh_plans(
        self, tiny_graph, person_works_at_university
    ):
        first = build_plan(tiny_graph, person_works_at_university)
        second = build_plan(tiny_graph, person_works_at_university)
        assert first == second
        assert first is not second  # built, not cached
        # the two universities are more selective than the four persons
        assert first == [SeedStep(1), ExpandStep(0, 1, 0)]

    def test_mutation_yields_a_fresh_plan(self, tiny_graph, person_works_at_university):
        before = build_plan(tiny_graph, person_works_at_university)
        for _ in range(3):
            tiny_graph.add_vertex(type="university")
        # five universities now outnumber the four persons: seed flips
        after = build_plan(tiny_graph, person_works_at_university)
        assert before == [SeedStep(1), ExpandStep(0, 1, 0)]
        assert after == [SeedStep(0), ExpandStep(0, 0, 1)]

    def test_edge_order_steers_the_plan(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        c = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(p, u, types={"workAt"})
        q.add_edge(u, c, types={"locatedIn"})
        matcher = PatternMatcher(tiny_graph)
        assert matcher.count(q) == matcher.count(q, edge_order=[1, 0])
        assert build_plan(tiny_graph, q, [1, 0]) == [
            SeedStep(u),
            ExpandStep(1, u, c),
            ExpandStep(0, u, p),
        ]


def mask_vids(csr: CSRIndex, mask) -> set:
    """The data vertex ids a mask admits."""
    return {csr.vid_of[ix] for ix, bit in enumerate(mask) if bit}


def typed(vertex_type: str) -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates={"type": equals(vertex_type)})
    return q


class TestCandidateMasks:
    def test_masks_interned_by_predicate_signature(self, tiny_graph):
        csr = csr_for(tiny_graph)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("person")})
        first = csr.vertex_mask(q.vertex(a))
        second = csr.vertex_mask(q.vertex(b))  # same predicates, other vid
        assert mask_vids(csr, first) == {0, 1, 2, 3}
        assert second is first
        assert list(csr.seed_pool(q.vertex(b))) == [0, 1, 2, 3]

    def test_unconstrained_vertex_has_no_mask(self, tiny_graph):
        csr = csr_for(tiny_graph)
        q = GraphQuery()
        v = q.add_vertex()
        assert csr.vertex_mask(q.vertex(v)) is None
        assert csr.seed_pool(q.vertex(v)) is csr.seed_universe

    def test_one_derivation_per_signature_per_index(
        self, tiny_graph, person_works_at_university, monkeypatch
    ):
        """The matcher, the statistics' vertex cardinality and path(1)
        all read one interned mask: each signature is derived once."""
        derived = Counter()

        def counted(graph, qvertex):
            derived[qvertex.predicate_signature()] += 1
            return vertex_candidates(graph, qvertex)

        monkeypatch.setattr(csr_module, "vertex_candidates", counted)
        q = person_works_at_university
        matcher = PatternMatcher(tiny_graph)
        statistics = GraphStatistics(tiny_graph)
        assert matcher.count(q) == 3
        assert statistics.vertex_cardinality(q.vertex(0)) == 4
        assert statistics.vertex_cardinality(q.vertex(1)) == 2
        assert statistics.path1_cardinality(q, 0) == 3
        assert matcher.count(q) == 3
        assert sorted(derived.values()) == [1, 1]
        assert set(derived) == {v.predicate_signature() for v in q.vertices()}

    @pytest.mark.parametrize(
        "write",
        [
            lambda g: g.add_vertex(type="person", name="Eve"),
            lambda g: g.set_vertex_attribute(4, "type", "person"),
            lambda g: g.set_vertex_attribute(0, "type", "city"),
        ],
        ids=["add_vertex", "set_into", "set_out_of"],
    )
    def test_patched_mask_equals_a_fresh_index(self, tiny_graph, write):
        queries = [typed(t) for t in ("person", "university", "city")]
        csr = csr_for(tiny_graph)
        for q in queries:
            csr.seed_pool(q.vertex(0))
        write(tiny_graph)
        patched = csr_for(tiny_graph)
        assert patched is csr
        assert csr_stats(tiny_graph)["csr_patches"] == 1
        fresh = CSRIndex(tiny_graph)
        for q in queries:
            assert patched.vertex_mask(q.vertex(0)) == fresh.vertex_mask(q.vertex(0))
            assert patched.seed_pool(q.vertex(0)) == fresh.seed_pool(q.vertex(0))

    def test_mutation_moves_the_vertex_cardinality(self, tiny_graph):
        statistics = GraphStatistics(tiny_graph)
        person = typed("person").vertex(0)
        assert statistics.vertex_cardinality(person) == 4
        tiny_graph.add_vertex(type="person", name="Eve")
        assert statistics.vertex_cardinality(person) == 5

    def test_signature_past_the_cap_recycles_the_table(self, tiny_graph):
        csr = csr_for(tiny_graph)
        for i in range(MASK_CAP):
            q = GraphQuery()
            q.add_vertex(predicates={"name": equals(f"nobody {i}")})
            csr.seed_pool(q.vertex(0))
            csr.degree_sums(q.vertex(0))
        assert len(csr._vertex_masks) == len(csr._seed_pools) == MASK_CAP
        assert len(csr._degree_sums) == MASK_CAP
        person = typed("person").vertex(0)
        mask = csr.vertex_mask(person)
        # the degree tables hold masks: they go with the table
        assert len(csr._vertex_masks) == 1 and not csr._seed_pools
        assert not csr._degree_sums
        assert mask_vids(csr, mask) == {0, 1, 2, 3}

    def test_multi_value_predicate_candidates(self, tiny_graph):
        # exercises the freeze-once union accumulation
        q = GraphQuery()
        v = q.add_vertex(predicates={"type": one_of("person", "city", "ghost")})
        assert vertex_candidates(tiny_graph, q.vertex(v)) == {0, 1, 2, 3, 6, 7}
        csr = csr_for(tiny_graph)
        assert mask_vids(csr, csr.vertex_mask(q.vertex(v))) == {0, 1, 2, 3, 6, 7}

    def test_cache_info_reports_no_candidate_layer(
        self, tiny_graph, person_works_at_university
    ):
        matcher = PatternMatcher(tiny_graph)
        matcher.count(person_works_at_university)
        matcher.count(person_works_at_university)
        info = matcher.cache_info()
        assert info["caches"] == {}
        # the repeat evaluation is served by the process-wide kernel cache
        assert info["programs"]["hits"] >= 1
