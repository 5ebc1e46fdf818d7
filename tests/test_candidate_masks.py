"""Tests for the typed-adjacency storage and the CSR image's interned
candidate masks: zero-copy accessors, per-type counts, plan construction,
one mask per predicate signature (the only candidate memo), in-place
patching on writes, the mask cap, the fills' differential oracle (the
interpreter's ``vertex_candidates`` and a per-edge ``attributes_match``
scan), the edge value columns' footprint, and the newly exercised matcher
corners (homomorphic matching, self-loops under BOTH, typed expansion)."""

import tracemalloc
from array import array
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
from repro.core.predicates import Interval, ValueSet
from repro.core.serialize import shards_to_wire
from repro.datasets import dbpedia, ldbc
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
from repro.matching.candidates import attributes_match
from repro.matching.csr import MASK_CAP
from repro.rewrite import GraphStatistics
from repro.shard import GraphPartitioner, SliceEvaluator


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
        all read one interned mask: each signature is derived once.  The
        fill helper is counted per predicate map; the query's edge
        carries none, so every call is a vertex fill."""
        derived = Counter()
        fill = csr_module._matching_rows

        def counted(predicates, *index):
            derived[frozenset(predicates.items())] += 1
            return fill(predicates, *index)

        monkeypatch.setattr(csr_module, "_matching_rows", counted)
        q = person_works_at_university
        matcher = PatternMatcher(tiny_graph)
        statistics = GraphStatistics(tiny_graph)
        assert matcher.count(q) == 3
        assert statistics.vertex_cardinality(q.vertex(0)) == 4
        assert statistics.vertex_cardinality(q.vertex(1)) == 2
        assert statistics.path1_cardinality(q, 0) == 3
        assert matcher.count(q) == 3
        assert sorted(derived.values()) == [1, 1]
        assert set(derived) == {frozenset(v.predicates.items()) for v in q.vertices()}

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


# -- the fills against their oracle -------------------------------------------


def oracle_vertex_mask(csr: CSRIndex, graph, qvertex) -> bytearray:
    """The interpreter's candidate set as a mask, plus the halo vertices a
    partial graph's index cannot see."""
    mask = bytearray(csr.num_vertices)
    for vid in vertex_candidates(graph, qvertex):
        mask[csr.ix_of[vid]] = 1
    for vid, attributes in getattr(graph, "_halo", {}).items():
        if attributes_match(attributes, qvertex.predicates):
            mask[csr.ix_of[vid]] = 1
    return mask


def oracle_edge_mask(csr: CSRIndex, graph, qedge) -> bytearray:
    """One ``attributes_match`` per edge of an admitted type."""
    mask = bytearray(csr.num_edges)
    for eix, eid in enumerate(csr.eid_of):
        record = graph.edge(eid)
        if qedge.types is None or record.type in qedge.types:
            mask[eix] = 1 if attributes_match(record.attributes, qedge.predicates) else 0
    return mask


def assert_fills_agree(graph, queries, csr=None) -> int:
    """Every constrained vertex and edge of ``queries``: the interned mask
    equals the oracle's.  Returns the number of masks compared."""
    csr = CSRIndex(graph) if csr is None else csr
    compared = 0
    for q in queries:
        for qvertex in q.vertices():
            if qvertex.predicates:
                assert csr.vertex_mask(qvertex) == oracle_vertex_mask(csr, graph, qvertex), (
                    qvertex.predicates
                )
                compared += 1
        for qedge in q.edges():
            if qedge.predicates:
                assert csr.edge_mask(qedge) == oracle_edge_mask(csr, graph, qedge), (
                    qedge.types,
                    qedge.predicates,
                )
                compared += 1
    return compared


def mix_queries(module) -> list:
    """The request mix's queries (every paper query and both why-empty
    variants), plus each constrained vertex cut down to one predicate."""
    queries = []
    for name, query in module.queries().items():
        queries += [query, module.empty_variant(name), module.empty_variant_edge(name)]
    for query in list(queries):
        for qvertex in query.vertices():
            for attr, pred in qvertex.predicates.items():
                single = GraphQuery()
                single.add_vertex(predicates={attr: pred})
                queries.append(single)
    return queries


def vertex_query(predicates) -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates=predicates)
    return q


def edge_query(predicates, types=None) -> GraphQuery:
    q = GraphQuery()
    a, b = q.add_vertex(), q.add_vertex()
    q.add_edge(a, b, types=types, predicates=predicates)
    return q


#: values that share a dict key (True == 1 == 1.0, False == 0 == 0.0)
#: with a few that do not, in the order they are written
COLLIDING = [True, 1, 1.0, False, 0, 0.0, 2, 0.5, "1"]

#: predicates that tell the colliding values apart (an ``Interval``
#: rejects bools) or do not (a ``ValueSet`` compares like a dict key)
COLLIDING_PREDICATES = [
    Interval(0, 1),
    Interval(1, 1),
    Interval(0, 0),
    Interval(0.5, 2, low_open=True),
    ValueSet([True]),
    ValueSet([1]),
    ValueSet([False]),
    ValueSet([0.0]),
    ValueSet(["1"]),
    ValueSet([2, "1"]),
]


def colliding_graph(values) -> PropertyGraph:
    """A hub pointing at one vertex per value, plus one without ``flag``;
    each edge carries its target's value, its type alternating a/b."""
    g = PropertyGraph()
    hub = g.add_vertex(type="hub")
    for i, value in enumerate(values):
        v = g.add_vertex(type="leaf", flag=value)
        g.add_edge(hub, v, "a" if i % 2 else "b", flag=value)
    bare = g.add_vertex(type="leaf")
    g.add_edge(hub, bare, "a")
    return g


class TestDifferentialFills:
    @pytest.mark.parametrize("module", [ldbc, dbpedia], ids=["ldbc", "dbpedia"])
    def test_every_signature_of_the_mix(self, module, ldbc_small, dbpedia_small):
        graph = (ldbc_small if module is ldbc else dbpedia_small).graph
        assert assert_fills_agree(graph, mix_queries(module)) > 50

    @pytest.mark.parametrize("order", [1, -1], ids=["bool_first", "number_first"])
    def test_colliding_buckets(self, order):
        """The bucket a bool shares with a number is keyed by whichever was
        written first: the fill must not decide it from its key."""
        graph = colliding_graph(COLLIDING[::order])
        queries = []
        for pred in COLLIDING_PREDICATES:
            queries.append(vertex_query({"flag": pred}))
            queries.append(vertex_query({"flag": pred, "type": equals("leaf")}))
            for types in (None, {"a"}, {"a", "b"}):
                queries.append(edge_query({"flag": pred}, types))
        assert assert_fills_agree(graph, queries) == 5 * len(COLLIDING_PREDICATES)
        csr = CSRIndex(graph)
        flag = csr.vertex_mask(vertex_query({"flag": Interval(0, 1)}).vertex(0))
        # 1, 1.0, 0, 0.0 and 0.5; not True, False, 2 or "1"
        assert flag.count(1) == 5

    def test_missing_attribute_fails_the_predicate(self):
        g = PropertyGraph()
        g.add_vertex(type="a", age=3)
        g.add_vertex(type="a")
        g.add_vertex(age=4)
        g.add_edge(0, 1, "x", w=1)
        g.add_edge(1, 2, "x")
        g.add_edge(2, 0, "y", w=1)
        queries = [
            vertex_query({"type": equals("a"), "age": Interval(0, 9)}),
            vertex_query({"age": Interval(0, 9)}),
            vertex_query({"nothing": Interval(0, 9)}),
            vertex_query({"nothing": equals(1)}),
            edge_query({"w": Interval(0, 9)}),
            edge_query({"w": equals(1)}, {"x"}),
            edge_query({"nothing": equals(1)}),
        ]
        assert assert_fills_agree(g, queries) == len(queries)

    def test_untyped_and_multi_type_edges(self, tiny_graph):
        tiny_graph.add_edge(0, 4, "studyAt", sinceYear=2001)
        tiny_graph.add_edge(1, 4, "likes", sinceYear=2001)
        queries = [
            edge_query({"sinceYear": Interval(2000, 2010)}),
            edge_query({"sinceYear": Interval(2000, 2010)}, {"workAt", "studyAt"}),
            edge_query({"sinceYear": equals(2001)}, {"workAt", "studyAt", "ghost"}),
        ]
        assert assert_fills_agree(tiny_graph, queries) == len(queries)
        csr = CSRIndex(tiny_graph)
        untyped = csr.edge_mask(queries[0].edge(0))
        two_types = csr.edge_mask(queries[1].edge(0))
        # the likes edge is admitted by the untyped walk only
        assert untyped.count(1) == two_types.count(1) + 1

    def test_interval_over_many_distinct_values(self):
        g = PropertyGraph()
        for i in range(600):
            g.add_vertex(score=i / 2 if i % 3 else i, kind="odd" if i % 2 else "even")
        for i in range(599):
            g.add_edge(i, i + 1, "next", w=i)
        g.add_vertex(score=True)
        assert len(g.vertex_attr_values("score")) > 255
        queries = [
            vertex_query({"score": Interval(100, 250)}),
            vertex_query({"score": Interval(100, 250, low_open=True, high_open=True)}),
            vertex_query({"score": Interval(0, 1), "kind": equals("odd")}),
            edge_query({"w": Interval(300, 1000)}),
            edge_query({"w": Interval(300, 1000)}, {"next"}),
        ]
        assert assert_fills_agree(g, queries) == len(queries)

    def test_partial_slice_with_halo(self, ldbc_small):
        sharded = GraphPartitioner(2).partition(ldbc_small.graph)
        evaluator = SliceEvaluator.from_wire_payloads(shards_to_wire(sharded))
        for slice_ in evaluator.slices.values():
            assert slice_._halo  # cross-shard edges ship halo vertices
            assert assert_fills_agree(slice_, mix_queries(ldbc)) > 50

    def test_new_signature_after_a_write_reads_the_new_value(self):
        g = colliding_graph(COLLIDING)
        csr = csr_for(g)
        before = [vertex_query({"flag": equals(2)}), edge_query({"flag": equals(2)})]
        assert_fills_agree(g, before, csr)
        assert csr._edge_columns
        leaf = next(v for v in g.vertices() if g.vertex_attributes(v).get("flag") == 0.5)
        edge = next(r.eid for r in g.edges() if r.attributes.get("flag") == 0.5)
        g.set_vertex_attribute(leaf, "flag", 7)
        g.set_edge_attribute(edge, "flag", 7)
        assert csr_for(g) is csr  # patched in place, columns dropped
        assert not csr._edge_columns
        queries = [
            vertex_query({"flag": equals(2)}),
            edge_query({"flag": equals(2)}),
            vertex_query({"flag": Interval(5, 9)}),
            edge_query({"flag": Interval(5, 9)}),
            edge_query({"flag": equals(7)}, {"a", "b"}),
        ]
        assert assert_fills_agree(g, queries, csr) == len(queries)
        assert csr.edge_mask(queries[3].edge(0)).count(1) == 1
        assert csr.vertex_mask(queries[2].vertex(0)).count(1) == 1


class TestSeedPools:
    def test_pool_is_the_filtered_seed_universe(self, ldbc_small):
        """On the full graph and on both slices of a partition, where
        ``known`` leaves the halo rows out of the seed universe."""
        sharded = GraphPartitioner(2).partition(ldbc_small.graph)
        slices = SliceEvaluator.from_wire_payloads(shards_to_wire(sharded)).slices.values()
        for graph in (ldbc_small.graph, *slices):
            csr = CSRIndex(graph)
            assert (csr.known is None) == (graph is ldbc_small.graph)
            for q in mix_queries(ldbc):
                for qvertex in q.vertices():
                    mask = csr.vertex_mask(qvertex)
                    if mask is None:
                        continue
                    wanted = array("i", (ix for ix in csr.seed_universe if mask[ix]))
                    assert csr.seed_pool(qvertex) == wanted


class TestEdgeColumns:
    @pytest.mark.parametrize("dataset", ["ldbc_small", "dbpedia_small"])
    def test_columns_retain_at_most_32_bytes_an_edge(self, dataset, request):
        """Every type's value column, as the first untyped fill builds
        them: the bound is on what they retain, and on ldbc (where edges
        carry attributes) ``nbytes`` (``csr_bytes``) must account for it."""
        graph = request.getfixturevalue(dataset).graph
        csr = CSRIndex(graph)
        counted = csr.nbytes()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for type_key in csr._by_type:
                csr._edge_column(type_key)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained = after - before
        assert retained <= 32 * graph.num_edges
        if dataset == "ldbc_small":
            assert 0.8 * retained <= csr.nbytes() - counted <= 1.25 * retained
