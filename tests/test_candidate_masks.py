"""Tests for the typed-adjacency storage and the CSR image's interned
candidate masks: zero-copy accessors, per-type counts, plan construction,
one mask per predicate signature (the only candidate memo), in-place
patching on writes, the mask cap, the fills' differential oracle (the
interpreter's ``vertex_candidates`` and a per-edge ``attributes_match``
scan), the graph's edge value index (its maintenance against a walk of
the edge records, and its footprint), and the newly exercised matcher
corners (homomorphic matching, self-loops under BOTH, typed expansion)."""

import random
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
    """The interpreter's candidate set as a mask."""
    mask = bytearray(csr.num_vertices)
    for vid in vertex_candidates(graph, qvertex):
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

    def test_new_signature_after_a_write_reads_the_new_value(self):
        g = colliding_graph(COLLIDING)
        csr = csr_for(g)
        before = [vertex_query({"flag": equals(2)}), edge_query({"flag": equals(2)})]
        assert_fills_agree(g, before, csr)
        leaf = next(v for v in g.vertices() if g.vertex_attributes(v).get("flag") == 0.5)
        edge = next(r.eid for r in g.edges() if r.attributes.get("flag") == 0.5)
        g.set_vertex_attribute(leaf, "flag", 7)
        g.set_edge_attribute(edge, "flag", 7)
        assert csr_for(g) is csr  # patched in place
        # the fills' value index moved the edge with the write
        assert g.edges_with("flag", 7) == {edge}
        assert 0.5 not in g.edge_attr_values("flag")
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


    @pytest.mark.parametrize("ids", ["dense", "sparse", "dense_then_sparse"])
    def test_untyped_and_multi_type_edges_after_writes(self, ids):
        """Edge masks filled after rounds of edge inserts and attribute
        writes, over an index patched through every round and over a
        fresh one.  Sparse edge ids are not their insertion positions,
        so rows go through the index's id -> row map; the third graph's
        ids turn sparse with its first patched insert."""
        rng = random.Random(54)
        g = PropertyGraph()
        for i in range(12):
            g.add_vertex(kind="even" if i % 2 else "odd")
        sparse_ids = iter(range(1000, 0, -7))

        def add_edge(sparse: bool):
            attrs = {"w": rng.randint(0, 5)} if rng.random() < 0.7 else {}
            if rng.random() < 0.2:
                attrs["flag"] = rng.choice(COLLIDING)
            eid = next(sparse_ids) if sparse else None
            g.add_edge(rng.randrange(12), rng.randrange(12), rng.choice("abc"), eid=eid, **attrs)

        for _ in range(30):
            add_edge(ids == "sparse")
        queries = [
            edge_query({"w": Interval(1, 3)}),
            edge_query({"w": Interval(1, 3)}, {"a", "b"}),
            edge_query({"w": equals(4)}, {"c", "ghost"}),
            edge_query({"w": one_of(0, 5), "flag": Interval(0, 1)}),
            edge_query({"flag": ValueSet([True, 0.5])}, {"a", "c"}),
        ]
        csr = csr_for(g)
        assert_fills_agree(g, queries, csr)
        for _ in range(4):
            for _ in range(5):
                add_edge(ids != "dense")
                eid = rng.choice(list(g.edge_ids()))
                value = rng.choice([*range(7), True, False, 0.5])
                g.set_edge_attribute(eid, rng.choice(["w", "flag", "w"]), value)
            assert csr_for(g) is csr  # patched in place
            assert assert_fills_agree(g, queries, csr) == len(queries)
            assert assert_fills_agree(g, queries) == len(queries)
        assert csr._dense_eids is (ids == "dense")


@pytest.mark.parametrize(
    "eids, dense",
    [
        ((None, None, None), True),
        ((0, 1, None), True),
        ((0, 2, None), False),  # a gap
        ((1, 0, None), False),  # out of order
        ((-1, None, None), False),
        ((), True),
    ],
)
def test_edge_ids_dense_iff_each_id_is_its_position(eids, dense):
    g = PropertyGraph()
    a, b = g.add_vertex(), g.add_vertex()
    for eid in eids:
        g.add_edge(a, b, "t", eid=eid)
    assert g.edge_ids_dense is dense
    assert dense is all(eid == pos for pos, eid in enumerate(g.edge_ids()))
    assert CSRIndex(g)._dense_eids is dense


def walked_edge_index(graph, attr) -> dict:
    """``value -> edge ids`` of one edge attribute, from the records."""
    index: dict = {}
    for record in graph.edges():
        if attr in record.attributes:
            index.setdefault(record.attributes[attr], set()).add(record.eid)
    return index


class TestDifferentialEdgeIndex:
    """The graph's edge value index, kept current by ``add_edge`` and
    ``set_edge_attribute``, against a fresh walk of the edge records
    after every write."""

    ATTRS = ("w", "flag", "late")

    def assert_index_current(self, g) -> None:
        for attr in self.ATTRS:
            # an emptied bucket left behind would read {} here
            index = {value: set(g.edges_with(attr, value)) for value in g.edge_attr_values(attr)}
            assert index == walked_edge_index(g, attr), attr
            counted = Counter(
                r.attributes[attr] for r in g.edges() if attr in r.attributes
            )
            assert g.edge_value_counts(attr) == counted, attr

    @pytest.mark.parametrize("seed", [7, 12, 54])
    def test_every_write_keeps_the_index_current(self, seed):
        rng = random.Random(seed)
        g = PropertyGraph()
        for _ in range(8):
            g.add_vertex()
        for _ in range(20):
            g.add_edge(rng.randrange(8), rng.randrange(8), "t", w=rng.randint(0, 3))
        # built here: every later write is maintenance, not a first build
        self.assert_index_current(g)
        writes = Counter()
        for _ in range(200):
            eids = list(g.edge_ids())
            roll = rng.random()
            if roll < 0.25:
                attrs = {attr: rng.choice([0, 1, True, 2.0, "x"]) for attr in self.ATTRS
                         if rng.random() < 0.4}
                g.add_edge(rng.randrange(8), rng.randrange(8), "t", **attrs)
                writes["edge-after-build"] += 1
            else:
                eid = rng.choice(eids)
                attr = rng.choice(self.ATTRS)
                attrs = g.edge(eid).attributes
                if attr in attrs and roll < 0.45:
                    value = attrs[attr]
                    writes["same-value"] += 1
                else:
                    value = rng.choice([0, 1, 3, 4.5, True, "x", "y"])
                    writes["new-attribute" if attr not in attrs else "new-value"] += 1
                g.set_edge_attribute(eid, attr, value)
            self.assert_index_current(g)
        assert min(writes.values()) > 0 and len(writes) == 4, writes

    def test_an_emptied_bucket_is_deleted(self):
        g = PropertyGraph()
        a, b = g.add_vertex(), g.add_vertex()
        e = g.add_edge(a, b, "t", w=1)
        g.add_edge(b, a, "t", w=2)
        assert g.edge_value_counts("w") == {1: 1, 2: 1}
        g.set_edge_attribute(e, "w", 2)
        assert list(g.edge_attr_values("w")) == [2]
        assert g.edges_with("w", 1) == frozenset()

    def test_construction_builds_no_index(self, tiny_graph):
        assert tiny_graph._edge_index == {}
        tiny_graph.add_edge(0, 1, "knows", since=2001)
        tiny_graph.set_edge_attribute(0, "sinceYear", 1999)
        assert tiny_graph._edge_index == {}
        assert tiny_graph.edges_with("sinceYear", 1999) == {0}
        assert set(tiny_graph._edge_index) == {"sinceYear"}


class TestSeedPools:
    def test_pool_is_the_filtered_seed_universe(self, ldbc_small):
        csr = CSRIndex(ldbc_small.graph)
        for q in mix_queries(ldbc):
            for qvertex in q.vertices():
                mask = csr.vertex_mask(qvertex)
                if mask is None:
                    continue
                wanted = array("i", (ix for ix in csr.seed_universe if mask[ix]))
                assert csr.seed_pool(qvertex) == wanted


class TestEdgeValueIndex:
    @pytest.mark.parametrize("module, scale, seed", [(ldbc, 0.35, 7), (dbpedia, 0.35, 11)],
                             ids=["ldbc_small", "dbpedia_small"])
    def test_index_retains_at_most_26_bytes_an_edge(self, module, scale, seed):
        """The graph's value index over every edge attribute, as fills
        naming each would build it, on a fresh copy of the fixture's
        graph (the session fixture's indexes may be built already): the
        bound is on what it retains, each bucket copied to its size once
        built."""
        graph = module.generate(scale=scale, seed=seed).graph
        attrs = {attr for record in graph.edges() for attr in record.attributes}
        assert bool(attrs) is (module is ldbc)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for attr in attrs:
                graph.edge_attr_values(attr)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before <= 26 * graph.num_edges
