"""Property-based tests (hypothesis) for the core data structures and
metric invariants, plus the **randomized differential oracle suite**:
seeded random graphs and queries run through every execution path --
the serial *interpreter* (``PatternMatcher(compiled=False)``, the oracle),
the compiled CSR backend every other path now defaults to and the wire
protocol -- asserting count value-identity, match-set
permutation-identity and, between the two backends, steps-identity.  Seeds are fixed in-code so every failure reproduces."""

import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BOTH_DIRECTIONS,
    Direction,
    GraphQuery,
    Interval,
    PropertyGraph,
    ValueSet,
    between,
    equals,
    one_of,
)
from repro.core.predicates import predicate_distance
from repro.core.delta import query_touch_profile
from repro.datasets import dbpedia, ldbc
from repro.exec.search import valid_children
from repro.finegrained.propagation import ParentCounts
from repro.matching import PatternMatcher, build_plan, csr_for, csr_stats
from repro.metrics.assignment import assignment_cost
from repro.metrics.cardinality import CardinalityThreshold, cardinality_distance
from repro.metrics.ged import coarse_ged
from repro.metrics.hausdorff import modified_hausdorff
from repro.metrics.result_distance import result_graph_distance
from repro.core.result import ResultGraph
from repro.metrics.syntactic import syntactic_distance
from repro.rewrite.operations import (
    AddPredicateValue,
    AttributeDomain,
    DropPredicate,
    RelaxDirection,
    RemovePredicateValue,
    fine_concretisations,
    fine_relaxations,
)
from repro.obs import SPAN_MATCH, SPAN_PLAN, Tracer
from repro.service import WhyQueryService

# -- strategies ---------------------------------------------------------------

atoms = st.one_of(
    st.integers(-50, 50), st.text(alphabet="abcdef", min_size=1, max_size=3)
)
atom_sets = st.frozensets(atoms, min_size=0, max_size=8)

value_sets = st.frozensets(atoms, min_size=1, max_size=5).map(ValueSet)

intervals = st.tuples(
    st.integers(-100, 100), st.integers(0, 50), st.booleans(), st.booleans()
).map(lambda t: Interval(t[0], t[0] + t[1] + 1, t[2], t[3]))

predicates = st.one_of(value_sets, intervals)


@st.composite
def small_queries(draw):
    """Random small queries with shared id space (for distance tests)."""
    n_vertices = draw(st.integers(1, 4))
    q = GraphQuery()
    for vid in range(n_vertices):
        preds = {}
        if draw(st.booleans()):
            preds["type"] = draw(value_sets)
        if draw(st.booleans()):
            preds["age"] = draw(intervals)
        q.add_vertex(vid=vid, predicates=preds)
    n_edges = draw(st.integers(0, 4))
    for eid in range(n_edges):
        source = draw(st.integers(0, n_vertices - 1))
        target = draw(st.integers(0, n_vertices - 1))
        types = frozenset(draw(st.sets(st.sampled_from("xyz"), min_size=1, max_size=2)))
        q.add_edge(source, target, eid=eid, types=types)
    return q


@st.composite
def bindings(draw):
    v = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 20), max_size=5))
    e = draw(st.dictionaries(st.integers(0, 5), st.integers(0, 20), max_size=5))
    return ResultGraph.from_mappings(v, e)


# -- modified Hausdorff ----------------------------------------------------------


class TestMhdProperties:
    @given(atom_sets, atom_sets)
    def test_symmetry(self, a, b):
        assert modified_hausdorff(a, b) == modified_hausdorff(b, a)

    @given(atom_sets)
    def test_identity(self, a):
        assert modified_hausdorff(a, a) == 0.0

    @given(atom_sets, atom_sets)
    def test_bounded(self, a, b):
        assert 0.0 <= modified_hausdorff(a, b) <= 1.0

    @given(atom_sets, atom_sets)
    def test_zero_iff_equal(self, a, b):
        d = modified_hausdorff(a, b)
        if a != b:
            assert d > 0.0
        else:
            assert d == 0.0


# -- predicates ---------------------------------------------------------------------


class TestPredicateProperties:
    @given(value_sets, atoms)
    def test_with_value_admits(self, pred, value):
        assert pred.with_value(value).matches(value)

    @given(value_sets)
    def test_atoms_match_semantics(self, pred):
        for atom in pred.atoms():
            assert pred.matches(atom)

    @given(intervals)
    def test_interval_atoms_inside(self, pred):
        for atom in pred.atoms():
            if isinstance(atom, int):
                assert pred.matches(atom)

    @given(intervals, st.integers(1, 5))
    def test_widen_superset(self, pred, step):
        widened = pred.widen(step)
        lo, hi = pred._int_bounds()
        for value in range(lo, min(hi, lo + 20) + 1):
            assert widened.matches(value) or not pred.matches(value)

    @given(predicates, predicates)
    def test_predicate_distance_bounded(self, a, b):
        assert 0.0 <= predicate_distance(a, b) <= 1.0

    @given(predicates)
    def test_predicate_distance_identity(self, p):
        assert predicate_distance(p, p) == 0.0


# -- syntactic distance -----------------------------------------------------------


class TestSyntacticProperties:
    @settings(max_examples=40)
    @given(small_queries(), small_queries())
    def test_symmetry(self, q1, q2):
        assert syntactic_distance(q1, q2) == pytest.approx(
            syntactic_distance(q2, q1)
        )

    @settings(max_examples=40)
    @given(small_queries())
    def test_identity(self, q):
        assert syntactic_distance(q, q.copy()) == 0.0

    @settings(max_examples=40)
    @given(small_queries(), small_queries())
    def test_bounded(self, q1, q2):
        assert 0.0 <= syntactic_distance(q1, q2) <= 1.0

    @settings(max_examples=40)
    @given(small_queries(), small_queries())
    def test_coarse_ged_zero_iff_syntactic_zero(self, q1, q2):
        # the two metrics must agree on *whether* queries differ
        assert (coarse_ged(q1, q2) == 0) == (syntactic_distance(q1, q2) == 0.0)


# -- result distance -----------------------------------------------------------------


class TestResultDistanceProperties:
    @given(bindings(), bindings())
    def test_symmetry(self, r1, r2):
        assert result_graph_distance(r1, r2) == result_graph_distance(r2, r1)

    @given(bindings())
    def test_identity(self, r):
        assert result_graph_distance(r, r) == 0.0

    @given(bindings(), bindings())
    def test_bounded(self, r1, r2):
        assert 0.0 <= result_graph_distance(r1, r2) <= 1.0

    @given(bindings(), bindings(), bindings())
    def test_triangle_inequality(self, a, b, c):
        ab = result_graph_distance(a, b)
        bc = result_graph_distance(b, c)
        ac = result_graph_distance(a, c)
        assert ac <= ab + bc + 1e-9


# -- Hungarian assignment ----------------------------------------------------------------


class TestAssignmentProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
                min_size=1,
                max_size=n,
            )
        )
    )
    def test_matches_scipy(self, cost):
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        ours, _ = assignment_cost(cost)
        rows, cols = linear_sum_assignment(np.array(cost))
        reference = float(np.array(cost)[rows, cols].sum())
        assert ours == pytest.approx(reference, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_assignment_is_injective(self, cost):
        _, assignment = assignment_cost(cost)
        real = [c for c in assignment if c >= 0]
        assert len(real) == len(set(real))


# -- cardinality metrics -------------------------------------------------------------------


class TestCardinalityProperties:
    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
    def test_eq319_symmetry_in_explanations(self, thr, c1, c2):
        assert cardinality_distance(thr, c1, c2) == cardinality_distance(thr, c2, c1)

    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_eq319_identity(self, thr, c):
        assert cardinality_distance(thr, c, c) == 0

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_threshold_direction_consistent_with_distance(self, lo_raw, span):
        thr = CardinalityThreshold(lower=lo_raw, upper=lo_raw + span)
        for c in (0, lo_raw, lo_raw + span, lo_raw + span + 7):
            if thr.distance(c) == 0:
                assert thr.direction(c) == 0
            else:
                assert thr.direction(c) != 0


# -- matcher invariants ---------------------------------------------------------------------


class TestMatcherProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_count_equals_match_len(self, seed):
        import random

        rng = random.Random(seed)
        g = PropertyGraph()
        n = rng.randint(2, 8)
        for i in range(n):
            g.add_vertex(type=rng.choice("ab"), x=rng.randint(0, 3))
        for _ in range(rng.randint(1, 12)):
            g.add_edge(
                rng.randrange(n), rng.randrange(n), rng.choice("rst")
            )
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("a")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"r"})
        matcher = PatternMatcher(g)
        assert matcher.count(q) == matcher.match(q).cardinality

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_limit_is_monotone(self, seed, limit):
        import random

        rng = random.Random(seed)
        g = PropertyGraph()
        n = rng.randint(2, 8)
        for i in range(n):
            g.add_vertex(type=rng.choice("ab"))
        for _ in range(rng.randint(1, 12)):
            g.add_edge(rng.randrange(n), rng.randrange(n), "r")
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("a")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"r"})
        matcher = PatternMatcher(g)
        bounded = matcher.count(q, limit=limit)
        full = matcher.count(q)
        assert bounded == min(limit, full)


# -- randomized differential oracle suite -----------------------------------------
#
# Fixed in-code seeds (not hypothesis): every generated case is fully
# reproducible from its seed alone, and each case is checked across all
# execution paths against the serial matcher as the common oracle --
# equivalence-style testing in the spirit of Cypher query equivalence
# provers and PUG's systematic provenance checks.

DIFFERENTIAL_SEEDS = range(100)

EDGE_TYPES = ("r", "s", "t")


def random_differential_graph(rng: random.Random) -> PropertyGraph:
    """Adversarial random graph: multi-type parallel edges, self-loops,
    boundary-heavy layouts, out-of-order explicit (sparse) vertex ids."""
    g = PropertyGraph()
    n = rng.randint(4, 12)
    # sparse ids assigned in shuffled order: insertion order disagrees
    # with id order
    vids = rng.sample(range(0, n * 4), n)
    for vid in vids:
        attrs = {"type": rng.choice("abc")}
        if rng.random() < 0.8:
            attrs["x"] = rng.randint(0, 4)
        g.add_vertex(vid=vid, **attrs)
    low, high = min(vids), max(vids)
    for _ in range(rng.randint(n, 3 * n)):
        u = rng.choice(vids)
        roll = rng.random()
        if roll < 0.15:
            v = u  # self-loop
        elif roll < 0.6:
            v = rng.choice(vids)
        else:
            # long-range edge across the id space
            v = high if u - low < high - u else low
        g.add_edge(u, v, rng.choice(EDGE_TYPES), w=rng.randint(0, 3))
    return g


def random_differential_query(rng: random.Random) -> GraphQuery:
    """Random small query: typed/untyped/multi-type edges, direction
    sets, value-set and interval predicates, occasional disconnected
    patterns."""

    def vertex_predicates():
        preds = {}
        roll = rng.random()
        if roll < 0.45:
            preds["type"] = equals(rng.choice("abc"))
        elif roll < 0.65:
            preds["type"] = one_of(*rng.sample("abc", 2))
        if rng.random() < 0.3:
            low = rng.randint(0, 3)
            preds["x"] = between(low, low + rng.randint(0, 2))
        return preds

    def edge_kwargs():
        kwargs = {}
        roll = rng.random()
        if roll < 0.55:
            kwargs["types"] = {rng.choice(EDGE_TYPES)}
        elif roll < 0.75:
            kwargs["types"] = set(rng.sample(EDGE_TYPES, 2))
        if rng.random() < 0.3:
            kwargs["directions"] = BOTH_DIRECTIONS
        return kwargs

    q = GraphQuery()
    shape = rng.random()
    if shape < 0.15:  # single constrained vertex
        q.add_vertex(predicates=vertex_predicates())
    elif shape < 0.55:  # one edge
        a = q.add_vertex(predicates=vertex_predicates())
        b = q.add_vertex(predicates=vertex_predicates())
        q.add_edge(a, b, **edge_kwargs())
    elif shape < 0.8:  # two-hop path
        a = q.add_vertex(predicates=vertex_predicates())
        b = q.add_vertex()
        c = q.add_vertex(predicates=vertex_predicates())
        q.add_edge(a, b, **edge_kwargs())
        q.add_edge(b, c, **edge_kwargs())
    elif shape < 0.9:  # closing edge between two bound vertices
        a = q.add_vertex(predicates=vertex_predicates())
        b = q.add_vertex(predicates=vertex_predicates())
        q.add_edge(a, b, **edge_kwargs())
        q.add_edge(a, b, **edge_kwargs())
    else:  # disconnected: second component must stay exhaustive
        a = q.add_vertex(predicates=vertex_predicates())
        b = q.add_vertex()
        q.add_edge(a, b, **edge_kwargs())
        q.add_vertex(predicates=vertex_predicates())
    return q


def match_key(results):
    """Order-insensitive identity of a ResultSet."""
    return sorted(match_list(results))


def match_list(results):
    """Order-sensitive identity of a ResultSet."""
    return [(r.vertex_bindings, r.edge_bindings) for r in results]


def undecided_count(graph, query, injective, limit=None):
    """Matches (up to ``limit``) of the interpreter's enumeration with no
    emptiness decision: the query's plan walked directly by
    ``PatternMatcher._search``."""
    if not query.num_vertices:
        return 0
    walker = PatternMatcher(graph, injective=injective, compiled=False)
    return sum(1 for _ in islice(walker._search(query, build_plan(graph, query)), limit))


def traced_count_kinds(matcher_like, query):
    """The span kinds one traced ``count`` records on this path."""
    tracer = Tracer()
    with tracer.activate():
        matcher_like.count(query)
    return tracer.kinds()


@pytest.fixture(scope="module")
def wire_client():
    """A protocol client against a live in-process server (the wire path)."""
    from repro.client import connect
    from repro.server import serve_in_thread

    handle = serve_in_thread()
    client = connect(*handle.address)
    yield client
    client.close()
    handle.stop()


def assert_paths_agree(graph, query, injective, limits=(1, 3), client=None):
    """The single oracle assertion: every execution path must agree with
    the serial interpreter on counts (value-identity), match sets
    (permutation-identity) and bounded counts (value-identity); the
    compiled backend also on bounded match lists (order-identity) and
    on the steps of every evaluation."""
    # the reference is the interpreter, pinned: the default is compiled,
    # and an unpinned oracle would compare the kernels with themselves
    oracle = PatternMatcher(graph, injective=injective, compiled=False)
    assert not oracle.compiled
    expected_count = oracle.count(query)
    oracle_count_steps = oracle.steps
    expected_matches = match_key(oracle.match(query))
    expected_bounded = {}
    #: limit -> (bounded count steps, bounded match list, its steps)
    oracle_bounded = {}
    for limit in limits:
        before = oracle.steps
        expected_bounded[limit] = oracle.count(query, limit=limit)
        count_steps = oracle.steps - before
        before = oracle.steps
        listed = match_list(oracle.match(query, limit=limit))
        oracle_bounded[limit] = (count_steps, listed, oracle.steps - before)
    # the oracle decides emptiness before planning like every matcher;
    # the plan walked without that decision must count alike
    assert undecided_count(graph, query, injective) == expected_count, query.signature()

    # the wire path: graph and query serialised over the
    # frame protocol, matched by the server's pooled context, results
    # deserialised back (value-identity through two JSON round-trips)
    if client is not None:
        client.put_graph("oracle", graph)
        sig = query.signature()
        assert client.count("oracle", query, injective=injective) == expected_count, sig
        assert (
            match_key(client.match("oracle", query, injective=injective))
            == expected_matches
        ), sig
        for limit, bounded in expected_bounded.items():
            assert (
                client.count("oracle", query, limit=limit, injective=injective)
                == bounded
            ), (sig, limit)

    # path 1b: the compiled CSR backend against the same serial oracle.
    # The generated kernels must not only agree on values -- they must
    # visit *exactly* the interpreter's candidates in the interpreter's
    # order (steps value-identity, bounded runs included), so a bounded
    # match returns the same list
    compiled = PatternMatcher(graph, injective=injective, compiled=True)
    assert compiled.compiled, "compiled mode must engage for the oracle suite"
    assert compiled.count(query) == expected_count, query.signature()
    assert compiled.steps == oracle_count_steps, query.signature()
    assert match_key(compiled.match(query)) == expected_matches, query.signature()
    for limit, bounded in expected_bounded.items():
        context = (query.signature(), limit)
        count_steps, listed, match_steps = oracle_bounded[limit]
        before = compiled.steps
        assert compiled.count(query, limit=limit) == bounded, context
        assert compiled.steps - before == count_steps, context
        before = compiled.steps
        assert match_list(compiled.match(query, limit=limit)) == listed, context
        assert compiled.steps - before == match_steps, context

    # span-kind parity (observability): the same count traced on both
    # backends must surface the same *core* span kinds -- the trace a
    # user reads must not depend on which backend served the request.
    # Kind presence only; timings and span counts may differ.
    core = {SPAN_MATCH, SPAN_PLAN}
    per_path = {
        "serial": traced_count_kinds(oracle, query),
        "compiled": traced_count_kinds(compiled, query),
    }
    for path, kinds in per_path.items():
        assert core <= kinds, (path, kinds, query.signature())


MUTATION_SEEDS = range(20)
MUTATION_ROUNDS = 3


def random_mutations(rng: random.Random, graph: PropertyGraph, k: int) -> None:
    """``k`` random deltas: appended vertices (wired in so they can
    match), fresh edges (incl. self-loops and parallel edges),
    vertex-attribute flips (both the indexed ``type`` and the plain
    ``x``) and edge-attribute flips."""
    vids = list(graph.vertices())
    eids = [record.eid for record in graph.edges()]
    for _ in range(k):
        roll = rng.random()
        if roll < 0.25:
            vid = graph.add_vertex(type=rng.choice("abc"), x=rng.randint(0, 4))
            eids.append(graph.add_edge(rng.choice(vids), vid, rng.choice(EDGE_TYPES)))
            vids.append(vid)
        elif roll < 0.55:
            u, v = rng.choice(vids), rng.choice(vids)
            eids.append(
                graph.add_edge(u, v, rng.choice(EDGE_TYPES), w=rng.randint(0, 3))
            )
        elif roll < 0.8:
            if rng.random() < 0.5:
                graph.set_vertex_attribute(rng.choice(vids), "type", rng.choice("abc"))
            else:
                graph.set_vertex_attribute(rng.choice(vids), "x", rng.randint(0, 4))
        else:
            graph.set_edge_attribute(rng.choice(eids), "w", rng.randint(0, 3))


class TestMutateBetweenQueries:
    """Delta-sync oracle: random deltas interleaved between query
    rounds.  After every mutation batch all execution paths must
    re-agree on the mutated graph, and one *persistent* compiled
    matcher -- whose shared CSR entry follows the graph via in-place
    patches, never a rebuild -- must stay count- and steps-identical to
    a fresh interpreter."""

    @pytest.mark.parametrize("seed", MUTATION_SEEDS)
    def test_paths_agree_across_mutations(self, seed, wire_client):
        rng = random.Random(10_000 + seed)
        graph = random_differential_graph(rng)
        injective = rng.random() < 0.8
        persistent = PatternMatcher(graph, injective=injective, compiled=True)

        def check_round() -> None:
            query = random_differential_query(rng)
            # the wire path re-uploads after every mutation batch, so the
            # mutated graph's serialised form is part of the oracle too
            assert_paths_agree(graph, query, injective, client=wire_client)
            # the persistent matcher re-binds the patched arrays to the
            # process-wide kernels; they must still visit exactly a
            # fresh interpreter's candidates
            oracle = PatternMatcher(graph, injective=injective, compiled=False)
            assert not oracle.compiled
            expected = oracle.count(query)
            before = persistent.steps
            assert persistent.count(query) == expected, query.signature()
            assert persistent.steps - before == oracle.steps, query.signature()

        check_round()
        for _ in range(MUTATION_ROUNDS):
            random_mutations(rng, graph, rng.randint(1, 6))
            check_round()
        # every delta the generator emits is patch-eligible (vertex and
        # edge ids only grow, endpoints exist): the shared entry must
        # have absorbed all batches in place
        stats = csr_stats(graph)
        assert stats["csr_rebuilds"] == 0, stats
        assert stats["csr_patches"] >= MUTATION_ROUNDS, stats

    def test_mutation_generator_covers_all_delta_kinds(self):
        """Every delta kind must actually occur across the suite's
        seeds (guards against a silently tamed mutation generator)."""
        kinds = set()
        for seed in MUTATION_SEEDS:
            rng = random.Random(10_000 + seed)
            graph = random_differential_graph(rng)
            rng.random()  # injective draw, as in the oracle test
            random_differential_query(rng)
            for _ in range(MUTATION_ROUNDS):
                version = graph.version
                random_mutations(rng, graph, rng.randint(1, 6))
                kinds.update(r[0] for r in graph.deltas_since(version))
                random_differential_query(rng)
        assert kinds == {"v", "e", "va", "ea"}, kinds


class TestDifferentialOracle:
    """Acceptance: >= 100 seeded random cases, three execution paths
    (serial, compiled, wire), zero divergences."""

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_all_execution_paths_agree(self, seed, wire_client):
        rng = random.Random(seed)
        graph = random_differential_graph(rng)
        query = random_differential_query(rng)
        # a sprinkle of homomorphic cases: self-loops behave differently
        injective = rng.random() < 0.8
        assert_paths_agree(graph, query, injective, client=wire_client)

    def test_generator_covers_the_adversarial_features(self):
        """The generator must actually produce the layouts the suite
        advertises (guards against a silently tamed generator)."""
        self_loops = long_range = out_of_order = disconnected = 0
        for seed in DIFFERENTIAL_SEEDS:
            rng = random.Random(seed)
            graph = random_differential_graph(rng)
            query = random_differential_query(rng)
            if any(r.source == r.target for r in graph.edges()):
                self_loops += 1
            # an edge joining the lower and the upper half of the ids
            vids = sorted(graph.vertices())
            upper = set(vids[(len(vids) + 1) // 2 :])
            if any((r.source in upper) != (r.target in upper) for r in graph.edges()):
                long_range += 1
            if list(graph.vertices()) != sorted(graph.vertices()):
                out_of_order += 1
            if not query.is_connected():
                disconnected += 1
        assert self_loops >= 30
        assert long_range >= 80
        assert out_of_order >= 90
        assert disconnected >= 5


# -- counts decided before planning ------------------------------------------------


def paper_requests():
    """The 32-request mix of ``benchmarks/e2e`` (both why-empty variants,
    too-few ``[2C; 4C]`` and too-many ``[max(1, floor(0.3C) // 2);
    floor(0.3C)]`` per paper query), every query frozen."""
    requests = []
    graphs = {}
    for name, module in (("ldbc", ldbc), ("dbpedia", dbpedia)):
        graphs[name] = module.generate().graph
        matcher = PatternMatcher(graphs[name])
        for query_name, query in module.queries().items():
            for variant in (module.empty_variant, module.empty_variant_edge):
                requests.append((name, variant(query_name).freeze(), None))
            count = matcher.count(query)
            upper = int(0.3 * count)
            requests.append((name, query.copy().freeze(), CardinalityThreshold(2 * count, 4 * count)))
            requests.append(
                (name, query.copy().freeze(), CardinalityThreshold(max(1, upper // 2), upper))
            )
    return graphs, requests


def mask_kind(graph, query):
    """``"vertex"`` / ``"edge"``: which kind of empty mask decides the
    query (a vertex one wins), or ``None`` when no mask is empty."""
    csr = csr_for(graph)
    for kind, masks in (
        ("vertex", [csr.vertex_mask(v) for v in query.vertices()]),
        ("edge", [csr.edge_mask(e) for e in query.edges()]),
    ):
        if any(mask is not None and 1 not in mask for mask in masks):
            return kind
    return None


class TestDifferentialDecidedEmpty:
    """Every evaluation the 32-request mix decides before planning,
    walked again without the decision: each must enumerate 0 matches,
    homomorphic and bounded walks included."""

    @pytest.fixture(scope="class")
    def decided(self):
        graphs, requests = paper_requests()
        seen = {}
        prepare = PatternMatcher._prepare

        def spy(matcher, query, *args):
            plan, program = prepare(matcher, query, *args)
            if plan is None and query.num_vertices:
                key = (id(matcher.graph), query.signature(), matcher.injective)
                seen.setdefault(key, (matcher.graph, query.copy(), matcher.injective))
            return plan, program

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PatternMatcher, "_prepare", spy)
            with WhyQueryService() as service:
                for graph, query, threshold in requests:
                    service.explain(graphs[graph], query, threshold)
        return list(seen.values())

    def test_every_decided_count_enumerates_nothing(self, decided):
        assert len(decided) > 100
        for graph, query, injective in decided:
            assert undecided_count(graph, query, injective) == 0, query.signature()

    def test_vertex_and_edge_masks_both_decide(self, decided):
        kinds = [mask_kind(graph, query) for graph, query, _ in decided]
        assert None not in kinds
        assert kinds.count("vertex") > 10 and kinds.count("edge") > 10, kinds

    def test_homomorphic_and_bounded_calls_agree(self, decided):
        for graph, query, _ in decided:
            sig = query.signature()
            for injective in (True, False):
                for limit in (1, 3):
                    assert undecided_count(graph, query, injective, limit) == 0, sig
                for compiled in (True, False):
                    matcher = PatternMatcher(graph, injective=injective, compiled=compiled)
                    assert matcher.count(query) == 0, sig
                    assert matcher.count(query, limit=1) == 0, sig
                    assert not matcher.exists(query), sig
                    assert matcher.match(query, limit=3).cardinality == 0, sig
                    assert (matcher.steps, matcher.decided_empty) == (0, 4), sig


# -- counts derived from the parent ------------------------------------------------

DERIVATION_SEEDS = (7, 12)
DERIVATION_ROUNDS = 6


def mix_batch(graph, kind: str, rng: random.Random, attrs, types) -> None:
    """One write batch of the e2e ``mutate_explain`` workload: two
    vertices, four edges, two vertex attributes.  *touching* clones
    records whose attributes and edge types the requests mention;
    *non_touching* writes a label, an edge type and an attribute none
    mentions."""
    vids = sorted(graph.vertices())
    if kind == "non_touching":
        added = [graph.add_vertex(bench_label="bench", bench_rank=i) for i in range(2)]
        for i in range(4):
            graph.add_edge(rng.choice(vids), added[i % 2], "bench_link", bench_weight=i)
        for i in range(2):
            graph.set_vertex_attribute(rng.choice(vids), "bench_rank", i)
        return
    edges = [e for e in graph.edges() if e.type in types]
    for _ in range(2):
        graph.add_vertex(**dict(graph.vertex_attributes(rng.choice(vids))))
    for _ in range(4):
        like = rng.choice(edges)
        other = rng.choice([e for e in edges if e.type == like.type])
        graph.add_edge(like.source, other.target, like.type, **dict(like.attributes))
    for _ in range(2):
        vid = rng.choice(vids)
        shared = [a for a in attrs if a in graph.vertex_attributes(vid) and a != "type"]
        attr = rng.choice(shared or ["type"])
        donors = [v for v in vids if attr in graph.vertex_attributes(v)]
        graph.set_vertex_attribute(vid, attr, graph.vertex_attributes(rng.choice(donors))[attr])


def explain_mix_rounds(seed: int) -> None:
    """The 32-request mix, shuffled by ``seed``, explained by one fresh
    service over fresh graphs, then again after each of
    ``DERIVATION_ROUNDS`` write rounds (:func:`mix_batch`, touching and
    non-touching alternating, on both graphs)."""
    rng = random.Random(seed)
    graphs, requests = paper_requests()
    rng.shuffle(requests)
    profiles = {}
    for name in graphs:
        touched = [query_touch_profile(q) for g, q, _ in requests if g == name]
        profiles[name] = (
            sorted(set().union(*(p.vertex_attrs for p in touched))),
            sorted(set().union(*(p.edge_types for p in touched))),
        )
    with WhyQueryService() as service:
        for round_index in range(DERIVATION_ROUNDS + 1):
            if round_index:
                kind = ("touching", "non_touching")[(round_index - 1) % 2]
                for name, graph in graphs.items():
                    mix_batch(graph, kind, rng, *profiles[name])
            for graph, query, threshold in requests:
                service.explain(graphs[graph], query, threshold)


def twin_frames(frame):
    """``frame``'s parent counted afresh by each of the four matchers
    (both semantics, both backends), each a :class:`ParentCounts` of its
    own: its match list, if taken, and its seeded counts are served by
    that backend."""
    graph = frame.matcher.graph
    twins = []
    for injective in (True, False):
        for compiled in (True, False):
            matcher = PatternMatcher(graph, injective=injective, compiled=compiled)
            count = matcher.count(frame.parent, limit=frame.limit)
            twins.append(
                ParentCounts(matcher, frame.parent, count, graph.version, frame.limit, frame.children)
            )
    return twins


#: the derivation itself: the fixture below spies on the class attribute
PARENT_DERIVE = ParentCounts.derive


@pytest.fixture(scope="module")
def derived():
    """``(kind, rule, derived count, [((injective, compiled), that
    matcher's derivation or None, its count)])`` per derivation of the
    mix plus its mutation rounds, ``kind`` the edited element's."""
    records = []
    last = [None, []]  # the frame being expanded and its twins

    def spy(frame, query, limit):
        value = PARENT_DERIVE(frame, query, limit)
        if value is not None:
            if last[0] is not frame:
                last[:] = frame, twin_frames(frame)
            rows = [
                (
                    (twin.matcher.injective, twin.matcher.compiled),
                    PARENT_DERIVE(twin, query, limit),
                    twin.matcher.count(query, limit=limit),
                )
                for twin in last[1]
            ]
            op = frame.children[query]
            records.append((op.target[0], type(op).__name__, value, rows))
        return value

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParentCounts, "derive", spy)
        for seed in DERIVATION_SEEDS:
            explain_mix_rounds(seed)
    return records


class TestDifferentialDerivedCounts:
    """Every count the fine-grained search derives from its parent over
    the 32-request mix plus six mutation rounds (touching and
    non-touching alternating, seeds 7 and 12) is checked where it is
    derived: it must equal ``PatternMatcher.count`` on both backends,
    and each backend under each semantics, deriving it again from its
    own count of the parent, must land on its own count."""

    def test_every_derived_count_equals_the_matchers(self, derived):
        for _, rule, value, rows in derived:
            for (injective, compiled), again, counted in rows:
                if injective:
                    assert value == counted, (rule, compiled)
                assert again in (None, counted), (rule, injective, compiled)

    def test_both_rules_derive_on_every_path(self, derived):
        rules = Counter(rule for kind, rule, _, _ in derived if kind == "vertex")
        # the mix's too-many requests add and narrow, its too-few ones
        # admit values and widen; the small-graph case covers the rest
        assert {"AddPredicate", "NarrowInterval", "AddPredicateValue", "WidenInterval"} <= set(
            rules
        ), rules
        assert rules["AddPredicate"] > 100 and rules["AddPredicateValue"] > 100, rules
        for path in range(4):
            vertex_rows = (rows for kind, _, _, rows in derived if kind == "vertex")
            assert sum(rows[path][1] is not None for rows in vertex_rows) > 100, path

    def test_self_loops_and_both_directions(self):
        """Every vertex-side edit of a query with a ``BOTH``-direction
        edge and a self-loop, over a graph of self-loops and two-way
        pairs: a derived count equals the matcher's under both semantics
        on both backends -- no match counted twice across the seeded
        pool and the parent's mask -- and everything else falls back."""
        graph = looped_graph()
        parent = looped_query()
        domain = AttributeDomain(graph)
        ops = fine_relaxations(parent, domain) + fine_concretisations(
            parent, domain, constrainable_attrs=["type", "x"]
        )
        ops += [DropPredicate(("vertex", v.vid), attr) for v in parent.vertices() for attr in v.predicates]
        derived = Counter()
        csr = csr_for(graph)
        for op, child in valid_children(parent, ops):
            if op.target[0] == "vertex":
                # the rules rest on each edit's direction: a restriction's
                # candidates are a subset of the parent's, a relaxation's
                # a superset
                vid = op.target[1]
                narrow, wide = csr.vertex_mask(child.vertex(vid)), csr.vertex_mask(parent.vertex(vid))
                if op.is_relaxation:
                    narrow, wide = wide, narrow
                assert wide is None or all(map(int.__le__, narrow, wide)), op
            for injective in (True, False):
                for compiled in (True, False):
                    matcher = PatternMatcher(graph, injective=injective, compiled=compiled)
                    for limit in (None, 60):
                        count = matcher.count(parent, limit=limit)
                        frame = ParentCounts(matcher, parent, count, graph.version, limit, {child: op})
                        value = frame.derive(child, limit)
                        if op.target[0] == "edge":
                            assert value is None, op
                            continue
                        assert value == matcher.count(child, limit=limit), (op, injective, compiled)
                        derived[type(op).__name__] += 1
        assert set(derived) == {
            "AddPredicate", "NarrowInterval", "RemovePredicateValue",
            "AddPredicateValue", "WidenInterval", "DropPredicate",
        }, derived

    def test_an_inexact_or_stale_parent_is_not_used(self):
        """The guards: a parent count at its limit, a bounded match list
        that is not the whole count (``len(list) != p``) and a graph
        version moved since the parent's count all fall back."""
        graph = looped_graph()
        parent = looped_query()
        narrow = RemovePredicateValue(("vertex", 0), "type", "b")
        widen = AddPredicateValue(("vertex", 0), "type", "c")
        children = {op.apply(parent): op for op in (narrow, widen)}
        matcher = PatternMatcher(graph)
        count = matcher.count(parent)
        assert count > 2

        def frame(count, limit, version=graph.version):
            return ParentCounts(matcher, parent, count, version, limit, children)

        for child in children:
            assert frame(count, None).derive(child, None) == matcher.count(child)
            assert frame(count, count).derive(child, count) is None
            assert frame(count, None, graph.version - 1).derive(child, None) is None
            assert frame(count, count + 1).derive(child, None) is None  # another limit
        restricted = narrow.apply(parent)
        assert frame(count + 1, count + 2).derive(restricted, count + 2) is None
        assert frame(count - 1, count + 2).derive(restricted, count + 2) is None


#: the edge edits the unchanged-edge rule takes, relaxations first
EDGE_RELAXATIONS = ("RelaxDirection", "AddPredicateValue", "WidenInterval", "DropPredicate")
EDGE_RESTRICTIONS = ("RestrictDirection", "AddPredicate", "NarrowInterval", "RemovePredicateValue")


class TestDifferentialUnchangedEdges:
    """A child editing one query edge, keeping its type set, that gains
    (a relaxation) or loses (a restriction) no (data edge, orientation)
    pair between the edge's endpoint masks keeps its parent's count.
    Every such count of the mix plus six mutation rounds (seeds 7 and
    12) is checked against ``PatternMatcher.count`` on both backends
    under both semantics; a small graph takes every edge edit at zero
    and non-zero gain."""

    def test_every_edge_rule_count_equals_the_matchers(self, derived):
        edges = [(rule, value, rows) for kind, rule, value, rows in derived if kind == "edge"]
        for rule, value, rows in edges:
            assert rule in EDGE_RELAXATIONS + EDGE_RESTRICTIONS, rule
            for (injective, compiled), again, counted in rows:
                if injective:
                    assert value == counted, (rule, compiled)
                # the rule reads no semantics: every twin derives, from
                # its own count of the parent, its own count
                assert again == counted, (rule, injective, compiled)
        # every relaxed direction of the mix's too-few requests admits no
        # data edge the other way between its endpoints' masks
        assert Counter(rule for rule, _, _ in edges)["RelaxDirection"] > 50

    def test_every_edge_op_at_zero_and_nonzero_gain(self):
        """Every edge edit of every parent over :func:`weighted_graph`
        (untyped, one-typed and two-typed edges, one way or both, with
        and without predicates, between four endpoint pairs): derived
        exactly when it gains or loses no pair, by the record walk's
        path(1) counts, then equal to the matcher's count on both
        backends under both semantics, at the parent's limit too."""
        from test_statistics import ReferenceStatistics

        graph = weighted_graph()
        reference = ReferenceStatistics(graph)
        domain = AttributeDomain(graph)
        matchers = [
            PatternMatcher(graph, injective=injective, compiled=compiled)
            for injective in (True, False)
            for compiled in (True, False)
        ]
        outcomes = Counter()
        for parent in weighted_parents():
            eid = 0
            ops = fine_relaxations(parent, domain) + fine_concretisations(
                parent, domain, constrainable_attrs=["w"]
            )
            ops += [DropPredicate(("edge", eid), attr) for attr in parent.edge(eid).predicates]
            ends = parent.vertex(0), parent.vertex(1)
            for op, child in valid_children(parent, ops):
                if op.target != ("edge", eid):
                    continue
                old, new = parent.edge(eid), child.edge(eid)
                if old.directions != new.directions:
                    # the pairs of the orientation added or dropped
                    turned = old.copy()
                    turned.directions = old.directions ^ new.directions
                    moved = reference.path1_count(turned, *ends)
                else:
                    moved = reference.path1_count(old, *ends) - reference.path1_count(new, *ends)
                for matcher in matchers:
                    for limit in (None, 1):
                        count = matcher.count(parent, limit=limit)
                        frame = ParentCounts(
                            matcher, parent, count, graph.version, limit, {child: op}
                        )
                        value = frame.derive(child, limit)
                        if moved:
                            assert value is None, op
                        else:
                            assert value == count == matcher.count(child, limit=limit), (
                                op, matcher.injective, matcher.compiled, limit,
                            )
                        assert frame.unchanged == (not moved)
                outcomes[type(op).__name__, not moved] += 1
        for rule in EDGE_RELAXATIONS + EDGE_RESTRICTIONS:
            assert outcomes[rule, True] and outcomes[rule, False], (rule, outcomes)

    def test_a_type_set_edit_is_never_unchanged(self):
        """The rule reads the type groups of the child's type set only,
        so a child on other types falls back even if its op is one the
        rule takes: ``a -r-> b`` made ``a -[s, both ways]- b`` adds an
        orientation no ``s`` edge between the endpoints runs in -- a
        reading that moves nothing -- yet matches other edges."""
        graph = weighted_graph()
        parent = GraphQuery()
        a = parent.add_vertex(predicates={"type": equals("c")})
        b = parent.add_vertex(predicates={"type": equals("a")})
        parent.add_edge(a, b, types={"r"})
        parent.freeze()
        child = parent.copy()
        child.edge(0).types = frozenset({"s"})
        child.edge(0).directions = BOTH_DIRECTIONS
        child.freeze()
        op = RelaxDirection(0)
        matcher = PatternMatcher(graph)
        count = matcher.count(parent)
        assert count != matcher.count(child)
        frame = ParentCounts(matcher, parent, count, graph.version, None, {child: op})
        assert frame.derive(child, None) is None
        assert frame.unchanged == 0


def weighted_graph() -> PropertyGraph:
    """:func:`looped_graph`'s vertices; self-loops, two-way pairs and
    parallel edges (of one type and of two) over types ``r`` and ``s``,
    each edge weighted ``w`` in 0..2."""
    graph = PropertyGraph()
    for i in range(9):
        graph.add_vertex(vid=i, type="abc"[i % 3], x=i % 4)
    for source, target, kind, w in (
        (0, 0, "r", 0), (1, 1, "s", 1), (4, 4, "s", 2),
        (0, 1, "r", 1), (1, 0, "s", 1), (0, 1, "s", 2), (4, 5, "r", 0), (5, 4, "r", 2),
        (3, 6, "r", 1), (3, 6, "r", 1), (1, 2, "r", 2), (2, 3, "s", 0), (3, 0, "r", 1),
        (6, 7, "s", 1), (7, 8, "r", 0), (8, 6, "s", 2), (3, 4, "r", 1), (5, 3, "s", 1),
    ):
        graph.add_edge(source, target, kind, w=w)
    return graph


def weighted_parents():
    """One-edge queries ``a -> b`` over :func:`weighted_graph`: four
    endpoint pairs, each with an untyped, a one-typed and a two-typed
    edge, one way or both, without a predicate, with a value set and
    with an interval as wide as the weights or narrower."""
    ends = (
        ({"type": equals("a")}, {"type": equals("b")}),
        ({"type": one_of("a", "b")}, {}),
        ({}, {"x": between(0, 1)}),
        ({"type": equals("c")}, {"type": equals("a")}),
    )
    for source, target in ends:
        for types in (None, {"r"}, {"r", "s"}):
            for directions in ([Direction.FORWARD], BOTH_DIRECTIONS):
                for predicates in (
                    {}, {"w": one_of(0, 1)}, {"w": between(0, 2)}, {"w": between(1, 2)},
                ):
                    query = GraphQuery()
                    a = query.add_vertex(predicates=source)
                    b = query.add_vertex(predicates=target)
                    query.add_edge(a, b, types=types, directions=directions, predicates=predicates)
                    yield query.freeze()


def looped_graph() -> PropertyGraph:
    """Nine vertices over three labels; self-loops, two-way pairs and
    parallel edges of two types."""
    graph = PropertyGraph()
    for i in range(9):
        graph.add_vertex(vid=i, type="abc"[i % 3], x=i % 4)
    for source, target, kind in (
        (0, 0, "r"), (1, 1, "s"), (2, 2, "r"), (4, 4, "s"), (5, 5, "r"),
        (0, 1, "r"), (1, 0, "s"), (0, 1, "s"), (1, 2, "r"), (2, 3, "s"), (3, 0, "r"),
        (4, 5, "r"), (5, 4, "r"), (6, 7, "s"), (7, 8, "r"), (8, 6, "s"), (3, 4, "r"),
    ):
        graph.add_edge(source, target, kind)
    return graph


def looped_query() -> GraphQuery:
    """``a -[r|s, both ways]- b`` with a loop (either way) at ``a``."""
    query = GraphQuery()
    a = query.add_vertex(predicates={"type": one_of("a", "b"), "x": between(0, 2)})
    b = query.add_vertex(predicates={"x": between(1, 3)})
    query.add_edge(a, b, types={"r", "s"}, directions=BOTH_DIRECTIONS)
    query.add_edge(a, a, directions=BOTH_DIRECTIONS)
    return query.freeze()
