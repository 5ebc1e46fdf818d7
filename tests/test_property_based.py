"""Property-based tests (hypothesis) for the core data structures and
metric invariants, plus the **randomized differential oracle suite**:
seeded random graphs and queries run through every execution path --
the serial *interpreter* (``PatternMatcher(compiled=False)``, the oracle),
the compiled CSR backend every other path now defaults to, the wire
protocol, ``ShardedMatcher`` at shard counts {1, 2, 4}, the
interpreted shard-affine slice path and the compiled one --
asserting count value-identity and match-set permutation-identity
everywhere.  Seeds are fixed in-code so every failure reproduces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    Interval,
    PropertyGraph,
    ValueSet,
    between,
    equals,
    one_of,
)
from repro.core.predicates import predicate_distance
from repro.matching import PatternMatcher, csr_stats
from repro.metrics.assignment import assignment_cost
from repro.metrics.cardinality import CardinalityThreshold, cardinality_distance
from repro.metrics.ged import coarse_ged
from repro.metrics.hausdorff import modified_hausdorff
from repro.metrics.result_distance import result_graph_distance
from repro.core.result import ResultGraph
from repro.metrics.syntactic import syntactic_distance
from repro.obs import SPAN_BLOCK, SPAN_FALLBACK, SPAN_MATCH, SPAN_PLAN, Tracer
from repro.shard import GraphPartitioner, ShardedMatcher, SliceEvaluator

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
DIFFERENTIAL_SHARD_COUNTS = (1, 2, 4)

EDGE_TYPES = ("r", "s", "t")


def random_differential_graph(rng: random.Random) -> PropertyGraph:
    """Adversarial random graph: multi-type parallel edges, self-loops,
    boundary-heavy layouts, out-of-order explicit (sparse) vertex ids."""
    g = PropertyGraph()
    n = rng.randint(4, 12)
    # sparse ids assigned in shuffled order: insertion order disagrees
    # with id order, and contiguous vertex-range shards cut mid-cluster
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
            v = u  # self-loop (sometimes on a boundary vertex)
        elif roll < 0.6:
            v = rng.choice(vids)
        else:
            # boundary-heavy: long-range edge across the id space, so a
            # vertex-range partition almost certainly cuts it
            v = high if u - low < high - u else low
        g.add_edge(u, v, rng.choice(EDGE_TYPES), w=rng.randint(0, 3))
    return g


def random_differential_query(rng: random.Random) -> GraphQuery:
    """Random small query: typed/untyped/multi-type edges, direction
    sets, value-set and interval predicates, occasional disconnected
    patterns (the shard-affine fallback path)."""

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
    elif shape < 0.8:  # two-hop path (exercises cross-shard second hops)
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
    return sorted((r.vertex_bindings, r.edge_bindings) for r in results)


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
    (permutation-identity) and bounded counts (value-identity)."""
    # the reference is the interpreter, pinned: the default is compiled,
    # and an unpinned oracle would compare the kernels with themselves
    oracle = PatternMatcher(graph, injective=injective, compiled=False)
    assert not oracle.compiled
    expected_count = oracle.count(query)
    oracle_count_steps = oracle.steps
    expected_matches = match_key(oracle.match(query))
    expected_bounded = {limit: oracle.count(query, limit=limit) for limit in limits}

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
    # The generated kernels must not only agree on values -- on the
    # unbounded count they must visit *exactly* the interpreter's
    # candidates (steps value-identity), which pins the search order
    compiled = PatternMatcher(graph, injective=injective, compiled=True)
    assert compiled.compiled, "compiled mode must engage for the oracle suite"
    assert compiled.count(query) == expected_count, query.signature()
    assert compiled.steps == oracle_count_steps, query.signature()
    assert match_key(compiled.match(query)) == expected_matches, query.signature()
    for limit, bounded in expected_bounded.items():
        assert compiled.count(query, limit=limit) == bounded, (
            query.signature(),
            limit,
        )

    for num_shards in DIFFERENTIAL_SHARD_COUNTS:
        sharded_graph = GraphPartitioner(num_shards).partition(graph)
        context = (num_shards, query.signature())

        # path 2: per-shard fan-out with deterministic ascending merge
        sharded = ShardedMatcher(sharded_graph, injective=injective)
        assert sharded.count(query) == expected_count, context
        assert match_key(sharded.match(query)) == expected_matches, context
        for limit, bounded in expected_bounded.items():
            assert sharded.count(query, limit=limit) == bounded, (context, limit)

        # path 3: shard-affine placement -- per-shard wire payloads,
        # slice-local evaluation, coordinator fallback on misses (the
        # identical code path the affine ProcessExecutor workers run,
        # minus the process boundary; the boundary itself is covered by
        # tests/test_affine.py).  Interpreted throughout: the slices'
        # own accessors raise the misses
        affine = SliceEvaluator.for_sharded(
            sharded_graph,
            injective=injective,
            compiled=False,
            fallback=ShardedMatcher(sharded_graph, injective=injective, compiled=False),
        )
        assert affine.count(query) == expected_count, context
        assert match_key(affine.match(query)) == expected_matches, context
        for limit, bounded in expected_bounded.items():
            assert affine.count(query, limit=limit) == bounded, (context, limit)

        # path 4: the same slice-local evaluation with every per-slice
        # matcher (and the coordinator fallback) running the compiled
        # backend -- partial-graph CSR builds, ShardMiss propagation out
        # of generated kernels, seed-range clamps, all compiled
        affine_compiled = SliceEvaluator.for_sharded(
            sharded_graph,
            injective=injective,
            compiled=True,
            fallback=ShardedMatcher(
                sharded_graph, injective=injective, compiled=True
            ),
        )
        assert affine_compiled.count(query) == expected_count, context
        assert match_key(affine_compiled.match(query)) == expected_matches, context
        for limit, bounded in expected_bounded.items():
            assert affine_compiled.count(query, limit=limit) == bounded, (
                context,
                limit,
            )

    # span-kind parity (observability): the same count traced on every
    # in-process path must surface the same *core* span kinds -- the
    # trace a user reads must not depend on which backend served the
    # request.  Kind presence only; timings and span counts may differ.
    core = {SPAN_MATCH, SPAN_PLAN}
    per_path = {
        "serial": traced_count_kinds(oracle, query),
        "compiled": traced_count_kinds(compiled, query),
        "sharded": traced_count_kinds(sharded, query),
    }
    for path, kinds in per_path.items():
        assert core <= kinds, (path, kinds, query.signature())
    # the affine slice path answers from per-shard blocks (or falls
    # back to the coordinator); either way the core kinds still appear.
    # A fresh evaluator keeps the block memo cold -- a memo hit answers
    # without running (and therefore without tracing) anything.
    affine_cold = SliceEvaluator.for_sharded(
        sharded_graph,
        injective=injective,
        fallback=ShardedMatcher(sharded_graph, injective=injective),
    )
    affine_kinds = traced_count_kinds(affine_cold, query)
    assert SPAN_BLOCK in affine_kinds or SPAN_FALLBACK in affine_kinds, (
        affine_kinds,
        query.signature(),
    )
    assert core <= affine_kinds, (affine_kinds, query.signature())


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
    """Acceptance: >= 100 seeded random cases, six execution paths
    (serial, compiled, wire, sharded 1/2/4, affine, affine-compiled),
    zero divergences."""

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
        self_loops = boundary_cut = out_of_order = disconnected = 0
        for seed in DIFFERENTIAL_SEEDS:
            rng = random.Random(seed)
            graph = random_differential_graph(rng)
            query = random_differential_query(rng)
            if any(r.source == r.target for r in graph.edges()):
                self_loops += 1
            sharded = GraphPartitioner(2).partition(graph)
            if sharded.boundary_edges():
                boundary_cut += 1
            if list(graph.vertices()) != sorted(graph.vertices()):
                out_of_order += 1
            if not query.is_connected():
                disconnected += 1
        assert self_loops >= 30
        assert boundary_cut >= 80
        assert out_of_order >= 90
        assert disconnected >= 5
