"""Tests for query-dependent statistics and path(n) estimation (Sec. 5.2):
the hand-checked values, then the record-walk reference implementation and
the differential, delta-scope, memo-cap and concurrency suites built on it."""

import random
import sys
import threading
from collections import Counter

import pytest

from repro.core import (
    BACKWARD_ONLY,
    BOTH_DIRECTIONS,
    GraphQuery,
    PropertyGraph,
    between,
    equals,
)
from repro.core.graph import DELTA_RING_LIMIT
from repro.core.query import Direction
from repro.matching import PatternMatcher, csr_stats
from repro.matching.candidates import attributes_match
from repro.matching.csr import PROJECTION_CAP, CSRIndex, csr_for
from repro.rewrite.statistics import PATH1_CAP, GraphStatistics
from repro.service import WhyQueryService

from test_property_based import (
    DERIVATION_SEEDS,
    DIFFERENTIAL_SEEDS,
    MUTATION_ROUNDS,
    MUTATION_SEEDS,
    explain_mix_rounds,
    looped_graph,
    paper_requests,
    random_differential_graph,
    random_differential_query,
    random_mutations,
)


@pytest.fixture
def stats(tiny_graph) -> GraphStatistics:
    return GraphStatistics(tiny_graph)


def work_query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"})
    return q


class TestVertexEdgeStatistics:
    def test_vertex_cardinality_exact(self, stats):
        q = work_query()
        assert stats.vertex_cardinality(q.vertex(0)) == 4
        assert stats.vertex_cardinality(q.vertex(1)) == 2

    def test_unconstrained_vertex_counts_all(self, stats, tiny_graph):
        q = GraphQuery()
        q.add_vertex()
        assert stats.vertex_cardinality(q.vertex(0)) == tiny_graph.num_vertices

    def test_edge_cardinality_by_type(self, stats):
        q = work_query()
        assert stats.edge_cardinality(q.edge(0)) == 3

    def test_edge_cardinality_with_predicate(self, stats):
        q = work_query()
        q.edge(0).predicates["sinceYear"] = equals(2003)
        assert stats.edge_cardinality(q.edge(0)) == 2

    def test_edge_cardinality_untyped(self, stats, tiny_graph):
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b)
        assert stats.edge_cardinality(q.edge(0)) == tiny_graph.num_edges

    def test_caches_by_signature(self, stats):
        q = work_query()
        stats.vertex_cardinality(q.vertex(0))
        stats.edge_cardinality(q.edge(0))
        stats.path1_cardinality(q, 0)
        assert stats.cache_sizes == {"edge": 1, "path1": 1}


class TestPath1:
    def test_path1_equals_matcher_count(self, stats, tiny_graph):
        q = work_query()
        matcher = PatternMatcher(tiny_graph)
        assert stats.path1_cardinality(q, 0) == matcher.count(q)

    def test_path1_respects_endpoint_predicates(self, stats):
        q = work_query()
        q.vertex(0).predicates["gender"] = equals("female")
        assert stats.path1_cardinality(q, 0) == 1  # only anna

    def test_path1_backward_direction(self, stats, tiny_graph):
        q = GraphQuery()
        u = q.add_vertex(predicates={"type": equals("university")})
        p = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(u, p, types={"workAt"}, directions=BACKWARD_ONLY)
        matcher = PatternMatcher(tiny_graph)
        assert stats.path1_cardinality(q, 0) == matcher.count(q)

    def test_path1_both_directions(self, stats, tiny_graph):
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("person")})
        b = q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(a, b, types={"knows"}, directions=BOTH_DIRECTIONS)
        # per-edge counting: each knows edge satisfies one orientation
        assert stats.path1_cardinality(q, 0) == 2

    def test_average_path1(self, stats):
        q = work_query()
        u = q.vertex_ids - {0}
        c = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(1, c, types={"locatedIn"})
        avg = stats.average_path1_cardinality(q)
        assert avg == pytest.approx((3 + 2) / 2)

    def test_average_path1_vertex_only_query(self, stats):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        assert stats.average_path1_cardinality(q) == 4.0


class TestEstimates:
    def test_chain_estimate(self, stats):
        q = work_query()
        c = q.add_vertex(predicates={"type": equals("city")})
        q.add_edge(1, c, types={"locatedIn"})
        est = stats.estimate_path_cardinality(q, [0, 1])
        # path1(workAt)=3, path1(locatedIn)=2, join on university (2)
        assert est == pytest.approx(3 * 2 / 2)

    def test_estimate_requires_shared_vertex(self, stats):
        q = GraphQuery()
        a, b, c, d = (q.add_vertex() for _ in range(4))
        q.add_edge(a, b)
        q.add_edge(c, d)
        with pytest.raises(ValueError):
            stats.estimate_path_cardinality(q, [0, 1])

    def test_query_estimate_positive_for_matching_query(self, stats):
        assert stats.estimate_query_cardinality(work_query()) > 0

    def test_query_estimate_zero_for_impossible_predicate(self, stats):
        q = work_query()
        q.vertex(1).predicates["name"] = equals("Nowhere U")
        assert stats.estimate_query_cardinality(q) == 0.0

    def test_query_estimate_multiplies_components(self, stats):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("city")})  # 2
        q.add_vertex(predicates={"type": equals("country")})  # 1
        assert stats.estimate_query_cardinality(q) == pytest.approx(2.0)

    def test_estimate_tracks_actual_order_of_magnitude(self, ldbc_small):
        """Independence estimates won't be exact, but on the synthetic
        LDBC graph they must stay within ~two orders of magnitude for the
        benchmark queries (they steer the search, not the reporting)."""
        from repro.datasets import ldbc

        stats = GraphStatistics(ldbc_small.graph)
        matcher = PatternMatcher(ldbc_small.graph)
        for name, query in ldbc.queries().items():
            actual = matcher.count(query)
            estimate = stats.estimate_query_cardinality(query)
            if actual == 0:
                continue
            assert estimate > 0, name
            ratio = estimate / actual
            assert 0.01 <= ratio <= 100, (name, actual, estimate)

    def test_empty_query_estimate(self, stats):
        assert stats.estimate_query_cardinality(GraphQuery()) == 0.0


# -- the reference implementation ---------------------------------------------------
#
# The record walk ``GraphStatistics`` shipped with before path(1) became a
# lookup on the packed CSR image, and the estimator as it was then (path(1)
# looked up inside the sort key, two to three times per edge).  Uncached on
# purpose: every value is derived from the graph's records at call time.  It
# no longer ships; it stays here as what the lookup is compared against.


class ReferenceStatistics:
    def __init__(self, graph) -> None:
        self.graph = graph

    def _edges_of_types(self, types):
        if types is None:
            yield from self.graph.edges()
            return
        for t in types:
            for eid in self.graph.edges_of_type(t):
                yield self.graph.edge(eid)

    def vertex_cardinality(self, qvertex) -> int:
        return sum(
            attributes_match(self.graph.vertex_attributes(vid), qvertex.predicates)
            for vid in self.graph.vertices()
        )

    def edge_cardinality(self, qedge) -> int:
        return sum(
            attributes_match(record.attributes, qedge.predicates)
            for record in self._edges_of_types(qedge.types)
        )

    def path1_cardinality(self, query, eid) -> int:
        qedge = query.edge(eid)
        return self.path1_count(qedge, query.vertex(qedge.source), query.vertex(qedge.target))

    def path1_count(self, qedge, source=None, target=None) -> int:
        """:meth:`CSRIndex.path1_count` by the record walk (an absent
        endpoint admits every vertex)."""
        source_preds = source.predicates if source is not None else {}
        target_preds = target.predicates if target is not None else {}
        forward = Direction.FORWARD in qedge.directions
        backward = Direction.BACKWARD in qedge.directions
        count = 0
        for record in self._edges_of_types(qedge.types):
            if not attributes_match(record.attributes, qedge.predicates):
                continue
            src_attrs = self.graph.vertex_attributes(record.source)
            tgt_attrs = self.graph.vertex_attributes(record.target)
            hit = False
            if forward:
                hit = attributes_match(src_attrs, source_preds) and (
                    attributes_match(tgt_attrs, target_preds)
                )
            if not hit and backward:
                hit = attributes_match(src_attrs, target_preds) and (
                    attributes_match(tgt_attrs, source_preds)
                )
            if hit:
                count += 1
        return count

    def estimate_query_cardinality(self, query) -> float:
        if query.num_vertices == 0:
            return 0.0
        estimate = 1.0
        for component in query.weakly_connected_components():
            estimate *= self._estimate_component(query, component)
        return estimate

    def _estimate_component(self, query, vertices) -> float:
        in_tree: set = set()
        tree_edges = []
        non_tree = []
        edges = sorted(
            (eid for eid in query.edge_ids if query.edge(eid).source in vertices),
            key=lambda eid: -self.path1_cardinality(query, eid),
        )
        in_tree.add(min(vertices))
        remaining = list(edges)
        progress = True
        while progress:
            progress = False
            for eid in list(remaining):
                edge = query.edge(eid)
                s_in, t_in = edge.source in in_tree, edge.target in in_tree
                if s_in and t_in:
                    non_tree.append(eid)
                    remaining.remove(eid)
                elif s_in or t_in:
                    tree_edges.append(eid)
                    in_tree.add(edge.source)
                    in_tree.add(edge.target)
                    remaining.remove(eid)
                    progress = True
        non_tree.extend(remaining)
        if not tree_edges:
            vertex = query.vertex(next(iter(vertices)))
            return float(self.vertex_cardinality(vertex))
        estimate = 1.0
        joined: set = set()
        for eid in tree_edges:
            edge = query.edge(eid)
            path1 = self.path1_cardinality(query, eid)
            if not joined:
                estimate = float(path1)
                joined |= {edge.source, edge.target}
                continue
            shared = edge.source if edge.source in joined else edge.target
            join_card = max(1, self.vertex_cardinality(query.vertex(shared)))
            estimate *= path1 / join_card
            joined |= {edge.source, edge.target}
        for eid in non_tree:
            edge = query.edge(eid)
            path1 = self.path1_cardinality(query, eid)
            denom = max(
                1,
                self.vertex_cardinality(query.vertex(edge.source))
                * self.vertex_cardinality(query.vertex(edge.target)),
            )
            estimate *= path1 / denom
        for vid in vertices - in_tree:
            estimate *= self.vertex_cardinality(query.vertex(vid))
        return estimate


def assert_statistics_equal(stats, reference, query) -> None:
    """Every statistic of ``query`` on ``stats`` is ``==`` the reference's
    (floats included: same values multiplied in the same order)."""
    sig = query.signature()
    for eid in sorted(query.edge_ids):
        assert stats.path1_cardinality(query, eid) == reference.path1_cardinality(
            query, eid
        ), (sig, eid)
        assert stats.edge_cardinality(query.edge(eid)) == reference.edge_cardinality(
            query.edge(eid)
        ), (sig, eid)
    assert stats.estimate_query_cardinality(
        query
    ) == reference.estimate_query_cardinality(query), sig


def statistics_variant(rng: random.Random, query: GraphQuery) -> GraphQuery:
    """The generator's queries carry no edge predicates and never point
    BACKWARD only; this copy adds both, so every mask and orientation of
    the lookup is exercised."""
    variant = query.copy()
    for qedge in variant.edges():
        if rng.random() < 0.5:
            low = rng.randint(0, 3)
            qedge.predicates["w"] = between(low, low + rng.randint(0, 2))
        if rng.random() < 0.3:
            qedge.directions = BACKWARD_ONLY
    return variant


# -- differential oracle (selected by the CI mutation-stress job's -k filter) ---


class TestDifferentialStatistics:
    """The property-based generator's 100 seeded graphs and queries
    (multi-type parallel edges, boundary self-loops, direction sets,
    intervals, untyped and disconnected queries): every statistic equals
    the record walk."""

    @pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
    def test_statistics_equal_the_record_walk(self, seed):
        rng = random.Random(seed)
        graph = random_differential_graph(rng)
        query = random_differential_query(rng)
        queries = [query, statistics_variant(rng, query)]
        reference = ReferenceStatistics(graph)
        stats = GraphStatistics(graph)
        for q in queries:
            assert_statistics_equal(stats, reference, q)
        # and again, served from the memo
        for q in queries:
            assert_statistics_equal(stats, reference, q)

    def test_variants_cover_edge_predicates_and_backward_edges(self):
        predicated = backward = 0
        for seed in DIFFERENTIAL_SEEDS:
            rng = random.Random(seed)
            random_differential_graph(rng)
            variant = statistics_variant(rng, random_differential_query(rng))
            predicated += any(e.predicates for e in variant.edges())
            backward += any(e.directions == BACKWARD_ONLY for e in variant.edges())
        assert predicated >= 30 and backward >= 15


class TestMutateBetweenEstimates:
    """The mutate-between-queries interleavings: one *warm* provider
    follows the graph through every batch and must equal the record walk
    on everything it was ever asked -- the entries validation kept (served
    from the memo) and the ones it dropped (looked up again) alike."""

    @pytest.mark.parametrize("seed", MUTATION_SEEDS)
    def test_warm_provider_equals_the_record_walk(self, seed):
        rng = random.Random(10_000 + seed)
        graph = random_differential_graph(rng)
        warm = GraphStatistics(graph)
        reference = ReferenceStatistics(graph)
        asked = []

        def check_round() -> None:
            query = random_differential_query(rng)
            asked.extend([query, statistics_variant(rng, query)])
            for q in asked:
                assert_statistics_equal(warm, reference, q)
                assert_statistics_equal(GraphStatistics(graph), reference, q)

        check_round()
        for _ in range(MUTATION_ROUNDS):
            random_mutations(rng, graph, rng.randint(1, 6))
            check_round()

    def test_interleavings_both_keep_and_drop(self):
        """Guards against a scope that silently keeps nothing (or
        everything): over the suite's seeds validation does both."""
        dropped = retained = 0
        for seed in MUTATION_SEEDS:
            rng = random.Random(10_000 + seed)
            graph = random_differential_graph(rng)
            warm = GraphStatistics(graph)
            for _ in range(MUTATION_ROUNDS):
                warm.estimate_query_cardinality(random_differential_query(rng))
                random_mutations(rng, graph, rng.randint(1, 6))
            warm.estimate_query_cardinality(random_differential_query(rng))
            dropped += warm.dropped
            retained += warm.retained
        assert dropped > 0 and retained > 0, (dropped, retained)


# -- the delta scope, pinned ------------------------------------------------------------


def knows_query(directions=None, **edge_predicates) -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"gender": equals("female")})
    kwargs = {} if directions is None else {"directions": directions}
    q.add_edge(a, b, types={"knows"}, predicates=edge_predicates, **kwargs)
    return q


def untyped_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"name": equals("Anna")})
    b = q.add_vertex()
    q.add_edge(a, b)
    return q


def scope_queries() -> dict:
    """One-edge queries whose memo entries differ in what can touch them."""
    work_since = work_query()
    work_since.edge(0).predicates["sinceYear"] = equals(2003)
    return {
        "work": work_query(),
        "work_since": work_since,
        "knows": knows_query(),
        "knows_since": knows_query(since=equals(2009)),
        "untyped": untyped_query(),
    }


class NoLogGraph(PropertyGraph):
    """A mutable graph that keeps no readable delta log."""

    deltas_since = None


class TestMutateScope:
    """What one write drops from a warm memo -- and what it must not."""

    def warm(self, graph):
        stats = GraphStatistics(graph)
        queries = scope_queries()
        for q in queries.values():
            stats.path1_cardinality(q, 0)
        keys = dict(zip(queries, stats._path1_cache))
        assert len(keys) == len(queries)
        return stats, queries, keys

    def dropped_by(self, stats, queries, keys):
        """Names of the entries the pending writes drop; every re-asked
        value is checked against the record walk on the way."""
        reference = ReferenceStatistics(stats.graph)
        stats.path1_cardinality(queries["work"], 0)  # any lookup validates
        dropped = {name for name, key in keys.items() if key not in stats._path1_cache}
        dropped.discard("work")
        misses = stats.stats.misses
        for name, q in queries.items():
            assert stats.path1_cardinality(q, 0) == reference.path1_cardinality(q, 0)
        assert stats.stats.misses - misses == len(dropped)
        return dropped

    def test_non_touching_batch_drops_nothing(self, tiny_graph):
        """The e2e benchmark's non-touching batch (``apply_batch``): a new
        label, a new edge type and a new attribute."""
        stats, queries, keys = self.warm(tiny_graph)
        del queries["untyped"], keys["untyped"]  # any new edge touches it
        added = [tiny_graph.add_vertex(bench_label="bench", bench_rank=i) for i in range(2)]
        for i in range(4):
            tiny_graph.add_edge(i, added[i % 2], "bench_link", bench_weight=i)
        for i in range(2):
            tiny_graph.set_vertex_attribute(i, "bench_rank", i)
        misses = stats.stats.misses
        assert self.dropped_by(stats, queries, keys) == set()
        assert stats.stats.misses == misses
        assert stats.retained >= len(queries)

    def test_add_vertex_alone_drops_nothing(self, tiny_graph):
        """A vertex no edge reaches yet changes no edge count, whatever
        attributes it carries -- here every one the endpoint predicates
        mention (the e2e touching batch clones existing vertices)."""
        stats, queries, keys = self.warm(tiny_graph)
        tiny_graph.add_vertex(type="person", name="Anna", gender="female", age=34)
        tiny_graph.add_vertex(type="university", name="TU Dresden")
        misses = stats.stats.misses
        assert self.dropped_by(stats, queries, keys) == set()
        assert stats.stats.misses == misses
        assert stats.dropped == 0 and stats.retained == len(queries)

    def test_add_vertex_then_add_edge_drops_exactly_that_type(self, tiny_graph):
        """The ``"e"`` record that attaches the new vertex is what drops:
        its type's entries (and the untyped one), nothing else."""
        stats, queries, keys = self.warm(tiny_graph)
        eve = tiny_graph.add_vertex(type="person", name="Eve", gender="female")
        tiny_graph.add_edge(0, eve, "knows", since=2020)
        assert self.dropped_by(stats, queries, keys) == {
            "knows", "knows_since", "untyped",
        }
        assert stats.retained == 2  # work, work_since

    def test_touching_batch_retains_the_other_types(self, tiny_graph):
        """The e2e benchmark's touching batch shape: cloned vertices, edges
        of one type, one attribute write -- ``retained`` stays above zero."""
        stats, queries, keys = self.warm(tiny_graph)
        for vid in (0, 4):
            tiny_graph.add_vertex(**dict(tiny_graph.vertex_attributes(vid)))
        tiny_graph.add_edge(1, 0, "knows", since=2015)
        tiny_graph.set_vertex_attribute(3, "age", 52)
        assert self.dropped_by(stats, queries, keys) == {
            "knows", "knows_since", "untyped",
        }
        assert stats.memo_report()["retained"] > 0

    def test_add_edge_drops_its_type_and_the_untyped(self, tiny_graph):
        stats, queries, keys = self.warm(tiny_graph)
        tiny_graph.add_edge(2, 0, "knows")
        assert self.dropped_by(stats, queries, keys) == {
            "knows", "knows_since", "untyped",
        }

    def test_vertex_attribute_drops_the_endpoint_predicates_mentioning_it(
        self, tiny_graph
    ):
        stats, queries, keys = self.warm(tiny_graph)
        tiny_graph.set_vertex_attribute(1, "gender", "female")
        assert self.dropped_by(stats, queries, keys) == {"knows", "knows_since"}

    def test_edge_attribute_drops_the_edge_predicates_mentioning_it(self, tiny_graph):
        stats, queries, keys = self.warm(tiny_graph)
        knows = next(r.eid for r in tiny_graph.edges() if r.type == "knows")
        tiny_graph.set_edge_attribute(knows, "since", 2012)
        assert self.dropped_by(stats, queries, keys) == {"knows_since"}

    def test_ring_overrun_clears(self, tiny_graph):
        stats, queries, keys = self.warm(tiny_graph)
        for i in range(DELTA_RING_LIMIT + 1):
            tiny_graph.set_vertex_attribute(0, "bench_rank", i)
        assert self.dropped_by(stats, queries, keys) == set(queries) - {"work"}
        assert stats.dropped == len(queries)

    def test_graph_without_a_delta_log_clears(self):
        graph = NoLogGraph()
        anna = graph.add_vertex(type="person", name="Anna", gender="female")
        tud = graph.add_vertex(type="university")
        graph.add_edge(anna, tud, "workAt", sinceYear=2003)
        stats, queries, keys = self.warm(graph)
        graph.add_vertex(bench_label="bench")
        assert self.dropped_by(stats, queries, keys) == set(queries) - {"work"}
        assert stats.dropped == len(queries)

    def test_edge_admitted_by_both_orientations_counts_once(self):
        graph = PropertyGraph()
        a = graph.add_vertex(type="person", gender="female")
        b = graph.add_vertex(type="person", gender="female")
        graph.add_edge(a, b, "knows")  # satisfies both orientations
        graph.add_edge(a, a, "knows")  # so does a self-loop
        q = knows_query(directions=BOTH_DIRECTIONS)
        assert GraphStatistics(graph).path1_cardinality(q, 0) == 2
        assert ReferenceStatistics(graph).path1_cardinality(q, 0) == 2

    def test_mask_cap_overflow_inside_one_estimate(self, ldbc_small, monkeypatch):
        """With room for a single mask per table every lookup recycles
        the table between its source and its target mask."""
        from repro.datasets import ldbc
        from repro.matching import csr

        monkeypatch.setattr(csr, "MASK_CAP", 1)
        stats = GraphStatistics(ldbc_small.graph)
        reference = ReferenceStatistics(ldbc_small.graph)
        for query in ldbc.queries().values():
            assert_statistics_equal(stats, reference, query)

    def test_concurrent_explains_after_a_mutation_batch(self):
        """One provider, eight request threads, all released at once
        onto a memo with a pending delta run to validate."""
        from repro.datasets import ldbc

        graph = ldbc.generate(scale=0.35, seed=7).graph
        queries = list(ldbc.queries().values())
        stats = GraphStatistics(graph)
        for q in queries:
            stats.estimate_query_cardinality(q)
        # a memo large enough that validating it outlasts a thread hand-over
        filler = knows_query()
        for year in range(4000):
            filler.vertex(0).predicates["age"] = equals(year)
            stats.path1_cardinality(filler, 0)
        random_touching_batch(graph)
        expected = [GraphStatistics(graph).estimate_query_cardinality(q) for q in queries]
        barrier = threading.Barrier(8)
        results, errors = [], []

        def worker() -> None:
            try:
                barrier.wait(timeout=30)
                stats.path1_cardinality(queries[0], 0)  # straight into validation
                results.append([stats.estimate_query_cardinality(q) for q in queries])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert results == [expected] * 8


def one_edge_query(types, directions=None, source=None, target=None, **edge_predicates):
    q = GraphQuery()
    a = q.add_vertex(predicates=source or {})
    b = q.add_vertex(predicates=target or {})
    kwargs = {} if directions is None else {"directions": directions}
    q.add_edge(a, b, types=types, predicates=edge_predicates, **kwargs)
    return q


def kernel_queries():
    """Every orientation over one-edge groups, a multi-type set and the
    untyped walk, with and without endpoint and edge predicates."""
    person = {"type": equals("person")}
    female = {"gender": equals("female")}
    for directions in (None, BACKWARD_ONLY, BOTH_DIRECTIONS):
        for types in ({"studyAt"}, {"knows", "workAt"}, {"workAt", "studyAt", "knows"}, None):
            yield one_edge_query(types, directions)
            yield one_edge_query(types, directions, person, female)
            yield one_edge_query(types, directions, female, None)
            yield one_edge_query(types, directions, None, person, sinceYear=equals(2003))
        yield one_edge_query({"knows", "studyAt"}, directions, person, None, since=equals(2009))


class TestPath1Kernel:
    """Edge cases of the gather-and-popcount path(1) count, the record
    walk as the oracle, and of the type-scoped edge masks under it."""

    def test_kernel_equals_the_record_walk(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        reference = ReferenceStatistics(tiny_graph)
        for q in kernel_queries():
            assert_statistics_equal(stats, reference, q)

    def test_one_edge_group_and_both_ways_self_loop(self):
        graph = PropertyGraph()
        a = graph.add_vertex(type="person", gender="female")
        b = graph.add_vertex(type="person", gender="male")
        graph.add_edge(a, a, "likes", w=1)  # a one-edge group, and a self-loop
        graph.add_edge(a, b, "knows", w=1)
        graph.add_edge(b, a, "knows", w=2)
        stats, reference = GraphStatistics(graph), ReferenceStatistics(graph)
        female = {"gender": equals("female")}
        for types in ({"likes"}, {"likes", "knows"}, None):
            for directions in (None, BACKWARD_ONLY, BOTH_DIRECTIONS):
                for q in (
                    one_edge_query(types, directions),
                    one_edge_query(types, directions, female, female),
                    one_edge_query(types, directions, female, None, w=equals(1)),
                ):
                    assert_statistics_equal(stats, reference, q)
        both = one_edge_query({"likes"}, BOTH_DIRECTIONS, female, female)
        assert stats.path1_cardinality(both, 0) == 1

    def test_type_absent_at_build_then_patched_in(self, tiny_graph):
        q = one_edge_query({"mentors"}, BOTH_DIRECTIONS, {"type": equals("person")})
        weighted = one_edge_query({"mentors"}, None, None, None, w=equals(1))
        assert GraphStatistics(tiny_graph).path1_cardinality(q, 0) == 0
        assert GraphStatistics(tiny_graph).path1_cardinality(weighted, 0) == 0
        tiny_graph.add_edge(0, 3, "mentors", w=1)  # a one-edge group
        assert GraphStatistics(tiny_graph).path1_cardinality(q, 0) == 1
        tiny_graph.add_edge(3, 4, "mentors", w=1)
        tiny_graph.add_edge(2, 2, "mentors", w=2)
        stats, reference = GraphStatistics(tiny_graph), ReferenceStatistics(tiny_graph)
        for query in (q, weighted):
            assert_statistics_equal(stats, reference, query)
        assert csr_stats(tiny_graph)["csr_rebuilds"] == 0
        assert csr_stats(tiny_graph)["csr_patches"] == 2

    def test_one_predicate_on_two_type_sets_gives_two_masks(self, tiny_graph):
        since = {"since": equals(2009)}
        knows = one_edge_query({"knows"}, **since).edge(0)
        either = one_edge_query({"knows", "workAt"}, **since).edge(0)
        csr = csr_for(tiny_graph)
        kmask, emask = csr.edge_mask(knows), csr.edge_mask(either)
        assert kmask is not emask
        assert kmask is csr.edge_mask(one_edge_query({"knows"}, **since).edge(0))
        reference = ReferenceStatistics(tiny_graph)
        assert kmask.count(1) == reference.edge_cardinality(knows) == 1
        assert emask.count(1) == reference.edge_cardinality(either) == 1
        # rows outside the admitted types read 0, whatever their attributes
        tiny_graph.add_edge(0, 4, "workAt", since=2009)
        csr = csr_for(tiny_graph)
        assert csr.edge_mask(knows).count(1) == 1
        assert csr.edge_mask(either).count(1) == 2

    def test_patched_typed_mask_equals_a_fresh_index(self, tiny_graph):
        queries = [
            one_edge_query({"workAt"}, sinceYear=equals(2003)),
            one_edge_query({"workAt", "studyAt"}, sinceYear=equals(2003)),
            one_edge_query(None, sinceYear=equals(2003)),
            one_edge_query({"mentors"}, sinceYear=equals(2003)),
        ]
        csr = csr_for(tiny_graph)
        for q in queries:
            csr.edge_mask(q.edge(0))
        vid = tiny_graph.add_vertex(type="person")
        tiny_graph.add_edge(vid, 4, "workAt", sinceYear=2003)
        tiny_graph.add_edge(vid, 5, "mentors", sinceYear=2003)
        tiny_graph.add_edge(vid, 4, "studyAt", sinceYear=2003)
        tiny_graph.set_edge_attribute(1, "sinceYear", 2003)  # bob -workAt-> tud
        tiny_graph.set_edge_attribute(2, "sinceYear", 2003)  # carol -studyAt-> tud
        tiny_graph.set_edge_attribute(0, "sinceYear", 1999)  # anna -workAt-> tud
        assert csr_for(tiny_graph) is csr
        assert csr_stats(tiny_graph)["csr_rebuilds"] == 0
        fresh = CSRIndex(tiny_graph)
        for q in queries:
            assert csr.edge_mask(q.edge(0)) == fresh.edge_mask(q.edge(0)), q.edge(0).types

    def test_edge_attribute_outside_the_types_leaves_the_mask(self, tiny_graph):
        knows = one_edge_query({"knows"}, since=equals(2009)).edge(0)
        csr = csr_for(tiny_graph)
        before = bytes(csr.edge_mask(knows))
        work = next(r.eid for r in tiny_graph.edges() if r.type == "workAt")
        tiny_graph.set_edge_attribute(work, "since", 2009)
        assert csr_for(tiny_graph) is csr
        assert bytes(csr.edge_mask(knows)) == before
        assert csr.edge_mask(knows) == CSRIndex(tiny_graph).edge_mask(knows)

    @pytest.mark.parametrize("dataset", ["ldbc_small", "dbpedia_small"])
    def test_gathers_retain_at_most_128_bytes_an_edge(self, dataset, request):
        """Every type group's gathers plus the untyped walk's: the bound
        is on what they retain, and ``nbytes`` (``csr_bytes``) must
        account for it."""
        import tracemalloc

        graph = request.getfixturevalue(dataset).graph
        csr = CSRIndex(graph)
        counted = csr.nbytes()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for type_key in [None, *csr._by_type]:
                assert csr._gather_group(type_key) is not None
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained = after - before
        assert retained <= 128 * graph.num_edges
        assert 0.8 * retained <= csr.nbytes() - counted <= 1.25 * retained

    def test_projection_table_past_its_cap_drops_whole(self, tiny_graph):
        """One new source projection per variant: the table fills to
        the cap, is dropped whole, and every count stays exact."""
        csr = csr_for(tiny_graph)
        reference = ReferenceStatistics(tiny_graph)
        sizes = []
        for age in [*range(PROJECTION_CAP + 10), 34, 40, 51]:
            q = one_edge_query({"workAt"}, None, {"age": equals(age)})
            count = csr.path1_count(q.edge(0), q.vertex(0), q.vertex(1))
            assert count == reference.path1_cardinality(q, 0) == (age in (34, 40, 51)), age
            sizes.append(len(csr._projections))
        assert max(sizes) == PROJECTION_CAP
        assert sizes[-1] == 13

    def test_projection_bytes_match_tracemalloc_after_a_cardinality_pass(self):
        """``nbytes`` (``csr_bytes``) counts what the projections a fresh
        pass of the mix's cardinality half interned retain: their ints
        and the table's growth, as the live blocks ``tracemalloc`` saw
        allocated for them, within 10 %; and their key tuples, at
        ``sys.getsizeof`` (tuples are recycled through the interpreter's
        free lists, so ``tracemalloc`` files them under whichever line
        first allocated the block)."""
        import inspect
        import tracemalloc

        csr_file = inspect.getsourcefile(CSRIndex)
        source, first = inspect.getsourcelines(CSRIndex._projection)
        projection = range(first, first + len(source))
        gather = first + next(i for i, line in enumerate(source) if "bits = int(" in line)
        source, first = inspect.getsourcelines(CSRIndex._intern)
        intern = range(first, first + len(source))

        def held_by_table(trace) -> bool:
            """A projection's int, or the table growing in the
            ``_intern`` storing one (frames run oldest first)."""
            sites = [f.lineno if f.filename == csr_file else -1 for f in trace.traceback]
            if sites[-1] == gather:
                return True
            return len(sites) == 2 and sites[1] in intern and sites[0] in projection

        graphs, requests = paper_requests()
        tracemalloc.start(2)
        try:
            with WhyQueryService() as service:
                for graph, query, threshold in requests:
                    if threshold is not None:
                        service.explain(graphs[graph], query, threshold)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(trace.size for trace in snapshot.traces if held_by_table(trace))
        counted = 0
        for graph in graphs.values():
            csr = csr_for(graph)
            assert len(csr._projections) > 100
            before = csr.nbytes()
            keys = sum(map(sys.getsizeof, csr._projections))
            csr._projections.clear()
            counted += before - csr.nbytes() - keys
        assert abs(counted - retained) <= 0.1 * retained, (counted, retained)


def loop_types(graph) -> set:
    """Edge types holding a self-loop."""
    return {record.type for record in graph.edges() if record.source == record.target}


def path1_kinds(loops: set, qedge, source, target, count) -> set:
    """Which of the differential's cases one ``path1_count`` call is,
    over a graph whose ``loops`` types hold a self-loop."""
    kinds = {"untyped" if qedge.types is None else "typed"}
    if qedge.directions == BOTH_DIRECTIONS:
        kinds.add("both")
    if qedge.predicates:
        kinds.add("edge predicate")
    if source is not None and (source.predicates or target.predicates) and count:
        kinds.add("endpoints")
    if loops and (qedge.types is None or not loops.isdisjoint(qedge.types)):
        kinds.add("self-loop")
    return kinds


#: the projection count itself: the fixture below spies on the class attribute
PATH1_COUNT = CSRIndex.path1_count


class TestDifferentialPath1Projections:
    """Every ``path1_count`` the 32-request mix asks over a fresh service
    and six write rounds after it (seeds 7 and 12), each one served from
    the interned projections, equals the record walk's count edge by
    edge at that version."""

    @pytest.fixture(scope="class")
    def counted(self):
        """``(kinds, count, recount)`` per distinct call and version."""
        records = {}
        #: (id(graph), version) -> (graph, its self-loop types): the graph
        #: is held, so no id is reused
        loops: dict = {}

        def spy(csr, qedge, source=None, target=None):
            count = PATH1_COUNT(csr, qedge, source, target)
            graph = csr._graph()
            key = (
                id(graph), graph.version, qedge.signature(),
                source.predicate_signature() if source is not None else None,
                target.predicate_signature() if target is not None else None,
            )
            if key not in records:
                _, types = loops.setdefault(key[:2], (graph, loop_types(graph)))
                expected = ReferenceStatistics(graph).path1_count(qedge, source, target)
                records[key] = (path1_kinds(types, qedge, source, target, count), count, expected)
            return count

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CSRIndex, "path1_count", spy)
            for seed in DERIVATION_SEEDS:
                explain_mix_rounds(seed)
        return list(records.values())

    def test_every_count_equals_the_record_walk(self, counted):
        assert len(counted) > 5_000
        mismatches = [(count, recount) for _, count, recount in counted if count != recount]
        assert mismatches == []

    def test_the_mix_reaches_every_kind_of_edge(self, counted):
        kinds = Counter(kind for found, _, _ in counted for kind in found)
        for kind in ("typed", "untyped", "both", "edge predicate", "endpoints"):
            assert kinds[kind] > 100, kinds

    def test_self_loops_both_ways_and_edge_predicates(self):
        """The mix's graphs hold no self-loop: the looped graph does,
        with two-way pairs, parallel edges of two types and weights."""
        graph = looped_graph()
        for eid, record in enumerate(list(graph.edges())):
            graph.set_edge_attribute(record.eid, "w", eid % 3)
        reference, loops = ReferenceStatistics(graph), loop_types(graph)
        csr = csr_for(graph)
        seen = set()
        for types in ({"r"}, {"r", "s"}, {"s", "t"}, None):
            for directions in (None, BACKWARD_ONLY, BOTH_DIRECTIONS):
                for ends in ((None, None), ({"type": equals("a")}, {"x": between(0, 2)})):
                    for w in (None, 1):
                        edge = {} if w is None else {"w": equals(w)}
                        q = one_edge_query(types, directions, *ends, **edge)
                        args = (q.edge(0), q.vertex(0), q.vertex(1))
                        count = csr.path1_count(*args)
                        assert count == reference.path1_count(*args), (types, directions, ends, w)
                        seen |= path1_kinds(loops, *args, count)
                        assert csr.path1_count(*args) == count  # served from the table
        assert seen == {"typed", "untyped", "both", "edge predicate", "endpoints", "self-loop"}


def random_touching_batch(graph) -> None:
    """Writes the LDBC queries' statistics do depend on."""
    records = list(graph.edges())
    persons = [v for v in graph.vertices() if graph.vertex_attributes(v).get("type") == "person"]
    for record in records[:: max(1, len(records) // 6)]:
        graph.add_edge(record.source, record.target, record.type, **dict(record.attributes))
    graph.set_vertex_attribute(persons[0], "gender", "female")
    graph.set_vertex_attribute(persons[1], "gender", "male")


class TestMemoCap:
    def test_memo_stays_under_its_cap_and_answers_exactly(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        reference = ReferenceStatistics(tiny_graph)
        q = work_query()
        for year in range(PATH1_CAP + 1):
            q.vertex(0).predicates["age"] = equals(year)
            assert stats.path1_cardinality(q, 0) == (1 if year in (34, 40, 51) else 0)
            assert stats.cache_sizes["path1"] <= PATH1_CAP
        assert stats.cache_sizes["path1"] == PATH1_CAP
        for year in (0, 34, 40, 51, PATH1_CAP):
            q.vertex(0).predicates["age"] = equals(year)
            assert stats.path1_cardinality(q, 0) == reference.path1_cardinality(q, 0)
