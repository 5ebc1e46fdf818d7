"""Unit tests of the delta-sync mutation pipeline.

Covers every layer the pipeline crosses: the graph's versioned delta
ring, in-place CSR patching (vs the rebuild fallback), delta-scoped
plan/result-cache invalidation, the delta wire form with per-shard
routing, slice-side application and the affine executor's worker
catch-up.  The randomized end-to-end
coverage lives in ``tests/test_property_based.py``
(``TestMutateBetweenQueries``); these are the deterministic seams.
"""

import pytest

from repro.core import GraphQuery, PropertyGraph, equals
from repro.core.errors import MalformedQueryError
from repro.core.graph import DELTA_RING_LIMIT
from repro.core.serialize import (
    delta_from_wire,
    delta_to_wire,
    route_deltas,
    shards_to_wire,
)
from repro.matching import PatternMatcher, csr_stats
from repro.matching.csr import csr_entry
from repro.rewrite.cache import QueryResultCache
from repro.shard import GraphPartitioner, ProcessExecutor, SliceEvaluator


def chain_graph(n: int = 12) -> PropertyGraph:
    g = PropertyGraph()
    for i in range(n):
        g.add_vertex(vid=i, kind="person" if i % 2 else "org", score=i % 5)
    for i in range(n - 1):
        g.add_edge(i, i + 1, "knows", w=i % 3)
    return g


def person_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"kind": equals("person")})
    b = q.add_vertex()
    q.add_edge(a, b, types={"knows"})
    return q


# -- the graph's delta ring ---------------------------------------------------


class TestDeltaLog:
    def test_current_version_yields_empty_run(self):
        g = chain_graph()
        assert g.deltas_since(g.version) == ()

    def test_tail_records_every_mutation_kind(self):
        g = chain_graph()
        version = g.version
        vid = g.add_vertex(kind="person")
        eid = g.add_edge(0, vid, "knows")
        g.set_vertex_attribute(0, "score", 9)
        g.set_edge_attribute(eid, "w", 7)
        deltas = g.deltas_since(version)
        assert [record[0] for record in deltas] == ["v", "e", "va", "ea"]
        assert deltas[0][1] == vid
        assert deltas[1][1:5] == (eid, 0, vid, "knows")
        assert deltas[2][1:] == (0, "score", 9)
        assert deltas[3][1:] == (eid, "w", 7)

    def test_ring_overrun_returns_none(self):
        g = chain_graph()
        version = g.version
        for _ in range(DELTA_RING_LIMIT + 1):
            g.set_vertex_attribute(0, "score", 1)
        assert g.deltas_since(version) is None
        # a version inside the retained window still resolves
        assert g.deltas_since(g.version - 1) is not None

    def test_future_version_returns_none(self):
        g = chain_graph()
        assert g.deltas_since(g.version + 1) is None

    def test_attribute_setters_bump_version_and_indexes(self):
        g = chain_graph()
        g.create_vertex_index("kind")
        before = g.version
        g.set_vertex_attribute(0, "kind", "person")
        assert g.version == before + 1
        assert 0 in g.vertices_with("kind", "person")


# -- in-place CSR patching ----------------------------------------------------


class TestCsrPatching:
    def test_small_deltas_patch_in_place(self):
        g = chain_graph()
        q = person_query()
        comp = PatternMatcher(g, compiled=True)
        interp = PatternMatcher(g, compiled=False)
        assert comp.count(q) == interp.count(q)
        arrays_before = id(csr_entry(g).csr)
        vid = g.add_vertex(kind="person")
        g.add_edge(vid, 0, "knows")
        g.set_vertex_attribute(1, "kind", "org")
        assert comp.count(q) == interp.count(q)
        stats = csr_stats(g)
        assert stats["csr_patches"] == 1
        assert stats["csr_rebuilds"] == 0
        assert stats["deltas_applied"] == 3
        # the same index object was patched, not replaced: compiled
        # programs bound to its arrays stay valid
        assert id(csr_entry(g).csr) == arrays_before

    def test_out_of_order_vertex_id_forces_rebuild(self):
        g = chain_graph()
        comp = PatternMatcher(g, compiled=True)
        q = person_query()
        comp.count(q)
        # interning is ascending-by-vid; a fresh vertex *below* the max
        # interned vid cannot be appended
        g.add_vertex(vid=-1, kind="person")
        g.add_edge(-1, 0, "knows")
        assert comp.count(q) == PatternMatcher(g, compiled=False).count(q)
        stats = csr_stats(g)
        assert stats["csr_rebuilds"] == 1
        assert stats["csr_patches"] == 0

    def test_ring_overrun_forces_rebuild(self):
        g = chain_graph()
        comp = PatternMatcher(g, compiled=True)
        q = person_query()
        comp.count(q)
        for _ in range(DELTA_RING_LIMIT + 1):
            g.set_vertex_attribute(0, "score", 2)
        assert comp.count(q) == PatternMatcher(g, compiled=False).count(q)
        assert csr_stats(g)["csr_rebuilds"] == 1

    def test_new_edge_type_patches_and_stays_correct(self):
        g = chain_graph()
        comp = PatternMatcher(g, compiled=True)
        untyped = GraphQuery()
        a = untyped.add_vertex()
        b = untyped.add_vertex()
        untyped.add_edge(a, b)
        before = comp.count(untyped)
        g.add_edge(0, 5, "mentors")  # a type the index never saw
        assert comp.count(untyped) == before + 1
        assert comp.count(untyped) == PatternMatcher(g).count(untyped)
        assert csr_stats(g)["csr_rebuilds"] == 0


# -- delta-scoped cache invalidation ------------------------------------------


class TestDeltaScopedCaches:
    def test_untouched_query_stays_cached(self):
        g = chain_graph()
        cache = QueryResultCache(PatternMatcher(g))
        q = person_query()
        cache.count(q)
        # "score" and "w" are not mentioned by the query: no drop
        g.set_vertex_attribute(0, "score", 9)
        g.set_edge_attribute(0, "w", 9)
        cache.count(q)
        assert cache.stats.hits == 1

    def test_touched_attribute_drops_the_entry(self):
        g = chain_graph()
        cache = QueryResultCache(PatternMatcher(g))
        q = person_query()
        before = cache.count(q)
        g.set_vertex_attribute(2, "kind", "person")
        after = cache.count(q)
        assert cache.stats.hits == 0
        assert after != before

    def test_edge_add_of_matching_type_drops_the_entry(self):
        g = chain_graph()
        cache = QueryResultCache(PatternMatcher(g))
        q = person_query()
        before = cache.count(q)
        g.add_edge(1, 4, "knows")
        assert cache.count(q) == before + 1
        assert cache.stats.hits == 0


# -- wire form and routing ----------------------------------------------------


class TestDeltaWire:
    def test_round_trip_preserves_records(self):
        g = chain_graph()
        version = g.version
        g.add_vertex(kind="person")
        g.set_vertex_attribute(0, "score", 3)
        deltas = g.deltas_since(version)
        payload = delta_to_wire(deltas, version, g.version, shard=2)
        assert payload["shard"] == 2
        from_v, to_v, records = delta_from_wire(payload)
        assert (from_v, to_v) == (version, g.version)
        assert records == deltas

    def test_malformed_payloads_are_rejected(self):
        with pytest.raises(MalformedQueryError):
            delta_from_wire({"kind": "graph"})
        with pytest.raises(MalformedQueryError):
            delta_from_wire(
                {"kind": "delta", "format": 99, "from_version": 0, "to_version": 1}
            )

    def test_same_shard_edge_routes_to_one_shard(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        version = g.version
        eid = g.add_edge(0, 1, "knows")  # both endpoints in shard 0
        payloads = route_deltas(sharded, g.deltas_since(version), version, g.version)
        assert len(payloads) == 2
        assert [r[1] for r in payloads[0]["records"]] == [eid]
        assert payloads[1]["records"] == []
        # empty payloads still advance the remote slice's version
        assert payloads[1]["to_version"] == g.version

    def test_cross_shard_edge_ships_halo_and_boundary_row(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        version = g.version
        eid = g.add_edge(1, 11, "knows")  # shard 0 -> shard 1
        payloads = route_deltas(sharded, g.deltas_since(version), version, g.version)
        for payload in payloads:
            kinds = [tuple(r[:2]) for r in payload["records"]]
            assert ("e", eid) in kinds
            assert ("be", 0) in kinds
        # each side receives the *other* endpoint's attributes
        assert ("hv", 11) in [tuple(r[:2]) for r in payloads[0]["records"]]
        assert ("hv", 1) in [tuple(r[:2]) for r in payloads[1]["records"]]

    def test_attribute_flip_routes_to_owner_and_halo_holders(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        version = g.version
        # vertex 5 owns shard 0 but the 5->6 chain edge crosses the cut,
        # so shard 1 holds vertex 5 as halo: both must see the flip
        g.set_vertex_attribute(5, "kind", "org")
        payloads = route_deltas(sharded, g.deltas_since(version), version, g.version)
        assert [r[0] for r in payloads[0]["records"]] == ["va"]
        assert [r[0] for r in payloads[1]["records"]] == ["va"]

    def test_vertex_add_is_not_routable(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        version = g.version
        g.add_vertex(kind="person")
        with pytest.raises(ValueError):
            route_deltas(sharded, g.deltas_since(version), version, g.version)


# -- slice-side application ---------------------------------------------------


class TestSliceApply:
    def payloads_for(self, g, sharded, version):
        return route_deltas(sharded, g.deltas_since(version), version, g.version)

    def test_applied_slices_match_a_fresh_repartition(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        evaluator = SliceEvaluator.from_wire_payloads(shards_to_wire(sharded))
        q = person_query()
        version = g.version
        g.add_edge(1, 11, "knows")
        g.set_vertex_attribute(4, "kind", "person")
        g.set_edge_attribute(0, "w", 9)
        evaluator.apply_wire_deltas(self.payloads_for(g, sharded, version))
        fresh = SliceEvaluator.for_sharded(GraphPartitioner(2).partition(g))
        assert evaluator.count(q) == fresh.count(q) == PatternMatcher(g).count(q)
        assert evaluator.catchups == 1
        assert evaluator.deltas_applied > 0
        for index, slice_ in evaluator.slices.items():
            assert slice_.version == g.version
            fresh_rows = fresh.slices[index].boundary_rows
            assert {
                key: frozenset(eids) for key, eids in slice_.boundary_rows.items()
            } == {key: frozenset(eids) for key, eids in fresh_rows.items()}

    def test_version_chain_is_enforced(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        evaluator = SliceEvaluator.from_wire_payloads(shards_to_wire(sharded))
        stale_version = g.version
        g.add_edge(0, 1, "knows")
        intermediate = g.version
        g.add_edge(1, 2, "knows")
        # a payload skipping the intermediate version must be refused
        bad = delta_to_wire(
            g.deltas_since(intermediate), intermediate, g.version, shard=0
        )
        with pytest.raises(ValueError):
            evaluator.slices[0].apply_wire_delta(bad)
        # the contiguous chain applies
        good = route_deltas(
            sharded, g.deltas_since(stale_version), stale_version, g.version
        )
        evaluator.apply_wire_deltas(good)
        assert evaluator.slices[0].version == g.version

    def test_duplicate_records_are_idempotent(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        evaluator = SliceEvaluator.from_wire_payloads(shards_to_wire(sharded))
        version = g.version
        g.add_edge(1, 11, "knows")
        payloads = self.payloads_for(g, sharded, version)
        first = evaluator.apply_wire_deltas(payloads)
        assert first > 0
        # replaying the same interval is refused by the version chain
        with pytest.raises(ValueError):
            evaluator.slices[0].apply_wire_delta(payloads[0])

    def test_slice_deltas_since_serves_the_csr_patch(self):
        g = chain_graph(12)
        sharded = GraphPartitioner(2).partition(g)
        evaluator = SliceEvaluator.from_wire_payloads(
            shards_to_wire(sharded), compiled=True
        )
        q = person_query()
        assert evaluator.count(q) == PatternMatcher(g).count(q)
        version = g.version
        g.add_edge(1, 2, "knows")
        evaluator.apply_wire_deltas(self.payloads_for(g, sharded, version))
        assert evaluator.count(q) == PatternMatcher(g).count(q)
        # the slice's own delta ring fed an in-place patch of its
        # partial-graph CSR -- no rebuild
        slice0 = evaluator.slices[0]
        assert slice0.deltas_since(version) is not None
        assert csr_stats(slice0)["csr_rebuilds"] == 0


# -- executor catch-up --------------------------------------------------------


def big_graph(hubs: int = 40, fanout: int = 12) -> PropertyGraph:
    g = PropertyGraph()
    for _ in range(hubs):
        hub = g.add_vertex(kind="hub")
        for _ in range(fanout):
            g.add_edge(hub, g.add_vertex(kind="leaf"), "rel")
    return g


def hub_query() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"kind": equals("hub")})
    b = q.add_vertex(predicates={"kind": equals("leaf")})
    q.add_edge(a, b, types={"rel"})
    return q


class TestWorkerCatchUp:
    def test_warm_pool_absorbs_deltas_then_rebuilds_on_vertex_add(self):
        g = big_graph()
        with ProcessExecutor(
            g, max_workers=2, shards=4, placement="affine"
        ) as executor:
            q = hub_query()
            expected = PatternMatcher(g).count(q)
            assert executor.count_sharded(q) == expected

            # single-edge deltas: the pool stays warm and ships only
            # the routed per-shard records
            g.add_edge(0, 13, "rel")
            g.set_vertex_attribute(1, "kind", "hub")
            assert executor.count_sharded(q) == PatternMatcher(g).count(q)
            info = executor.info()
            assert info["deltas"]["worker_catchups"] == 1
            assert executor.pool_rebuilds == 1  # the initial warm-up only
            assert 0 < info["deltas"]["bytes"] < sum(
                info["pools"]["payload_bytes_per_worker"]
            )

            # a second catch-up routes against the live graph (the
            # stale snapshot has never seen the first round's edge)
            g.set_edge_attribute(g.num_edges - 1, "w", 1)
            assert executor.count_sharded(q) == PatternMatcher(g).count(q)
            assert executor.info()["deltas"]["worker_catchups"] == 2
            assert executor.pool_rebuilds == 1

            # a vertex add moves the partition map: full re-warm
            vid = g.add_vertex(kind="leaf")
            g.add_edge(0, vid, "rel")
            assert executor.count_sharded(q) == PatternMatcher(g).count(q)
            assert executor.info()["deltas"]["worker_catchups"] == 2
            assert executor.pool_rebuilds == 2

    def test_catchup_reships_fewer_bytes_than_rewarm(self):
        g = big_graph()
        with ProcessExecutor(
            g, max_workers=2, shards=4, placement="affine"
        ) as executor:
            q = hub_query()
            executor.count_sharded(q)
            mutations = 3
            for i in range(mutations):
                g.add_edge(i * 13, (i + 1) * 13, "rel")
                executor.count_sharded(q)
            info = executor.info()
            assert info["deltas"]["worker_catchups"] == mutations
            full_rewarm = sum(info["pools"]["payload_bytes_per_worker"]) * mutations
            assert info["deltas"]["bytes"] * 5 <= full_rewarm
