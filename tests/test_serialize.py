"""Tests for JSON (de)serialisation of graphs, queries and results."""

import json
import math
import pickle

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    Interval,
    MalformedQueryError,
    PropertyGraph,
    at_least,
    between,
    equals,
    one_of,
)
from repro.core.result import ResultGraph, ResultSet
from repro.core.serialize import (
    graph_from_dict,
    graph_to_dict,
    predicate_from_dict,
    predicate_to_dict,
    predicate_from_wire,
    predicate_to_wire,
    query_from_dict,
    query_to_dict,
    query_from_wire,
    query_to_wire,
    result_set_from_dict,
    result_set_to_dict,
    shard_from_wire,
    shard_to_wire,
    shards_to_wire,
)
from repro.shard import GraphPartitioner


class TestPredicateRoundTrip:
    @pytest.mark.parametrize(
        "pred",
        [
            equals("Anna"),
            one_of("a", "b", "c"),
            one_of(1, 2, 3),
            between(2000, 2005),
            Interval(1, 4, low_open=True, high_open=True),
            at_least(10),
            Interval(-math.inf, 5, True, False, integral=False),
        ],
    )
    def test_round_trip(self, pred):
        assert predicate_from_dict(predicate_to_dict(pred)) == pred

    def test_infinity_is_json_safe(self):
        data = predicate_to_dict(at_least(10))
        text = json.dumps(data)
        assert "Infinity" not in text
        assert predicate_from_dict(json.loads(text)) == at_least(10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(MalformedQueryError):
            predicate_from_dict({"kind": "regex"})


class TestQueryRoundTrip:
    def test_full_round_trip(self, fig35_original):
        data = query_to_dict(fig35_original)
        restored = query_from_dict(data)
        assert restored == fig35_original

    def test_json_round_trip(self, fig35_original):
        text = json.dumps(query_to_dict(fig35_original))
        assert query_from_dict(json.loads(text)) == fig35_original

    def test_directions_preserved(self):
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b, directions=BOTH_DIRECTIONS)
        restored = query_from_dict(query_to_dict(q))
        assert restored.edge(0).directions == BOTH_DIRECTIONS

    def test_untyped_edge_preserved(self):
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b, types=None)
        restored = query_from_dict(query_to_dict(q))
        assert restored.edge(0).types is None

    def test_ids_preserved(self, fig35_original):
        restored = query_from_dict(query_to_dict(fig35_original))
        assert restored.vertex_ids == fig35_original.vertex_ids
        assert restored.edge_ids == fig35_original.edge_ids

    def test_restored_query_is_runnable(self, tiny_graph, fig35_original):
        from repro.matching import PatternMatcher

        restored = query_from_dict(query_to_dict(fig35_original))
        PatternMatcher(tiny_graph).count(restored)  # no exception


class TestGraphRoundTrip:
    def test_round_trip(self, tiny_graph):
        restored = graph_from_dict(graph_to_dict(tiny_graph))
        assert restored.num_vertices == tiny_graph.num_vertices
        assert restored.num_edges == tiny_graph.num_edges
        for vid in tiny_graph.vertices():
            assert restored.vertex_attributes(vid) == tiny_graph.vertex_attributes(vid)
        for record in tiny_graph.edges():
            other = restored.edge(record.eid)
            assert (other.source, other.target, other.type) == (
                record.source,
                record.target,
                record.type,
            )
            assert other.attributes == record.attributes

    def test_queries_match_identically_after_round_trip(self, tiny_graph):
        from repro.matching import PatternMatcher
        from repro.core import equals

        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        restored = graph_from_dict(graph_to_dict(tiny_graph))
        assert PatternMatcher(restored).count(q) == PatternMatcher(tiny_graph).count(q)


def typed_adjacency_state(graph):
    """Everything the typed-adjacency walk can observe, per vertex."""
    state = {}
    for vid in graph.vertices():
        state[vid] = {
            "out": list(graph.out_edges(vid)),
            "in": list(graph.in_edges(vid)),
            "out_by_type": {
                t: list(graph.out_edges_of_type(vid, t))
                for t in graph.edge_types()
                if graph.out_edges_of_type(vid, t)
            },
            "in_by_type": {
                t: list(graph.in_edges_of_type(vid, t))
                for t in graph.edge_types()
                if graph.in_edges_of_type(vid, t)
            },
        }
    return state


def build_awkward_graph():
    """Self-loops, parallel multi-type edges, out-of-order explicit ids.

    The insertion order deliberately disagrees with the id order, so a
    serializer that replays elements sorted by id would rebuild adjacency
    lists in a different order than the source graph's.
    """
    g = PropertyGraph()
    g.add_vertex(vid=7, type="node", name="seven")
    g.add_vertex(vid=2, type="node", name="two")
    g.add_vertex(vid=5, type="node", name="five")
    g.add_edge(7, 7, "likes", eid=9)  # self-loop, high id first
    g.add_edge(7, 2, "likes", eid=1)
    g.add_edge(7, 2, "follows", eid=4)  # parallel edge, different type
    g.add_edge(2, 5, "likes", eid=0, weight=3)
    g.add_edge(5, 5, "follows", eid=2)  # second self-loop
    return g


class TestGraphSnapshotExactness:
    """Satellite (ISSUE 4): snapshots round-trip the graph mutation
    version and the typed-adjacency-visible state *exactly* -- worker
    processes rebuild their evaluation spine from these payloads."""

    def test_version_round_trips_exactly(self, tiny_graph):
        restored = graph_from_dict(graph_to_dict(tiny_graph))
        assert restored.version == tiny_graph.version
        # ... and keeps moving from the restored point on mutation
        before = restored.version
        restored.add_vertex(type="person")
        assert restored.version == before + 1

    def test_typed_adjacency_state_round_trips_exactly(self, tiny_graph):
        restored = graph_from_dict(graph_to_dict(tiny_graph))
        assert typed_adjacency_state(restored) == typed_adjacency_state(tiny_graph)

    def test_awkward_graph_round_trips_exactly(self):
        graph = build_awkward_graph()
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored.version == graph.version
        assert typed_adjacency_state(restored) == typed_adjacency_state(graph)
        # insertion order survives, not just set equality
        assert [r.eid for r in restored.edges()] == [r.eid for r in graph.edges()]
        assert list(restored.vertices()) == list(graph.vertices())
        assert restored.edge_type_counts() == graph.edge_type_counts()

    def test_awkward_graph_round_trips_through_json(self):
        graph = build_awkward_graph()
        restored = graph_from_dict(json.loads(json.dumps(graph_to_dict(graph))))
        assert typed_adjacency_state(restored) == typed_adjacency_state(graph)
        assert restored.version == graph.version

    def test_matcher_trajectory_identical_after_round_trip(self):
        """The deterministic ``steps`` counter -- the searcher's exact
        walk -- must be indistinguishable on the restored graph."""
        from repro.core import equals
        from repro.matching import PatternMatcher

        graph = build_awkward_graph()
        restored = graph_from_dict(graph_to_dict(graph))
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("node")})
        b = q.add_vertex(predicates={"type": equals("node")})
        q.add_edge(a, b, types={"likes"}, directions=BOTH_DIRECTIONS)
        original = PatternMatcher(graph, injective=False)
        rebuilt = PatternMatcher(restored, injective=False)
        original_results = original.match(q)
        rebuilt_results = rebuilt.match(q)
        assert list(original_results) == list(rebuilt_results)  # same order
        assert original.steps == rebuilt.steps

    def test_format1_payload_still_readable(self, tiny_graph):
        data = graph_to_dict(tiny_graph)
        del data["version"]
        data["format"] = 1
        restored = graph_from_dict(data)
        assert restored.num_vertices == tiny_graph.num_vertices
        assert restored.num_edges == tiny_graph.num_edges


class TestWireForms:
    """Compact hashable wire forms (the process-executor transport)."""

    @pytest.mark.parametrize(
        "pred",
        [
            equals("Anna"),
            one_of(1, 2, 3),
            between(2000, 2005),
            at_least(10),
            Interval(-math.inf, 5, True, False, integral=False),
        ],
    )
    def test_predicate_round_trip(self, pred):
        wire = predicate_to_wire(pred)
        assert hash(wire) is not None
        assert predicate_from_wire(wire) == pred

    def test_query_round_trip(self, fig35_original):
        wire = query_to_wire(fig35_original)
        assert query_from_wire(wire) == fig35_original

    def test_wire_is_hashable_and_signature_stable(self, fig35_original):
        wire = query_to_wire(fig35_original)
        assert wire == query_to_wire(query_from_wire(wire))
        assert {wire: "cached"}[query_to_wire(fig35_original)] == "cached"

    def test_directions_and_untyped_edges_preserved(self):
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b, types=None, directions=BOTH_DIRECTIONS)
        restored = query_from_wire(query_to_wire(q))
        assert restored.edge(0).types is None
        assert restored.edge(0).directions == BOTH_DIRECTIONS

    def test_malformed_wire_rejected(self):
        with pytest.raises(MalformedQueryError):
            query_from_wire(("not-a-query",))
        with pytest.raises(MalformedQueryError):
            query_from_wire(("q", 2))  # wrong arity
        with pytest.raises(MalformedQueryError):
            query_from_wire(("q", 2, ((0,),), ()))  # malformed vertex tuple
        with pytest.raises(MalformedQueryError):
            predicate_from_wire(("x", 1))

    def test_future_wire_format_rejected(self):
        q = GraphQuery()
        q.add_vertex()
        wire = query_to_wire(q)
        futuristic = (wire[0], 99, wire[2], wire[3])
        with pytest.raises(MalformedQueryError):
            query_from_wire(futuristic)


class TestShardWireRoundTrip:
    """Per-shard wire form (ISSUE 5): the affine worker transport."""

    def awkward_sharded(self, num_shards=2):
        return GraphPartitioner(num_shards).partition(build_awkward_graph())

    def test_version_carried_exactly(self, tiny_graph):
        sharded = GraphPartitioner(3).partition(tiny_graph)
        for index in range(3):
            payload = shard_to_wire(sharded, index)
            assert payload["version"] == tiny_graph.version
            assert shard_from_wire(payload).version == tiny_graph.version

    def test_payload_is_pure_picklable_composite(self, tiny_graph):
        """No closures, no custom classes: dicts/lists/scalars only,
        and pickle/JSON round-trips change nothing observable."""
        allowed = (dict, list, tuple, str, int, float, bool, type(None))

        def check(obj, path="payload"):
            assert isinstance(obj, allowed), (path, type(obj))
            if isinstance(obj, dict):
                for key, value in obj.items():
                    assert isinstance(key, str), (path, key)
                    check(value, f"{path}.{key}")
            elif isinstance(obj, (list, tuple)):
                for i, value in enumerate(obj):
                    check(value, f"{path}[{i}]")

        sharded = GraphPartitioner(2).partition(tiny_graph)
        payload = shard_to_wire(sharded, 0)
        check(payload)
        assert pickle.loads(pickle.dumps(payload)) == payload
        rebuilt = shard_from_wire(json.loads(json.dumps(payload)))
        assert rebuilt.vids == sharded.shards[0].vids

    def test_owned_and_halo_partition(self):
        sharded = self.awkward_sharded()
        for index in range(2):
            slice_ = shard_from_wire(shard_to_wire(sharded, index))
            shard = sharded.shards[index]
            assert slice_.vertex_ids == shard.vertex_ids
            for vid in shard.vids:
                assert slice_.vertex_attributes(vid) == (
                    sharded.vertex_attributes(vid)
                )
                assert list(slice_.out_edges(vid)) == list(sharded.out_edges(vid))
                assert list(slice_.in_edges(vid)) == list(sharded.in_edges(vid))
                for t in sharded.edge_types():
                    assert list(slice_.out_edges_of_type(vid, t)) == list(
                        sharded.out_edges_of_type(vid, t)
                    )
                    assert list(slice_.in_edges_of_type(vid, t)) == list(
                        sharded.in_edges_of_type(vid, t)
                    )
            # halo: remote endpoints of boundary edges are readable
            for eid in shard.boundary_out + shard.boundary_in:
                record = sharded.edge(eid)
                for vid in (record.source, record.target):
                    assert slice_.vertex_attributes(vid) == (
                        sharded.vertex_attributes(vid)
                    )

    def test_boundary_rows_projected(self):
        sharded = self.awkward_sharded()
        for index in range(2):
            slice_ = shard_from_wire(shard_to_wire(sharded, index))
            assert slice_.boundary_rows == sharded.boundary_rows(index)
            for key in slice_.boundary_rows:
                assert index in key

    def test_matcher_steps_identical_after_round_trip(self):
        """A seed-restricted search on the rebuilt slice must take the
        exact ``steps`` the full graph takes under the same plan -- the
        wire format preserves adjacency insertion order."""
        from repro.matching import PatternMatcher

        graph = build_awkward_graph()
        sharded = GraphPartitioner(2).partition(graph)
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("node")})
        b = q.add_vertex(predicates={"type": equals("node")})
        q.add_edge(a, b, types={"likes"}, directions=BOTH_DIRECTIONS)
        order = [0]  # pin the plan so both sides walk identically
        for index in range(2):
            slice_ = shard_from_wire(
                json.loads(json.dumps(shard_to_wire(sharded, index)))
            )
            reference = PatternMatcher(graph, injective=False, compiled=False)
            rebuilt = PatternMatcher(slice_, injective=False)
            expected = reference.match(
                q, edge_order=order, seed_restrict=slice_.vertex_ids
            )
            got = rebuilt.match(q, edge_order=order, seed_restrict=slice_.vertex_ids)
            assert list(got) == list(expected)  # same matches, same order
            assert rebuilt.steps == reference.steps

    def test_single_pass_bulk_form_is_equivalent(self, tiny_graph):
        """``shards_to_wire`` (one edge scan for all shards -- the pool
        warm-up path) must produce exactly the per-shard payloads."""
        for graph in (tiny_graph, build_awkward_graph()):
            for num_shards in (1, 2, 4):
                sharded = GraphPartitioner(num_shards).partition(graph)
                bulk = shards_to_wire(sharded)
                assert bulk == [
                    shard_to_wire(sharded, index) for index in range(num_shards)
                ]

    def test_malformed_payload_rejected(self, tiny_graph):
        with pytest.raises(MalformedQueryError):
            shard_from_wire({"kind": "graph"})
        sharded = GraphPartitioner(2).partition(tiny_graph)
        payload = shard_to_wire(sharded, 0)
        futuristic = dict(payload, format=99)
        with pytest.raises(MalformedQueryError):
            shard_from_wire(futuristic)


class TestResultSetRoundTrip:
    def test_round_trip(self):
        results = ResultSet(
            [
                ResultGraph.from_mappings({0: 10, 1: 11}, {0: 20}),
                ResultGraph.from_mappings({0: 12, 1: 13}, {0: 21}),
            ]
        )
        restored = result_set_from_dict(result_set_to_dict(results))
        assert list(restored) == list(results)

    def test_json_round_trip(self):
        results = ResultSet([ResultGraph.from_mappings({0: 1}, {})])
        text = json.dumps(result_set_to_dict(results))
        restored = result_set_from_dict(json.loads(text))
        assert restored.cardinality == 1
