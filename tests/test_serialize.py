"""Tests for JSON (de)serialisation of graphs, queries and results."""

import json
import math

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    GraphQuery,
    Interval,
    DuplicateElementError,
    MalformedQueryError,
    PropertyGraph,
    UnknownVertexError,
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
)


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


class TestSnapshotPayload:
    """The payload a process worker warms from: plain data, exact after
    every kind of mutation, and refused when it names what cannot be."""

    def test_payload_is_plain_builtins(self):
        allowed = (dict, list, str, int, float, bool, type(None))

        def walk(value):
            assert type(value) in allowed, type(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    assert type(key) is str
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)

        walk(graph_to_dict(build_awkward_graph()))

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda g: g.add_vertex(vid=1, type="node"), id="vertex"),
            pytest.param(lambda g: g.add_edge(5, 7, "likes", eid=3), id="edge"),
            pytest.param(
                lambda g: g.set_vertex_attribute(2, "name", "deux"),
                id="vertex-attribute",
            ),
            pytest.param(
                lambda g: g.set_edge_attribute(0, "weight", 4), id="edge-attribute"
            ),
        ],
    )
    def test_mutated_graph_round_trips_exactly(self, mutate):
        graph = build_awkward_graph()
        mutate(graph)
        data = graph_to_dict(graph)
        restored = graph_from_dict(data)
        assert restored.version == graph.version
        assert typed_adjacency_state(restored) == typed_adjacency_state(graph)
        assert graph_to_dict(restored) == data

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            pytest.param(
                lambda d: d["edges"].append(
                    {"id": 77, "source": 7, "target": 99, "type": "likes"}
                ),
                UnknownVertexError,
                id="edge-to-an-unknown-vertex",
            ),
            pytest.param(
                lambda d: d["vertices"].append({"id": 5, "attributes": {}}),
                DuplicateElementError,
                id="duplicate-vertex-id",
            ),
            pytest.param(
                lambda d: d["edges"].append(dict(d["edges"][0])),
                DuplicateElementError,
                id="duplicate-edge-id",
            ),
            pytest.param(
                lambda d: d.update(version=-1), ValueError, id="negative-version"
            ),
        ],
    )
    def test_corrupt_payload_rejected(self, corrupt, error):
        data = graph_to_dict(build_awkward_graph())
        corrupt(data)
        with pytest.raises(error):
            graph_from_dict(data)

    @pytest.mark.parametrize("dataset", ["ldbc_small", "dbpedia_small"])
    def test_dataset_snapshot_keeps_every_paper_query_walk(self, request, dataset):
        from repro.datasets import dbpedia, ldbc
        from repro.matching import PatternMatcher

        graph = request.getfixturevalue(dataset).graph
        module = ldbc if dataset == "ldbc_small" else dbpedia
        restored = graph_from_dict(graph_to_dict(graph))
        for query in module.queries().values():
            original = PatternMatcher(graph, compiled=False)
            rebuilt = PatternMatcher(restored, compiled=False)
            assert list(rebuilt.match(query, limit=20)) == list(
                original.match(query, limit=20)
            )
            assert rebuilt.count(query) == original.count(query)
            assert rebuilt.steps == original.steps


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

    @pytest.mark.parametrize(
        "name",
        ["LDBC QUERY %d" % i for i in range(1, 5)]
        + ["DBPEDIA QUERY %d" % i for i in range(1, 5)],
    )
    def test_paper_queries_round_trip(self, name):
        from repro.datasets import dbpedia, ldbc

        module = ldbc if name.startswith("LDBC") else dbpedia
        for query in (
            module.queries()[name],
            module.empty_variant(name),
            module.empty_variant_edge(name),
        ):
            wire = query_to_wire(query)
            restored = query_from_wire(wire)
            assert restored == query
            assert restored.signature() == query.signature()
            assert query_to_wire(restored) == wire
            hash(wire)

    def test_future_wire_format_rejected(self):
        q = GraphQuery()
        q.add_vertex()
        wire = query_to_wire(q)
        futuristic = (wire[0], 99, wire[2], wire[3])
        with pytest.raises(MalformedQueryError):
            query_from_wire(futuristic)


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
