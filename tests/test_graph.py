"""Unit tests for the property-graph storage (Definition 1)."""

import sys

import pytest

from repro.core import (
    DuplicateElementError,
    PropertyGraph,
    UnknownEdgeError,
    UnknownVertexError,
)


@pytest.fixture
def graph() -> PropertyGraph:
    g = PropertyGraph()
    a = g.add_vertex(type="person", name="Anna")
    b = g.add_vertex(type="person", name="Bob")
    c = g.add_vertex(type="city", name="Dresden")
    g.add_edge(a, b, "knows", since=2010)
    g.add_edge(a, c, "isLocatedIn")
    g.add_edge(b, c, "isLocatedIn")
    return g


class TestConstruction:
    def test_sequential_vertex_ids(self):
        g = PropertyGraph()
        assert g.add_vertex() == 0
        assert g.add_vertex() == 1

    def test_explicit_vertex_id(self):
        g = PropertyGraph()
        assert g.add_vertex(vid=10) == 10
        assert g.add_vertex() == 11

    def test_duplicate_vertex_id_rejected(self):
        g = PropertyGraph()
        g.add_vertex(vid=1)
        with pytest.raises(DuplicateElementError):
            g.add_vertex(vid=1)

    def test_edge_requires_existing_endpoints(self):
        g = PropertyGraph()
        v = g.add_vertex()
        with pytest.raises(UnknownVertexError):
            g.add_edge(v, 99, "knows")

    def test_duplicate_edge_id_rejected(self, graph):
        with pytest.raises(DuplicateElementError):
            graph.add_edge(0, 1, "knows", eid=0)

    def test_multigraph_allows_parallel_edges(self):
        g = PropertyGraph()
        a, b = g.add_vertex(), g.add_vertex()
        e1 = g.add_edge(a, b, "knows")
        e2 = g.add_edge(a, b, "knows")
        assert e1 != e2
        assert g.num_edges == 2

    def test_self_loop_allowed(self):
        g = PropertyGraph()
        v = g.add_vertex()
        e = g.add_edge(v, v, "references")
        assert g.edge(e).other_end(v) == v


class TestAccess:
    def test_vertex_attributes(self, graph):
        assert graph.vertex_attributes(0)["name"] == "Anna"

    def test_unknown_vertex_raises(self, graph):
        with pytest.raises(UnknownVertexError):
            graph.vertex_attributes(99)

    def test_unknown_edge_raises(self, graph):
        with pytest.raises(UnknownEdgeError):
            graph.edge(99)

    def test_edge_record_fields(self, graph):
        record = graph.edge(0)
        assert (record.source, record.target, record.type) == (0, 1, "knows")
        assert record.attributes["since"] == 2010

    def test_out_and_in_edges(self, graph):
        assert set(graph.out_edges(0)) == {0, 1}
        assert set(graph.in_edges(2)) == {1, 2}

    def test_incident_edges(self, graph):
        assert set(graph.incident_edges(1)) == {0, 2}

    def test_degree(self, graph):
        assert graph.degree(0) == 2
        assert graph.degree(2) == 2

    def test_other_end_raises_for_foreign_vertex(self, graph):
        with pytest.raises(UnknownVertexError):
            graph.edge(0).other_end(2)

    def test_sizes(self, graph):
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_edge_types(self, graph):
        assert graph.edge_types() == frozenset({"knows", "isLocatedIn"})


class TestIndexes:
    def test_vertices_with_value(self, graph):
        assert graph.vertices_with("type", "person") == frozenset({0, 1})

    def test_vertices_with_unknown_value(self, graph):
        assert graph.vertices_with("type", "robot") == frozenset()

    def test_index_maintained_on_insert(self, graph):
        graph.vertices_with("type", "person")  # builds the index
        new = graph.add_vertex(type="person", name="Carol")
        assert new in graph.vertices_with("type", "person")

    def test_vertex_attr_values(self, graph):
        assert graph.vertex_attr_values("type") == frozenset({"person", "city"})

    def test_vertex_value_counts(self, graph):
        counts = graph.vertex_value_counts("type")
        assert counts == {"person": 2, "city": 1}

    def test_edges_of_type(self, graph):
        assert graph.edges_of_type("isLocatedIn") == frozenset({1, 2})

    def test_edge_type_counts(self, graph):
        assert graph.edge_type_counts() == {"knows": 1, "isLocatedIn": 2}


def bucket_graph() -> PropertyGraph:
    """A hub with one vertex and one edge per member of each ``w`` bucket:
    value ``n`` is carried by ``n`` vertices and ``n`` edges."""
    g = PropertyGraph()
    hub = g.add_vertex()
    for n in range(1, 41):
        for _ in range(n):
            g.add_edge(hub, g.add_vertex(w=n), "t", w=n)
    return g


def bucket(g: PropertyGraph, kind: str, value):
    return g.vertices_with("w", value) if kind == "vertex" else g.edges_with("w", value)


class TestValueIndexBuckets:
    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_built_buckets_are_sized_to_their_members(self, kind):
        """A lazily built value index holds each bucket as one copy, not
        as the set its ``add`` calls grew, so each bucket is the size a
        copy of it has."""
        g = bucket_graph()
        for n in range(1, 41):
            ids = bucket(g, kind, n)
            assert len(ids) == n
            assert sys.getsizeof(ids) == sys.getsizeof(set(ids))

    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_writes_grow_the_built_bucket_in_place(self, kind):
        """The bucket handed out after the build is the index's own: a
        later insert shows in it, and a later overwrite leaves it."""
        g = bucket_graph()
        live = bucket(g, kind, 5)
        vid = g.add_vertex(w=5)
        eid = g.add_edge(0, vid, "t", w=5)
        new = vid if kind == "vertex" else eid
        assert new in live and bucket(g, kind, 5) is live
        if kind == "vertex":
            g.set_vertex_attribute(vid, "w", 6)
        else:
            g.set_edge_attribute(eid, "w", 6)
        assert new not in live and new in bucket(g, kind, 6)
        assert len(live) == 5


class TestSubgraph:
    def test_vertex_induced_subgraph(self, graph):
        sub = graph.subgraph([0, 1])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1  # only knows(0,1) survives
        assert sub.edge(0).type == "knows"

    def test_subgraph_preserves_identifiers(self, graph):
        sub = graph.subgraph([0, 2])
        assert sub.vertex_attributes(2)["name"] == "Dresden"

    def test_repr_mentions_sizes(self, graph):
        assert "|V|=3" in repr(graph)
