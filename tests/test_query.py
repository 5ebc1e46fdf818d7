"""Unit tests for the set-based graph-query model (Sec. 3.2.2)."""

import pytest

from repro.core import (
    BACKWARD_ONLY,
    BOTH_DIRECTIONS,
    Direction,
    FORWARD_ONLY,
    FrozenQueryError,
    GraphQuery,
    MalformedQueryError,
    UnknownQueryEdgeError,
    UnknownQueryVertexError,
    between,
    equals,
    path_query,
)
from repro.core.query import QueryEdge


@pytest.fixture
def query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    c = q.add_vertex(predicates={"type": equals("city")})
    q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": between(2000, 2005)})
    q.add_edge(u, c, types={"locatedIn"})
    return q


class TestConstruction:
    def test_ids_are_sequential(self, query):
        assert query.vertex_ids == frozenset({0, 1, 2})
        assert query.edge_ids == frozenset({0, 1})

    def test_edge_requires_known_vertices(self):
        q = GraphQuery()
        v = q.add_vertex()
        with pytest.raises(UnknownQueryVertexError):
            q.add_edge(v, 42)

    def test_empty_direction_set_rejected(self):
        with pytest.raises(MalformedQueryError):
            QueryEdge(0, 0, 1, directions=frozenset())

    def test_empty_type_set_rejected(self):
        with pytest.raises(MalformedQueryError):
            QueryEdge(0, 0, 1, types=frozenset())

    def test_len_counts_all_elements(self, query):
        assert len(query) == 5


class TestDerivedSets:
    def test_in_set(self, query):
        assert query.in_set(1) == frozenset({0})
        assert query.in_set(0) == frozenset()

    def test_out_set(self, query):
        assert query.out_set(1) == frozenset({1})

    def test_incident(self, query):
        assert query.incident_edges(1) == frozenset({0, 1})

    def test_neighbors(self, query):
        assert query.neighbors(1) == frozenset({0, 2})

    def test_in_set_unknown_vertex(self, query):
        with pytest.raises(UnknownQueryVertexError):
            query.in_set(9)


class TestMutation:
    def test_remove_edge(self, query):
        removed = query.remove_edge(1)
        assert removed.eid == 1
        assert query.edge_ids == frozenset({0})

    def test_remove_vertex_cascades(self, query):
        _, removed_edges = query.remove_vertex(1)
        assert {e.eid for e in removed_edges} == {0, 1}
        assert query.edge_ids == frozenset()

    def test_remove_unknown_edge(self, query):
        with pytest.raises(UnknownQueryEdgeError):
            query.remove_edge(9)

    def test_set_and_drop_predicate(self, query):
        query.set_predicate(("vertex", 2), "name", equals("Berlin"))
        assert "name" in query.vertex(2).predicates
        dropped = query.drop_predicate(("vertex", 2), "name")
        assert dropped == equals("Berlin")
        assert "name" not in query.vertex(2).predicates

    def test_drop_missing_predicate_raises(self, query):
        with pytest.raises(MalformedQueryError):
            query.drop_predicate(("vertex", 2), "name")


class TestCopySemantics:
    def test_copy_is_equal_but_independent(self, query):
        dup = query.copy()
        assert dup == query
        dup.vertex(0).predicates["name"] = equals("Anna")
        assert dup != query
        assert "name" not in query.vertex(0).predicates

    def test_copy_preserves_id_counters(self, query):
        dup = query.copy()
        assert dup.add_vertex() == query.add_vertex()


class TestSubquery:
    def test_induced_edges(self, query):
        sub = query.subquery([0, 1])
        assert sub.edge_ids == frozenset({0})
        assert sub.vertex_ids == frozenset({0, 1})

    def test_explicit_edges(self, query):
        sub = query.subquery([0, 1, 2], [1])
        assert sub.edge_ids == frozenset({1})

    def test_dangling_edge_rejected(self, query):
        with pytest.raises(MalformedQueryError):
            query.subquery([0, 1], [1])

    def test_unknown_vertex_rejected(self, query):
        with pytest.raises(UnknownQueryVertexError):
            query.subquery([0, 9])

    def test_subquery_preserves_identifiers(self, query):
        sub = query.subquery([1, 2])
        assert sub.vertex(2).predicates == query.vertex(2).predicates

    def test_subquery_is_frozen_and_shares_its_parents_elements(self, query):
        parent = query.freeze()
        sub = parent.subquery([0, 1, 2], [1])
        assert sub.frozen
        assert all(sub.vertex(v) is parent.vertex(v) for v in sub.vertex_ids)
        assert sub.edge(1) is parent.edge(1)
        with pytest.raises(FrozenQueryError):
            sub.add_vertex()
        with pytest.raises(FrozenQueryError):
            sub.vertex(0).predicates = {}

    def test_subquery_does_not_alias_an_unfrozen_parent(self, query):
        sub = query.subquery([0, 1])
        signature = sub.signature()
        query.vertex(0).predicates["name"] = equals("Anna")
        query.edge(0).types = frozenset({"studyAt"})
        query.remove_edge(0)
        assert not query.frozen
        assert sub.signature() == signature
        assert "name" not in sub.vertex(0).predicates
        assert sub.edge(0).types == frozenset({"workAt"})

    def test_subquery_copy_is_the_builder(self, query):
        sub = query.subquery([0, 1])
        builder = sub.copy()
        assert not builder.frozen and builder == sub
        builder.vertex(0).predicates["name"] = equals("Anna")
        builder.add_vertex()
        assert builder != sub
        assert "name" not in sub.vertex(0).predicates


class TestStructure:
    def test_connected_query(self, query):
        assert query.is_connected()
        assert len(query.weakly_connected_components()) == 1

    def test_disconnected_components(self):
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        c, d = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b)
        q.add_edge(c, d)
        comps = q.weakly_connected_components()
        assert len(comps) == 2
        assert not q.is_connected()

    def test_isolated_vertex_is_own_component(self):
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b)
        q.add_vertex()
        assert len(q.weakly_connected_components()) == 2

    def test_validate_accepts_good_query(self, query):
        query.validate()

    def test_validate_rejects_unsatisfiable_predicate(self, query):
        from repro.core.predicates import Interval

        query.vertex(0).predicates["age"] = Interval(5, 5, high_open=True)
        with pytest.raises(MalformedQueryError):
            query.validate()


class TestIdentity:
    def test_signature_stable_under_reconstruction(self):
        def build():
            q = GraphQuery()
            a = q.add_vertex(predicates={"type": equals("person")})
            b = q.add_vertex(predicates={"type": equals("city")})
            q.add_edge(a, b, types={"isLocatedIn"})
            return q

        assert build() == build()
        assert hash(build()) == hash(build())

    def test_direction_changes_signature(self, query):
        dup = query.copy()
        dup.edge(0).directions = BOTH_DIRECTIONS
        assert dup != query

    def test_describe_lists_elements(self, query):
        text = query.describe()
        assert "workAt" in text and "v0" in text and "e1" in text


class TestPathQuery:
    def test_builds_chain(self):
        q = path_query(
            [{"type": equals("a")}, {"type": equals("b")}, {"type": equals("c")}],
            [{"x"}, None],
        )
        assert q.num_vertices == 3 and q.num_edges == 2
        assert q.edge(0).types == frozenset({"x"})
        assert q.edge(1).types is None

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(MalformedQueryError):
            path_query([{}, {}], [None, None])


class TestDirections:
    def test_direction_constants(self):
        assert FORWARD_ONLY == frozenset({Direction.FORWARD})
        assert BACKWARD_ONLY == frozenset({Direction.BACKWARD})
        assert BOTH_DIRECTIONS == FORWARD_ONLY | BACKWARD_ONLY
