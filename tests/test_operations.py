"""Tests for modification operations and the attribute domain (Table 3.1)."""

import pytest

from repro.core import (
    BOTH_DIRECTIONS,
    Direction,
    GraphQuery,
    PropertyGraph,
    RewritingError,
    between,
    equals,
    one_of,
)
from repro.rewrite.operations import (
    AddPredicate,
    AddPredicateValue,
    AttributeDomain,
    DropEdge,
    DropPredicate,
    DropTypeConstraint,
    DropVertex,
    NarrowInterval,
    RelaxDirection,
    RemovePredicateValue,
    RestrictDirection,
    WidenInterval,
    coarse_relaxations,
    fine_concretisations,
    fine_relaxations,
)


@pytest.fixture
def query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person"), "name": equals("Anna")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"}, predicates={"sinceYear": between(2000, 2005)})
    return q


class TestApplySemantics:
    def test_apply_never_mutates_input(self, query):
        before = query.signature()
        DropPredicate(("vertex", 0), "name").apply(query)
        assert query.signature() == before

    def test_drop_predicate(self, query):
        out = DropPredicate(("vertex", 0), "name").apply(query)
        assert "name" not in out.vertex(0).predicates

    def test_drop_missing_predicate_raises(self, query):
        with pytest.raises(RewritingError):
            DropPredicate(("vertex", 0), "age").apply(query)

    def test_drop_edge(self, query):
        out = DropEdge(0).apply(query)
        assert out.num_edges == 0

    def test_drop_vertex_cascades(self, query):
        out = DropVertex(1).apply(query)
        assert out.num_edges == 0 and out.num_vertices == 1

    def test_drop_last_vertex_refused(self):
        q = GraphQuery()
        q.add_vertex()
        with pytest.raises(RewritingError):
            DropVertex(0).apply(q)

    def test_drop_type_constraint(self, query):
        out = DropTypeConstraint(0).apply(query)
        assert out.edge(0).types is None

    def test_drop_type_twice_raises(self, query):
        once = DropTypeConstraint(0).apply(query)
        with pytest.raises(RewritingError):
            DropTypeConstraint(0).apply(once)

    def test_relax_direction(self, query):
        out = RelaxDirection(0).apply(query)
        assert out.edge(0).directions == BOTH_DIRECTIONS

    def test_restrict_direction(self, query):
        relaxed = RelaxDirection(0).apply(query)
        out = RestrictDirection(0, Direction.BACKWARD).apply(relaxed)
        assert out.edge(0).directions == frozenset({Direction.BACKWARD})

    def test_add_predicate_value(self, query):
        out = AddPredicateValue(("vertex", 0), "name", "Alice").apply(query)
        assert out.vertex(0).predicates["name"].matches("Alice")

    def test_add_existing_value_raises(self, query):
        with pytest.raises(RewritingError):
            AddPredicateValue(("vertex", 0), "name", "Anna").apply(query)

    def test_remove_predicate_value(self, query):
        widened = AddPredicateValue(("vertex", 0), "name", "Alice").apply(query)
        out = RemovePredicateValue(("vertex", 0), "name", "Alice").apply(widened)
        assert not out.vertex(0).predicates["name"].matches("Alice")

    def test_remove_last_value_raises(self, query):
        with pytest.raises(RewritingError):
            RemovePredicateValue(("vertex", 0), "name", "Anna").apply(query)

    def test_widen_interval(self, query):
        out = WidenInterval(("edge", 0), "sinceYear", 2).apply(query)
        assert out.edge(0).predicates["sinceYear"].matches(1998)

    def test_widen_value_set_raises(self, query):
        with pytest.raises(RewritingError):
            WidenInterval(("vertex", 0), "name", 1).apply(query)

    def test_narrow_interval(self, query):
        out = NarrowInterval(("edge", 0), "sinceYear", 1).apply(query)
        pred = out.edge(0).predicates["sinceYear"]
        assert pred.matches(2001) and not pred.matches(2000)

    def test_add_predicate(self, query):
        out = AddPredicate(("vertex", 1), "name", equals("TU")).apply(query)
        assert out.vertex(1).predicates["name"] == equals("TU")

    def test_add_existing_attr_raises(self, query):
        with pytest.raises(RewritingError):
            AddPredicate(("vertex", 0), "name", equals("X")).apply(query)

    def test_target_element_gone_raises(self, query):
        dropped = DropEdge(0).apply(query)
        with pytest.raises(RewritingError):
            DropPredicate(("edge", 0), "sinceYear").apply(dropped)

    def test_signatures_deduplicate(self):
        a = DropPredicate(("vertex", 0), "name")
        b = DropPredicate(("vertex", 0), "name")
        assert a == b and hash(a) == hash(b)
        assert a != DropPredicate(("vertex", 0), "type")


class TestGenerators:
    def test_coarse_relaxations_cover_all_constraints(self, query):
        ops = coarse_relaxations(query)
        kinds = {type(op).__name__ for op in ops}
        assert kinds == {
            "DropPredicate",
            "DropTypeConstraint",
            "RelaxDirection",
            "DropEdge",
            "DropVertex",
        }
        # 4 predicates + 1 type + 1 direction + 1 edge + 2 vertices
        assert len(ops) == 9

    def test_coarse_relaxations_deterministic(self, query):
        assert [op.signature() for op in coarse_relaxations(query)] == [
            op.signature() for op in coarse_relaxations(query)
        ]

    def test_all_coarse_ops_applicable(self, query):
        for op in coarse_relaxations(query):
            out = op.apply(query)
            out.validate()

    def test_fine_relaxations_propose_domain_values(self, tiny_graph, query):
        domain = AttributeDomain(tiny_graph)
        ops = fine_relaxations(query, domain)
        add_values = [op for op in ops if isinstance(op, AddPredicateValue)]
        # proposals come from the data: other person names exist
        assert any(
            op.attr == "name" and op.value in ("Bob", "Carol", "Dave")
            for op in add_values
        )

    def test_fine_relaxations_include_interval_widening(self, tiny_graph, query):
        domain = AttributeDomain(tiny_graph)
        ops = fine_relaxations(query, domain)
        widen = [op for op in ops if isinstance(op, WidenInterval)]
        assert len(widen) >= 2  # two granularities

    def test_fine_relaxations_topology_flag(self, tiny_graph, query):
        domain = AttributeDomain(tiny_graph)
        without = fine_relaxations(query, domain, include_topology=False)
        with_topo = fine_relaxations(query, domain, include_topology=True)
        assert not any(isinstance(op, (DropEdge, DropVertex)) for op in without)
        assert any(isinstance(op, DropEdge) for op in with_topo)

    def test_fine_concretisations_shrink_only_multivalue(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"name": one_of("Anna", "Bob")})
        q.add_vertex(predicates={"name": equals("Carol")})
        domain = AttributeDomain(tiny_graph)
        ops = fine_concretisations(q, domain)
        removes = [op for op in ops if isinstance(op, RemovePredicateValue)]
        assert {op.element for op in removes} == {("vertex", 0)}

    def test_fine_concretisations_add_predicates_when_allowed(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        q.add_vertex(predicates={"type": equals("person")})
        q.add_edge(0, 1, types={"knows"})
        domain = AttributeDomain(tiny_graph)
        ops = fine_concretisations(q, domain, constrainable_attrs=["gender"])
        adds = [op for op in ops if isinstance(op, AddPredicate)]
        assert adds and all(op.attr == "gender" for op in adds)


class TestAttributeDomain:
    def test_vertex_values_histogram(self, tiny_graph):
        domain = AttributeDomain(tiny_graph)
        assert domain.vertex_values("type")["person"] == 4

    def test_edge_values_histogram(self, tiny_graph):
        domain = AttributeDomain(tiny_graph)
        assert domain.edge_values("sinceYear")[2003] == 2

    def test_propose_additional_values_excludes_admitted(self, tiny_graph):
        domain = AttributeDomain(tiny_graph)
        proposals = domain.propose_additional_values(
            ("vertex", 0), "name", equals("Anna")
        )
        assert "Anna" not in proposals and proposals

    def test_propose_constraint_values_most_common_first(self, tiny_graph):
        domain = AttributeDomain(tiny_graph)
        proposals = domain.propose_constraint_values(("vertex", 0), "type")
        assert proposals[0] == "person"

    def test_numeric_step_at_least_one(self, tiny_graph):
        domain = AttributeDomain(tiny_graph)
        assert domain.numeric_step(("edge", 0), "sinceYear") >= 1.0

    def test_numeric_step_single_value(self, tiny_graph):
        domain = AttributeDomain(tiny_graph)
        assert domain.numeric_step(("edge", 0), "nonexistent") == 1.0

    def test_steps_and_proposals_memoised_per_kind_and_attribute(self):
        """A vertex and an edge attribute of one name keep apart, each is
        derived once per domain, and a memoised answer equals a fresh
        domain's (ties broken in histogram order)."""
        g = PropertyGraph()
        for w in (1, 2, 4, 8, 8, 16):
            g.add_vertex(w=w)
        for i, w in enumerate((10, 20, 20, 50, 30, 10)):
            g.add_edge(i % 6, (i + 1) % 6, "t", w=w)
        domain = AttributeDomain(g)
        reads = []
        values_for = domain.values_for
        domain.values_for = lambda ref, attr: reads.append(ref[0]) or values_for(ref, attr)
        vertex, edge = ("vertex", 0), ("edge", 0)
        for _ in range(3):
            assert domain.numeric_step(vertex, "w") == 4.0  # gaps 1, 2, 4, 8
            assert domain.numeric_step(edge, "w") == 10.0  # gaps 10, 10, 20
            assert domain.propose_constraint_values(vertex, "w") == [8, 1, 2]
            assert domain.propose_constraint_values(edge, "w") == [10, 20, 50]
            assert domain.propose_additional_values(edge, "w", equals(10)) == [20, 50, 30]
        assert sorted(reads) == ["edge", "edge", "vertex", "vertex"]
        fresh = AttributeDomain(g)
        assert fresh.propose_additional_values(edge, "w", equals(10)) == [20, 50, 30]
