"""Delta touch sets: :mod:`repro.core.delta`.

A run of delta records folds into one :class:`DeltaTouch`; a query's
:class:`QueryTouchProfile` names what its count depends on; and
:func:`touch_affects_query` is conservative: every write that changes a
query's count touches that query's profile.
"""

from __future__ import annotations

import pytest

from repro.core import BOTH_DIRECTIONS, GraphQuery, PropertyGraph, at_least, equals
from repro.core.delta import (
    DeltaTouch,
    QueryTouchProfile,
    delta_touch,
    query_touch_profile,
    touch_affects_query,
)
from repro.matching import PatternMatcher

NOTHING = DeltaTouch(frozenset(), frozenset(), frozenset(), False, False)


def base_graph() -> PropertyGraph:
    g = PropertyGraph()
    anna = g.add_vertex(type="person", age=30)
    bob = g.add_vertex(type="person", age=40)
    tud = g.add_vertex(type="university")
    g.add_edge(anna, tud, "workAt", since=2003)
    g.add_edge(anna, bob, "knows")
    return g


def run_of(mutate) -> tuple:
    """The delta records one mutation leaves on a fresh base graph."""
    g = base_graph()
    before = g.version
    mutate(g)
    return g.deltas_since(before)


def touch(vertex_attrs=(), edge_attrs=(), edge_types=(), vertices=False, edges=False):
    return DeltaTouch(
        frozenset(vertex_attrs),
        frozenset(edge_attrs),
        frozenset(edge_types),
        vertices,
        edges,
    )


def profile(
    vertex_attrs=(), edge_attrs=(), edge_types=(), unconstrained=False, untyped=False
):
    return QueryTouchProfile(
        frozenset(vertex_attrs),
        frozenset(edge_attrs),
        frozenset(edge_types),
        unconstrained,
        untyped,
    )


class TestDeltaTouch:
    def test_empty_run_touches_nothing(self):
        assert delta_touch(()) == NOTHING

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            pytest.param(
                lambda g: g.add_vertex(type="city", name="Dresden"),
                touch(vertices=True),
                id="vertex-with-attributes",
            ),
            pytest.param(
                lambda g: g.add_vertex(),
                touch(vertices=True),
                id="bare-vertex",
            ),
            pytest.param(
                lambda g: g.add_edge(1, 2, "studyAt", classYear=2015),
                touch(edge_attrs={"classYear"}, edge_types={"studyAt"}, edges=True),
                id="edge",
            ),
            pytest.param(
                lambda g: g.set_vertex_attribute(0, "age", 31),
                touch(vertex_attrs={"age"}),
                id="vertex-attribute",
            ),
            pytest.param(
                lambda g: g.set_edge_attribute(0, "since", 2004),
                touch(edge_attrs={"since"}),
                id="edge-attribute",
            ),
        ],
    )
    def test_each_record_kind(self, mutate, expected):
        run = run_of(mutate)
        assert len(run) == 1
        assert delta_touch(run) == expected

    def test_a_run_unions_its_records(self):
        def mutate(g):
            city = g.add_vertex(type="city")
            g.add_edge(2, city, "locatedIn")
            g.add_edge(0, 1, "knows", since=2009)
            g.set_vertex_attribute(1, "age", 41)
            g.set_edge_attribute(0, "since", 2004)

        assert delta_touch(run_of(mutate)) == touch(
            vertex_attrs={"age"},
            edge_attrs={"since"},
            edge_types={"locatedIn", "knows"},
            vertices=True,
            edges=True,
        )

    def test_a_run_is_consumed_once_as_an_iterator(self):
        run = run_of(lambda g: g.add_edge(0, 2, "studyAt"))
        assert delta_touch(iter(run)) == delta_touch(run)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown delta record kind"):
            delta_touch([("v", 9, {}), ("vertex", 10, {})])


def person_knows_person() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("person"), "age": at_least(35)})
    q.add_edge(a, b, types={"knows"})
    return q


def person_to_anything() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex()
    q.add_edge(a, b, predicates={"since": at_least(2000)}, directions=BOTH_DIRECTIONS)
    return q


def works_or_studies() -> GraphQuery:
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": equals("person")})
    b = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(a, b, types={"workAt", "studyAt"})
    return q


def lone_vertex() -> GraphQuery:
    q = GraphQuery()
    q.add_vertex()
    return q


def typed_lone_vertex() -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates={"type": equals("city")})
    return q


class TestQueryTouchProfile:
    @pytest.mark.parametrize(
        "build, expected",
        [
            pytest.param(
                person_knows_person,
                profile(vertex_attrs={"type", "age"}, edge_types={"knows"}),
                id="typed-and-constrained",
            ),
            pytest.param(
                person_to_anything,
                profile(vertex_attrs={"type"}, edge_attrs={"since"}, untyped=True),
                id="unconstrained-and-untyped",
            ),
            pytest.param(
                works_or_studies,
                profile(vertex_attrs={"type"}, edge_types={"workAt", "studyAt"}),
                id="two-edge-types",
            ),
            pytest.param(lone_vertex, profile(unconstrained=True), id="lone-vertex"),
            pytest.param(
                typed_lone_vertex,
                profile(vertex_attrs={"type"}, unconstrained=True),
                id="typed-lone-vertex",
            ),
        ],
    )
    def test_profile(self, build, expected):
        assert query_touch_profile(build()) == expected


class TestTouchAffectsQuery:
    @pytest.mark.parametrize(
        "delta, query_profile, affected",
        [
            pytest.param(
                touch(vertex_attrs={"age"}),
                profile(vertex_attrs={"type", "age"}),
                True,
                id="vertex-attribute-in-a-predicate",
            ),
            pytest.param(
                touch(vertex_attrs={"name"}),
                profile(vertex_attrs={"type", "age"}),
                False,
                id="vertex-attribute-elsewhere",
            ),
            pytest.param(
                touch(edge_attrs={"since"}),
                profile(edge_attrs={"since"}),
                True,
                id="edge-attribute-in-a-predicate",
            ),
            pytest.param(
                touch(edge_attrs={"weight"}),
                profile(edge_attrs={"since"}, edge_types={"knows"}),
                False,
                id="edge-attribute-elsewhere",
            ),
            pytest.param(
                touch(edge_types={"knows"}, edges=True),
                profile(edge_types={"knows"}),
                True,
                id="edge-of-a-queried-type",
            ),
            pytest.param(
                touch(edge_types={"likes"}, edges=True),
                profile(edge_types={"knows"}),
                False,
                id="edge-of-another-type",
            ),
            pytest.param(
                touch(edge_types={"likes"}, edges=True),
                profile(edge_types={"knows"}, untyped=True),
                True,
                id="any-edge-extends-an-untyped-query-edge",
            ),
            pytest.param(
                touch(vertices=True),
                profile(vertex_attrs={"type"}),
                False,
                id="bare-vertex-against-constrained-vertices",
            ),
            pytest.param(
                touch(vertices=True),
                profile(vertex_attrs={"type"}, unconstrained=True),
                True,
                id="any-vertex-extends-an-unconstrained-vertex",
            ),
            pytest.param(
                touch(vertex_attrs={"type"}, vertices=True),
                profile(vertex_attrs={"type"}),
                True,
                id="vertex-carrying-a-predicate-attribute",
            ),
        ],
    )
    def test_truth_table(self, delta, query_profile, affected):
        assert touch_affects_query(delta, query_profile) is affected

    def test_nothing_affects_nothing(self):
        assert not touch_affects_query(NOTHING, query_touch_profile(lone_vertex()))


QUERIES = (
    person_knows_person,
    person_to_anything,
    works_or_studies,
    lone_vertex,
    typed_lone_vertex,
)


def add_person(g):
    g.add_vertex(type="person", age=50)


def attach_person(g):
    g.add_edge(0, 3, "knows")


def add_and_attach_person(g):
    add_person(g)
    attach_person(g)


class TestConservative:
    """Each write changes at least one query's count, and every query
    whose count it changes intersects its touch.  A case is a sequence of
    runs; each run is checked against the counts before it."""

    @pytest.mark.parametrize(
        "runs",
        [
            pytest.param((lambda g: g.add_vertex(type="city"),), id="vertex"),
            pytest.param((lambda g: g.add_edge(1, 2, "workAt"),), id="edge-of-a-type"),
            pytest.param((lambda g: g.add_edge(1, 2, "studyAt"),), id="edge-of-a-new-type"),
            pytest.param(
                (lambda g: g.add_edge(2, 0, "likes", since=2010),), id="typed-out-edge"
            ),
            pytest.param((lambda g: g.set_vertex_attribute(1, "age", 20),), id="age-flip"),
            pytest.param(
                (lambda g: g.set_vertex_attribute(2, "type", "person"),), id="type-flip"
            ),
            pytest.param(
                (lambda g: g.set_edge_attribute(0, "since", 1990),), id="since-flip"
            ),
            # a vertex carrying predicate attributes, attached by a later
            # run: the edge's run is what touches the edge's queries
            pytest.param((add_person, attach_person), id="vertex-then-attaching-edge"),
            pytest.param((add_and_attach_person,), id="vertex-and-attaching-edge"),
        ],
    )
    def test_every_changed_count_is_touched(self, runs):
        g = base_graph()
        queries = [build() for build in QUERIES]
        before = [PatternMatcher(g, compiled=False).count(q) for q in queries]
        for mutate in runs:
            version = g.version
            mutate(g)
            delta = delta_touch(g.deltas_since(version))
            after = [PatternMatcher(g, compiled=False).count(q) for q in queries]
            changed = [q for q, b, a in zip(queries, before, after) if b != a]
            assert changed, "the write must move some count"
            for q in changed:
                assert touch_affects_query(delta, query_touch_profile(q)), q
            before = after
