"""Shared fixtures: a hand-built micro graph with known matches, the
thesis' Fig. 3.5 worked-example queries, and small deterministic
instances of the two synthetic data sets."""

from __future__ import annotations

import pytest

from repro.core import (
    GraphQuery,
    PropertyGraph,
    equals,
    one_of,
)
from repro.datasets import dbpedia, ldbc
from repro.matching import PatternMatcher


@pytest.fixture
def tiny_graph() -> PropertyGraph:
    """Micro social graph with hand-checkable pattern matches.

    Layout (vertex ids in parentheses)::

        anna(0) -workAt(2003)-> tud(4) -locatedIn-> dresden(6) -isPartOf-> germany(8)
        bob(1)  -workAt(2010)-> tud(4)
        carol(2) -studyAt-> tud(4)
        dave(3) -workAt(2003)-> su(5) -locatedIn-> berlin(7) -isPartOf-> germany(8)
        anna(0) -knows-> bob(1); bob(1) -knows-> carol(2)
    """
    g = PropertyGraph()
    anna = g.add_vertex(type="person", name="Anna", gender="female", age=34)
    bob = g.add_vertex(type="person", name="Bob", gender="male", age=40)
    carol = g.add_vertex(type="person", name="Carol", gender="female", age=28)
    dave = g.add_vertex(type="person", name="Dave", gender="male", age=51)
    tud = g.add_vertex(type="university", name="TU Dresden")
    su = g.add_vertex(type="university", name="Stanford University")
    dresden = g.add_vertex(type="city", name="Dresden")
    berlin = g.add_vertex(type="city", name="Berlin")
    germany = g.add_vertex(type="country", name="Germany")
    assert (anna, bob, carol, dave, tud, su, dresden, berlin, germany) == tuple(
        range(9)
    )
    g.add_edge(anna, tud, "workAt", sinceYear=2003)
    g.add_edge(bob, tud, "workAt", sinceYear=2010)
    g.add_edge(carol, tud, "studyAt", classYear=2015)
    g.add_edge(dave, su, "workAt", sinceYear=2003)
    g.add_edge(tud, dresden, "locatedIn")
    g.add_edge(su, berlin, "locatedIn")
    g.add_edge(dresden, germany, "isPartOf")
    g.add_edge(berlin, germany, "isPartOf")
    g.add_edge(anna, bob, "knows", since=2009)
    g.add_edge(bob, carol, "knows", since=2012)
    return g


class ReorderingExecutor:
    """``BatchExecutor`` double for the ``executor=`` seam: asks the engines
    for batches of ``preferred_batch`` and runs each back to front -- the
    reordering any concurrent executor may produce -- returning the results
    in submission order, as the protocol demands."""

    name = "reordering"

    def __init__(self, preferred_batch: int = 4) -> None:
        self.preferred_batch = preferred_batch

    def run(self, tasks):
        return [task() for task in reversed(tasks)][::-1]


@pytest.fixture
def make_batch_executor():
    """Factory: ``make_batch_executor(preferred_batch=4)``."""
    return ReorderingExecutor


@pytest.fixture
def tiny_matcher(tiny_graph) -> PatternMatcher:
    return PatternMatcher(tiny_graph)


@pytest.fixture
def person_works_at_university() -> GraphQuery:
    """person -workAt-> university, both endpoints typed."""
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})
    u = q.add_vertex(predicates={"type": equals("university")})
    q.add_edge(p, u, types={"workAt"})
    return q


def build_fig35_original() -> GraphQuery:
    """The thesis' Fig. 3.5a original query Q1.

    v1 person(name=Anna) -e1:workAt(sinceYear=2003)-> v2 university
    v2 -e2:locatedIn-> v3 city(name=Berlin)
    v4 person(gender=male, nationality=Chinese) -e3:studyAt-> v2
    """
    q = GraphQuery()
    v1 = q.add_vertex(vid=1, predicates={"type": equals("person"), "name": equals("Anna")})
    v2 = q.add_vertex(vid=2, predicates={"type": equals("university")})
    v3 = q.add_vertex(vid=3, predicates={"type": equals("city"), "name": equals("Berlin")})
    v4 = q.add_vertex(
        vid=4,
        predicates={
            "type": equals("person"),
            "gender": equals("male"),
            "nationality": equals("Chinese"),
        },
    )
    q.add_edge(v1, v2, eid=1, types={"workAt"}, predicates={"sinceYear": equals(2003)})
    q.add_edge(v2, v3, eid=2, types={"locatedIn"})
    q.add_edge(v4, v2, eid=3, types={"studyAt"})
    return q


def build_fig35_modified() -> GraphQuery:
    """The thesis' Fig. 3.5b modification-based explanation Q2."""
    q = GraphQuery()
    v1 = q.add_vertex(
        vid=1,
        predicates={
            "type": equals("person"),
            "name": one_of("Anna", "Alice", "Sandra"),
        },
    )
    v2 = q.add_vertex(vid=2, predicates={"type": one_of("university", "college")})
    v3 = q.add_vertex(
        vid=3, predicates={"type": equals("city"), "name": one_of("Madrid", "Rom")}
    )
    q.add_edge(
        v1, v2, eid=1, types={"workAt"}, predicates={"sinceYear": one_of(2003, 2004)}
    )
    q.add_edge(v2, v3, eid=2, types={"locatedIn"})
    return q


@pytest.fixture
def fig35_original() -> GraphQuery:
    return build_fig35_original()


@pytest.fixture
def fig35_modified() -> GraphQuery:
    return build_fig35_modified()


@pytest.fixture(scope="session")
def ldbc_small():
    """Session-scoped small LDBC instance (deterministic)."""
    return ldbc.generate(scale=0.35, seed=7)


@pytest.fixture(scope="session")
def dbpedia_small():
    """Session-scoped small DBpedia instance (deterministic)."""
    return dbpedia.generate(scale=0.35, seed=11)


@pytest.fixture(scope="session")
def ldbc_full():
    """Session-scoped default-scale LDBC instance (the benchmark graph)."""
    return ldbc.generate()
