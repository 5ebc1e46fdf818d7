"""Tests for the matcher's search-order planner."""

from itertools import permutations

import pytest

from repro.core import GraphQuery, PropertyGraph, equals, one_of
from repro.datasets import ldbc
from repro.matching import PatternMatcher
from repro.matching.plan import ExpandStep, SeedStep, build_plan


@pytest.fixture
def query() -> GraphQuery:
    q = GraphQuery()
    p = q.add_vertex(predicates={"type": equals("person")})       # 4 candidates
    u = q.add_vertex(predicates={"type": equals("university")})   # 2 candidates
    c = q.add_vertex(predicates={"type": equals("city")})         # 2 candidates
    q.add_edge(p, u, types={"workAt"})
    q.add_edge(u, c, types={"locatedIn"})
    return q


class TestAutomaticPlanning:
    def test_one_seed_for_connected_query(self, tiny_graph, query):
        plan = build_plan(tiny_graph, query)
        seeds = [s for s in plan if isinstance(s, SeedStep)]
        assert len(seeds) == 1

    def test_every_edge_expanded_once(self, tiny_graph, query):
        plan = build_plan(tiny_graph, query)
        expanded = [s.eid for s in plan if isinstance(s, ExpandStep)]
        assert sorted(expanded) == [0, 1]

    def test_seed_is_selective(self, tiny_graph, query):
        plan = build_plan(tiny_graph, query)
        seed = next(s for s in plan if isinstance(s, SeedStep))
        # a seed costs its pool plus its cheapest first scan: universities
        # (2 + 2 locatedIn edges) and cities (2 + 2) beat persons (4 + 3 workAt)
        assert seed.vid in (1, 2)

    def test_expansion_anchors_are_bound(self, tiny_graph, query):
        plan = build_plan(tiny_graph, query)
        bound = set()
        for step in plan:
            if isinstance(step, SeedStep):
                bound.add(step.vid)
            else:
                assert step.anchor in bound
                if step.new_vid is not None:
                    bound.add(step.new_vid)

    def test_disconnected_query_gets_multiple_seeds(self, tiny_graph):
        q = GraphQuery()
        q.add_vertex(predicates={"type": equals("person")})
        q.add_vertex(predicates={"type": equals("city")})
        plan = build_plan(tiny_graph, q)
        assert len([s for s in plan if isinstance(s, SeedStep)]) == 2

    def test_cycle_closing_edge_checks_consistency(self, tiny_graph):
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("city")})
        b = q.add_vertex(predicates={"type": equals("city")})
        n = q.add_vertex(predicates={"type": equals("country")})
        q.add_edge(a, n, types={"isPartOf"})
        q.add_edge(b, n, types={"isPartOf"})
        q.add_edge(a, b, types={"knows"})
        plan = build_plan(tiny_graph, q)
        closing = [s for s in plan if isinstance(s, ExpandStep) and s.new_vid is None]
        assert len(closing) == 1


@pytest.fixture
def hub_graph() -> PropertyGraph:
    """Two hubs with a hundred spokes each; three of the 200 spokes are
    red, and every spoke is tagged with one of five labels."""
    g = PropertyGraph()
    hubs = [g.add_vertex(type="hub") for _ in range(2)]
    labels = [g.add_vertex(type="label") for _ in range(5)]
    for i in range(200):
        spoke = g.add_vertex(type="spoke", color="red" if i % 70 == 0 else "grey")
        g.add_edge(spoke, hubs[i % 2], "link")
        g.add_edge(spoke, labels[i % 5], "tagged")
    return g


class TestCostBasedOrder:
    def test_hub_with_fewest_candidates_is_not_seeded(self, hub_graph):
        q = GraphQuery()
        hub = q.add_vertex(predicates={"type": equals("hub")})  # 2 candidates
        spoke = q.add_vertex(predicates={"type": equals("spoke"), "color": equals("red")})
        q.add_edge(spoke, hub, types={"link"})
        assert build_plan(hub_graph, q) == [SeedStep(spoke), ExpandStep(0, spoke, hub)]
        matcher = PatternMatcher(hub_graph)
        assert matcher.count(q) == 3
        # three red spokes and one link each; a hub seed scans all 200 links
        assert matcher.steps == 3 + 3

    def test_hub_is_reached_last_on_a_path(self, hub_graph):
        q = GraphQuery()
        label = q.add_vertex(predicates={"type": equals("label")})
        spoke = q.add_vertex(predicates={"type": equals("spoke"), "color": equals("red")})
        hub = q.add_vertex(predicates={"type": equals("hub")})
        q.add_edge(spoke, label, types={"tagged"})
        q.add_edge(spoke, hub, types={"link"})
        plan = build_plan(hub_graph, q)
        assert plan[0] == SeedStep(spoke)
        for compiled in (True, False):
            matcher = PatternMatcher(hub_graph, compiled=compiled)
            assert matcher.count(q) == 3
            assert matcher.steps == 3 + 3 + 3

    def test_closing_edge_anchored_at_its_target(self):
        # five u -> v pairs joined by a link and a ref edge; every u also
        # refs twenty fillers, so closing ref scans 21 edges from u, 1 from v
        g = PropertyGraph()
        fillers = [g.add_vertex(type="filler") for _ in range(20)]
        for _ in range(5):
            u, v = g.add_vertex(type="u"), g.add_vertex(type="v")
            g.add_edge(u, v, "link")
            for filler in fillers:
                g.add_edge(u, filler, "ref")
            g.add_edge(u, v, "ref")
        q = GraphQuery()
        a = q.add_vertex(predicates={"type": equals("u")})
        b = q.add_vertex(predicates={"type": equals("v")})
        q.add_edge(a, b, types={"link"})
        ref = q.add_edge(a, b, types={"ref"})
        plan = build_plan(g, q)
        assert plan == [SeedStep(a), ExpandStep(0, a, b), ExpandStep(ref, b, None)]
        compiled, oracle = PatternMatcher(g), PatternMatcher(g, compiled=False)
        assert compiled.count(q) == oracle.count(q) == 5
        assert compiled.steps == oracle.steps == 5 + 5 + 5


def relaxed_query_3() -> dict:
    """Relaxations of the forum/person/tag/post 4-cycle of LDBC QUERY 3:
    the four heaviest counts of its why-so-few rewriting, and a tag-label
    union whose best order only the degree-weighted estimate finds
    (posts concentrate on popular tags)."""

    def variant(untyped_member=False, container=None, languages=None, tag=None):
        q = ldbc.queries()["LDBC QUERY 3"].copy()
        if untyped_member:
            q.edge(0).types = None
        if container is not None:
            q.vertex(0).predicates["type"] = one_of("forum", container)
        if languages is not None:
            q.vertex(3).predicates["language"] = one_of(*languages)
        if tag is not None:
            q.vertex(2).predicates["type"] = one_of(tag, "tag")
        return q

    return {
        "hasMember untyped": variant(untyped_member=True),
        "forum|person, de|en|fr": variant(container="person", languages=("de", "en", "fr")),
        "forum|person, de|en": variant(container="person", languages=("de", "en")),
        "forum|person": variant(container="person"),
        "city|tag, de|en|fr": variant(tag="city", languages=("de", "en", "fr")),
    }


def connected_orders(q: GraphQuery):
    """Edge orders in which every edge touches one already bound: the
    forced orders worth comparing (a second seed on a cycle only adds)."""
    for order in permutations(sorted(q.edge_ids)):
        bound = set(q.edge(order[0]).endpoints())
        for eid in order[1:]:
            ends = set(q.edge(eid).endpoints())
            if not ends & bound:
                break
            bound |= ends
        else:
            yield order


@pytest.mark.parametrize("name", sorted(relaxed_query_3()))
def test_relaxed_four_cycle_stays_near_the_best_forced_order(ldbc_full, name):
    """Exact work, no timing: the automatic plan takes at most twice the
    steps of the best of the 16 connected forced edge orders."""
    q = relaxed_query_3()[name]
    matcher = PatternMatcher(ldbc_full.graph)
    count = matcher.count(q)
    automatic = matcher.steps
    forced = []
    for order in connected_orders(q):
        before = matcher.steps
        assert matcher.count(q, edge_order=order) == count
        forced.append(matcher.steps - before)
    assert len(forced) == 16
    assert automatic <= 2 * min(forced), (automatic, min(forced))


class TestExplicitOrder:
    def test_explicit_order_respected(self, tiny_graph, query):
        plan = build_plan(tiny_graph, query, edge_order=[1, 0])
        expanded = [s.eid for s in plan if isinstance(s, ExpandStep)]
        assert expanded == [1, 0]

    def test_explicit_order_seeds_automatically(self, tiny_graph, query):
        plan = build_plan(tiny_graph, query, edge_order=[0, 1])
        assert isinstance(plan[0], SeedStep)

    def test_missing_edges_rejected(self, tiny_graph, query):
        with pytest.raises(ValueError):
            build_plan(tiny_graph, query, edge_order=[0])

    def test_isolated_vertices_seeded_after_order(self, tiny_graph, query):
        iso = query.add_vertex(predicates={"type": equals("country")})
        plan = build_plan(tiny_graph, query, edge_order=[0, 1])
        seeds = [s.vid for s in plan if isinstance(s, SeedStep)]
        assert iso in seeds
