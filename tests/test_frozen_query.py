"""Frozen, structurally shared queries: the freeze contract, sharing per
operation, and the O(delta) scorers against their full-pass references.

``reference_element_distances`` / ``reference_syntactic_distance`` are the
full Algorithm 1 pass as it stood before candidates carried their tables
(kept here as ``ReferenceStatistics`` is kept in ``test_statistics.py``):
every element of the union is evaluated, nothing is carried over.  The
incremental table must reproduce it bit for bit, hence ``==`` throughout.
"""

import copy
import pickle
import random
from typing import Dict

import pytest
from hypothesis import given, settings

from repro.core import (
    BOTH_DIRECTIONS,
    Direction,
    FrozenQueryError,
    GraphQuery,
    MalformedQueryError,
    RewritingError,
    ValueSet,
    between,
    equals,
    one_of,
)
from repro.core.serialize import query_from_wire, query_to_wire
from repro.datasets import dbpedia, ldbc
from repro.explain.bounded_mcs import bounded_mcs
from repro.explain.discover_mcs import discover_mcs
from repro.finegrained import TraverseSearchTree
from repro.matching import PatternMatcher
from repro.metrics.cardinality import CardinalityThreshold
from repro.metrics.syntactic import (
    DistanceTable,
    edge_distance,
    syntactic_distance,
    vertex_distance,
)
from repro.rewrite import CoarseRewriter, GraphStatistics
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
from repro.service import WhyQueryService
from test_property_based import (
    DIFFERENTIAL_SEEDS,
    random_differential_graph,
    random_differential_query,
    small_queries,
)
from test_statistics import ReferenceStatistics


def reference_element_distances(q1: GraphQuery, q2: GraphQuery) -> Dict[str, Dict[int, float]]:
    """Per-element distances over the element union (Algorithm 1 body)."""
    vertices: Dict[int, float] = {}
    for vid in q1.vertex_ids | q2.vertex_ids:
        if not (q1.has_vertex(vid) and q2.has_vertex(vid)):
            vertices[vid] = 1.0
        else:
            vertices[vid] = vertex_distance(q1, q2, vid)
    edges: Dict[int, float] = {}
    for eid in q1.edge_ids | q2.edge_ids:
        if not (q1.has_edge(eid) and q2.has_edge(eid)):
            edges[eid] = 1.0
        else:
            edges[eid] = edge_distance(q1, q2, eid)
    return {"vertices": vertices, "edges": edges}


def reference_syntactic_distance(q1: GraphQuery, q2: GraphQuery) -> float:
    """Algorithm 1 / Eq. 3.13: syntactic distance between two queries."""
    parts = reference_element_distances(q1, q2)
    n_elements = len(parts["vertices"]) + len(parts["edges"])
    if n_elements == 0:
        return 0.0
    total = sum(parts["vertices"].values()) + sum(parts["edges"].values())
    return total / n_elements


def sample_query() -> GraphQuery:
    """One element for every operation kind to act on."""
    q = GraphQuery()
    a = q.add_vertex(predicates={"type": one_of("a", "b"), "x": between(0, 10)})
    b = q.add_vertex(predicates={"type": equals("b")})
    c = q.add_vertex()
    q.add_edge(a, b, types={"r"}, predicates={"w": between(1, 9)})
    q.add_edge(b, c, types={"s", "t"}, directions=BOTH_DIRECTIONS)
    q.add_edge(c, a)
    return q


#: one instance of each Modification subclass, applicable to sample_query()
ALL_OPERATIONS = (
    DropPredicate(("vertex", 0), "x"),
    DropPredicate(("edge", 0), "w"),
    DropEdge(2),
    DropVertex(2),
    DropTypeConstraint(1),
    RelaxDirection(0),
    AddPredicateValue(("vertex", 1), "type", "c"),
    RemovePredicateValue(("vertex", 0), "type", "a"),
    WidenInterval(("edge", 0), "w", 2.0),
    NarrowInterval(("vertex", 0), "x", 1.0),
    AddPredicate(("vertex", 2), "type", ValueSet(["c"])),
    RestrictDirection(1, Direction.FORWARD),
)


def from_scratch(query: GraphQuery):
    """The signature recomputed with nothing cached: a builder copy signs
    itself element by element on every call."""
    return query.copy().signature()


# -- the freeze contract -------------------------------------------------------


class TestFreeze:
    def test_every_mutator_raises_on_a_frozen_query(self):
        q = sample_query().freeze()
        assert q.frozen and q.vertex(0).frozen and q.edge(0).frozen
        before = from_scratch(q)
        for mutate in (
            lambda: q.add_vertex(),
            lambda: q.add_edge(0, 1),
            lambda: q.remove_edge(0),
            lambda: q.remove_vertex(0),
            lambda: q.set_predicate(("vertex", 0), "y", equals(1)),
            lambda: q.set_predicate(("edge", 0), "y", equals(1)),
            lambda: q.drop_predicate(("vertex", 0), "x"),
            lambda: q.drop_predicate(("edge", 0), "w"),
            lambda: setattr(q.edge(0), "types", None),
            lambda: setattr(q.edge(0), "directions", BOTH_DIRECTIONS),
            lambda: setattr(q.edge(0), "source", 2),
            lambda: setattr(q.vertex(0), "predicates", {}),
        ):
            with pytest.raises(FrozenQueryError):
                mutate()
        # writes through the (now read-only) predicate mappings
        for mutate in (
            lambda: q.vertex(0).predicates.__setitem__("y", equals(1)),
            lambda: q.vertex(0).predicates.__delitem__("x"),
            lambda: q.edge(0).predicates.__setitem__("y", equals(1)),
            lambda: q.edge(0).predicates.pop("w"),
        ):
            with pytest.raises((TypeError, AttributeError)):
                mutate()
        assert q.signature() == before == from_scratch(q)

    def test_frozen_error_is_a_type_error(self):
        """One ``except TypeError`` covers the mutators and the read-only
        predicate mapping alike."""
        q = sample_query().freeze()
        with pytest.raises(TypeError):
            q.add_vertex()
        with pytest.raises(TypeError):
            q.vertex(0).predicates["y"] = equals(1)
        with pytest.raises(FrozenQueryError):
            q.edge(0).types = None

    def test_copy_of_a_frozen_query_is_a_builder(self):
        q = sample_query().freeze()
        dup = q.copy()
        assert not dup.frozen and dup == q and hash(dup) == hash(q)
        dup.vertex(0).predicates["y"] = equals(1)
        dup.edge(0).types = None
        dup.add_vertex()
        assert dup != q
        assert q.signature() == from_scratch(q)

    def test_freeze_is_idempotent_and_returns_self(self):
        q = sample_query()
        assert q.freeze() is q and q.freeze() is q
        assert q.as_frozen() is q
        builder = sample_query()
        frozen = builder.as_frozen()
        assert frozen is not builder and frozen.frozen and not builder.frozen

    def test_identity_agrees_across_copy_wire_and_pickle(self):
        q = sample_query().freeze()
        twins = {
            "builder": sample_query(),
            "copy": q.copy(),
            "wire": query_from_wire(query_to_wire(q)),
            "pickle": pickle.loads(pickle.dumps(q)),
            "deepcopy": copy.deepcopy(q),
            "derived": DropEdge(2).apply(q).copy(),
        }
        twins["derived"].add_edge(2, 0, eid=2)
        for name, twin in twins.items():
            assert twin == q and q == twin, name
            assert hash(twin) == hash(q), name
            assert twin.signature() == q.signature(), name
            assert len({q, twin}) == 1, name
        assert twins["pickle"].frozen and twins["pickle"].vertex(0).frozen
        with pytest.raises(FrozenQueryError):
            twins["pickle"].add_vertex()

    def test_a_pickled_batch_keeps_its_sharing(self):
        parent = sample_query().freeze()
        child = DropPredicate(("vertex", 0), "x").apply(parent)
        parent2, child2 = pickle.loads(pickle.dumps((parent, child)))
        assert child2.vertex(1) is parent2.vertex(1)
        assert child2 == child and parent2 == parent

    @settings(max_examples=60, deadline=None)
    @given(small_queries())
    def test_cached_signatures_never_go_stale(self, query):
        """A frozen query's cached identity equals a recomputation from
        scratch -- at the root and after every derivation."""
        rng = random.Random(len(query))
        current = query.copy().freeze()
        for _ in range(4):
            assert current.signature() == from_scratch(current)
            assert hash(current) == hash(current.copy())
            for vertex in current.vertices():
                assert vertex.signature() == vertex.copy().signature()
                assert vertex.predicate_signature() == vertex.copy().predicate_signature()
            for edge in current.edges():
                assert edge.signature() == edge.copy().signature()
                assert edge.type_key() == edge.copy().type_key()
                assert edge.direction_key() == edge.copy().direction_key()
            ops = coarse_relaxations(current)
            if not ops:
                break
            current = rng.choice(ops).apply(current)

    @settings(max_examples=60, deadline=None)
    @given(small_queries())
    def test_frozen_adjacency_equals_the_scan(self, query):
        frozen = query.copy().freeze()
        for vid in query.vertex_ids:
            assert frozen.in_set(vid) == query.in_set(vid)
            assert frozen.out_set(vid) == query.out_set(vid)
            assert frozen.neighbors(vid) == query.neighbors(vid)
            assert frozen.incident_edges(vid) == query.incident_edges(vid)
        assert frozen.weakly_connected_components() == query.weakly_connected_components()
        # asked twice: the second answer is the remembered one, as a copy
        components = frozen.weakly_connected_components()
        components.clear()
        assert frozen.weakly_connected_components() == query.weakly_connected_components()


class CountingPredicate(ValueSet):
    """Counts ``is_satisfiable`` calls, i.e. validation passes."""

    __slots__ = ("checks",)

    def __init__(self, values) -> None:
        super().__init__(values)
        self.checks = 0

    def is_satisfiable(self) -> bool:
        self.checks += 1
        return super().is_satisfiable()


class TestValidateOnce:
    def query(self):
        spy = CountingPredicate(["person"])
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": spy})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt"})
        return q, spy

    def test_a_frozen_query_validates_once(self, tiny_graph):
        q, spy = self.query()
        q.freeze()
        matcher = PatternMatcher(tiny_graph)
        counts = [matcher.count(q), int(matcher.exists(q)), len(matcher.match(q))]
        assert counts == [3, 1, 3]
        assert spy.checks == 1

    def test_a_builder_is_validated_on_every_call(self, tiny_graph):
        q, spy = self.query()
        matcher = PatternMatcher(tiny_graph)
        matcher.count(q)
        matcher.exists(q)
        assert spy.checks == 2
        q.edge(0).source = 7  # dangling: a builder may become invalid any time
        with pytest.raises(ValueError):
            matcher.count(q)

    def test_an_invalid_frozen_query_keeps_failing(self):
        q = GraphQuery()
        q.add_vertex(predicates={"x": between(3, 3, low_open=True)})
        q.freeze()
        for _ in range(2):
            with pytest.raises(ValueError):
                q.validate()


# -- structural sharing ---------------------------------------------------------


class TestStructuralSharing:
    def test_all_operation_kinds_are_covered(self):
        import repro.rewrite.operations as operations

        kinds = {
            cls
            for cls in vars(operations).values()
            if isinstance(cls, type)
            and issubclass(cls, operations.Modification)
            and cls is not operations.Modification
        }
        assert {type(op) for op in ALL_OPERATIONS} == kinds

    @pytest.mark.parametrize("op", ALL_OPERATIONS, ids=lambda op: type(op).__name__)
    def test_child_shares_every_untouched_element(self, op):
        parent = sample_query().freeze()
        child = op.apply(parent)
        assert child.frozen and child is not parent
        kind, ident = op.target
        gone_edges = parent.edge_ids - child.edge_ids
        for vid in child.vertex_ids:
            if (kind, ident) == ("vertex", vid):
                assert child.vertex(vid) is not parent.vertex(vid)
            else:
                assert child.vertex(vid) is parent.vertex(vid)
        for eid in child.edge_ids:
            if (kind, ident) == ("edge", eid):
                assert child.edge(eid) is not parent.edge(eid)
            else:
                assert child.edge(eid) is parent.edge(eid)
        if isinstance(op, DropVertex):
            assert gone_edges == parent.incident_edges(op.vid) and gone_edges
        elif isinstance(op, DropEdge):
            assert gone_edges == {op.eid}
        else:
            assert not gone_edges and child.vertex_ids == parent.vertex_ids
        # the parent is untouched, the child is what the builder path makes
        assert parent == sample_query()
        assert child.signature() == from_scratch(child)

    @pytest.mark.parametrize("op", ALL_OPERATIONS, ids=lambda op: type(op).__name__)
    def test_apply_on_a_builder_shares_nothing_with_it(self, op):
        builder = sample_query()
        child = op.apply(builder)
        assert child.frozen and not builder.frozen
        for vertex in child.vertices():
            assert vertex is not builder.vertex(vertex.vid)
        builder.vertex(1).predicates["type"] = equals("z")
        assert child == op.apply(sample_query())


# -- O(delta) scoring against the full-pass references ----------------------------


def all_operations(query: GraphQuery, domain: AttributeDomain):
    ops = list(coarse_relaxations(query))
    ops += fine_relaxations(query, domain, include_topology=True)
    ops += fine_concretisations(query, domain, constrainable_attrs=("type", "x"))
    return list(dict.fromkeys(ops))


def walk_and_check(seed: int) -> set:
    """Walk the modification tree of a seeded random query four levels
    deep (every applicable operation at each visited node, a seeded sample
    of three children expanded): each child's tables, derived from its
    parent's, must equal the from-scratch references exactly.  Returns the
    operation kinds met."""
    rng = random.Random(seed)
    graph = random_differential_graph(rng)
    original = random_differential_query(rng).freeze()
    domain = AttributeDomain(graph)
    stats = GraphStatistics(graph)
    reference = ReferenceStatistics(graph)
    kinds = set()
    frontier = [(original, DistanceTable(original, original), stats.profile(original))]
    for _depth in range(4):
        children = []
        for parent, distances, profile in frontier:
            for op in all_operations(parent, domain):
                try:
                    child = op.apply(parent)
                    child.validate()
                except (RewritingError, MalformedQueryError):
                    continue
                kinds.add(type(op))
                table = distances.child(child)
                parts = reference_element_distances(original, child)
                assert table.vertices == parts["vertices"]
                assert table.edges == parts["edges"]
                assert list(table.vertices) == list(parts["vertices"])
                assert table.total == reference_syntactic_distance(original, child)
                assert table.total == syntactic_distance(original, child)
                derived = stats.profile(child, profile)
                scratch = stats.profile(child)
                assert derived.path1 == scratch.path1
                assert derived.path1 == {
                    eid: reference.path1_cardinality(child, eid) for eid in child.edge_ids
                }
                assert derived.estimate == scratch.estimate
                assert derived.estimate == reference.estimate_query_cardinality(child)
                assert derived.average_path1 == scratch.average_path1
                children.append((child, table, derived))
        frontier = rng.sample(children, min(3, len(children)))
    return kinds


class TestIncrementalScoring:
    @pytest.mark.parametrize("seed", list(DIFFERENTIAL_SEEDS)[::2])
    def test_tables_equal_the_full_pass_on_every_candidate(self, seed):
        assert walk_and_check(seed)

    def test_the_walk_meets_every_operation_kind(self):
        """DropVertex cascades and DropEdge IN/OUT moves included."""
        kinds = set()
        for seed in list(DIFFERENTIAL_SEEDS)[1:16:2]:
            kinds |= walk_and_check(seed)
        assert kinds == {type(op) for op in ALL_OPERATIONS}

    def test_a_moved_neighbour_is_rescored(self):
        """Dropping an edge changes OUT of its source and IN of its target
        although both vertex *objects* are shared with the parent."""
        original = sample_query().freeze()
        root = DistanceTable(original, original)
        child = DropEdge(0).apply(original)
        assert child.vertex(0) is original.vertex(0)
        table = root.child(child)
        assert table.vertices[0] > 0.0 and table.vertices[1] > 0.0
        assert table.vertices[2] == 0.0
        assert table.vertices == reference_element_distances(original, child)["vertices"]
        grandchild = DropVertex(2).apply(child)
        assert root.child(child).child(grandchild).total == reference_syntactic_distance(
            original, grandchild
        )

    def test_a_profile_from_a_mutated_graph_is_not_reused(self, tiny_graph):
        stats = GraphStatistics(tiny_graph)
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        u = q.add_vertex(predicates={"type": equals("university")})
        q.add_edge(p, u, types={"workAt"})
        q.freeze()
        before = stats.profile(q)
        tiny_graph.add_edge(2, 5, "workAt")
        after = stats.profile(q, before)
        assert after.path1 == {0: before.path1[0] + 1}
        assert after.estimate == ReferenceStatistics(tiny_graph).estimate_query_cardinality(q)


# -- nothing mutates a candidate after it froze ------------------------------------


def paper_requests():
    """The 32-request mix of ``benchmarks/e2e`` (both why-empty variants,
    too-few ``[2C; 4C]`` and too-many ``[max(1, floor(0.3C) // 2);
    floor(0.3C)]`` per paper query), every query frozen."""
    requests = []
    graphs = {}
    for name, module in (("ldbc", ldbc), ("dbpedia", dbpedia)):
        graphs[name] = module.generate().graph
        matcher = PatternMatcher(graphs[name])
        for query_name, query in module.queries().items():
            for variant in (module.empty_variant, module.empty_variant_edge):
                requests.append((name, variant(query_name).freeze(), None))
            count = matcher.count(query)
            upper = int(0.3 * count)
            requests.append((name, query.copy().freeze(), CardinalityThreshold(2 * count, 4 * count)))
            requests.append(
                (name, query.copy().freeze(), CardinalityThreshold(max(1, upper // 2), upper))
            )
    return graphs, requests


class TestNothingMutatesAFrozenCandidate:
    """A write to a frozen query raises, so a pass that completes made
    none; the signatures are compared on top."""

    @pytest.fixture(scope="class")
    def mix(self):
        return paper_requests()

    def test_the_service_answers_the_paper_mix_from_frozen_queries(self, mix):
        graphs, requests = mix
        assert len(requests) == 32
        seen = []
        with WhyQueryService() as service:
            for graph, query, threshold in requests:
                signature = from_scratch(query)
                report = service.explain(
                    graphs[graph],
                    query,
                    threshold,
                    on_candidate=lambda item: seen.append((item.query, from_scratch(item.query))),
                )
                assert report.rewriting is not None
                assert query.signature() == signature == from_scratch(query)
        assert len(seen) > 500
        for candidate, signature in seen:
            assert candidate.frozen
            assert candidate.signature() == signature == from_scratch(candidate)

    def test_the_explainers_take_frozen_queries(self, mix):
        graphs, requests = mix
        for graph, query, threshold in requests[:8]:
            signature = from_scratch(query)
            if threshold is None:
                discover_mcs(graphs[graph], query)
            else:
                bounded_mcs(graphs[graph], query, threshold)
            assert query.signature() == signature == from_scratch(query)

    def test_the_engines_return_frozen_results(self, tiny_graph):
        q = GraphQuery()
        p = q.add_vertex(predicates={"type": equals("person")})
        c = q.add_vertex(predicates={"type": equals("city"), "name": equals("Nowhere")})
        q.add_edge(p, c, types={"workAt"})
        coarse = CoarseRewriter(tiny_graph).rewrite(q)
        assert not q.frozen  # the caller's builder is left alone
        assert all(found.query.frozen for found in coarse.explanations)
        wide = GraphQuery()
        wide.add_vertex(predicates={"type": equals("person")})
        fine = TraverseSearchTree(tiny_graph, threshold=CardinalityThreshold(1, 2)).search(wide)
        assert fine.best_query.frozen and not wide.frozen
        assert fine.best_syntactic == reference_syntactic_distance(wide, fine.best_query)
        for found in coarse.explanations:
            assert found.syntactic == reference_syntactic_distance(q, found.query)
