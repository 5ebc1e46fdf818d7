"""Unit tests of the delta-sync mutation pipeline.

Covers every layer the pipeline crosses: the graph's versioned delta
ring, in-place CSR patching (vs the rebuild fallback) and its
catch-up lock, and delta-scoped plan/result-cache invalidation.  The
randomized end-to-end
coverage lives in ``tests/test_property_based.py``
(``TestMutateBetweenQueries``); these are the deterministic seams.
"""

import sys
import threading

import pytest

import repro.finegrained.propagation as propagation
import repro.matching.csr as csr_module
from repro.core import GraphQuery, PropertyGraph, equals
from repro.core.predicates import Interval
from repro.core.graph import DELTA_RING_LIMIT
from repro.core.predicates import ValueSet
from repro.core.serialize import graph_from_dict, graph_to_dict
from repro.matching import PatternMatcher, build_plan, csr_stats
from repro.matching.csr import CSRIndex, csr_entry, csr_for
from repro.exec.context import ExecutionContext
from repro.finegrained.propagation import ParentCounts
from repro.rewrite.cache import QueryResultCache
from repro.rewrite.operations import AddPredicate, AddPredicateValue


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


class _AnnouncingLock:
    """Wraps the catch-up lock: sets ``second`` once a second thread
    reaches it (whether or not the first still holds it)."""

    def __init__(self, lock, second: threading.Event) -> None:
        self._lock = lock
        self._second = second
        self._arrivals: list = []

    def __enter__(self):
        self._arrivals.append(None)  # atomic under the GIL
        if len(self._arrivals) == 2:
            self._second.set()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


class TestCatchUpLock:
    def test_two_readers_after_a_write_apply_the_run_once(self, monkeypatch):
        """Reader A is held inside ``apply_deltas`` while reader B arrives:
        B either reaches the catch-up lock or, unserialised, applies the
        same delta run itself.  Only then does A resume.  The run must
        land exactly once -- no spurious rebuild, no duplicated rows."""
        g = chain_graph(60)
        q = person_query()
        PatternMatcher(g).count(q)  # build the index at this version
        for i in range(40):
            vid = g.add_vertex(kind="person" if i % 2 else "org", score=i % 5)
            g.add_edge(vid, i, "knows")

        entered, arrived, release = threading.Event(), threading.Event(), threading.Event()
        original = csr_module.CSRIndex.apply_deltas
        calls: list = []

        def held(self, deltas):
            calls.append(None)
            if len(calls) == 1:  # reader A: wait until B has arrived
                entered.set()
                assert release.wait(30)
                return original(self, deltas)
            result = original(self, deltas)
            arrived.set()
            return result

        monkeypatch.setattr(csr_module.CSRIndex, "apply_deltas", held)
        monkeypatch.setattr(
            csr_module, "_CSR_LOCK", _AnnouncingLock(csr_module._CSR_LOCK, arrived)
        )
        counts: dict = {}
        errors: list = []

        def reader(name: str) -> None:
            try:
                counts[name] = PatternMatcher(g).count(q)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        a = threading.Thread(target=reader, args=("a",), daemon=True)
        b = threading.Thread(target=reader, args=("b",), daemon=True)
        try:
            a.start()
            assert entered.wait(30)
            b.start()
            assert arrived.wait(30)
        finally:
            release.set()
            for thread in (a, b):
                if thread.is_alive():
                    thread.join(30)
        assert not errors, errors
        assert csr_stats(g)["csr_rebuilds"] == 0
        assert csr_stats(g)["csr_patches"] == 1
        assert len(csr_entry(g).csr.vid_of) == g.num_vertices
        # the interpreter plans on the index too, so it asks last
        expected = PatternMatcher(g, compiled=False).count(q)
        assert counts == {"a": expected, "b": expected}

    def test_concurrent_readers_after_writes_stress(self):
        """Four readers race after each of several write batches, with
        a shortened switch interval; the index never rebuilds and never
        holds a row the graph does not."""
        g = chain_graph(200)
        q = person_query()
        PatternMatcher(g).count(q)
        interval = sys.getswitchinterval()
        failures: list = []

        def reader(barrier: threading.Barrier) -> None:
            try:
                barrier.wait(30)
                PatternMatcher(g).count(q)
            except BaseException as exc:  # surfaced below
                failures.append(exc)

        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(5):
                for i in range(100):
                    vid = g.add_vertex(kind="person", score=i % 5)
                    g.add_edge(vid, round_index * 100 + i, "knows")
                barrier = threading.Barrier(4)
                threads = [
                    threading.Thread(target=reader, args=(barrier,), daemon=True)
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert csr_stats(g)["csr_rebuilds"] == 0
        assert len(csr_entry(g).csr.vid_of) == g.num_vertices
        assert PatternMatcher(g).count(q) == PatternMatcher(g, compiled=False).count(q)


def knows_chain() -> PropertyGraph:
    """Six persons, four ``knows`` edges: out-rows 0-3 hold one each."""
    g = PropertyGraph()
    for i in range(6):
        g.add_vertex(vid=i, kind="person")
    for i in range(4):
        g.add_edge(i, i + 1, "knows")
    return g


def pause_first_call(monkeypatch, name: str, module=csr_module):
    """Wrap ``<module>.<name>`` (the CSR module's by default): its first
    call, once it has returned its value, sets ``paused`` and waits for
    ``resume``."""
    real = getattr(module, name)
    paused, resume = threading.Event(), threading.Event()
    calls: list = []

    def wrapper(*args):
        value = real(*args)
        calls.append(None)
        if len(calls) == 1:
            paused.set()
            assert resume.wait(30)
        return value

    monkeypatch.setattr(module, name, wrapper)
    return paused, resume


def city_chain() -> PropertyGraph:
    """Six persons in alternating cities, ``knows`` edges 0->1->...->4,
    each of weight 1."""
    g = PropertyGraph()
    for i in range(6):
        g.add_vertex(vid=i, kind="person", city="xy"[i % 2])
    for i in range(4):
        g.add_edge(i, i + 1, "knows", weight=1)
    return g


def city_query() -> GraphQuery:
    """Someone from city x knowing anyone: 2 matches on the chain."""
    q = GraphQuery()
    a = q.add_vertex(predicates={"kind": equals("person"), "city": equals("x")})
    b = q.add_vertex(predicates={"kind": equals("person")})
    q.add_edge(a, b, types={"knows"})
    return q.freeze()


#: one restriction and one relaxation of :func:`city_query`'s vertices,
#: and a restriction of its edge that every ``knows`` edge passes
CITY_CHILDREN = {
    "filtered": AddPredicate(("vertex", 1), "city", ValueSet(["y"])),
    "seeded": AddPredicateValue(("vertex", 0), "city", "y"),
    "unchanged": AddPredicate(("edge", 0), "weight", ValueSet([1])),
}

#: where a write lands in each rule's derivation: right after its first
#: version check, or inside the edge rule's first ``path1_count`` (after
#: its first projection)
CITY_PAUSES = {
    "filtered": ("csr_for", propagation),
    "seeded": ("csr_for", propagation),
    "unchanged": ("_projection", CSRIndex),
}


class TestMutateDuringDerivation:
    """A reader pauses inside a lazy derivation while the main thread
    writes.  What the reader derived from the old version serves its own
    call only: the CSR index never keeps a table derived across a patch
    (the intern rule), and a child's count derived from its parent's
    falls back to the matcher when the graph moved in between."""

    def race(self, monkeypatch, hook: str, derive, module=csr_module, warm=None):
        """Run ``derive(csr)`` in a reader paused at ``module.hook``
        (after ``warm(csr)``, unpaused), add a vertex and a ``knows``
        edge out of it meanwhile; returns the graph, its patched index
        and what the reader's call answered."""
        g = knows_chain()
        csr = csr_for(g)
        if warm is not None:
            warm(csr)
        paused, resume = pause_first_call(monkeypatch, hook, module)
        answers: list = []
        reader = threading.Thread(target=lambda: answers.append(derive(csr)), daemon=True)
        try:
            reader.start()
            assert paused.wait(30)
            vid = g.add_vertex(kind="person")
            g.add_edge(vid, 0, "knows")
            assert csr_for(g) is csr  # patched in place, not rebuilt
        finally:
            resume.set()
            reader.join(30)
        assert not reader.is_alive()
        assert len(answers) == 1
        return g, csr, answers[0]

    def test_degree_row_derived_across_a_patch_is_not_kept(self, monkeypatch):
        g, csr, row = self.race(
            monkeypatch, "Counter", lambda csr: csr.degrees((("knows", "out"),))
        )
        assert row == [1, 1, 1, 1, 0, 0]  # the reader's own version
        assert list(csr.adjacency("knows", "out")[0]) == [0, 1, 2, 3, 4, 4, 4, 5]
        q = person_query()
        assert PatternMatcher(g).count(q) == PatternMatcher(g, compiled=False).count(q) == 5

    def test_path1_gathers_derived_across_a_patch_are_not_kept(self, monkeypatch):
        q = person_query()
        g, csr, count = self.race(
            monkeypatch,
            "itemgetter",
            lambda csr: csr.path1_count(q.edge(0), q.vertex(0), q.vertex(1)),
        )
        assert count == 4  # the reader's own version
        assert csr.path1_count(q.edge(0), q.vertex(0), q.vertex(1)) == 5

    def test_path1_projection_gathered_across_a_patch_is_not_kept(self, monkeypatch):
        """The group's gathers and the source's mask are warm, so the
        reader pauses inside the source projection's gather: past its
        version read and its gathers, before the mask is read."""
        q = person_query()
        edge, source, target = q.edge(0), q.vertex(0), q.vertex(1)

        def warm(csr):
            csr._gather_group("knows")
            csr.vertex_mask(source)

        g, csr, count = self.race(
            monkeypatch, "vertex_mask", lambda csr: csr.path1_count(edge, source, target),
            CSRIndex, warm,
        )
        assert count == 4  # gathered over the reader's rows: served, not stored
        assert csr._projections == {}
        assert csr.path1_count(edge, source, target) == 5
        assert list(csr._projections.values()) == [0b11111]  # a bit per knows edge

    def child_count(self, monkeypatch, rule: str, write: bool):
        """Count the ``rule`` child of the chain's counted parent through
        the result cache, deriving from the parent; with ``write``, a
        reader pauses inside the derivation (at ``CITY_PAUSES[rule]``)
        while the main thread adds a person from city x who knows person
        0 (an edge of no weight), moves person 3 to city x and catches
        the index up.  Returns the context, the child, the frame and
        what the reader's call answered."""
        g = city_chain()
        context = ExecutionContext(g)
        parent = city_query()
        version = g.version
        count = context.cache.count(parent, limit=50)
        assert count == 2
        op = CITY_CHILDREN[rule]
        child = op.apply(parent)
        frame = ParentCounts(context.matcher, parent, count, version, 50, {child: op})
        if not write:
            return context, child, frame, context.cache.count(child, 50, derive=frame.derive)
        paused, resume = pause_first_call(monkeypatch, *CITY_PAUSES[rule])
        answers: list = []
        reader = threading.Thread(
            target=lambda: answers.append(context.cache.count(child, 50, derive=frame.derive)),
            daemon=True,
        )
        try:
            reader.start()
            assert paused.wait(30)
            vid = g.add_vertex(kind="person", city="x")
            g.add_edge(vid, 0, "knows")
            g.set_vertex_attribute(3, "city", "x")
            csr_for(g)
        finally:
            resume.set()
            reader.join(30)
        assert not reader.is_alive()
        assert len(answers) == 1
        return context, child, frame, answers[0]

    @pytest.mark.parametrize("rule", sorted(CITY_CHILDREN))
    def test_an_unmoved_graph_derives_the_child(self, monkeypatch, rule):
        context, child, frame, answer = self.child_count(monkeypatch, rule, write=False)
        assert answer == PatternMatcher(context.graph).count(child) == {
            "filtered": 2, "seeded": 4, "unchanged": 2,
        }[rule]
        assert getattr(frame, rule) == 1

    @pytest.mark.parametrize("rule", sorted(CITY_CHILDREN))
    def test_a_write_during_the_derivation_falls_back(self, monkeypatch, rule):
        context, child, frame, answer = self.child_count(monkeypatch, rule, write=True)
        fresh = PatternMatcher(context.graph).count(child, limit=50)
        assert (frame.filtered, frame.seeded, frame.unchanged) == (0, 0, 0)  # nothing derived
        assert answer == fresh == {"filtered": 1, "seeded": 5, "unchanged": 3}[rule]
        # the stored entry is the matcher's count on the mutated graph
        assert context.cache._entries[child.signature()][:2] == (fresh, 50)
        assert context.cache.count(child, limit=50) == fresh
        # every entry left answers for the mutated graph: none mixes versions
        for query, count, limit in context.cache.export_entries():
            assert count == PatternMatcher(context.graph).count(query, limit=limit), query

    def test_a_write_inside_the_edge_rule_keeps_no_mixed_projection(self, monkeypatch):
        """The edge rule's projections read after the patch are the
        patched graph's: the child's and the parent's edge, counted
        again on the caught-up index, read what a fresh index reads."""
        context, child, frame, _ = self.child_count(monkeypatch, "unchanged", write=True)
        graph = context.graph
        parent = city_query()
        csr, fresh = csr_for(graph), CSRIndex(graph)
        ends = parent.vertex(0), parent.vertex(1)
        counts = [csr.path1_count(query.edge(0), *ends) for query in (parent, child)]
        assert counts == [fresh.path1_count(query.edge(0), *ends) for query in (parent, child)]
        # the new person's unweighted edge is a pair the restriction loses
        assert counts[0] - counts[1] == 1


class TestMutateDuringFill:
    """A predicate fill reads the live graph, which may be ahead of the
    index that asks: it skips the rows the index has not interned yet,
    and the catch-up patch sets them.  A fill paused across a patch sizes
    its mask after reading, so a row the patch appended fits."""

    def test_fill_on_an_index_behind_its_graph(self):
        g = PropertyGraph()
        a = g.add_vertex(type="person", age=3)
        b = g.add_vertex(type="person", age=5)
        g.add_edge(a, b, "knows", since=2001)
        held = csr_for(g)
        c = g.add_vertex(type="person", age=7)
        g.add_edge(b, c, "knows", since=2006)
        g.set_vertex_attribute(a, "age", 30)
        g.set_edge_attribute(0, "since", 2005)
        assert held.version < g.version
        q = GraphQuery()
        v = q.add_vertex(predicates={"type": equals("person"), "age": Interval(1, 9)})
        w = q.add_vertex()
        q.add_edge(v, w, types={"knows"}, predicates={"since": Interval(2004, 2010)})
        # the held index's own rows, read from the live graph
        assert list(held.vertex_mask(q.vertex(v))) == [0, 1]
        assert list(held.edge_mask(q.edge(0))) == [1]
        assert csr_for(g) is held  # caught up by a patch
        fresh = CSRIndex(g)
        assert held.vertex_mask(q.vertex(v)) == fresh.vertex_mask(q.vertex(v))
        assert list(held.vertex_mask(q.vertex(v))) == [0, 1, 1]
        assert held.edge_mask(q.edge(0)) == fresh.edge_mask(q.edge(0))
        assert held.seed_pool(q.vertex(v)) == fresh.seed_pool(q.vertex(v))
        assert PatternMatcher(g).count(q) == PatternMatcher(g, compiled=False).count(q) == 1


    def paused_fill(self, monkeypatch, owner, name: str, fill, write):
        """Run ``fill()`` in a reader that pauses on entering
        ``owner.<name>``, ``write(g)`` and catch the index up meanwhile;
        returns what the reader's call answered."""
        real = getattr(owner, name)
        paused, resume = threading.Event(), threading.Event()

        def wrapper(*args):
            if not paused.is_set():
                paused.set()
                assert resume.wait(30)
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)
        answers: list = []
        reader = threading.Thread(target=lambda: answers.append(fill()), daemon=True)
        try:
            reader.start()
            assert paused.wait(30)
            write()
        finally:
            resume.set()
            reader.join(30)
        assert not reader.is_alive()
        assert len(answers) == 1
        return answers[0]

    def test_vertex_fill_across_a_patch(self, monkeypatch):
        g = knows_chain()
        csr = csr_for(g)
        q = person_query()

        def write():
            g.add_vertex(kind="person")
            assert csr_for(g) is csr

        mask = self.paused_fill(
            monkeypatch, csr_module, "_matching_rows", lambda: csr.vertex_mask(q.vertex(0)), write
        )
        assert list(mask) == [1] * 7  # the live graph, new row included
        assert csr.vertex_mask(q.vertex(0)) == CSRIndex(g).vertex_mask(q.vertex(0))

    def test_edge_fill_across_a_patch(self, monkeypatch):
        g = knows_chain()
        csr = csr_for(g)
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b, types={"knows"}, predicates={"since": Interval(2000, 2010)})
        g.set_edge_attribute(0, "since", 2001)
        csr_for(g)

        def write():
            g.add_edge(4, 5, "knows", since=2002)
            assert csr_for(g) is csr

        mask = self.paused_fill(
            monkeypatch, CSRIndex, "_edge_column", lambda: csr.edge_mask(q.edge(0)), write
        )
        assert list(mask) == [1, 0, 0, 0, 1]
        assert csr.edge_mask(q.edge(0)) == CSRIndex(g).edge_mask(q.edge(0))


# -- delta-scoped cache invalidation ------------------------------------------


class TestMutateDecidedEmpty:
    """A mask no element satisfies decides its counts before planning;
    each write kind that brings it alive must take the next count out of
    the decision, patched in place.  Deterministic: no thread, no sleep."""

    @staticmethod
    def robot_query() -> GraphQuery:
        q = GraphQuery()
        a = q.add_vertex(predicates={"kind": equals("robot")})
        b = q.add_vertex()
        q.add_edge(a, b, types={"knows"})
        return q

    @staticmethod
    def heavy_query() -> GraphQuery:
        q = GraphQuery()
        a, b = q.add_vertex(), q.add_vertex()
        q.add_edge(a, b, types={"knows"}, predicates={"w": equals(7)})
        return q

    @staticmethod
    def recount(g: PropertyGraph, q: GraphQuery, matcher: PatternMatcher) -> int:
        """The persistent matcher's count, checked against a fresh index
        (its masks, and a count over a rebuilt copy of the graph), the
        interpreter and the plan walked with no decision."""
        n = matcher.count(q)
        fresh, patched = CSRIndex(g), csr_for(g)
        for v in q.vertices():
            assert patched.vertex_mask(v) == fresh.vertex_mask(v)
        for e in q.edges():
            assert patched.edge_mask(e) == fresh.edge_mask(e)
        assert n == PatternMatcher(graph_from_dict(graph_to_dict(g))).count(q)
        assert n == PatternMatcher(g, compiled=False).count(q)
        walker = PatternMatcher(g, compiled=False)
        assert n == sum(1 for _ in walker._search(q, build_plan(g, q)))
        return n

    def test_a_dead_mask_comes_alive_under_every_write(self):
        g = chain_graph()
        robot, heavy = self.robot_query(), self.heavy_query()
        matcher = PatternMatcher(g)
        assert matcher.count(robot) == matcher.count(heavy) == 0
        assert (matcher.steps, matcher.decided_empty) == (0, 2)
        robots = [
            (lambda: g.add_vertex(kind="robot"), "v", 0),  # alive, no edge yet
            (lambda: g.add_edge(12, 0, "knows"), "e", 1),
            (lambda: g.set_vertex_attribute(3, "kind", "robot"), "va", 2),
        ]
        heavies = [
            (lambda: g.add_edge(5, 7, "knows", w=7), "e", 1),
            (lambda: g.set_edge_attribute(0, "w", 7), "ea", 2),
        ]
        patches = csr_stats(g)["csr_patches"]
        for write, kind, expected in robots:
            version = g.version
            write()
            assert [record[0] for record in g.deltas_since(version)] == [kind]
            decided = matcher.decided_empty
            assert self.recount(g, robot, matcher) == expected, kind
            assert matcher.decided_empty == decided
            assert self.recount(g, heavy, matcher) == 0, kind
            assert matcher.decided_empty == decided + 1
        for write, kind, expected in heavies:
            version = g.version
            write()
            assert [record[0] for record in g.deltas_since(version)] == [kind]
            decided = matcher.decided_empty
            assert self.recount(g, heavy, matcher) == expected, kind
            assert self.recount(g, robot, matcher) == 2, kind
            assert matcher.decided_empty == decided
        stats = csr_stats(g)
        assert stats["csr_rebuilds"] == 0
        assert stats["csr_patches"] == patches + len(robots) + len(heavies)


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
