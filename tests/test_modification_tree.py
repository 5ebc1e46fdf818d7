"""Tests for the modification tree (Sec. 6.1.3, 6.3)."""

import pytest

from repro.core import GraphQuery, equals
from repro.finegrained.modification_tree import ModificationTree
from repro.rewrite.operations import DropPredicate


@pytest.fixture
def query() -> GraphQuery:
    q = GraphQuery()
    q.add_vertex(predicates={"type": equals("person"), "name": equals("Anna")})
    return q


@pytest.fixture
def tree(query) -> ModificationTree:
    return ModificationTree(query, cardinality=0, distance=10)


def op(attr="name"):
    return DropPredicate(("vertex", 0), attr)


class TestConstruction:
    def test_root_exists(self, tree):
        root = tree.node(tree.root)
        assert root.parent is None
        assert root.depth == 0
        assert len(tree) == 1

    def test_add_child_links_parent(self, tree, query):
        root = tree.node(tree.root)
        child = tree.add_child(root, query.copy(), op(), 5, 5, 0.1)
        assert child is not None
        assert child.parent == root.node_id
        assert child.node_id in root.children
        assert child.depth == 1


class TestAdaptation:
    def test_non_contributing_child_rejected(self, tree, query):
        root = tree.node(tree.root)
        child = tree.add_child(root, query.copy(), op(), 0, 10, 0.1)
        assert child is None
        assert tree.non_contributing == 1

    def test_dominated_child_rejected(self, tree, query):
        root = tree.node(tree.root)
        good = tree.add_child(root, query.copy(), op(), 5, 2, 0.1)
        assert good is not None
        worse = tree.add_child(root, query.copy(), op("type"), 3, 5, 0.5)
        assert worse is None
        assert tree.dominated == 1

    def test_incomparable_children_kept(self, tree, query):
        root = tree.node(tree.root)
        a = tree.add_child(root, query.copy(), op(), 5, 2, 0.5)
        b = tree.add_child(root, query.copy(), op("type"), 3, 5, 0.1)
        assert a is not None and b is not None

    def test_root_dominates_nothing_better(self, tree, query):
        # equal distance, larger syntactic: dominated by root
        root = tree.node(tree.root)
        child = tree.add_child(root, query.copy(), op(), 99, 10, 0.3)
        assert child is None


class TestQueries:
    def test_best_prefers_distance_then_syntactic(self, tree, query):
        root = tree.node(tree.root)
        far = tree.add_child(root, query.copy(), op(), 7, 7, 0.0)
        near = tree.add_child(far, query.copy(), op("type"), 9, 1, 0.9)
        assert tree.best() is near

    def test_path_and_modifications(self, tree, query):
        root = tree.node(tree.root)
        a = tree.add_child(root, query.copy(), op(), 5, 5, 0.1)
        b = tree.add_child(a, query.copy(), op("type"), 8, 2, 0.2)
        path = tree.path_to(b)
        assert [n.node_id for n in path] == [root.node_id, a.node_id, b.node_id]
        assert tree.modifications_to(b) == [op(), op("type")]

    def test_cardinality_trace(self, tree, query):
        root = tree.node(tree.root)
        a = tree.add_child(root, query.copy(), op(), 5, 5, 0.1)
        b = tree.add_child(a, query.copy(), op("type"), 8, 2, 0.2)
        assert tree.cardinality_trace(b) == [0, 5, 8]

