"""Fine-grained cardinality-driven query modification (Chapter 6)."""

from repro.finegrained.baselines import GreedyCoarseSearch, RandomModificationSearch
from repro.finegrained.modification_tree import ModificationNode, ModificationTree
from repro.finegrained.traverse_search_tree import (
    FineRewriteResult,
    TraverseSearchTree,
)

__all__ = [
    "FineRewriteResult",
    "GreedyCoarseSearch",
    "ModificationNode",
    "ModificationTree",
    "RandomModificationSearch",
    "TraverseSearchTree",
]
