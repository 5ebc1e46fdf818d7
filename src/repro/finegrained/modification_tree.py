"""The modification tree (Sec. 6.1.3).

Nodes are query variants; an edge of the tree is the single fine-grained
modification that produced the child from its parent.  Every node records
the (bounded) cardinality of its variant, its distance to the cardinality
threshold and its syntactic distance to the original query.  The tree is
built at runtime by TRAVERSESEARCHTREE and adapted on the fly
(Sec. 6.3): *non-contributing* children (cardinality unchanged against
the parent) are discarded, and *dominated* branches (another node is at
least as good in both the cardinality and the syntactic dimension, and
strictly better in one) are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.query import GraphQuery
from repro.rewrite.operations import Modification


@dataclass
class ModificationNode:
    """One node of the modification tree."""

    node_id: int
    query: GraphQuery
    parent: Optional[int]
    modification: Optional[Modification]
    cardinality: int
    distance: int
    syntactic: float
    depth: int
    children: List[int] = field(default_factory=list)

    @property
    def objective(self) -> Tuple[int, float]:
        """Lexicographic search objective: threshold distance, then looks."""
        return (self.distance, self.syntactic)


class ModificationTree:
    """Runtime tree of query variants with dominance bookkeeping."""

    def __init__(self, root_query: GraphQuery, cardinality: int, distance: int) -> None:
        self._nodes: Dict[int, ModificationNode] = {}
        self._next_id = 0
        self.root = self._insert(
            query=root_query,
            parent=None,
            modification=None,
            cardinality=cardinality,
            distance=distance,
            syntactic=0.0,
            depth=0,
        ).node_id
        #: discarded because the change did not move the cardinality
        self.non_contributing = 0
        #: discarded because another node dominates them
        self.dominated = 0

    # -- construction -------------------------------------------------------

    def _insert(self, **kwargs) -> ModificationNode:
        node = ModificationNode(node_id=self._next_id, **kwargs)
        self._nodes[node.node_id] = node
        self._next_id += 1
        if node.parent is not None:
            self._nodes[node.parent].children.append(node.node_id)
        return node

    def add_child(
        self,
        parent: ModificationNode,
        query: GraphQuery,
        modification: Modification,
        cardinality: int,
        distance: int,
        syntactic: float,
    ) -> Optional[ModificationNode]:
        """Attach a child; returns ``None`` when the tree rejects it.

        Rejection happens for non-contributing changes (Sec. 6.3.2:
        cardinality identical to the parent's) and for dominated variants.
        """
        if cardinality == parent.cardinality:
            self.non_contributing += 1
            return None
        if self._is_dominated(distance, syntactic):
            self.dominated += 1
            return None
        return self._insert(
            query=query,
            parent=parent.node_id,
            modification=modification,
            cardinality=cardinality,
            distance=distance,
            syntactic=syntactic,
            depth=parent.depth + 1,
        )

    def _is_dominated(self, distance: int, syntactic: float) -> bool:
        for node in self._nodes.values():
            if (
                node.distance <= distance
                and node.syntactic <= syntactic
                and (node.distance < distance or node.syntactic < syntactic)
            ):
                return True
        return False

    # -- queries ----------------------------------------------------------------

    def node(self, node_id: int) -> ModificationNode:
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def best(self) -> ModificationNode:
        """The node closest to the threshold (ties: most familiar)."""
        return min(self._nodes.values(), key=lambda n: n.objective + (n.depth,))

    def path_to(self, node: ModificationNode) -> List[ModificationNode]:
        """Root-to-node chain (the explanation's modification sequence)."""
        chain: List[ModificationNode] = []
        current: Optional[ModificationNode] = node
        while current is not None:
            chain.append(current)
            current = (
                self._nodes[current.parent] if current.parent is not None else None
            )
        return list(reversed(chain))

    def modifications_to(self, node: ModificationNode) -> List[Modification]:
        """The modification sequence that produced ``node``."""
        return [
            n.modification
            for n in self.path_to(node)
            if n.modification is not None
        ]

    def cardinality_trace(self, node: ModificationNode) -> List[int]:
        """Cardinalities along the path (the Fig. 3.1 oscillation trace)."""
        return [n.cardinality for n in self.path_to(node)]
