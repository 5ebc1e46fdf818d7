"""TRAVERSESEARCHTREE -- fine-grained cardinality-driven rewriting (Sec. 6.2).

The algorithm searches the modification tree best-first, minimising the
distance to the cardinality threshold and, among equally close variants,
the syntactic distance to the original query.  Each expansion generates
*fine-grained* candidates (Sec. 6.2.2): predicate edits on the value
level (admit/retract single values, widen/narrow numeric bounds) and --
when topology mode is enabled (Sec. 6.4.3) -- edge/vertex removals.

The search direction is decided per node from its own cardinality
(Sec. 3.1.3, Fig. 3.1): a node below the threshold expands with
relaxations, a node above it with concretisations, so the search can
oscillate around the threshold until a variant lands inside it.

Tree adaptation (Sec. 6.3): evaluations go through the shared query
cache, and a child that edits one element of its parent is counted from
that parent on a miss where :mod:`repro.finegrained.propagation` allows
(below an exactly counted parent, a vertex restriction filters the
parent's matches and a vertex relaxation counts only the matches binding
a newly admitted vertex; an edge edit that gains or loses no data-edge
pair between its endpoints keeps the parent's count); children whose
cardinality equals their parent's are discarded as non-contributing and
dominated variants are rejected.  No branch is pruned: every kept child
stays on the frontier, and a node :data:`MAX_DEPTH` modifications below
the root is not expanded.

Sibling modifications are evaluated in batches of the executor's
``preferred_batch`` (1 serial, the worker count for the process pool) --
the executor's property, not a parameter of the search.  Binding, budget,
evaluator and span are :class:`~repro.exec.search.BudgetedSearch`'s.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.evaluator import BatchExecutor, CandidateEvaluator, EvaluationBudget
from repro.exec.search import BudgetedSearch, valid_children
from repro.metrics.cardinality import CardinalityThreshold
from repro.metrics.syntactic import DistanceTable
from repro.rewrite.operations import (
    Modification,
    fine_concretisations,
    fine_relaxations,
)
from repro.rewrite.statistics import CardinalityProfile
from repro.finegrained.modification_tree import ModificationTree
from repro.finegrained.propagation import ParentCounts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.exec.context import ExecutionContext

#: a node this many modifications below the root is not expanded
MAX_DEPTH = 8


@dataclass
class FineRewriteResult:
    """Outcome of one TRAVERSESEARCHTREE run."""

    best_query: GraphQuery
    best_cardinality: int
    best_distance: int
    best_syntactic: float
    modifications: Tuple[Modification, ...]
    cardinality_trace: List[int]
    evaluated: int
    generated: int
    tree_size: int
    non_contributing: int
    dominated: int
    elapsed: float
    budget_exhausted: bool
    converged: bool
    #: children counted from their parent (restriction / relaxation /
    #: unchanged-edge rule)
    derived_filtered: int = 0
    derived_seeded: int = 0
    derived_unchanged: int = 0

    def describe(self) -> str:
        steps = "; ".join(op.describe() for op in self.modifications) or "<unchanged>"
        return (
            f"cardinality {self.best_cardinality} (distance {self.best_distance}), "
            f"syntactic {self.best_syntactic:.3f}: {steps}"
        )


def fine_candidates(
    query: GraphQuery,
    direction: int,
    domain,
    include_topology: bool,
    constrainable_attrs: Optional[Sequence[str]],
) -> List[Modification]:
    """Sec. 6.2.2: relaxations when the result must grow (``direction``
    > 0), concretisations when it must shrink, nothing inside the interval."""
    if direction > 0:
        return fine_relaxations(query, domain, include_topology=include_topology)
    if direction < 0:
        return fine_concretisations(
            query, domain, constrainable_attrs=constrainable_attrs
        )
    return []


class TraverseSearchTree(BudgetedSearch):
    """Best-first fine-grained modification search (Sec. 6.2.1)."""

    span_engine = "search-tree"

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        threshold: Optional[CardinalityThreshold] = None,
        include_topology: bool = False,
        constrainable_attrs: Optional[Sequence[str]] = None,
        max_evaluations: int = 300,
        context: Optional["ExecutionContext"] = None,
        executor: Optional[BatchExecutor] = None,
        budget: Optional[EvaluationBudget] = None,
        on_candidate: Optional[Callable[..., None]] = None,
    ) -> None:
        if threshold is None:
            raise ValueError("a cardinality threshold is required")
        super().__init__(
            graph, context, executor, max_evaluations, budget, on_candidate
        )
        self.threshold = threshold
        self.domain = self.context.attribute_domain()
        self.include_topology = include_topology
        self.constrainable_attrs = (
            tuple(constrainable_attrs) if constrainable_attrs else None
        )

    # -- candidate generation (Sec. 6.2.2) ------------------------------------

    def _ordered_expansions(
        self, query: GraphQuery, cardinality: int, profile: CardinalityProfile
    ) -> List[Tuple[Modification, GraphQuery, CardinalityProfile]]:
        """Generate and *re-arrange* a node's branches (Sec. 6.3.2).

        Branches are ordered by the statistics-estimated cardinality of
        the child variant, aligned with the search direction: when the
        result must grow, the child with the largest estimate is tried
        first; when it must shrink, the smallest.  Estimated
        non-contributors (estimate identical to the parent's) sink to the
        back, so the evaluation budget is spent on promising branches.
        ``profile`` is the node's own; each child's is derived from it.
        """
        direction = self.threshold.direction(cardinality)
        expansions: List[
            Tuple[float, int, Modification, GraphQuery, CardinalityProfile]
        ] = []
        ops = fine_candidates(
            query, direction, self.domain, self.include_topology, self.constrainable_attrs
        )
        for index, (op, child) in enumerate(valid_children(query, ops)):
            derived = self.statistics.profile(child, profile)
            gain = (derived.estimate - profile.estimate) * direction
            expansions.append((gain, index, op, child, derived))
        # largest direction-aligned gain first; stable on generation order
        expansions.sort(key=lambda item: (-item[0], item[1]))
        return [(op, child, derived) for _, _, op, child, derived in expansions]

    # -- search ------------------------------------------------------------------

    def search(self, query: GraphQuery) -> FineRewriteResult:
        """Rewrite ``query`` until its cardinality enters the threshold.

        Returns the best variant found within the evaluation budget; the
        result's ``converged`` flag tells whether the threshold interval
        was actually reached.
        """
        return self._traced(self._search, query, self.threshold.search_probe_limit)

    def _outcome(self, result: FineRewriteResult) -> dict:
        return {
            "converged": result.converged,
            "derived_filtered": result.derived_filtered,
            "derived_seeded": result.derived_seeded,
            "derived_unchanged": result.derived_unchanged,
        }

    def _search(
        self, query: GraphQuery, evaluator: CandidateEvaluator
    ) -> FineRewriteResult:
        start = time.perf_counter()
        version = self.graph.version
        root_card = self.cache.count(query, limit=evaluator.count_limit)
        root_distance = self.threshold.distance(root_card)
        tree = ModificationTree(query, root_card, root_distance)
        root = tree.node(tree.root)

        budget = evaluator.budget
        counter = itertools.count()
        heap: List[Tuple[Tuple[int, float, int], int]] = []
        heapq.heappush(heap, ((root_distance, 0.0, next(counter)), root.node_id))
        seen = {query}
        #: node id -> (path(1) profile, Algorithm 1 table) of its variant,
        #: and the graph version read before its count
        scores: Dict[int, Tuple[CardinalityProfile, DistanceTable, int]] = {
            root.node_id: (self.statistics.profile(query), DistanceTable(query, query), version)
        }
        generated = derived_filtered = derived_seeded = derived_unchanged = 0
        budget_exhausted = False
        best = root

        while heap and best.distance > 0 and not budget.exhausted:
            _, node_id = heapq.heappop(heap)
            node = tree.node(node_id)
            if node.depth >= MAX_DEPTH:
                continue
            # Unseen sibling modifications are evaluated in batches of
            # `batch_size` (truncated to the remaining budget) so a
            # process-pool executor can overlap their evaluation.  Results are
            # folded back in the re-arranged branch order and the search
            # stops between batches once a variant converged, keeping the
            # serial (batch 1) trajectory identical to the sequential
            # formulation and the batched one deterministic.
            profile, distances, version = scores[node_id]
            siblings: List[Tuple[Modification, GraphQuery, CardinalityProfile]] = []
            batch: Dict[GraphQuery, Modification] = {}
            for op, child_query, child_profile in self._ordered_expansions(
                node.query, node.cardinality, profile
            ):
                if child_query in seen or child_query in batch:
                    continue
                batch[child_query] = op
                siblings.append((op, child_query, child_profile))
            # children on a cache miss are counted from this node's count
            # where the change-propagation rules allow (and the matcher
            # otherwise); its match list, if taken, dies with this frame
            parent = ParentCounts(
                self.matcher, node.query, node.cardinality, version,
                evaluator.count_limit, batch,
            )
            pos = 0
            while pos < len(siblings) and best.distance > 0:
                chunk = siblings[pos : pos + self.batch_size]
                version = self.graph.version  # read before the children's counts
                results = evaluator.evaluate([q for _, q, _ in chunk], derive=parent.derive)
                if len(results) < len(chunk):
                    budget_exhausted = True
                for (op, child_query, child_profile), result in zip(chunk, results):
                    seen.add(child_query)
                    generated += 1
                    card = result.cardinality
                    distance = self.threshold.distance(card)
                    child_distances = distances.child(child_query)
                    child = tree.add_child(
                        node, child_query, op, card, distance, child_distances.total
                    )
                    if child is None:
                        continue
                    scores[child.node_id] = (child_profile, child_distances, version)
                    if child.objective < best.objective:
                        best = child
                    if child.distance == 0:
                        best = child
                        break
                    heapq.heappush(
                        heap,
                        (
                            (child.distance, child.syntactic, next(counter)),
                            child.node_id,
                        ),
                    )
                if budget_exhausted:
                    break
                pos += len(results)
            derived_filtered += parent.filtered
            derived_seeded += parent.seeded
            derived_unchanged += parent.unchanged
            if best.distance == 0 or budget_exhausted:
                break

        return FineRewriteResult(
            best_query=best.query,
            best_cardinality=best.cardinality,
            best_distance=best.distance,
            best_syntactic=best.syntactic,
            modifications=tuple(tree.modifications_to(best)),
            cardinality_trace=tree.cardinality_trace(best),
            evaluated=budget.spent,
            generated=generated,
            tree_size=len(tree),
            non_contributing=tree.non_contributing,
            dominated=tree.dominated,
            elapsed=time.perf_counter() - start,
            budget_exhausted=budget_exhausted,
            converged=best.distance == 0,
            derived_filtered=derived_filtered,
            derived_seeded=derived_seeded,
            derived_unchanged=derived_unchanged,
        )
