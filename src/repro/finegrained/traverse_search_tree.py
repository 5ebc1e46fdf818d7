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

Tree adaptation (Sec. 6.3): evaluations go through the shared query cache
(prefix reuse = change propagation); children whose cardinality equals
their parent's are discarded as non-contributing, dominated variants are
rejected, and branches strictly farther from the threshold than the
incumbent by more than the oscillation allowance are pruned.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import MalformedQueryError, RewritingError
from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.evaluator import (
    BatchExecutor,
    CandidateEvaluator,
    EvaluationBudget,
    SerialExecutor,
)
from repro.exec.wiring import resolve_spine
from repro.matching.matcher import PatternMatcher
from repro.metrics.cardinality import CardinalityThreshold
from repro.obs.tracing import SPAN_REWRITE, current_tracer
from repro.metrics.syntactic import DistanceTable
from repro.rewrite.cache import QueryResultCache
from repro.rewrite.operations import (
    AttributeDomain,
    Modification,
    fine_concretisations,
    fine_relaxations,
)
from repro.rewrite.statistics import CardinalityProfile, GraphStatistics
from repro.finegrained.modification_tree import ModificationTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.exec.context import ExecutionContext


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

    def describe(self) -> str:
        steps = "; ".join(op.describe() for op in self.modifications) or "<unchanged>"
        return (
            f"cardinality {self.best_cardinality} (distance {self.best_distance}), "
            f"syntactic {self.best_syntactic:.3f}: {steps}"
        )


class TraverseSearchTree:
    """Best-first fine-grained modification search (Sec. 6.2.1)."""

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        threshold: Optional[CardinalityThreshold] = None,
        matcher: Optional[PatternMatcher] = None,
        cache: Optional[QueryResultCache] = None,
        domain: Optional[AttributeDomain] = None,
        include_topology: bool = False,
        constrainable_attrs: Optional[Sequence[str]] = None,
        max_evaluations: int = 300,
        max_depth: int = 8,
        statistics: Optional[GraphStatistics] = None,
        context: Optional["ExecutionContext"] = None,
        executor: Optional[BatchExecutor] = None,
        batch_size: Optional[int] = None,
        budget: Optional[EvaluationBudget] = None,
        on_candidate: Optional[Callable[..., None]] = None,
        tracer=None,
    ) -> None:
        if threshold is None:
            raise ValueError("a cardinality threshold is required")
        #: request tracer; ``None`` resolves the ambient one per search
        self.tracer = tracer
        self.threshold = threshold
        # the context's spine, else explicit components over fresh wiring
        self.graph, self.matcher, self.cache, self.statistics = resolve_spine(
            graph, context, matcher=matcher, cache=cache, statistics=statistics
        )
        if domain is None:
            domain = (
                context.attribute_domain()
                if context is not None
                else AttributeDomain(self.graph)
            )
        self.domain = domain
        self.include_topology = include_topology
        self.constrainable_attrs = (
            tuple(constrainable_attrs) if constrainable_attrs else None
        )
        self.max_evaluations = max_evaluations
        self.max_depth = max_depth
        self.executor: BatchExecutor = (
            executor if executor is not None else SerialExecutor()
        )
        if batch_size is None:
            batch_size = getattr(self.executor, "preferred_batch", 1)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        #: sibling modifications evaluated per batch; defaults to the
        #: executor's preferred batch (1 serial, worker count for the
        #: process pool)
        self.batch_size = batch_size
        #: externally managed evaluation allowance (e.g. a per-request
        #: lease carved from a service-level budget pool); when given it
        #: is the hard bound instead of ``max_evaluations``
        self.budget = budget
        #: incremental-results seam: invoked once per evaluated candidate
        #: as each batch finishes (streaming consumers); exceptions raised
        #: here abort the search (cooperative cancellation)
        self.on_candidate = on_candidate

    # -- candidate generation (Sec. 6.2.2) ------------------------------------

    def _candidates(self, query: GraphQuery, cardinality: int) -> List[Modification]:
        direction = self.threshold.direction(cardinality)
        if direction > 0:
            return fine_relaxations(
                query, self.domain, include_topology=self.include_topology
            )
        if direction < 0:
            return fine_concretisations(
                query, self.domain, constrainable_attrs=self.constrainable_attrs
            )
        return []

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
        for index, op in enumerate(self._candidates(query, cardinality)):
            try:
                child = op.apply(query)
                child.validate()
            except (RewritingError, MalformedQueryError):
                continue
            derived = self.statistics.profile(child, profile)
            gain = (derived.estimate - profile.estimate) * direction
            expansions.append((gain, index, op, child, derived))
        # largest direction-aligned gain first; stable on generation order
        expansions.sort(key=lambda item: (-item[0], item[1]))
        return [(op, child, derived) for _, _, op, child, derived in expansions]

    def _probe_limit(self) -> Optional[int]:
        limit = self.threshold.probe_limit
        if limit is None:
            return None
        # Probe a margin past the bound so the search can see *how far*
        # outside the interval a variant lies (needed for the distance).
        return max(limit * 4, limit + 16)

    # -- search ------------------------------------------------------------------

    def search(self, query: GraphQuery) -> FineRewriteResult:
        """Rewrite ``query`` until its cardinality enters the threshold.

        Returns the best variant found within the evaluation budget; the
        result's ``converged`` flag tells whether the threshold interval
        was actually reached.
        """
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(SPAN_REWRITE, engine="search-tree") as span:
            result = self._search(query, tracer)
            if tracer.enabled:
                span.attributes["evaluated"] = result.evaluated
                span.attributes["converged"] = result.converged
                span.attributes["budget_exhausted"] = result.budget_exhausted
            return result

    def _search(self, query: GraphQuery, tracer) -> FineRewriteResult:
        start = time.perf_counter()
        # variants are frozen values derived from a frozen original: a
        # child shares what its modification left alone and is scored
        # from its parent's tables
        query = query.as_frozen()
        limit = self._probe_limit()
        root_card = self.cache.count(query, limit=limit)
        root_distance = self.threshold.distance(root_card)
        tree = ModificationTree(query, root_card, root_distance)
        root = tree.node(tree.root)

        budget = (
            self.budget
            if self.budget is not None
            else EvaluationBudget(self.max_evaluations)
        )
        evaluator = CandidateEvaluator(
            self.cache,
            executor=self.executor,
            budget=budget,
            count_limit=limit,
            on_result=self.on_candidate,
            tracer=tracer,
        )
        counter = itertools.count()
        heap: List[Tuple[Tuple[int, float, int], int]] = []
        heapq.heappush(heap, ((root_distance, 0.0, next(counter)), root.node_id))
        seen = {query}
        #: node id -> (path(1) profile, Algorithm 1 table) of its variant
        scores: Dict[int, Tuple[CardinalityProfile, DistanceTable]] = {
            root.node_id: (self.statistics.profile(query), DistanceTable(query, query))
        }
        generated = 0
        budget_exhausted = False
        best = root

        while heap and best.distance > 0 and not budget.exhausted:
            _, node_id = heapq.heappop(heap)
            node = tree.node(node_id)
            if node.pruned or node.depth >= self.max_depth:
                continue
            # Unseen sibling modifications are evaluated in batches of
            # `batch_size` (truncated to the remaining budget) so a
            # process-pool executor can overlap their evaluation.  Results are
            # folded back in the re-arranged branch order and the search
            # stops between batches once a variant converged, keeping the
            # serial (batch 1) trajectory identical to the sequential
            # formulation and the batched one deterministic.
            profile, distances = scores[node_id]
            siblings: List[Tuple[Modification, GraphQuery, CardinalityProfile]] = []
            batch = set()
            for op, child_query, child_profile in self._ordered_expansions(
                node.query, node.cardinality, profile
            ):
                if child_query in seen or child_query in batch:
                    continue
                batch.add(child_query)
                siblings.append((op, child_query, child_profile))
            pos = 0
            while pos < len(siblings) and best.distance > 0:
                chunk = siblings[pos : pos + self.batch_size]
                results = evaluator.evaluate([q for _, q, _ in chunk])
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
                    scores[child.node_id] = (child_profile, child_distances)
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
        )
