"""Baseline approaches for the Chapter 6 evaluation (Sec. 6.4.1).

Two baselines frame TRAVERSESEARCHTREE's results:

* :class:`RandomModificationSearch` -- applies random applicable
  fine-grained modifications (random walk with restarts), keeping the
  best variant seen.  Shows what the structured search buys over blind
  exploration at the same evaluation budget.
* :class:`GreedyCoarseSearch` -- a relaxation-lattice searcher in the
  spirit of the why-empty literature (SEAVE-style / the Chapter 5 engine
  re-targeted at a threshold): it only drops or adds *whole* constraints,
  greedily picking the candidate closest to the threshold.  Its coarse
  steps routinely overshoot the threshold, which is exactly the
  motivation for value-level modifications (Sec. 6.1).

Both return the same :class:`~repro.finegrained.traverse_search_tree.
FineRewriteResult` so the benchmark can compare achieved cardinality
distance, syntactic distance and evaluation counts head-to-head.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.graph import PropertyGraph
from repro.core.predicates import ValueSet
from repro.core.query import GraphQuery
from repro.exec.search import bind_private_context, valid_children
from repro.metrics.cardinality import CardinalityThreshold
from repro.metrics.syntactic import syntactic_distance
from repro.rewrite.operations import (
    AddPredicate,
    Modification,
    coarse_relaxations,
)
from repro.finegrained.traverse_search_tree import FineRewriteResult, fine_candidates

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.exec.context import ExecutionContext


class _ThresholdBaseline:
    """What both baselines bind: a context, a threshold, a budget."""

    def __init__(
        self,
        graph: Optional[PropertyGraph],
        threshold: Optional[CardinalityThreshold],
        max_evaluations: int,
        context: Optional["ExecutionContext"],
    ) -> None:
        if threshold is None:
            raise ValueError("a cardinality threshold is required")
        context = bind_private_context(graph, context)
        self.graph = context.graph
        self.cache = context.cache
        self.domain = context.attribute_domain()
        self.threshold = threshold
        self.max_evaluations = max_evaluations

    def _result(
        self, start: float, best: Tuple, trace: List[int], evaluated: int
    ) -> FineRewriteResult:
        """Report ``best`` -- ``(distance, syntactic, query, cardinality,
        modifications)`` -- after ``evaluated`` counts, each one generated
        variant (the baselines keep no tree and discard nothing)."""
        distance, syntactic, query, cardinality, modifications = best
        return FineRewriteResult(
            best_query=query,
            best_cardinality=cardinality,
            best_distance=distance,
            best_syntactic=syntactic,
            modifications=modifications,
            cardinality_trace=trace,
            evaluated=evaluated,
            generated=evaluated,
            tree_size=evaluated + 1,
            non_contributing=0,
            dominated=0,
            elapsed=time.perf_counter() - start,
            budget_exhausted=evaluated >= self.max_evaluations,
            converged=distance == 0,
        )


class RandomModificationSearch(_ThresholdBaseline):
    """Random-walk baseline over the fine-grained modification space."""

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        threshold: Optional[CardinalityThreshold] = None,
        include_topology: bool = False,
        constrainable_attrs: Optional[Sequence[str]] = None,
        max_evaluations: int = 300,
        walk_length: int = 6,
        seed: int = 0,
        context: Optional["ExecutionContext"] = None,
    ) -> None:
        super().__init__(graph, threshold, max_evaluations, context)
        self.include_topology = include_topology
        self.constrainable_attrs = (
            tuple(constrainable_attrs) if constrainable_attrs else None
        )
        self.walk_length = walk_length
        self.rng = random.Random(seed)

    def search(self, query: GraphQuery) -> FineRewriteResult:
        start = time.perf_counter()
        probe = self.threshold.search_probe_limit
        root_card = self.cache.count(query, limit=probe)
        best = (self.threshold.distance(root_card), 0.0, query, root_card, ())
        best_trace: List[int] = [root_card]
        evaluated = 0

        while evaluated < self.max_evaluations and best[0] > 0:
            current, card = query, root_card
            mods: List[Modification] = []
            trace = [root_card]
            for _ in range(self.walk_length):
                if evaluated >= self.max_evaluations:
                    break
                pool = fine_candidates(
                    current,
                    self.threshold.direction(card),
                    self.domain,
                    self.include_topology,
                    self.constrainable_attrs,
                )
                if not pool:
                    break
                op = pool[self.rng.randrange(len(pool))]
                _, nxt = next(valid_children(current, (op,)), (op, None))
                if nxt is None:
                    continue
                evaluated += 1
                card = self.cache.count(nxt, limit=probe)
                current = nxt
                mods.append(op)
                trace.append(card)
                dist = self.threshold.distance(card)
                syn = syntactic_distance(query, current)
                if (dist, syn) < best[:2]:
                    best = (dist, syn, current, card, tuple(mods))
                    best_trace = list(trace)
                if dist == 0:
                    break

        return self._result(start, best, best_trace, evaluated)


class GreedyCoarseSearch(_ThresholdBaseline):
    """Whole-constraint lattice baseline (SEAVE-style greedy search).

    Moves through the lattice of coarse modifications -- dropping whole
    constraints to grow the result, adding whole equality constraints
    (on the attributes the original query already uses) to shrink it --
    always taking the locally best candidate.  No value-level edits.
    """

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        threshold: Optional[CardinalityThreshold] = None,
        max_evaluations: int = 300,
        max_depth: int = 6,
        context: Optional["ExecutionContext"] = None,
    ) -> None:
        super().__init__(graph, threshold, max_evaluations, context)
        self.max_depth = max_depth

    def _coarse_concretisations(self, query: GraphQuery) -> List[Modification]:
        """Whole-predicate additions on attributes the query already uses."""
        used_attrs = set()
        for v in query.vertices():
            used_attrs.update(v.predicates)
        for e in query.edges():
            used_attrs.update(e.predicates)
        ops: List[Modification] = []
        for v in sorted(query.vertices(), key=lambda v: v.vid):
            for attr in sorted(used_attrs):
                if attr in v.predicates:
                    continue
                for value in self.domain.propose_constraint_values(
                    ("vertex", v.vid), attr
                ):
                    ops.append(
                        AddPredicate(("vertex", v.vid), attr, ValueSet([value]))
                    )
        return ops

    def search(self, query: GraphQuery) -> FineRewriteResult:
        start = time.perf_counter()
        probe = self.threshold.search_probe_limit
        card = self.cache.count(query, limit=probe)
        current, mods = query, []
        trace = [card]
        evaluated = 0
        best = (self.threshold.distance(card), 0.0, query, card, ())

        for _ in range(self.max_depth):
            direction = self.threshold.direction(card)
            if direction == 0 or evaluated >= self.max_evaluations:
                break
            pool = (
                coarse_relaxations(current)
                if direction > 0
                else self._coarse_concretisations(current)
            )
            scored = []
            for op, candidate in valid_children(current, pool):
                if evaluated >= self.max_evaluations:
                    break
                evaluated += 1
                c = self.cache.count(candidate, limit=probe)
                scored.append((self.threshold.distance(c), c, op, candidate))
            if not scored:
                break
            scored.sort(key=lambda item: item[0])
            dist, card, op, current = scored[0]
            mods.append(op)
            trace.append(card)
            syn = syntactic_distance(query, current)
            if (dist, syn) < best[:2]:
                best = (dist, syn, current, card, tuple(mods))
            if dist == 0:
                break

        return self._result(start, best, trace, evaluated)
