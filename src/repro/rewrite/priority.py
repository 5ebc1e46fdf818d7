"""Priority functions of the query-candidate selector (Sec. 5.3, 5.5.1).

The coarse-grained rewriter keeps its open query candidates in a priority
queue; the *priority function* decides which relaxation is explored next.
The thesis evaluates several selector variants (Sec. 5.5.1-5.5.3); this
module provides them all:

``syntactic``
    explore minimally-changed candidates first (no statistics needed);
``estimated_cardinality``
    explore the candidate with the highest estimated result size first
    (full query estimate, Sec. 5.2);
``avg_path1``
    order by the average path(1) cardinality of the candidate's edges --
    cheap and robust (Sec. 5.5.3);
``induced_change``
    order by the *induced cardinality change* of the relaxation: how much
    the estimate grew relative to the parent candidate (Sec. 5.3.2);
``hybrid``
    the paper's combined selector: average path(1) cardinality weighted
    by the induced change, tie-broken by syntactic closeness
    (Sec. 5.5.3).

All functions return "bigger is better" scores; the rewriter also applies
the user-preference penalty (Sec. 5.4.2) on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.query import GraphQuery
from repro.metrics.syntactic import DistanceTable
from repro.rewrite.operations import Modification
from repro.rewrite.statistics import CardinalityProfile, GraphStatistics


@dataclass
class CandidateContext:
    """Everything a priority function may consult about one candidate.

    ``profile`` (path(1) rows, estimate, average) and ``distances``
    (Algorithm 1's table against ``original``) are each one pass over the
    candidate: the rewriter derives both from the parent candidate's and
    hands them in; a context built without them computes them itself.
    """

    original: GraphQuery
    query: GraphQuery
    modifications: Sequence[Modification]
    parent_estimate: Optional[float]
    statistics: GraphStatistics
    profile: Optional[CardinalityProfile] = None
    distances: Optional[DistanceTable] = None

    def __post_init__(self) -> None:
        if self.profile is None:
            self.profile = self.statistics.profile(self.query)
        if self.distances is None:
            self.distances = DistanceTable(self.original, self.query)

    @property
    def depth(self) -> int:
        return len(self.modifications)


PriorityFunction = Callable[[CandidateContext], float]


def syntactic_priority(ctx: CandidateContext) -> float:
    """Prefer candidates that look most similar to the original query."""
    return -ctx.distances.total


def estimated_cardinality_priority(ctx: CandidateContext) -> float:
    """Prefer candidates with the largest estimated result size.

    Log-damped so a single exploding estimate does not dominate the queue
    forever; monotone, hence ordering-equivalent.
    """
    return math.log1p(ctx.profile.estimate)


def avg_path1_priority(ctx: CandidateContext) -> float:
    """Prefer candidates whose edges have large path(1) cardinalities."""
    return math.log1p(ctx.profile.average_path1)


def induced_change_priority(ctx: CandidateContext) -> float:
    """Prefer relaxations that increased the estimate the most.

    The induced cardinality change of Sec. 5.3.2: estimate(candidate) -
    estimate(parent); parents close to the failure frontier get explored
    once a single relaxation unlocks cardinality.
    """
    parent = ctx.parent_estimate if ctx.parent_estimate is not None else 0.0
    return math.log1p(max(0.0, ctx.profile.estimate - parent))


#: Weight of the syntactic-closeness term inside the hybrid priority.
#: The log-damped statistics terms live in roughly [0, 10]; weighting the
#: [-1, 0] closeness term by 10 makes a whole-vertex drop (distance ~0.4)
#: lose against a single-predicate drop (distance ~0.04) unless the
#: statistics overwhelmingly favour it -- the balance Sec. 5.5.3 reports.
HYBRID_CLOSENESS_WEIGHT = 10.0


def hybrid_priority(ctx: CandidateContext) -> float:
    """Sec. 5.5.3's best performer: path(1) + induced change + closeness."""
    path1 = avg_path1_priority(ctx)
    induced = induced_change_priority(ctx)
    return path1 + induced + HYBRID_CLOSENESS_WEIGHT * -ctx.distances.total


PRIORITY_FUNCTIONS: Dict[str, PriorityFunction] = {
    "syntactic": syntactic_priority,
    "estimated_cardinality": estimated_cardinality_priority,
    "avg_path1": avg_path1_priority,
    "induced_change": induced_change_priority,
    "hybrid": hybrid_priority,
}


def get_priority_function(name: str) -> PriorityFunction:
    """Look up a priority function by its evaluation name."""
    try:
        return PRIORITY_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(PRIORITY_FUNCTIONS))
        raise KeyError(f"unknown priority function {name!r}; known: {known}") from None
