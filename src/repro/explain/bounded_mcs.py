"""BOUNDEDMCS -- subgraph explanations under a cardinality bound (Sec. 4.2.2).

For why-so-few and why-so-many queries the success criterion of the
lattice search is not existence but a *cardinality bound*:

* **why-so-many** (``C(Gq) > Cthr``): a subquery succeeds while its
  (bounded) cardinality stays at most ``Cthr``; the traversal grows the
  common subgraph until joining an element blows the result size past the
  bound.  The differential contains exactly the elements where the
  blow-up happens.
* **why-so-few** (``0 <= C(Gq) < Cthr``): a subquery succeeds while it
  still delivers at least ``Cthr`` results; the differential pinpoints
  the elements whose joining collapses the cardinality.  With
  ``Cthr = 1`` this degenerates to DISCOVERMCS.

Counting is always bounded (``limit = bound + 1`` resp. ``limit =
bound``), so no evaluation enumerates more matches than the decision
needs, and goes through ``ExecutionContext.cache.count`` like every
other count of an explain.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.graph import PropertyGraph
from repro.core.query import GraphQuery
from repro.exec.search import bind_private_context
from repro.explain.discover_mcs import McsResult, SubgraphLatticeSearch
from repro.explain.preferences import UserPreferences
from repro.metrics.cardinality import CardinalityProblem, CardinalityThreshold


def bounded_mcs(
    graph: Optional[PropertyGraph],
    query: GraphQuery,
    threshold: CardinalityThreshold,
    problem: Optional[CardinalityProblem] = None,
    strategy: str = "frontier",
    edge_order: Optional[Sequence[int]] = None,
    preferences: Optional[UserPreferences] = None,
    max_evaluations: Optional[int] = None,
    context=None,
) -> McsResult:
    """BOUNDEDMCS (Sec. 4.2.2): subgraph explanation for a cardinality bound.

    ``problem`` selects the direction; when omitted it is derived from the
    query's own (bounded) cardinality against ``threshold``.  Supported
    problems: ``TOO_MANY``, ``TOO_FEW`` and ``EMPTY`` (the latter equals
    DISCOVERMCS semantics with a lower bound of max(1, threshold.lower)).
    Every count, the classification's too, goes through ``context``'s
    result cache (a private context over ``graph`` when none is given).
    """
    context = bind_private_context(graph, context)

    if problem is None:
        observed = context.cache.count(query, limit=threshold.probe_limit)
        problem = threshold.classify(observed)
    if problem == CardinalityProblem.EXPECTED:
        raise ValueError(
            "query already satisfies the cardinality threshold; "
            "nothing to explain"
        )

    if problem == CardinalityProblem.TOO_MANY:
        if threshold.upper is None:
            raise ValueError("why-so-many needs an upper cardinality bound")
        upper = threshold.upper

        def success(subquery: GraphQuery) -> Tuple[bool, int]:
            card = context.cache.count(subquery, limit=upper + 1)
            return card <= upper, card

    else:  # TOO_FEW or EMPTY
        lower = threshold.lower if threshold.lower is not None else 1
        lower = max(1, lower)

        def success(subquery: GraphQuery) -> Tuple[bool, int]:
            card = context.cache.count(subquery, limit=lower)
            return card >= lower, card

    too_many = problem == CardinalityProblem.TOO_MANY
    search = SubgraphLatticeSearch(
        context.graph,
        query,
        success,
        strategy=strategy,
        edge_order=edge_order,
        preferences=preferences,
        annotate=True,
        cardinality_mode=too_many,
        max_evaluations=max_evaluations,
        failure_verb=(
            "push the cardinality past the upper bound"
            if too_many
            else "drop the cardinality below the bound"
        ),
    )
    return search.run()
