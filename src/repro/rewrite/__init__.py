"""Coarse-grained modification-based explanations (Chapter 5)."""

from repro.rewrite.cache import QueryResultCache
from repro.rewrite.coarse import (
    CoarseRewriteResult,
    CoarseRewriter,
    ConvergencePoint,
    RewrittenQuery,
)
from repro.rewrite.operations import (
    AddPredicate,
    AddPredicateValue,
    AttributeDomain,
    DropEdge,
    DropPredicate,
    DropTypeConstraint,
    DropVertex,
    Modification,
    NarrowInterval,
    RelaxDirection,
    RemovePredicateValue,
    RestrictDirection,
    WidenInterval,
    coarse_relaxations,
    fine_concretisations,
    fine_relaxations,
)
from repro.rewrite.preference_model import RewritePreferenceModel
from repro.rewrite.priority import (
    PRIORITY_FUNCTIONS,
    CandidateContext,
    avg_path1_priority,
    estimated_cardinality_priority,
    get_priority_function,
    hybrid_priority,
    induced_change_priority,
    syntactic_priority,
)
from repro.rewrite.statistics import GraphStatistics

__all__ = [
    "AddPredicate",
    "AddPredicateValue",
    "AttributeDomain",
    "CandidateContext",
    "CoarseRewriteResult",
    "CoarseRewriter",
    "ConvergencePoint",
    "DropEdge",
    "DropPredicate",
    "DropTypeConstraint",
    "DropVertex",
    "GraphStatistics",
    "Modification",
    "NarrowInterval",
    "PRIORITY_FUNCTIONS",
    "QueryResultCache",
    "RelaxDirection",
    "RemovePredicateValue",
    "RestrictDirection",
    "RewritePreferenceModel",
    "RewrittenQuery",
    "WidenInterval",
    "avg_path1_priority",
    "coarse_relaxations",
    "estimated_cardinality_priority",
    "fine_concretisations",
    "fine_relaxations",
    "get_priority_function",
    "hybrid_priority",
    "induced_change_priority",
    "syntactic_priority",
]
