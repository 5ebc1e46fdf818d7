"""Pattern-matching engine: candidates, planning, backtracking search,
and the compiled CSR/program backend."""

from repro.matching.candidates import (
    attributes_match,
    estimate_edge_candidates,
    vertex_candidates,
    vertex_matches,
)
from repro.matching.csr import CSRIndex, csr_for, csr_stats
from repro.matching.evalcache import (
    CacheStats,
    EvaluationCache,
    shared_evaluation_cache,
)
from repro.matching.matcher import PatternMatcher
from repro.matching.plan import ExpandStep, SeedStep, build_plan
from repro.matching.program import MatchProgram, ProgramUnsupported, compiled_program

__all__ = [
    "CSRIndex",
    "CacheStats",
    "EvaluationCache",
    "ExpandStep",
    "MatchProgram",
    "PatternMatcher",
    "ProgramUnsupported",
    "SeedStep",
    "attributes_match",
    "build_plan",
    "compiled_program",
    "csr_for",
    "csr_stats",
    "estimate_edge_candidates",
    "shared_evaluation_cache",
    "vertex_candidates",
    "vertex_matches",
]
