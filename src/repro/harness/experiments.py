"""Experiment drivers regenerating every evaluated table and figure.

Each function reproduces one experiment of the thesis' evaluation
sections on the synthetic data sets (see DESIGN.md for the substitution
record and the experiment index).  The benchmarks in ``benchmarks/`` are
thin wrappers that time representative units with pytest-benchmark and
print these results; the functions can equally be called from a REPL.

All drivers are deterministic given their ``seed`` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.query import GraphQuery
from repro.datasets import dbpedia, ldbc
from repro.datasets.workload import ExplanationSample, generate_explanations
from repro.exec.context import ExecutionContext
from repro.explain.bounded_mcs import bounded_mcs
from repro.explain.discover_mcs import discover_mcs
from repro.finegrained.baselines import GreedyCoarseSearch, RandomModificationSearch
from repro.finegrained.traverse_search_tree import TraverseSearchTree
from repro.metrics.cardinality import CardinalityProblem, CardinalityThreshold
from repro.rewrite.coarse import CoarseRewriter
from repro.rewrite.preference_model import RewritePreferenceModel
from repro.rewrite.priority import PRIORITY_FUNCTIONS

#: Default cardinality factors of the Sec. 3.2.5 protocol.
CARDINALITY_FACTORS: Tuple[float, ...] = (0.2, 0.5, 2.0, 5.0)


def load_dataset(name: str):
    """``('ldbc'|'dbpedia') -> (bundle, queries dict, empty-variant fn)``."""
    if name == "ldbc":
        return ldbc.generate(), ldbc.queries(), ldbc.empty_variant
    if name == "dbpedia":
        return dbpedia.generate(), dbpedia.queries(), dbpedia.empty_variant
    raise KeyError(f"unknown dataset {name!r}")


# ---------------------------------------------------------------------------
# Chapter 3: comparison-metric evaluation (Figs. 3.7-3.10)
# ---------------------------------------------------------------------------


def fig3_random_explanations(
    dataset: str = "ldbc",
    factors: Sequence[float] = CARDINALITY_FACTORS,
    max_candidates: int = 80,
    seed: int = 17,
    queries: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[float, List[ExplanationSample]]]:
    """Shared workload of Figs. 3.7-3.10: random explanations per query/factor."""
    bundle, all_queries, _ = load_dataset(dataset)
    selected = queries or list(all_queries)
    out: Dict[str, Dict[float, List[ExplanationSample]]] = {}
    for name in selected:
        out[name] = {}
        for factor in factors:
            out[name][factor] = generate_explanations(
                bundle.graph,
                all_queries[name],
                cardinality_factor=factor,
                seed=seed,
                max_candidates=max_candidates,
            )
    return out


def fig3_10_correlation(
    samples: Sequence[ExplanationSample], buckets: int = 8
) -> List[Tuple[float, float, int]]:
    """Average result distance per syntactic-distance interval (Sec. 3.2.5).

    Returns ``(bucket_upper_bound, mean_result_distance, count)`` rows.
    """
    if not samples:
        return []
    width = 1.0 / buckets
    sums = [0.0] * buckets
    counts = [0] * buckets
    for s in samples:
        idx = min(buckets - 1, int(s.syntactic / width))
        sums[idx] += s.result
        counts[idx] += 1
    return [
        ((i + 1) * width, sums[i] / counts[i], counts[i])
        for i in range(buckets)
        if counts[i]
    ]


# ---------------------------------------------------------------------------
# Chapter 4: DISCOVERMCS / BOUNDEDMCS evaluation (Sec. 4.5)
# ---------------------------------------------------------------------------


@dataclass
class McsRow:
    """One row of the Sec. 4.5 result tables."""

    query: str
    strategy: str
    coverage: float
    mcs_edges: int
    evaluations: int
    annotation_evaluations: int
    elapsed: float
    alternatives: int


def fig4_discovermcs(
    dataset: str = "ldbc",
    strategies: Sequence[str] = ("frontier", "single-path"),
) -> List[McsRow]:
    """Sec. 4.5.1: DISCOVERMCS on the empty variants of all queries."""
    bundle, queries, empty_variant = load_dataset(dataset)
    rows: List[McsRow] = []
    for name in queries:
        failed = empty_variant(name)
        for strategy in strategies:
            result = discover_mcs(bundle.graph, failed, strategy=strategy)
            rows.append(
                McsRow(
                    query=name,
                    strategy=strategy,
                    coverage=result.differential.coverage,
                    mcs_edges=len(result.differential.mcs_edges),
                    evaluations=result.stats.evaluations,
                    annotation_evaluations=result.stats.annotation_evaluations,
                    elapsed=result.stats.elapsed,
                    alternatives=len(result.alternatives),
                )
            )
    return rows


def fig4_boundedmcs(
    dataset: str = "ldbc",
    factors: Sequence[float] = (0.2, 0.5),
    strategies: Sequence[str] = ("frontier", "single-path"),
) -> List[McsRow]:
    """Sec. 4.5.2: BOUNDEDMCS on the too-many-answers problem.

    The original queries are used as-is; the threshold is the original
    cardinality scaled by the factor, so every query is "too many"
    relative to it.
    """
    bundle, queries, _ = load_dataset(dataset)
    context = ExecutionContext.for_graph(bundle.graph)
    rows: List[McsRow] = []
    for name, query in queries.items():
        original = context.count(query)
        for factor in factors:
            upper = max(1, round(original * factor))
            threshold = CardinalityThreshold.at_most(upper)
            for strategy in strategies:
                result = bounded_mcs(
                    bundle.graph,
                    query,
                    threshold,
                    problem=CardinalityProblem.TOO_MANY,
                    strategy=strategy,
                )
                rows.append(
                    McsRow(
                        query=f"{name} (C*{factor})",
                        strategy=strategy,
                        coverage=result.differential.coverage,
                        mcs_edges=len(result.differential.mcs_edges),
                        evaluations=result.stats.evaluations,
                        annotation_evaluations=result.stats.annotation_evaluations,
                        elapsed=result.stats.elapsed,
                        alternatives=len(result.alternatives),
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# Chapter 5: coarse rewriting evaluation (Sec. 5.5, App. B)
# ---------------------------------------------------------------------------


@dataclass
class PriorityRow:
    """One row of the Sec. 5.5.1 priority-function comparison."""

    query: str
    priority: str
    found: bool
    evaluated: int
    generated: int
    best_cardinality: Optional[int]
    best_syntactic: Optional[float]
    elapsed: float


def fig5_priorities(
    dataset: str = "ldbc",
    priorities: Sequence[str] = tuple(sorted(PRIORITY_FUNCTIONS)),
    max_evaluations: int = 150,
) -> List[PriorityRow]:
    """Sec. 5.5.1: candidate-selector priority functions head-to-head."""
    bundle, queries, empty_variant = load_dataset(dataset)
    rows: List[PriorityRow] = []
    for name in queries:
        failed = empty_variant(name)
        for priority in priorities:
            # a fresh private context per run: no run reuses another's
            # result cache
            rewriter = CoarseRewriter(
                context=ExecutionContext(bundle.graph),
                priority=priority,
                max_evaluations=max_evaluations,
            )
            result = rewriter.rewrite(failed, k=1)
            best = result.best
            rows.append(
                PriorityRow(
                    query=name,
                    priority=priority,
                    found=best is not None,
                    evaluated=result.evaluated,
                    generated=result.generated,
                    best_cardinality=best.cardinality if best else None,
                    best_syntactic=best.syntactic if best else None,
                    elapsed=result.elapsed,
                )
            )
    return rows


def fig5_convergence(
    dataset: str = "ldbc",
    query_name: str = "LDBC QUERY 2",
    priorities: Sequence[str] = ("syntactic", "hybrid"),
    k: int = 5,
    max_evaluations: int = 200,
):
    """Sec. 5.5.2: convergence traces (found explanations over time)."""
    bundle, _, empty_variant = load_dataset(dataset)
    failed = empty_variant(query_name)
    traces = {}
    for priority in priorities:
        rewriter = CoarseRewriter(
            context=ExecutionContext(bundle.graph),
            priority=priority,
            max_evaluations=max_evaluations,
        )
        result = rewriter.rewrite(failed, k=k)
        traces[priority] = result.convergence
    return traces


@dataclass
class UserIntegrationRow:
    """One row of the Sec. 5.5.4 / App. B.1 user-integration experiment."""

    query: str
    protected: str
    proposals_without_model: int
    proposals_with_model: int
    accepted_without: bool
    accepted_with: bool


def fig5_user_integration(
    dataset: str = "ldbc",
    max_rounds: int = 25,
) -> List[UserIntegrationRow]:
    """Sec. 5.5.4: does the learned preference model reduce iterations?

    Simulated user: the rewriter's first proposal touches elements the
    user insists on keeping (the *protected* set); the user rejects every
    proposal touching any of them.  Scenarios where every possible fix
    touches the protected set (the failure is pinned to one element) are
    unsatisfiable for any preference handling and are skipped.

    *Without* the model the user inspects the engine's proposals in
    discovery order.  *With* the model each rejection is fed back as a
    rating, which re-weights the search; the engine should surface an
    acceptable proposal in at most as many rounds.  Both arms use the
    default hybrid selector -- the engine a deployment would run.
    """
    bundle, queries, empty_variant = load_dataset(dataset)
    variant_families = [("", empty_variant)]
    module = ldbc if dataset == "ldbc" else dbpedia
    variant_families.append((" [edge poison]", module.empty_variant_edge))
    rows: List[UserIntegrationRow] = []
    for name in queries:
      for suffix, variant_fn in variant_families:
        failed = variant_fn(name)
        plain = CoarseRewriter(
            context=ExecutionContext(bundle.graph),
            priority="hybrid",
            max_evaluations=300,
        ).rewrite(failed, k=max_rounds)
        if not plain.discovered:
            continue
        protected = {op.target for op in plain.discovered[0].modifications}

        def acceptable(rewriting) -> bool:
            return not any(op.target in protected for op in rewriting.modifications)

        # Satisfiability oracle: a rewriter hard-constrained to never touch
        # the protected elements.  If even that finds nothing, the failure
        # is pinned to the protected element and no preference handling
        # can help -- the scenario is skipped.
        oracle = CoarseRewriter(
            context=ExecutionContext(bundle.graph),
            priority="hybrid",
            max_evaluations=300,
            op_filter=lambda op: op.target not in protected,
        ).rewrite(failed, k=1)
        if oracle.best is None:
            continue

        # Without model: walk the discovery-ordered proposals.
        without_rounds = max_rounds
        accepted_without = False
        for i, rewriting in enumerate(plain.discovered):
            if acceptable(rewriting):
                without_rounds = i + 1
                accepted_without = True
                break

        # With model: iterative propose-rate loop (fresh top-1 per round).
        model = RewritePreferenceModel(learning_rate=0.9, penalty_strength=1.0)
        with_rounds = max_rounds
        accepted_with = False
        for round_no in range(1, max_rounds + 1):
            rewriter = CoarseRewriter(
                context=ExecutionContext(bundle.graph),
                priority="hybrid",
                preference_model=model,
                max_evaluations=300,
            )
            result = rewriter.rewrite(failed, k=1)
            if result.best is None:
                break
            if acceptable(result.best):
                with_rounds = round_no
                accepted_with = True
                break
            model.rate_proposal(result.best.modifications, rating=0.0)
        rows.append(
            UserIntegrationRow(
                query=name + suffix,
                protected=", ".join(f"{k}{i}" for k, i in sorted(protected)),
                proposals_without_model=without_rounds,
                proposals_with_model=with_rounds,
                accepted_without=accepted_without,
                accepted_with=accepted_with,
            )
        )
    return rows


@dataclass
class ResourceRow:
    """One row of the App. B.2 resource-consumption report."""

    query: str
    evaluated: int
    generated: int
    queue_peak: int
    cache_entries: int
    cache_hits: int
    cache_hit_rate: float
    matcher_steps: int = 0


def appB_resources(dataset: str = "ldbc", k: int = 3) -> List[ResourceRow]:
    """App. B.2: evaluated candidates, queue growth, cache effectiveness.

    Reports the query-result cache per run next to the matcher's
    ``steps`` instrumentation.
    """
    bundle, queries, empty_variant = load_dataset(dataset)
    rows: List[ResourceRow] = []
    for name in queries:
        failed = empty_variant(name)
        # private context per run -> per-run result-cache effectiveness
        context = ExecutionContext(bundle.graph)
        matcher = context.matcher
        cache = context.cache
        rewriter = CoarseRewriter(context=context, max_evaluations=200)
        result = rewriter.rewrite(failed, k=k)
        rows.append(
            ResourceRow(
                query=name,
                evaluated=result.evaluated,
                generated=result.generated,
                queue_peak=result.queue_peak,
                cache_entries=len(cache),
                cache_hits=cache.stats.hits,
                cache_hit_rate=cache.stats.hit_rate,
                matcher_steps=matcher.steps,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Chapter 6: fine-grained rewriting evaluation (Sec. 6.4)
# ---------------------------------------------------------------------------


@dataclass
class BaselineRow:
    """One row of the Sec. 6.4.2 baseline comparison."""

    scenario: str
    engine: str
    converged: bool
    distance: int
    cardinality: int
    syntactic: float
    evaluated: int
    elapsed: float


def fig6_scenarios(dataset: str = "ldbc") -> List[Tuple[str, GraphQuery, CardinalityThreshold]]:
    """The why-so-few / why-so-many scenarios of the Ch. 6 evaluation."""
    bundle, queries, _ = load_dataset(dataset)
    context = ExecutionContext.for_graph(bundle.graph)
    scenarios: List[Tuple[str, GraphQuery, CardinalityThreshold]] = []
    for name, query in queries.items():
        original = context.count(query)
        few_target = max(2, round(original * 2.0))
        many_target = max(1, round(original * 0.3))
        scenarios.append(
            (
                f"{name} too-few (C={original} -> [{few_target}; {2 * few_target}])",
                query,
                CardinalityThreshold(lower=few_target, upper=2 * few_target),
            )
        )
        scenarios.append(
            (
                f"{name} too-many (C={original} -> [{max(1, many_target // 2)}; {many_target}])",
                query,
                CardinalityThreshold(lower=max(1, many_target // 2), upper=many_target),
            )
        )
    return scenarios


def fig6_baselines(
    dataset: str = "ldbc",
    max_evaluations: int = 200,
    seed: int = 3,
) -> List[BaselineRow]:
    """Sec. 6.4.2: TRAVERSESEARCHTREE vs RANDOMSEARCH vs GREEDYLATTICE.

    All engines get the same modification vocabulary, including new
    predicates on the data's common attributes for the too-many direction.
    """
    bundle, _, _ = load_dataset(dataset)
    context = ExecutionContext.for_graph(bundle.graph)
    attrs = context.attribute_domain().common_vertex_attrs()
    rows: List[BaselineRow] = []
    for scenario, query, threshold in fig6_scenarios(dataset):
        engines = (
            (
                "traverse-search-tree",
                TraverseSearchTree(
                    context=context,
                    threshold=threshold,
                    constrainable_attrs=attrs,
                    max_evaluations=max_evaluations,
                ),
            ),
            (
                "random-search",
                RandomModificationSearch(
                    bundle.graph,
                    threshold,
                    constrainable_attrs=attrs,
                    max_evaluations=max_evaluations,
                    seed=seed,
                ),
            ),
            (
                "greedy-lattice",
                GreedyCoarseSearch(
                    bundle.graph,
                    threshold,
                    max_evaluations=max_evaluations,
                ),
            ),
        )
        for engine_name, engine in engines:
            result = engine.search(query)
            rows.append(
                BaselineRow(
                    scenario=scenario,
                    engine=engine_name,
                    converged=result.converged,
                    distance=result.best_distance,
                    cardinality=result.best_cardinality,
                    syntactic=result.best_syntactic,
                    evaluated=result.evaluated,
                    elapsed=result.elapsed,
                )
            )
    return rows


def fig6_topology(
    dataset: str = "ldbc",
    max_evaluations: int = 250,
) -> List[BaselineRow]:
    """Sec. 6.4.3: value-level-only vs topology-enabled modification.

    Uses the why-empty variants with an ``at_least`` threshold: the
    injected failures sit inside single predicates, but some thresholds
    are only reachable when whole edges may be dropped.
    """
    bundle, queries, empty_variant = load_dataset(dataset)
    context = ExecutionContext.for_graph(bundle.graph)
    rows: List[BaselineRow] = []
    for name, query in queries.items():
        original = context.count(query)
        target = max(2, original * 4)
        threshold = CardinalityThreshold.at_least(target)
        for topo in (False, True):
            engine = TraverseSearchTree(
                context=context,
                threshold=threshold,
                include_topology=topo,
                max_evaluations=max_evaluations,
            )
            result = engine.search(query)
            rows.append(
                BaselineRow(
                    scenario=f"{name} (C={original} -> >= {target})",
                    engine="with-topology" if topo else "predicates-only",
                    converged=result.converged,
                    distance=result.best_distance,
                    cardinality=result.best_cardinality,
                    syntactic=result.best_syntactic,
                    evaluated=result.evaluated,
                    elapsed=result.elapsed,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Appendix A: data sets and queries (Table A.1)
# ---------------------------------------------------------------------------


@dataclass
class DatasetRow:
    """One row of the Table A.1 data-set/query inventory."""

    dataset: str
    query: str
    vertices: int
    edges: int
    query_vertices: int
    query_edges: int
    cardinality: int


def tabA_datasets() -> List[DatasetRow]:
    """Table A.1: generated data sets and measured query cardinalities."""
    rows: List[DatasetRow] = []
    for dataset in ("ldbc", "dbpedia"):
        bundle, queries, _ = load_dataset(dataset)
        context = ExecutionContext.for_graph(bundle.graph)
        for name, query in queries.items():
            rows.append(
                DatasetRow(
                    dataset=dataset,
                    query=name,
                    vertices=bundle.graph.num_vertices,
                    edges=bundle.graph.num_edges,
                    query_vertices=query.num_vertices,
                    query_edges=query.num_edges,
                    cardinality=context.count(query),
                )
            )
    return rows
