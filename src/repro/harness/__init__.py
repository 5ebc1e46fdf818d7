"""Experiment drivers and reporting for the evaluation reproduction."""

from repro.harness import experiments, reporting
from repro.harness.experiments import (
    CARDINALITY_FACTORS,
    appB_resources,
    fig3_10_correlation,
    fig3_random_explanations,
    fig4_boundedmcs,
    fig4_discovermcs,
    fig5_convergence,
    fig5_priorities,
    fig5_user_integration,
    fig6_baselines,
    fig6_scenarios,
    fig6_topology,
    load_dataset,
    tabA_datasets,
)
from repro.harness.reporting import (
    format_series,
    format_table,
    sparkline,
)

__all__ = [
    "CARDINALITY_FACTORS",
    "appB_resources",
    "experiments",
    "fig3_10_correlation",
    "fig3_random_explanations",
    "fig4_boundedmcs",
    "fig4_discovermcs",
    "fig5_convergence",
    "fig5_priorities",
    "fig5_user_integration",
    "fig6_baselines",
    "fig6_scenarios",
    "fig6_topology",
    "format_series",
    "format_table",
    "load_dataset",
    "reporting",
    "sparkline",
    "tabA_datasets",
]
