"""Experiment harness utilities: statistics, charts and table rendering.

Used by ``benchmarks/`` to regenerate every table and figure of
EXPERIMENTS.md with consistent formatting and honest uncertainty
estimates.
"""

from repro.analysis.charts import ascii_chart
from repro.analysis.stats import (
    binomial_ci,
    mean_and_ci,
    summarize_rates,
)
from repro.analysis.survival import (
    failure_breakdown,
    survival_rate,
    survival_summary,
    survival_table,
)
from repro.analysis.tabulate import format_table, write_results

__all__ = [
    "ascii_chart",
    "binomial_ci",
    "failure_breakdown",
    "format_table",
    "mean_and_ci",
    "summarize_rates",
    "survival_rate",
    "survival_summary",
    "survival_table",
    "write_results",
]
