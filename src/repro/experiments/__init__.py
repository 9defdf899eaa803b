"""The one-shot runner, per-figure reproduction entry points and reporting."""

from repro.experiments.runner import run_experiment
from repro.experiments.reporting import format_table, format_comparison

__all__ = [
    "run_experiment",
    "format_table",
    "format_comparison",
]
