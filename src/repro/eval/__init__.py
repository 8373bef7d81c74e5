"""Evaluation harness: metrics, episode runner, and experiment drivers
reproducing Table 2, Fig 6, and Fig 10."""

from repro.eval.metrics import AggregateResult, EpisodeMetrics, aggregate
from repro.eval.runner import (
    evaluate_policy,
    evaluate_policy_vec,
    run_episode,
)
from repro.eval.tables import format_aggregate_table, format_sweep_table
from repro.eval.analysis import (
    DwellTime,
    action_counts,
    dwell_time,
    mean_time_to_repair,
    phase_breakdown,
    time_to_first_response,
)
from repro.eval.plotting import bar_chart, series_plot, sparkline
from repro.eval.report import experiment_report, markdown_sweep, markdown_table
from repro.eval.experiments import run_fig6, run_fig10, run_table2

__all__ = [
    "EpisodeMetrics",
    "AggregateResult",
    "aggregate",
    "run_episode",
    "evaluate_policy",
    "evaluate_policy_vec",
    "format_aggregate_table",
    "format_sweep_table",
    "DwellTime",
    "dwell_time",
    "time_to_first_response",
    "mean_time_to_repair",
    "phase_breakdown",
    "action_counts",
    "bar_chart",
    "series_plot",
    "sparkline",
    "experiment_report",
    "markdown_table",
    "markdown_sweep",
    "run_table2",
    "run_fig6",
    "run_fig10",
]
