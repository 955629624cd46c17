"""Experiment harness: one definition per figure/claim of the paper's evaluation.

Every experiment produces an :class:`~repro.experiments.base.ExperimentResult`
containing labelled (x, y) series, the parameters used and a pointer to the
paper figure it reproduces.  ``repro run <id>`` prints the resulting tables
and ``tests/test_paper_figures.py`` asserts the paper's shapes on the same
definitions, so one code path serves interactive use and tests.
"""

from repro.experiments.base import ExperimentResult, Series
from repro.experiments.runner import (
    average_ch_runs,
    average_local_runs,
    default_n_nodes,
    default_n_vnodes,
    default_runs,
)
from repro.experiments.figures import (
    run_claim_8192,
    run_claim_doubling,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
)
from repro.experiments.ablations import (
    run_ablation_grid,
    run_ablation_heterogeneous,
    run_ablation_lifecycle,
    run_ablation_parallelism,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments, run_experiment
from repro.experiments.report import checkpoint_table, render_result, series_table
from repro.experiments.persistence import (
    compare_results,
    load_result,
    result_from_json,
    result_to_json,
    save_result,
)

__all__ = [
    "ExperimentResult",
    "Series",
    "default_runs",
    "default_n_vnodes",
    "default_n_nodes",
    "average_local_runs",
    "average_ch_runs",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_claim_doubling",
    "run_claim_8192",
    "run_ablation_grid",
    "run_ablation_parallelism",
    "run_ablation_lifecycle",
    "run_ablation_heterogeneous",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "render_result",
    "series_table",
    "checkpoint_table",
    "save_result",
    "load_result",
    "result_to_json",
    "result_from_json",
    "compare_results",
]
