"""Registry mapping experiment identifiers to their runner functions.

The identifiers match the experiment index of docs/paper-mapping.md and the
case ids of ``tests/test_paper_figures.py``, so ``run_experiment("fig4")``
regenerates exactly what ``repro run fig4`` prints.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.experiments.ablations import (
    run_ablation_grid,
    run_ablation_heterogeneous,
    run_ablation_lifecycle,
    run_ablation_parallelism,
)
from repro.experiments.base import ExperimentResult
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

ExperimentFn = Callable[..., ExperimentResult]

#: All registered experiments, keyed by identifier.
EXPERIMENTS: Dict[str, ExperimentFn] = {
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "claim_doubling": run_claim_doubling,
    "claim_8192": run_claim_8192,
    "ablation_parallelism": run_ablation_parallelism,
    "ablation_lifecycle": run_ablation_lifecycle,
    "ablation_grid": run_ablation_grid,
    "ablation_heterogeneous": run_ablation_heterogeneous,
}


def list_experiments() -> List[str]:
    """Identifiers of every registered experiment."""
    return sorted(EXPERIMENTS)


def get_experiment(experiment_id: str) -> ExperimentFn:
    """The runner function of an experiment."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(list_experiments())
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run an experiment by identifier."""
    return get_experiment(experiment_id)(**kwargs)
