"""Aggregation of metrics across repeated simulation runs.

The paper averages every curve over 100 runs to smooth the randomness of
victim-group selection (and of CH ring positions).  The experiment harness
uses these helpers to average traces, compute run-to-run variability and
summarize a curve into the handful of numbers each experiment reports (the
experiments are indexed in the Evaluation table of ``docs/paper-mapping.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True)
class RunStatistics:
    """Per-point statistics of a metric across runs."""

    mean: np.ndarray
    std: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    n_runs: int

    def confidence_halfwidth(self, z: float = 1.96) -> np.ndarray:
        """Half-width of the normal-approximation confidence interval."""
        if self.n_runs <= 1:
            return np.zeros_like(self.mean)
        return z * self.std / np.sqrt(self.n_runs)

    def as_dict(self) -> Dict[str, List[float]]:
        """Plain-dict view (for JSON serialization)."""
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "min": self.minimum.tolist(),
            "max": self.maximum.tolist(),
            "n_runs": self.n_runs,
        }


def summarize_runs(curves: Sequence[ArrayLike]) -> RunStatistics:
    """Point-wise statistics over several runs of the same curve."""
    if not curves:
        raise ValueError("curves must not be empty")
    stacked = np.vstack([np.asarray(c, dtype=np.float64) for c in curves])
    return RunStatistics(
        mean=stacked.mean(axis=0),
        std=stacked.std(axis=0),
        minimum=stacked.min(axis=0),
        maximum=stacked.max(axis=0),
        n_runs=stacked.shape[0],
    )


def average_curves(curves: Sequence[ArrayLike]) -> np.ndarray:
    """Element-wise mean of several equally sized curves."""
    return summarize_runs(curves).mean


def tail_mean(curve: ArrayLike, fraction: float = 0.25) -> float:
    """Mean of the last ``fraction`` of a curve.

    Used to summarize the "plateau" value of the sigma curves (the 2nd zone
    of figure 4, where the metric stabilizes after the initial transient).
    """
    arr = np.asarray(curve, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    start = int(np.floor(arr.size * (1.0 - fraction)))
    start = min(start, arr.size - 1)
    return float(arr[start:].mean())


def value_at(curve: ArrayLike, x_values: ArrayLike, x: float) -> float:
    """Value of a sampled curve at abscissa ``x`` (nearest sample)."""
    xs = np.asarray(x_values, dtype=np.float64)
    ys = np.asarray(curve, dtype=np.float64)
    if xs.size == 0 or xs.shape != ys.shape:
        raise ValueError("x_values and curve must be non-empty and equally sized")
    index = int(np.argmin(np.abs(xs - x)))
    return float(ys[index])
