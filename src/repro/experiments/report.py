"""Textual rendering of experiment results (tables and ASCII charts).

The paper presents its evaluation as line charts; since this library is
terminal-first, every figure is rendered as (a) a checkpoint table sampling
each curve at a handful of x positions and (b) an optional ASCII chart.
``repro run <id>`` prints these renderings so the output can be compared
against the paper side by side.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.experiments.base import ExperimentResult, Series
from repro.report.ascii_chart import line_chart
from repro.report.tables import format_table

#: Default x positions at which curves are sampled for tables (matches the
#: gridlines of the paper's figures).
DEFAULT_CHECKPOINTS: Sequence[int] = (1, 64, 128, 256, 384, 512, 640, 768, 896, 1024)


def checkpoint_table(
    result: ExperimentResult, checkpoints: Optional[Sequence[float]] = None
) -> str:
    """Sample every series of the result at the given x checkpoints."""
    if checkpoints is None:
        max_x = max(float(s.x[-1]) for s in result.series)
        checkpoints = [c for c in DEFAULT_CHECKPOINTS if c <= max_x]
        if not checkpoints:
            checkpoints = [max_x]
    headers = [result.x_label] + result.labels()
    rows: List[List[object]] = []
    for checkpoint in checkpoints:
        row: List[object] = [checkpoint]
        for series in result.series:
            row.append(series.value_at(checkpoint))
        rows.append(row)
    return format_table(headers, rows)


def series_table(result: ExperimentResult) -> str:
    """One row per series: final value and basic statistics."""
    headers = ["series", "points", "final", "min", "max", "mean"]
    rows: List[List[object]] = []
    for series in result.series:
        y = np.asarray(series.y, dtype=np.float64)
        rows.append(
            [series.label, len(series), float(y[-1]), float(y.min()), float(y.max()), float(y.mean())]
        )
    return format_table(headers, rows)


def render_result(
    result: ExperimentResult,
    checkpoints: Optional[Sequence[float]] = None,
    chart: bool = True,
    chart_width: int = 78,
    chart_height: int = 18,
) -> str:
    """Full textual rendering of an experiment result."""
    lines: List[str] = []
    lines.append(f"=== {result.experiment_id}: {result.title} ===")
    lines.append(f"paper reference: {result.paper_reference}")
    if result.params:
        params = ", ".join(f"{k}={v}" for k, v in sorted(result.params.items()))
        lines.append(f"parameters: {params}")
    lines.append("")
    lines.append(checkpoint_table(result, checkpoints))
    if chart:
        lines.append("")
        lines.append(
            line_chart(
                [(s.label, s.x, s.y) for s in result.series],
                width=chart_width,
                height=chart_height,
                x_label=result.x_label,
                y_label=result.y_label,
            )
        )
    if result.notes:
        lines.append("")
        lines.append(f"notes: {result.notes}")
    return "\n".join(lines)
