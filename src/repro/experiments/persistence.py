"""Saving and loading experiment results.

Experiment runs are cheap to regenerate but expensive at paper fidelity
(``REPRO_RUNS=100``), so the harness can persist results to JSON and reload
them later — e.g. to re-render tables or compare against a newer run of an
experiment from the Evaluation table of ``docs/paper-mapping.md`` without
re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.experiments.base import ExperimentResult, Series

PathLike = Union[str, Path]

#: File format version.
RESULT_FORMAT_VERSION = 1


def result_to_json(result: ExperimentResult) -> str:
    """Serialize an experiment result to a JSON string."""
    payload = {"format_version": RESULT_FORMAT_VERSION, "result": result.to_dict()}
    return json.dumps(payload, indent=2, sort_keys=True)


def result_from_json(text: str) -> ExperimentResult:
    """Rebuild an experiment result from :func:`result_to_json` output."""
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != RESULT_FORMAT_VERSION:
        raise ValueError(f"unsupported result format version {version!r}")
    data = payload["result"]
    series = [
        Series(
            label=s["label"],
            x=np.asarray(s["x"], dtype=np.float64),
            y=np.asarray(s["y"], dtype=np.float64),
            meta=dict(s.get("meta", {})),
        )
        for s in data["series"]
    ]
    return ExperimentResult(
        experiment_id=data["experiment_id"],
        title=data["title"],
        paper_reference=data["paper_reference"],
        series=series,
        params=dict(data.get("params", {})),
        notes=data.get("notes", ""),
        x_label=data.get("x_label", "x"),
        y_label=data.get("y_label", "y"),
    )


def save_result(result: ExperimentResult, path: PathLike) -> Path:
    """Write an experiment result to a JSON file and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(result_to_json(result), encoding="utf-8")
    return path


def load_result(path: PathLike) -> ExperimentResult:
    """Load an experiment result from a JSON file."""
    return result_from_json(Path(path).read_text(encoding="utf-8"))


def compare_results(
    reference: ExperimentResult, candidate: ExperimentResult
) -> Dict[str, Dict[str, float]]:
    """Compare the final values of matching series of two results.

    Returns ``{series label: {"reference": ..., "candidate": ..., "abs_diff": ...}}``
    for every label present in both results — the core of a regression check
    between two runs of the same experiment (e.g. before/after a code change,
    or 10-run vs 100-run fidelity).
    """
    comparison: Dict[str, Dict[str, float]] = {}
    candidate_labels = set(candidate.labels())
    for series in reference.series:
        if series.label not in candidate_labels:
            continue
        ref_final = series.final()
        cand_final = candidate.get(series.label).final()
        comparison[series.label] = {
            "reference": ref_final,
            "candidate": cand_final,
            "abs_diff": abs(ref_final - cand_final),
        }
    return comparison
