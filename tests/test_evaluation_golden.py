"""Golden fence for the evaluation layer's balance models.

Pins the numbers the paper's figures and ablations are built from, so a
refactor of the Consistent Hashing ring or the count-level balance
simulator has to reproduce them exactly:

* ``average_ch_runs`` on homogeneous and on weighted nodes (figure 9);
* both series of ``run_ablation_heterogeneous``, whose local simulator and
  CH ring share one rng, so any change of draw order shows;
* the per-node quotas of the weighted ring built by
  ``examples/heterogeneous_cluster.py``;
* the partition-count vector after every creation of a 300-vnode
  global-approach run (run-length encoded), exactly, and its
  ``sigma-bar(Qv)`` series to 1e-12.

Regenerating the golden (only legitimate when a PR *intentionally* changes
behaviour, never as part of a refactor):

    PYTHONPATH=src python tests/test_evaluation_golden.py --write
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.baselines import ConsistentHashRing
from repro.core import DHTConfig
from repro.experiments.ablations import run_ablation_heterogeneous
from repro.experiments.runner import average_ch_runs
from repro.sim import LocalBalanceSimulator
from repro.workloads import CapacityProfile

GOLDEN_PATH = Path(__file__).parent / "goldens" / "evaluation_series.json"

#: Per-node weights of the weighted CH run (0.5x to 2x the base ``k``).
CH_WEIGHTS = [0.5 + 0.5 * (i % 4) for i in range(128)]


def _run_lengths(counts: List[int]) -> List[List[int]]:
    return [[int(value), len(list(run))] for value, run in itertools.groupby(counts)]


def _global_run(n_vnodes: int = 300) -> Dict[str, Any]:
    """Count vector and sigma after every creation of a global-approach run."""
    sim = LocalBalanceSimulator(DHTConfig.for_global(pmin=8))
    counts, sigma = [], []
    for _ in range(n_vnodes):
        sim.create_vnode()
        ((_, group_counts),) = sim.counts_snapshot()
        counts.append(_run_lengths(group_counts))
        sigma.append(sim.sigma_qv())
    return {"counts": counts, "sigma_qv": sigma}


def _example_ring_quotas() -> Dict[str, float]:
    """The weighted ring of ``examples/heterogeneous_cluster.py``."""
    profile = CapacityProfile.generations(12, rng=11)
    weights = profile.relative_weights()
    ring = ConsistentHashRing(partitions_per_node=32, rng=11)
    for spec in profile.nodes:
        ring.add_node(spec.name, weight=weights[spec.name])
    return {name: float(q) for name, q in ring.node_quotas().items()}


def _capture() -> Dict[str, Any]:
    hetero = run_ablation_heterogeneous(n_nodes=16, runs=2)
    return {
        "ch_homogeneous": average_ch_runs(32, 128, 3).sigma_qn.tolist(),
        "ch_weighted": average_ch_runs(64, 128, 3, weights=CH_WEIGHTS).sigma_qn.tolist(),
        "ablation_heterogeneous": {s.label: s.y.tolist() for s in hetero.series},
        "example_ring_quotas": _example_ring_quotas(),
        "global": _global_run(),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def captured() -> Dict[str, Any]:
    return _capture()


@pytest.mark.parametrize(
    "key",
    ["ch_homogeneous", "ch_weighted", "ablation_heterogeneous", "example_ring_quotas"],
)
def test_series_bit_identical(golden, captured, key):
    assert captured[key] == golden[key]


def test_global_counts_exact_and_sigma_to_1e12(golden, captured):
    assert captured["global"]["counts"] == golden["global"]["counts"]
    assert captured["global"]["sigma_qv"] == pytest.approx(
        golden["global"]["sigma_qv"], rel=0, abs=1e-12
    )


def _write_golden() -> None:  # pragma: no cover - manual tool
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_capture(), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover - manual tool
    import sys

    if "--write" in sys.argv:
        _write_golden()
    else:
        print(__doc__)
