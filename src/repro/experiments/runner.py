"""Run repeated simulations and average them, honouring environment overrides.

The paper averages 100 runs of 1024 vnode creations per configuration.  On a
developer laptop that is a few minutes of CPU per figure, so the harness
defaults to a smaller number of runs and lets the environment scale it up:

``REPRO_RUNS``
    Number of runs to average (default 10; the paper used 100).
``REPRO_VNODES``
    Number of vnodes created per run (default 1024, as in the paper).
``REPRO_NODES``
    Number of physical nodes for the Consistent Hashing comparison
    (default 1024, as in the paper).

The Evaluation table of ``docs/paper-mapping.md`` indexes the experiments
these values drive.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.core.config import DHTConfig
from repro.sim.local import LocalBalanceSimulator
from repro.sim.trace import BalanceTrace, CHTrace
from repro.utils.rng import derive_seed, spawn_rngs

#: Defaults chosen so the slow figure suite (``tests/test_paper_figures.py``)
#: reruns every figure at the paper's scale in about a minute.
DEFAULT_RUNS = 10
DEFAULT_N_VNODES = 1024
DEFAULT_N_NODES = 1024


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}") from exc
    if value < minimum:
        raise ValueError(f"environment variable {name} must be >= {minimum}, got {value}")
    return value


def default_runs() -> int:
    """Number of runs to average (``REPRO_RUNS``, default 10; paper used 100)."""
    return _env_int("REPRO_RUNS", DEFAULT_RUNS)


def default_n_vnodes() -> int:
    """Vnodes created per run (``REPRO_VNODES``, default 1024 as in the paper)."""
    return _env_int("REPRO_VNODES", DEFAULT_N_VNODES)


def default_n_nodes() -> int:
    """Physical nodes for the CH comparison (``REPRO_NODES``, default 1024)."""
    return _env_int("REPRO_NODES", DEFAULT_N_NODES)


def average_local_runs(
    config: DHTConfig,
    n_vnodes: int,
    runs: int,
    seed: int = 0,
    record_group_metrics: bool = True,
) -> BalanceTrace:
    """Average ``runs`` runs of the local-approach simulator.

    Every run gets an independent RNG stream derived from ``seed`` and the
    configuration, so results are reproducible and runs are uncorrelated.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    base = derive_seed(seed, "local", config.pmin, config.vmin or 0, n_vnodes)
    rngs = spawn_rngs(base, runs)
    traces: List[BalanceTrace] = []
    for rng in rngs:
        sim = LocalBalanceSimulator(config, rng=rng)
        traces.append(sim.run(n_vnodes, record_group_metrics=record_group_metrics))
    return BalanceTrace.average(traces)


def average_ch_runs(
    partitions_per_node: int,
    n_nodes: int,
    runs: int,
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
) -> CHTrace:
    """Average ``runs`` runs of :func:`ch_join_trace` on fresh rings."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    base = derive_seed(seed, "ch", partitions_per_node, n_nodes)
    rngs = spawn_rngs(base, runs)
    traces = [
        ch_join_trace(ConsistentHashRing(partitions_per_node, rng=rng), n_nodes, weights)
        for rng in rngs
    ]
    return CHTrace.average(traces)


def ch_join_trace(
    ring: ConsistentHashRing,
    n_nodes: int,
    weights: Optional[Sequence[float]] = None,
) -> CHTrace:
    """Join ``n_nodes`` nodes to ``ring``, measuring ``sigma-bar(Qn)`` after each.

    Node ``i`` is named ``str(i)`` and joins with ``weights[i]`` (weight 1
    when ``weights`` is omitted), so :meth:`ConsistentHashRing.node_quotas`
    lists the quotas in the order of ``weights``.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    sigma = np.empty(n_nodes, dtype=np.float64)
    for i in range(n_nodes):
        ring.add_node(str(i), weight=1.0 if weights is None else float(weights[i]))
        sigma[i] = ring.sigma_qn()
    return CHTrace(n_nodes=np.arange(1, n_nodes + 1, dtype=np.int64), sigma_qn=sigma)
