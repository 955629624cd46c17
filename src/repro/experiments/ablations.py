"""Ablation experiments (library additions, clearly separated from the paper's figures).

Four ablations substantiate claims the paper makes only in prose, or probe
design choices its evaluation does not isolate:

* ``ablation_parallelism`` — the serialization of the global approach vs the
  per-group concurrency of the local approach, measured as makespan and mean
  creation latency on the cluster protocol simulator (sections 1/3/6).
* ``ablation_lifecycle`` — the same parallelism question for the **full
  topology lifecycle**: a churn trace of joins, graceful leaves, crashes
  with replica rebuild, enrollment changes and load-aware rebalance passes
  replayed through the lifecycle protocol simulator
  (:class:`repro.cluster.protocol.LifecycleProtocolSimulator`) under both
  lock structures, across cluster sizes.
* ``ablation_grid`` — the full (Pmin, Vmin) grid behind the statement that
  "increasing Pmin beyond the same value of Vmin decreases sigma by a very
  marginal amount" (section 4.1), which justifies figure 4 showing only the
  diagonal.
* ``ablation_heterogeneous`` — fairness on a heterogeneous cluster, where
  each node's enrollment (vnode count) follows its capacity, compared with
  weighted Consistent Hashing (the motivation of section 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.cluster.protocol import (
    CreationProtocolSimulator,
    ProtocolCosts,
    compare_lifecycle_protocols,
)
from repro.core.config import DHTConfig
from repro.experiments.base import ExperimentResult, Series
from repro.experiments.runner import average_local_runs, ch_join_trace, default_runs
from repro.metrics.aggregate import tail_mean
from repro.metrics.balance import sigma_from_quotas
from repro.sim.local import LocalBalanceSimulator
from repro.utils.rng import derive_seed, spawn_rngs
from repro.workloads.arrivals import StaggeredBatches
from repro.workloads.heterogeneity import CapacityProfile


def run_ablation_parallelism(
    n_snodes_values: Sequence[int] = (8, 16, 32, 64, 128),
    creations_per_snode: int = 4,
    pmin: int = 32,
    vmin: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Makespan of a burst of concurrent creations: global vs local protocol.

    Every snode issues ``creations_per_snode`` creation requests at time 0
    (a cluster expansion).  The global approach serializes them all behind a
    DHT-wide barrier; the local approach serializes only per victim group.
    """
    makespans: Dict[str, List[float]] = {"global": [], "local": []}
    latencies: Dict[str, List[float]] = {"global": [], "local": []}
    for n_snodes in n_snodes_values:
        schedule = StaggeredBatches(
            n_batches=1, batch_size=n_snodes * creations_per_snode, gap=0.0, n_snodes=n_snodes
        )
        for approach in ("global", "local"):
            config = (
                DHTConfig.for_global(pmin=pmin)
                if approach == "global"
                else DHTConfig.for_local(pmin=pmin, vmin=vmin)
            )
            sim = CreationProtocolSimulator(
                config,
                n_snodes=n_snodes,
                arrivals=schedule,
                approach=approach,  # type: ignore[arg-type]
                rng=derive_seed(seed, "parallelism", approach, n_snodes),
            )
            stats = sim.run()
            makespans[approach].append(stats.makespan)
            latencies[approach].append(stats.mean_latency)
    x = np.asarray(n_snodes_values, dtype=np.float64)
    return ExperimentResult(
        experiment_id="ablation_parallelism",
        title="Creation burst makespan: global vs local protocol",
        paper_reference="Sections 1, 3, 6 (qualitative parallelism claim)",
        series=[
            Series("global makespan (s)", x, np.asarray(makespans["global"])),
            Series("local makespan (s)", x, np.asarray(makespans["local"])),
            Series("global mean latency (s)", x, np.asarray(latencies["global"])),
            Series("local mean latency (s)", x, np.asarray(latencies["local"])),
        ],
        params={
            "n_snodes_values": list(n_snodes_values),
            "creations_per_snode": creations_per_snode,
            "pmin": pmin,
            "vmin": vmin,
            "seed": seed,
        },
        notes=(
            "The local approach's advantage grows with the cluster size because "
            "its locks cover only one group instead of the whole DHT."
        ),
        x_label="number of snodes",
        y_label="seconds",
    )


def run_ablation_lifecycle(
    n_snodes_values: Sequence[int] = (8, 12, 16, 20),
    events_per_snode: int = 2,
    n_keys: int = 3000,
    batch_size: int = 8,
    gap: float = 0.02,
    pmin: int = 8,
    vmin: int = 4,
    replication_factor: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Makespan of concurrent full-lifecycle churn: global vs local protocol.

    The lifecycle analogue of :func:`run_ablation_parallelism`: instead of a
    creation-only burst, the workload is a churn trace mixing all five
    topology event kinds (joins, graceful leaves, crashes with replica
    rebuild, enrollment changes, load-aware rebalance passes), profiled on
    a live replicated DHT and queued in concurrent arrival batches.  The
    global approach synchronizes the GPDR across every snode per event and
    serializes behind the DHT-wide barrier; the local approach locks only
    the touched groups.
    """
    from repro.workloads.churn import ChurnSpec

    makespans: Dict[str, List[float]] = {"global": [], "local": []}
    latencies: Dict[str, List[float]] = {"global": [], "local": []}
    for n_snodes in n_snodes_values:
        spec = ChurnSpec(
            name=f"lifecycle-{n_snodes}",
            n_keys=n_keys,
            n_events=n_snodes * events_per_snode,
            approach="local",
            n_snodes=n_snodes,
            vnodes_per_snode=4,
            min_snodes=max(2, n_snodes // 2),
            max_snodes=2 * n_snodes,
            pmin=pmin,
            vmin=vmin,
            replication_factor=replication_factor,
            crash_weight=0.25,
            rebalance_weight=0.15,
            seed=derive_seed(seed, "lifecycle", n_snodes),
        )
        comparison = compare_lifecycle_protocols(spec, batch_size=batch_size, gap=gap)
        for approach, stats in comparison.results.items():
            makespans[approach].append(stats.makespan)
            latencies[approach].append(stats.mean_latency)
    x = np.asarray(n_snodes_values, dtype=np.float64)
    return ExperimentResult(
        experiment_id="ablation_lifecycle",
        title="Concurrent churn makespan: global vs local protocol",
        paper_reference="Sections 1, 3, 6 (parallelism claim, extended to the full lifecycle)",
        series=[
            Series("global makespan (s)", x, np.asarray(makespans["global"])),
            Series("local makespan (s)", x, np.asarray(makespans["local"])),
            Series("global mean latency (s)", x, np.asarray(latencies["global"])),
            Series("local mean latency (s)", x, np.asarray(latencies["local"])),
        ],
        params={
            "n_snodes_values": list(n_snodes_values),
            "events_per_snode": events_per_snode,
            "n_keys": n_keys,
            "batch_size": batch_size,
            "gap": gap,
            "pmin": pmin,
            "vmin": vmin,
            "replication_factor": replication_factor,
            "seed": seed,
        },
        notes=(
            "Every event kind of the live DHT (join/leave/crash/enrollment/"
            "rebalance) has a simulated control-plane cost; the local "
            "approach overlaps events that touch disjoint groups."
        ),
        x_label="number of snodes",
        y_label="seconds",
    )


def run_ablation_grid(
    pmins: Sequence[int] = (8, 16, 32, 64, 128),
    vmins: Sequence[int] = (8, 16, 32, 64, 128),
    runs: Optional[int] = None,
    n_vnodes: int = 512,
    seed: int = 0,
) -> ExperimentResult:
    """Plateau ``sigma-bar(Qv)`` over the full (Pmin, Vmin) grid.

    Reproduces the claim of section 4.1 that Vmin dominates when groups are
    small and that raising Pmin beyond Vmin brings only marginal gains; one
    series per ``Vmin`` with ``Pmin`` on the x axis.
    """
    runs = runs if runs is not None else max(2, default_runs() // 2)
    series: List[Series] = []
    for vmin in vmins:
        values: List[float] = []
        for pmin in pmins:
            config = DHTConfig.for_local(pmin=pmin, vmin=vmin)
            trace = average_local_runs(
                config, n_vnodes, runs, seed=seed, record_group_metrics=False
            )
            values.append(tail_mean(trace.sigma_qv_percent(), fraction=0.25))
        series.append(
            Series(
                label=f"Vmin={vmin}",
                x=np.asarray(pmins, dtype=np.float64),
                y=np.asarray(values, dtype=np.float64),
                meta={"vmin": vmin},
            )
        )
    return ExperimentResult(
        experiment_id="ablation_grid",
        title="Plateau sigma(Qv) over the (Pmin, Vmin) grid",
        paper_reference="Section 4.1 (justification for plotting only Pmin = Vmin)",
        series=series,
        params={
            "pmins": list(pmins),
            "vmins": list(vmins),
            "runs": runs,
            "n_vnodes": n_vnodes,
            "seed": seed,
        },
        notes=(
            "Within a row (fixed Vmin), increasing Pmin beyond Vmin should change "
            "sigma only marginally; across rows, larger Vmin helps substantially."
        ),
        x_label="Pmin",
        y_label="plateau sigma(Qv) (%)",
    )


def run_ablation_heterogeneous(
    n_nodes: int = 64,
    base_vnodes: int = 4,
    pmin: int = 32,
    vmin: int = 32,
    ch_partitions_per_vnode: int = 8,
    runs: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Fairness on a heterogeneous cluster: capacity-weighted quota deviation.

    Nodes come from three hardware generations; node ``i`` enrolls
    ``enrollment_i`` vnodes proportional to its capacity.  Perfect fairness
    means every node's quota is proportional to its capacity weight, so the
    metric is the relative deviation of ``quota_i / weight_i``.  The baseline
    is Consistent Hashing with virtual servers proportional to the weights.
    """
    runs = runs if runs is not None else default_runs()
    profile = CapacityProfile.generations(n_nodes, rng=derive_seed(seed, "hetero-profile"))
    weights = profile.relative_weights()
    enrollments = profile.enrollments(base_vnodes)
    names = profile.names()
    total_vnodes = sum(enrollments.values())

    local_devs: List[float] = []
    ch_devs: List[float] = []
    for rng in spawn_rngs(derive_seed(seed, "hetero-runs"), runs):
        # Local approach: simulate the creations, then attribute vnode quotas
        # to nodes round-robin weighted by enrollment (vnode j belongs to the
        # node that contributed it).
        sim = LocalBalanceSimulator(DHTConfig.for_local(pmin=pmin, vmin=vmin), rng=rng)
        owner_of_vnode: List[str] = []
        for name in names:
            owner_of_vnode.extend([name] * enrollments[name])
        for _ in range(total_vnodes):
            sim.create_vnode()
        quotas = sim.vnode_quotas()
        node_quota: Dict[str, float] = {name: 0.0 for name in names}
        for vnode_index, quota in enumerate(quotas):
            node_quota[owner_of_vnode[vnode_index]] += float(quota)
        normalized = [node_quota[name] / weights[name] for name in names]
        local_devs.append(sigma_from_quotas(np.asarray(normalized) / np.sum(normalized)))

        # Weighted Consistent Hashing baseline, on the same rng.
        ring = ConsistentHashRing(ch_partitions_per_vnode * base_vnodes, rng=rng)
        node_weights = [weights[name] for name in names]
        ch_join_trace(ring, n_nodes, node_weights)
        normalized_ch = np.asarray(list(ring.node_quotas().values())) / node_weights
        ch_devs.append(sigma_from_quotas(normalized_ch / np.sum(normalized_ch)))

    x = np.asarray([1.0])
    return ExperimentResult(
        experiment_id="ablation_heterogeneous",
        title="Capacity-weighted fairness on a heterogeneous cluster",
        paper_reference="Section 1 (motivation: heterogeneous cluster nodes)",
        series=[
            Series("local approach (weighted sigma %)", x, np.asarray([100.0 * float(np.mean(local_devs))])),
            Series("weighted CH (weighted sigma %)", x, np.asarray([100.0 * float(np.mean(ch_devs))])),
        ],
        params={
            "n_nodes": n_nodes,
            "base_vnodes": base_vnodes,
            "pmin": pmin,
            "vmin": vmin,
            "runs": runs,
            "seed": seed,
            "total_vnodes": total_vnodes,
        },
        notes=(
            "Lower is better: the deviation of capacity-normalized quotas from "
            "perfect proportional fairness."
        ),
        x_label="(single point)",
        y_label="weighted sigma (%)",
    )
