"""Cluster construction shared by every workload replayer.

:func:`build_cluster` builds the DHT for an approach, enrolls its snodes and
grows each to its target enrollment.  The churn engine
(:mod:`repro.workloads.churn`), the networked harness's twin, the lifecycle
protocol simulator and the benchmark all reach it through
:meth:`repro.workloads.churn.ChurnSpec.build_dht` or call it directly.
"""

from __future__ import annotations

from typing import Optional

from repro.core import DHTConfig, DurabilityConfig, LocalDHT, ParallelConfig

APPROACHES = ("local", "global")


def build_cluster(
    approach: str,
    n_snodes: int,
    vnodes_per_snode: int,
    pmin: int = 32,
    vmin: int = 32,
    replication_factor: int = 1,
    seed: int = 0,
    data_dir: Optional[str] = None,
    workers: int = 0,
    parallel: Optional[ParallelConfig] = None,
) -> LocalDHT:
    """Enroll a homogeneous cluster.

    Builds the DHT for the requested approach (with ``replication_factor``
    copies of every item), enrolls ``n_snodes`` snodes and grows each to
    ``vnodes_per_snode`` vnodes.  ``data_dir`` turns on the durable tier
    (WAL + checkpointed segments per primary vnode under that directory; see
    :mod:`repro.core.durability`).
    ``workers > 0`` enables the multicore bulk pipeline
    (:mod:`repro.parallel`) with that many worker processes; the caller is
    then responsible for :meth:`~repro.core.base.BaseDHT.close`.
    """
    if approach not in APPROACHES:
        raise ValueError(f"approach must be one of {APPROACHES}, got {approach!r}")
    config = DHTConfig(
        pmin=pmin,
        vmin=vmin if approach == "local" else None,
        replication_factor=replication_factor,
    )
    if data_dir is not None:
        config = config.with_(durability=DurabilityConfig(data_dir=data_dir))
    if parallel is not None:
        # Full control (worker count, min_batch, start method) for tests
        # and benchmarks; ``workers`` is the everyday shorthand.
        config = config.with_(parallel=parallel)
    elif workers > 0:
        config = config.with_(parallel=ParallelConfig(workers=workers))
    dht = LocalDHT(config, rng=seed)
    for snode in dht.add_snodes(n_snodes):
        dht.set_enrollment(snode, vnodes_per_snode)
    return dht
