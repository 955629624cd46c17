"""Cross-validation between the fast simulators and the full entity model.

The fast simulators drive the benchmark harness, so they must be shown to
reproduce the behaviour of the faithful (but slower) entity model.  The
global approach is deterministic, so the match is exact; the local approach
involves random victim-group selection, so the comparison is statistical
(identical distributions of the balance metric at matched vnode counts).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHTConfig, GlobalDHT, LocalDHT
from repro.sim import LocalBalanceSimulator


def test_global_exact_match_over_long_run():
    pmin = 8
    dht = GlobalDHT(DHTConfig.for_global(pmin=pmin), rng=0)
    snode = dht.add_snode()
    sim = LocalBalanceSimulator(DHTConfig.for_global(pmin=pmin))
    for step in range(80):
        dht.create_vnode(snode)
        sim.create_vnode()
        ((_, counts),) = sim.counts_snapshot()
        assert sorted(counts) == sorted(
            v.partition_count for v in dht.vnodes.values()
        ), f"divergence at step {step}"
        assert sim.sigma_qv() == pytest.approx(dht.sigma_qv(), abs=1e-12)


def test_local_statistical_match():
    """Average sigma(Qv) of the entity model and the fast simulator must agree.

    Both implement the same algorithm; only the RNG consumption pattern
    differs, so per-seed traces differ but the run-averaged curves must be
    statistically indistinguishable (well within a few percentage points).
    """
    config = DHTConfig.for_local(pmin=4, vmin=4)
    n_vnodes, runs = 48, 12

    def entity_curve(seed: int) -> np.ndarray:
        dht = LocalDHT(config, rng=seed)
        snode = dht.add_snode()
        values = []
        for _ in range(n_vnodes):
            dht.create_vnode(snode)
            values.append(dht.sigma_qv())
        return np.asarray(values)

    def sim_curve(seed: int) -> np.ndarray:
        return LocalBalanceSimulator(config, rng=seed).run(n_vnodes).sigma_qv

    entity_mean = np.mean([entity_curve(1000 + s) for s in range(runs)], axis=0)
    sim_mean = np.mean([sim_curve(2000 + s) for s in range(runs)], axis=0)

    # Zone 1 (single group) is deterministic: both must be exactly equal there.
    vmax = 2 * config.vmin
    assert np.allclose(entity_mean[:vmax], sim_mean[:vmax], atol=1e-12)
    # Zone 2 is stochastic: compare run-averaged levels.
    diff = np.abs(entity_mean[vmax:] - sim_mean[vmax:])
    assert diff.mean() < 0.06, f"mean |difference| too large: {diff.mean():.3f}"


def test_local_group_counts_match_statistically():
    config = DHTConfig.for_local(pmin=4, vmin=4)
    n_vnodes, runs = 48, 12

    def entity_groups(seed: int) -> int:
        dht = LocalDHT(config, rng=seed)
        snode = dht.add_snode()
        for _ in range(n_vnodes):
            dht.create_vnode(snode)
        return dht.n_groups

    def sim_groups(seed: int) -> int:
        sim = LocalBalanceSimulator(config, rng=seed)
        for _ in range(n_vnodes):
            sim.create_vnode()
        return sim.n_groups

    entity_mean = np.mean([entity_groups(10 + s) for s in range(runs)])
    sim_mean = np.mean([sim_groups(20 + s) for s in range(runs)])
    assert abs(entity_mean - sim_mean) <= 2.0
