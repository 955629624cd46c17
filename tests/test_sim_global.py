"""Tests for the count-level simulator run under the global approach.

The global approach is :class:`~repro.sim.local.LocalBalanceSimulator` on a
``vmin=None`` configuration: one group that never splits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHTConfig
from repro.sim import LocalBalanceSimulator


def group_counts(sim):
    """Partition counts of the single group (the global approach has one)."""
    ((_, counts),) = sim.counts_snapshot()
    return counts


class TestGlobalApproachSimulator:
    def make(self, pmin=4):
        return LocalBalanceSimulator(DHTConfig.for_global(pmin=pmin))

    def test_first_vnode(self):
        sim = self.make()
        record = sim.create_vnode()
        assert record.vnode == 0 and record.group_size == 1
        assert sim.n_vnodes == 1
        assert sum(group_counts(sim)) == 4
        assert sim.sigma_qv() == 0.0

    def test_zero_sigma_at_every_power_of_two(self):
        sim = self.make(pmin=8)
        trace = sim.run(64)
        for power in (1, 2, 4, 8, 16, 32, 64):
            assert trace.sigma_qv[power - 1] == pytest.approx(0.0, abs=1e-12), power

    def test_nonzero_sigma_between_powers_of_two(self):
        sim = self.make(pmin=8)
        trace = sim.run(24)
        assert trace.sigma_qv[17] > 0.0  # V = 18

    def test_counts_bounded_by_g4(self):
        sim = self.make(pmin=4)
        for _ in range(100):
            sim.create_vnode()
            assert all(4 <= c <= 8 for c in group_counts(sim))

    def test_total_partitions_power_of_two(self):
        sim = self.make(pmin=4)
        for _ in range(50):
            sim.create_vnode()
            total = sum(group_counts(sim))
            assert total & (total - 1) == 0

    def test_quotas_sum_to_one(self):
        sim = self.make()
        for _ in range(37):
            sim.create_vnode()
        assert sim.vnode_quotas().sum() == pytest.approx(1.0)

    def test_trace_reports_single_group(self):
        trace = self.make().run(10)
        assert (trace.n_groups == 1).all()
        assert (trace.sigma_qg == 0).all()

    def test_run_rejects_non_positive(self):
        with pytest.raises(ValueError):
            self.make().run(0)

    def test_deterministic(self):
        a = self.make(pmin=8).run(50)
        b = self.make(pmin=8).run(50)
        assert np.array_equal(a.sigma_qv, b.sigma_qv)

    def test_matches_local_simulator_with_huge_vmin(self):
        """A local simulator whose groups never fill behaves exactly globally."""
        n = 60
        global_trace = self.make(pmin=4).run(n)
        local_sim = LocalBalanceSimulator(DHTConfig.for_local(pmin=4, vmin=64), rng=0)
        local_trace = local_sim.run(n)
        assert local_sim.n_groups == 1
        assert np.allclose(global_trace.sigma_qv, local_trace.sigma_qv, atol=1e-9)
