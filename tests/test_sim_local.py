"""Tests for the fast local-approach simulator (repro.sim.local)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConfigError, DHTConfig
from repro.sim import CreationRecord, LocalBalanceSimulator, greedy_fill
from repro.sim.local import _SimGroup


class TestGreedyFill:
    def test_empty_group_gets_pmin(self):
        assert greedy_fill([], pmin=4) == ([], 4, 0)

    def test_split_all_fires_when_everyone_at_pmin(self):
        new_counts, new_count, level_increase = greedy_fill([4, 4], pmin=4)
        assert level_increase == 1
        assert sorted(new_counts + [new_count]) == [4, 6, 6] or sum(new_counts) + new_count == 16

    def test_no_split_when_headroom_exists(self):
        new_counts, new_count, level_increase = greedy_fill([8, 8, 8, 8], pmin=4)
        assert level_increase == 0
        assert sorted(new_counts + [new_count]) == [6, 6, 6, 7, 7]

    def test_result_is_maximally_equal(self):
        for counts in ([8, 8, 8, 8], [7, 7, 6, 6, 6], [16, 16]):
            new_counts, new_count, _ = greedy_fill(list(counts), pmin=4)
            final = new_counts + [new_count]
            assert sum(final) == sum(counts)
            assert max(final) - new_count <= 1

    def test_pmin_one_rejected(self):
        with pytest.raises(ConfigError):
            greedy_fill([1], pmin=1)

    def test_existing_order_preserved_for_untouched_vnodes(self):
        new_counts, _, _ = greedy_fill([5, 9, 5], pmin=4)
        # Only the largest counts are reduced; the small ones keep their slots.
        assert new_counts[0] == 5 and new_counts[2] == 5


class TestLocalBalanceSimulator:
    def make(self, pmin=4, vmin=4, seed=0):
        return LocalBalanceSimulator(DHTConfig.for_local(pmin=pmin, vmin=vmin), rng=seed)

    def test_global_config_is_one_group_that_never_splits(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        sim = LocalBalanceSimulator(DHTConfig.for_global(pmin=4), rng=rng)
        trace = sim.run(40)
        assert sim.n_groups == 1 and sim.group_splits == 0
        assert (trace.g_ideal == 1).all() and (trace.sigma_qg == 0).all()
        # The global approach is deterministic: it draws nothing.
        assert rng.bit_generator.state == state

    def test_first_creation(self):
        sim = self.make()
        record = sim.create_vnode()
        assert isinstance(record, CreationRecord)
        assert record.vnode == 0 and record.group_size == 1
        assert sim.n_vnodes == 1 and sim.n_groups == 1
        assert sim.sigma_qv() == 0.0

    def test_single_group_until_vmax_then_split(self):
        sim = self.make()
        for _ in range(8):  # Vmax = 8
            sim.create_vnode()
        assert sim.n_groups == 1
        record = sim.create_vnode()
        assert record.group_split
        assert sim.n_groups == 2 and sim.group_splits == 1

    def test_perfect_balance_at_vmax_boundary(self):
        sim = self.make(pmin=8, vmin=8)
        trace = sim.run(16)
        assert trace.sigma_qv[15] == pytest.approx(0.0, abs=1e-12)

    def test_creation_record_fields_are_consistent(self):
        sim = self.make()
        for expected_id in range(20):
            record = sim.create_vnode()
            assert record.vnode == expected_id
            assert record.group_size == len(record.group_members) + 1
            assert record.n_transfers >= 0

    def test_quotas_sum_to_one(self):
        sim = self.make(seed=5)
        for _ in range(50):
            sim.create_vnode()
        assert sim.vnode_quotas().sum() == pytest.approx(1.0)
        assert sim.group_quotas().sum() == pytest.approx(1.0)

    def test_sigma_qg_zero_with_single_group(self):
        sim = self.make()
        for _ in range(5):
            sim.create_vnode()
        assert sim.sigma_qg() == 0.0

    def test_run_trace_shapes(self):
        sim = self.make(seed=1)
        trace = sim.run(30)
        assert len(trace) == 30
        assert trace.n_vnodes[0] == 1 and trace.n_vnodes[-1] == 30
        assert trace.n_groups[-1] == sim.n_groups
        assert (trace.g_ideal >= 1).all()

    def test_run_without_group_metrics(self):
        trace = self.make(seed=2).run(10, record_group_metrics=False)
        assert (trace.sigma_qg == 0).all()

    def test_run_rejects_non_positive(self):
        with pytest.raises(ValueError):
            self.make().run(0)

    def test_deterministic_given_seed(self):
        a = self.make(seed=11).run(40)
        b = self.make(seed=11).run(40)
        assert np.array_equal(a.sigma_qv, b.sigma_qv)
        assert np.array_equal(a.n_groups, b.n_groups)

    def test_different_seeds_differ(self):
        a = self.make(seed=1).run(60)
        b = self.make(seed=2).run(60)
        assert not np.array_equal(a.sigma_qv, b.sigma_qv)

    def test_members_partition_vnode_ids(self):
        sim = self.make(seed=3)
        for _ in range(25):
            sim.create_vnode()
        all_members = sorted(m for g in sim.groups for m in g.members)
        assert all_members == list(range(25))

    def test_group_split_halves_membership(self):
        sim = self.make(seed=4)
        for _ in range(9):
            sim.create_vnode()
        sizes = sorted(g.n_vnodes for g in sim.groups)
        assert sizes == [4, 5]

    def test_ideal_group_count_matches_module_function(self):
        sim = self.make()
        for _ in range(20):
            sim.create_vnode()
        from repro.core.local_model import ideal_group_count

        assert sim.ideal_group_count() == ideal_group_count(20, 4)
