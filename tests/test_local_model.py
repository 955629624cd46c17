"""Tests for the local approach (repro.core.local_model)."""

from __future__ import annotations

import pytest

from repro.core import DHTConfig, GroupId, LocalDHT, ReproError
from repro.core.local_model import ideal_group_count
from tests.conftest import grow


class TestConfiguration:
    def test_ungrouped_config_runs_the_global_approach(self):
        dht = LocalDHT(DHTConfig.for_global(pmin=8), rng=0)
        assert dht.approach == "global"
        dht.add_snode()
        grow(dht, 2 * 8 + 3)  # a grouped DHT with vmin=pmin would have split
        assert dht.n_groups == 1
        dht.check_invariants()

    def test_default_config_is_paper_default(self):
        dht = LocalDHT()
        assert dht.config.pmin == 32 and dht.config.vmin == 32


class TestIdealGroupCount:
    @pytest.mark.parametrize("v,expected", [
        (0, 0), (1, 1), (8, 1), (64, 1), (65, 2), (128, 2), (129, 4),
        (256, 4), (512, 8), (1024, 16),
    ])
    def test_vmin_32(self, v, expected):
        assert ideal_group_count(v, 32) == expected

    def test_small_vmin(self):
        assert ideal_group_count(9, 4) == 2
        assert ideal_group_count(8, 4) == 1


class TestCreation:
    def test_first_vnode_creates_root_group(self, local_dht):
        grow(local_dht, 1)
        assert local_dht.n_groups == 1
        group = next(iter(local_dht.groups.values()))
        assert group.id == GroupId.root()
        assert group.total_partitions == local_dht.config.pmin
        assert float(group.quota) == pytest.approx(1.0)

    def test_single_group_until_vmax(self, local_dht):
        grow(local_dht, local_dht.config.vmax)
        assert local_dht.n_groups == 1
        # At V = Vmax the sole group is full and perfectly balanced.
        assert local_dht.sigma_qv() == pytest.approx(0.0, abs=1e-12)

    def test_group_split_on_overflow(self, local_dht):
        grow(local_dht, local_dht.config.vmax + 1)
        assert local_dht.n_groups == 2
        assert local_dht.group_splits == 1
        ids = set(local_dht.groups)
        assert ids == set(GroupId.root().split())
        sizes = sorted(g.n_vnodes for g in local_dht.groups.values())
        assert sizes == [local_dht.config.vmin, local_dht.config.vmin + 1]

    def test_invariants_hold_during_growth(self, local_dht):
        snode = next(iter(local_dht.snodes.values()))
        for _ in range(60):
            local_dht.create_vnode(snode)
            local_dht.check_invariants()

    def test_quotas_sum_to_one_and_groups_partition_vnodes(self, local_dht):
        grow(local_dht, 50)
        assert sum(local_dht.quotas().values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(local_dht.group_quotas().values()) == pytest.approx(1.0, abs=1e-12)
        member_count = sum(g.n_vnodes for g in local_dht.groups.values())
        assert member_count == local_dht.n_vnodes

    def test_group_sizes_respect_l2(self, local_dht):
        grow(local_dht, 100)
        vmin, vmax = local_dht.config.vmin, local_dht.config.vmax
        for group in local_dht.groups.values():
            assert vmin <= group.n_vnodes <= vmax

    def test_real_groups_close_to_ideal(self, local_dht):
        grow(local_dht, 64)
        assert local_dht.ideal_group_count() == ideal_group_count(64, 4)
        assert 0 < local_dht.n_groups <= 4 * local_dht.ideal_group_count()

    def test_sigma_qg_zero_with_single_group(self, local_dht):
        grow(local_dht, 4)
        assert local_dht.sigma_qg() == pytest.approx(0.0, abs=1e-12)

    def test_describe_contains_group_fields(self, local_dht):
        grow(local_dht, 10)
        info = local_dht.describe()
        assert info["approach"] == "local"
        assert {"groups", "ideal_groups", "sigma_qg", "group_splits"} <= set(info)


class TestKeyValueAndMembership:
    def test_data_survives_group_splits(self, local_dht):
        grow(local_dht, 3)
        items = {f"item-{i}": i for i in range(300)}
        for key, value in items.items():
            local_dht.put(key, value)
        grow(local_dht, 30)  # forces several group splits
        assert local_dht.n_groups >= 2
        assert all(local_dht.get(k) == v for k, v in items.items())
        local_dht.check_invariants()

    def test_lookup_reports_group(self, local_dht):
        grow(local_dht, 10)
        result = local_dht.lookup("some key")
        assert result.group in local_dht.groups

    def test_group_of_unknown_vnode(self, local_dht):
        grow(local_dht, 2)
        from repro.core import SnodeId, VnodeRef
        from repro.core.errors import UnknownVnodeError

        with pytest.raises(UnknownVnodeError):
            local_dht.group_of(VnodeRef(SnodeId(9), 9))


class TestRemoval:
    def test_remove_vnode_keeps_group_invariants(self, local_dht):
        refs = grow(local_dht, 30)
        items = {f"k{i}": i for i in range(100)}
        for key, value in items.items():
            local_dht.put(key, value)
        victim = refs[7]
        group_before = local_dht.group_of(victim).id
        local_dht.remove_vnode(victim)
        assert local_dht.n_vnodes == 29
        assert victim not in local_dht.vnodes
        assert group_before in local_dht.groups
        local_dht.check_invariants()
        assert all(local_dht.get(k) == v for k, v in items.items())

    def test_remove_last_vnode_of_group_with_other_groups_rejected(self, small_local_config):
        # Vmin = 1 makes single-vnode groups reachable.
        dht = LocalDHT(DHTConfig.for_local(pmin=4, vmin=1), rng=3)
        snode = dht.add_snode()
        for _ in range(6):
            dht.create_vnode(snode)
        assert dht.n_groups >= 2
        single = next((g for g in dht.groups.values() if g.n_vnodes == 1), None)
        if single is not None:
            ref = next(iter(single.vnodes))
            with pytest.raises(ReproError):
                dht.remove_vnode(ref)

    def test_remove_only_vnode_of_dht(self, local_dht):
        refs = grow(local_dht, 1)
        local_dht.remove_vnode(refs[0])
        assert local_dht.n_vnodes == 0
        assert local_dht.n_groups == 0
        local_dht.check_invariants()
