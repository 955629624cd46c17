"""Tests for the global approach (`GlobalDHT` in repro.core.local_model)."""

from __future__ import annotations

import pytest

from repro.core import ConfigError, DHTConfig, GlobalDHT, StorageError
from repro.core.errors import UnknownSnodeError
from tests.conftest import grow


class TestCreation:
    def test_first_vnode_owns_whole_space(self, global_dht):
        grow(global_dht, 1)
        assert global_dht.n_vnodes == 1
        assert global_dht.total_partitions == global_dht.config.pmin
        assert global_dht.sigma_qv() == 0.0
        assert abs(sum(global_dht.quotas().values()) - 1.0) < 1e-12

    def test_invariants_hold_during_growth(self, global_dht):
        snode = next(iter(global_dht.snodes.values()))
        for _ in range(40):
            global_dht.create_vnode(snode)
            global_dht.check_invariants()

    def test_perfect_balance_at_powers_of_two(self, global_dht):
        grow(global_dht, 16)
        assert global_dht.sigma_qv() == pytest.approx(0.0, abs=1e-12)
        counts = set(global_dht.partition_counts().values())
        assert counts == {global_dht.config.pmin}

    def test_sigma_qv_equals_sigma_pv(self, global_dht):
        """Section 2.4: with equal-size partitions the two metrics coincide."""
        grow(global_dht, 11)
        assert global_dht.sigma_qv() == pytest.approx(global_dht.sigma_pv(), rel=1e-9)

    def test_quotas_always_sum_to_one(self, global_dht):
        snode = next(iter(global_dht.snodes.values()))
        for _ in range(20):
            global_dht.create_vnode(snode)
            assert sum(global_dht.quotas().values()) == pytest.approx(1.0, abs=1e-12)

    def test_splitlevel_tracks_partition_size(self, global_dht):
        grow(global_dht, 9)  # forces several split-all cascades
        for vnode in global_dht.vnodes.values():
            assert vnode.splitlevels() == {global_dht.splitlevel}

    def test_vnodes_distributed_across_snodes(self, small_global_config):
        dht = GlobalDHT(small_global_config, rng=1)
        snodes = dht.add_snodes(3)
        for snode in snodes:
            for _ in range(4):
                dht.create_vnode(snode)
        assert dht.n_vnodes == 12
        assert all(s.n_vnodes == 4 for s in dht.snodes.values())
        assert dht.sigma_qn() < 0.2

    def test_unknown_snode_rejected(self, global_dht):
        with pytest.raises(UnknownSnodeError):
            global_dht.create_vnode(99)

    def test_default_config_is_global(self):
        dht = GlobalDHT()
        assert dht.config.vmin is None


class TestKeyValue:
    def test_put_get_delete_roundtrip(self, global_dht):
        grow(global_dht, 5)
        global_dht.put("answer", 42)
        assert global_dht.get("answer") == 42
        assert "answer" in global_dht
        assert global_dht.delete("answer") == 42
        assert "answer" not in global_dht

    def test_data_survives_rebalancing(self, global_dht):
        grow(global_dht, 3)
        items = {f"key-{i}": i for i in range(200)}
        for key, value in items.items():
            global_dht.put(key, value)
        grow(global_dht, 10)
        assert all(global_dht.get(k) == v for k, v in items.items())
        global_dht.check_invariants()
        assert global_dht.storage.total_items() == len(items)

    def test_lookup_is_consistent_with_storage(self, global_dht):
        grow(global_dht, 7)
        global_dht.put("k", "v")
        result = global_dht.lookup("k")
        assert global_dht.storage.contains(result.vnode, "k")


class TestRemoval:
    def test_remove_vnode_preserves_coverage_and_data(self, global_dht):
        refs = grow(global_dht, 9)
        items = {f"key-{i}": i for i in range(100)}
        for key, value in items.items():
            global_dht.put(key, value)
        global_dht.remove_vnode(refs[3])
        assert global_dht.n_vnodes == 8
        global_dht.check_invariants()  # non-strict after removal
        assert all(global_dht.get(k) == v for k, v in items.items())
        assert sum(global_dht.quotas().values()) == pytest.approx(1.0, abs=1e-12)

    def test_remove_last_vnode_requires_empty_storage(self, global_dht):
        refs = grow(global_dht, 1)
        global_dht.put("k", "v")
        with pytest.raises(StorageError):
            global_dht.remove_vnode(refs[0])
        global_dht.delete("k")
        global_dht.remove_vnode(refs[0])
        assert global_dht.n_vnodes == 0

    def test_remove_snode_removes_its_vnodes(self, small_global_config):
        dht = GlobalDHT(small_global_config, rng=0)
        a, b = dht.add_snodes(2)
        for snode in (a, b):
            for _ in range(4):
                dht.create_vnode(snode)
        dht.remove_snode(a)
        assert dht.n_snodes == 1
        assert dht.n_vnodes == 4
        dht.check_invariants()

    def test_set_enrollment_grows_and_shrinks(self, global_dht):
        snode = next(iter(global_dht.snodes.values()))
        created = global_dht.set_enrollment(snode, 6)
        assert len(created) == 6 and snode.n_vnodes == 6
        global_dht.set_enrollment(snode, 2)
        assert snode.n_vnodes == 2
        global_dht.check_invariants()
        with pytest.raises(ValueError):
            global_dht.set_enrollment(snode, -1)
