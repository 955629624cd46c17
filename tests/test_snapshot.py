"""Tests for DHT snapshot/restore (repro.core.snapshot)."""

from __future__ import annotations

import json

import pytest

from repro.core import DHTConfig, GlobalDHT, LocalDHT, ReproError, restore_dht, snapshot_dht
from tests.conftest import grow


def build_local(n_vnodes=20, items=100, seed=3) -> LocalDHT:
    dht = LocalDHT(DHTConfig.for_local(pmin=4, vmin=4), rng=seed)
    snodes = dht.add_snodes(3, cluster_nodes=["a", "b", "c"])
    for i in range(n_vnodes):
        dht.create_vnode(snodes[i % 3])
    for i in range(items):
        dht.put(f"key-{i}", {"payload": i})
    return dht


def build_global(n_vnodes=13) -> GlobalDHT:
    dht = GlobalDHT(DHTConfig.for_global(pmin=4), rng=0)
    snode = dht.add_snode()
    for _ in range(n_vnodes):
        dht.create_vnode(snode)
    return dht


def _raise_splitlevel(entry):
    entry["splitlevel"] += 1


def _orphan_a_vnode(snapshot):
    name = snapshot["vnodes"][0]["ref"]
    for group in snapshot["groups"]:
        if name in group["members"]:
            group["members"].remove(name)


def _list_a_vnode_twice(snapshot):
    snapshot["groups"][1]["members"].append(snapshot["groups"][0]["members"][0])


#: ``id -> (builder, corruption)`` of snapshots whose group structure lies.
CORRUPT_GROUP_STRUCTURE = {
    "global-splitlevel": (build_global, _raise_splitlevel),
    "group-splitlevel": (build_local, lambda snap: _raise_splitlevel(snap["groups"][0])),
    "vnode-in-no-group": (build_local, _orphan_a_vnode),
    "vnode-in-two-groups": (build_local, _list_a_vnode_twice),
    "duplicate-group-id": (
        build_local, lambda snap: snap["groups"][1].update(id=snap["groups"][0]["id"])
    ),
    "global-with-vmin": (build_global, lambda snap: snap["config"].update(vmin=4)),
    "local-without-vmin": (build_local, lambda snap: snap["config"].update(vmin=None)),
}


class TestRoundTrip:
    def test_local_round_trip_preserves_structure_and_data(self):
        original = build_local()
        snapshot = snapshot_dht(original)
        # The snapshot must be JSON-serializable.
        encoded = json.dumps(snapshot)
        restored = restore_dht(json.loads(encoded))

        assert isinstance(restored, LocalDHT)
        assert restored.n_snodes == original.n_snodes
        assert restored.n_vnodes == original.n_vnodes
        assert restored.n_groups == original.n_groups
        assert restored.quotas() == original.quotas()
        assert restored.group_quotas() == original.group_quotas()
        assert restored.sigma_qv() == pytest.approx(original.sigma_qv())
        assert restored.storage.total_items() == original.storage.total_items()
        for i in range(100):
            assert restored.get(f"key-{i}") == {"payload": i}
        restored.check_invariants()

    def test_global_round_trip(self, global_dht):
        grow(global_dht, 13)
        global_dht.put("x", 1)
        restored = restore_dht(snapshot_dht(global_dht))
        assert isinstance(restored, GlobalDHT)
        assert restored.splitlevel == global_dht.splitlevel
        assert restored.partition_counts() == global_dht.partition_counts()
        assert restored.get("x") == 1
        restored.check_invariants()

    def test_restored_dht_keeps_evolving_correctly(self):
        original = build_local(n_vnodes=12, items=50)
        restored = restore_dht(snapshot_dht(original), rng=7)
        snode = next(iter(restored.snodes.values()))
        for _ in range(20):
            restored.create_vnode(snode)
            restored.check_invariants()
        assert all(restored.get(f"key-{i}") == {"payload": i} for i in range(50))

    def test_vnode_name_counters_preserved(self):
        original = build_local(n_vnodes=9, items=0)
        restored = restore_dht(snapshot_dht(original))
        snode = next(iter(restored.snodes.values()))
        existing_names = {entry["ref"] for entry in snapshot_dht(original)["vnodes"]}
        new_ref = restored.create_vnode(snode)
        # The restored name counters prevent canonical-name collisions.
        assert new_ref.canonical_name not in existing_names
        assert new_ref in restored.vnodes
        assert len(restored.vnodes) == 10

    def test_without_data(self):
        original = build_local(items=40)
        snapshot = snapshot_dht(original, include_data=False)
        assert "items" not in snapshot
        restored = restore_dht(snapshot)
        assert restored.storage.total_items() == 0
        assert restored.n_vnodes == original.n_vnodes


class TestValidation:
    def test_unknown_version_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=5, items=0))
        snapshot["version"] = 99
        with pytest.raises(ReproError):
            restore_dht(snapshot)

    def test_unknown_approach_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=5, items=0))
        snapshot["approach"] = "hybrid"
        with pytest.raises(ReproError):
            restore_dht(snapshot)


class TestStructuralValidation:
    """Corrupt snapshots must be rejected with precise errors, not restored."""

    def test_overlapping_partitions_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=0))
        # Duplicate one vnode's first partition onto another vnode.
        snapshot["vnodes"][1]["partitions"].append(
            snapshot["vnodes"][0]["partitions"][0]
        )
        with pytest.raises(ReproError, match="overlap"):
            restore_dht(snapshot)

    def test_gapped_partitions_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=0))
        snapshot["vnodes"][0]["partitions"].pop()
        with pytest.raises(ReproError, match="cover"):
            restore_dht(snapshot)

    def test_vnode_with_unknown_snode_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=0))
        entry = snapshot["vnodes"][0]
        entry["ref"] = "99." + entry["ref"].split(".")[1]
        with pytest.raises(ReproError, match="snode"):
            restore_dht(snapshot)

    def test_duplicate_vnode_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=0))
        snapshot["vnodes"][1]["ref"] = snapshot["vnodes"][0]["ref"]
        with pytest.raises(ReproError, match="duplicate|overlap"):
            restore_dht(snapshot)

    @pytest.mark.parametrize("case", sorted(CORRUPT_GROUP_STRUCTURE))
    def test_corrupt_group_structure_rejected(self, case):
        """Caught at restore, not by a later invariant check or creation."""
        build, corrupt = CORRUPT_GROUP_STRUCTURE[case]
        snapshot = snapshot_dht(build())
        corrupt(snapshot)
        with pytest.raises(ReproError, match="snapshot corrupt"):
            restore_dht(snapshot)

    def test_group_with_unknown_member_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=0))
        snapshot["groups"][0]["members"][0] = "7.7"
        with pytest.raises(ReproError, match="group"):
            restore_dht(snapshot)

    def test_item_at_unknown_vnode_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=5))
        snapshot["items"][0]["vnode"] = "7.7"
        with pytest.raises(ReproError, match="not a vnode"):
            restore_dht(snapshot)

    def test_item_at_wrong_owner_rejected(self):
        original = build_local(n_vnodes=6, items=5)
        snapshot = snapshot_dht(original)
        item = snapshot["items"][0]
        owner = item["vnode"]
        other = next(
            entry["ref"] for entry in snapshot["vnodes"] if entry["ref"] != owner
        )
        item["vnode"] = other
        with pytest.raises(ReproError, match="owned by"):
            restore_dht(snapshot)

    def test_item_with_unroutable_index_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=5))
        snapshot["items"][0]["index"] = 2**128  # outside any bh<=128 space
        with pytest.raises(ReproError, match="unroutable"):
            restore_dht(snapshot)

    def test_item_with_non_integer_index_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=5))
        snapshot["items"][0]["index"] = str(snapshot["items"][0]["index"])
        with pytest.raises(ReproError, match="non-integer"):
            restore_dht(snapshot)

    def test_vnode_outrunning_name_counter_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=6, items=0))
        snapshot["snodes"][0]["next_vnode_index"] = 0  # but vnode 0.0 exists
        with pytest.raises(ReproError, match="name counter"):
            restore_dht(snapshot)


class TestChurnedRoundTrip:
    def test_round_trip_after_snode_removal_preserves_gapped_ids(self):
        # Regression: restore used to re-allocate snode ids sequentially and
        # "fix up" mismatches, which silently dropped a snode whenever the id
        # sequence had a gap (i.e. after any snode leave).
        dht = build_local(n_vnodes=12, items=60)
        victim = next(iter(dht.snodes.values()))
        dht.remove_snode(victim)
        assert victim.id not in dht.snodes
        restored = restore_dht(snapshot_dht(dht))
        assert set(restored.snodes) == set(dht.snodes)
        assert restored.n_vnodes == dht.n_vnodes
        assert restored.storage.total_items() == 60
        restored.check_invariants()
        # Future enrollments must not reuse a withdrawn id.
        new_snode = restored.add_snode()
        assert new_snode.id.value >= victim.id.value

    def test_next_snode_id_collision_rejected(self):
        snapshot = snapshot_dht(build_local(n_vnodes=5, items=0))
        snapshot["next_snode_id"] = 0
        with pytest.raises(ReproError, match="next_snode_id"):
            restore_dht(snapshot)


class TestMigrationStatsRoundTrip:
    def test_stats_survive_snapshot_restore(self):
        dht = build_local(n_vnodes=10, items=80)
        # Churn a little so the stats are non-trivial.
        victim = next(iter(dht.vnodes))
        dht.remove_vnode(victim)
        stats = dht.storage.stats
        assert stats.partitions_moved > 0
        restored = restore_dht(snapshot_dht(dht))
        assert restored.storage.stats.partitions_moved == stats.partitions_moved
        assert restored.storage.stats.items_moved == stats.items_moved
        assert restored.storage.stats.migrations == stats.migrations

    def test_old_snapshot_without_stats_defaults_to_zero(self):
        snapshot = snapshot_dht(build_local(n_vnodes=5, items=10))
        del snapshot["migration_stats"]
        restored = restore_dht(snapshot)
        assert restored.storage.stats.partitions_moved == 0
        assert restored.storage.stats.migrations == 0
