"""Tests for the data-replication subsystem (repro.core.replication)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConfigError,
    DHTConfig,
    DHTStorage,
    GlobalDHT,
    HashSpace,
    LocalDHT,
    ReplicaPlacer,
    ReplicationError,
    restore_dht,
    snapshot_dht,
)
from repro.core.errors import ReproError
from repro.core.ids import SnodeId, VnodeRef
from repro.core.replication import sync_replicas, verify_placement
from repro.workloads.keys import id_keys, sequential_keys
from tests.conftest import key_at


def vref(s: int, v: int = 0) -> VnodeRef:
    return VnodeRef(SnodeId(s), v)


def build_replicated(
    cls=LocalDHT, factor: int = 2, snodes: int = 5, vnodes_each: int = 3, seed: int = 0
):
    if cls is LocalDHT:
        config = DHTConfig.for_local(pmin=4, vmin=4, replication_factor=factor)
    else:
        config = DHTConfig.for_global(pmin=4, replication_factor=factor)
    dht = cls(config, rng=seed)
    for snode in dht.add_snodes(snodes):
        dht.set_enrollment(snode, vnodes_each)
    return dht


class TestConfig:
    def test_default_factor_is_one(self):
        assert DHTConfig().replication_factor == 1
        assert DHTConfig().replica_ranks == 0

    def test_constructors_accept_factor(self):
        assert DHTConfig.for_local(replication_factor=3).replica_ranks == 2
        assert DHTConfig.for_global(replication_factor=2).replication_factor == 2

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
    def test_invalid_factor_rejected(self, bad):
        with pytest.raises(ConfigError):
            DHTConfig(replication_factor=bad)  # type: ignore[arg-type]


class TestReplicaPlacer:
    def _entries(self, owners):
        """A fake sorted table: one partition per owner (level log2(n))."""
        from repro.core.hashspace import iter_level_partitions

        n = len(owners)
        level = n.bit_length() - 1
        assert 1 << level == n, "test owners must be a power of two"
        return list(zip(iter_level_partitions(level), owners))

    def test_successor_order_and_distinct_snodes(self):
        owners = [vref(0), vref(1), vref(2), vref(3)]
        placement = ReplicaPlacer(3).place(self._entries(owners))
        # Replicas of position p are the next two distinct-snode owners.
        assert placement.replicas_at(0) == (vref(1), vref(2))
        assert placement.replicas_at(3) == (vref(0), vref(1))
        verify_placement(placement, expected_ranks=2)

    def test_skips_co_located_successors(self):
        # Positions 1 and 2 belong to the same snode: rank walks past it.
        owners = [vref(0), vref(1), vref(1, 1), vref(2)]
        placement = ReplicaPlacer(2).place(self._entries(owners))
        assert placement.replicas_at(0) == (vref(1),)
        # successor of position 1 is another vnode of snode 1 -> skipped.
        assert placement.replicas_at(1) == (vref(2),)
        verify_placement(placement, expected_ranks=1)

    def test_truncates_when_snodes_scarce(self):
        owners = [vref(0), vref(1), vref(0, 1), vref(1, 1)]
        placement = ReplicaPlacer(4).place(self._entries(owners))
        # Only two snodes exist: every partition gets exactly one replica.
        assert all(len(row) == 1 for row in placement.replicas)

    def test_factor_one_places_nothing(self):
        placement = ReplicaPlacer(1).place(self._entries([vref(0), vref(1)]))
        assert all(row == () for row in placement.replicas)
        assert placement.positions_of == {}

    def test_positions_of_inverts_replicas(self):
        owners = [vref(0), vref(1), vref(2), vref(3)]
        placement = ReplicaPlacer(2).place(self._entries(owners))
        for ref, positions in placement.positions_of.items():
            for pos in positions:
                assert ref in placement.replicas_at(pos)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            ReplicaPlacer(0)


class TestVnodeStoreRangePrimitives:
    """count_buckets / copy_buckets / drop_outside / wipe."""

    def _loaded_storage(self):
        storage = DHTStorage(HashSpace(16))
        storage.register_vnode(vref(0))
        # Mixed tiers: evens via put (hash tier), odds via put_batch (segment).
        size = storage.hash_space.size
        for i in range(0, 32, 2):
            storage.put(vref(0), key_at((i * size) // 32), (i * size) // 32, i)
        odds = list(range(1, 32, 2))
        indexes = [(i * size) // 32 for i in odds]
        storage.put_batch(vref(0), [key_at(index) for index in indexes], indexes, odds)
        return storage

    def _halves(self, storage):
        size = storage.hash_space.size
        return storage.range_arrays([(0, size // 2 - 1), (size // 2, size - 1)])

    def test_count_buckets_counts_both_tiers(self):
        storage = self._loaded_storage()
        starts, lasts = self._halves(storage)
        counts = storage._store(vref(0)).count_buckets(starts, lasts)
        assert counts.tolist() == [16, 16]
        # Counting must not merge the pending segment.
        assert storage._store(vref(0)).pending_item_count() == 16

    def test_copy_buckets_is_non_destructive(self):
        storage = self._loaded_storage()
        store = storage._store(vref(0))
        starts, lasts = self._halves(storage)
        parts = store.copy_buckets(starts, lasts)
        assert store.fast_len() == 32  # nothing removed
        copied = sum(len(p) + sum(len(s[0]) for s in segs) for p, segs in parts)
        assert copied == 32

    def test_copied_parts_adopt_identically(self):
        storage = self._loaded_storage()
        storage.register_vnode(vref(1))
        store = storage._store(vref(0))
        starts, lasts = self._halves(storage)
        for pairs, segments in store.copy_buckets(starts, lasts):
            storage._store(vref(1)).adopt_parts(pairs, segments)
        assert dict(storage._store(vref(1)).items()) == dict(store.items())

    def test_drop_outside_keeps_only_given_ranges(self):
        storage = self._loaded_storage()
        store = storage._store(vref(0))
        size = storage.hash_space.size
        starts, lasts = storage.range_arrays([(0, size // 2 - 1)])
        dropped = store.drop_outside(starts, lasts)
        assert dropped == 16
        assert store.fast_len() == 16
        assert all(item[0] < size // 2 for _, item in store.items())

    def test_wipe_destroys_everything(self):
        storage = self._loaded_storage()
        assert storage._store(vref(0)).wipe() == 32
        assert storage._store(vref(0)).fast_len() == 0


class TestReplicatedWrites:
    @pytest.mark.parametrize("cls", [LocalDHT, GlobalDHT])
    def test_bulk_load_fans_out(self, cls):
        dht = build_replicated(cls, factor=2)
        keys = id_keys(2000, rng=1)
        dht.bulk_load(keys, np.arange(2000))
        assert dht.storage.item_count() == 2000
        assert dht.storage.fast_item_count() == 4000
        dht.verify_replication(deep=True)

    def test_scalar_put_delete_mirror_to_replicas(self):
        dht = build_replicated(factor=3)
        result = dht.put("k", "v")
        replicas = dht.replicas_of(result.partition)
        assert len(replicas) == 2
        for ref in replicas:
            assert dht.storage.get_replica(ref, "k") == "v"
        dht.delete("k")
        for ref in replicas:
            assert not dht.storage.contains_replica(ref, "k")
        dht.verify_replication(deep=True)

    def test_factor_one_writes_no_replicas(self):
        dht = build_replicated(factor=1)
        dht.bulk_load(sequential_keys(100))
        assert dht.storage.replica_item_count() == 0
        assert dht.storage.fast_item_count() == dht.storage.item_count() == 100

    def test_duplicate_keys_last_write_wins_on_replicas_too(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(["a", "b", "a"], [1, 2, 3])
        assert dht.get("a") == 3
        result = dht.lookup("a")
        for ref in dht.replicas_of(result.partition):
            assert dht.storage.get_replica(ref, "a") == 3
        # The point read above merged the primary's segments (collapsing the
        # duplicate) while the replica segments stayed pending: the physical
        # counts now differ benignly and verification must see through it.
        dht.verify_replication(deep=True)

    def test_replica_items_of_lists_replica_pairs(self):
        dht = build_replicated(factor=2)
        dht.put("k", "v")
        ref = dht.replicas_of(dht.lookup("k").partition)[0]
        assert dht.storage.replica_items_of(ref) == [("k", "v")]


class TestFallbackReads:
    def test_get_falls_back_to_replica_after_primary_loss(self):
        dht = build_replicated(factor=2)
        dht.put("precious", 42)
        owner = dht.lookup("precious").vnode
        dht.storage._store(owner).wipe()
        assert dht.get("precious") == 42
        assert dht.contains("precious")

    def test_get_many_falls_back_per_key(self):
        dht = build_replicated(factor=2)
        keys = sequential_keys(200)
        dht.bulk_load(keys, list(range(200)))
        victim = next(iter(dht.vnodes))
        dht.storage._store(victim).wipe()
        assert dht.get_many(keys) == list(range(200))

    def test_get_many_without_replicas_fails_fast(self):
        dht = build_replicated(factor=1)
        dht.bulk_load(sequential_keys(50), list(range(50)))
        with pytest.raises(KeyError):
            dht.get_many(sequential_keys(50) + ["absent"])

    def test_absent_key_still_raises(self):
        dht = build_replicated(factor=2)
        with pytest.raises(KeyError):
            dht.get("never-stored")

    def test_delete_falls_back_to_replica_and_prevents_resurrection(self):
        dht = build_replicated(factor=2)
        dht.put("doomed", 7)
        owner = dht.lookup("doomed").vnode
        dht.storage._store(owner).wipe()
        assert dht.contains("doomed")
        assert dht.delete("doomed") == 7  # served by the replica copy
        assert not dht.contains("doomed")
        dht.recover()  # recovery must not resurrect the deleted key
        assert not dht.contains("doomed")
        with pytest.raises(KeyError):
            dht.delete("doomed")

    def test_recover_refills_wiped_primary(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(sequential_keys(500), list(range(500)))
        victim = next(iter(dht.vnodes))
        dht.storage._store(victim).wipe()
        recovery, _ = dht.recover()
        assert recovery.rows_restored > 0
        assert dht.storage.item_count() == 500
        dht.verify_replication(deep=True)


class TestSyncOnTopologyChanges:
    def test_replicas_follow_joins_and_leaves(self):
        dht = build_replicated(factor=2, snodes=4)
        dht.bulk_load(id_keys(3000, rng=2))
        for _ in range(2):
            snode = dht.add_snode()
            dht.set_enrollment(snode, 3)
            dht.verify_replication(deep=True)
        dht.remove_snode(SnodeId(0))
        dht.verify_replication(deep=True)
        assert dht.storage.item_count() == 3000
        assert dht.storage.fast_item_count() == 6000

    def test_sync_replicas_is_idempotent(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(id_keys(1000, rng=3))
        report = dht.sync_replicas()
        assert not report.changed

    def test_enrollment_change_keeps_consistency(self):
        dht = build_replicated(factor=3, snodes=5)
        dht.bulk_load(id_keys(2000, rng=4))
        dht.set_enrollment(SnodeId(1), 6)
        dht.verify_replication(deep=True)
        dht.set_enrollment(SnodeId(1), 1)
        dht.verify_replication(deep=True)
        assert dht.storage.fast_item_count() == 3 * 2000


class TestCrashRecovery:
    @pytest.mark.parametrize("cls", [LocalDHT, GlobalDHT])
    def test_single_crash_loses_nothing(self, cls):
        dht = build_replicated(cls, factor=2)
        dht.bulk_load(id_keys(4000, rng=5), np.arange(4000))
        victim = next(iter(dht.snodes))
        report = dht.crash_snode(victim)
        assert report.rows_wiped > 0
        assert dht.storage.item_count() == 4000
        assert dht.storage.fast_item_count() == 8000
        dht.verify_replication(deep=True)
        dht.check_invariants()

    def test_crash_without_replication_loses_data(self):
        dht = build_replicated(factor=1)
        dht.bulk_load(id_keys(4000, rng=6))
        victim = next(iter(dht.snodes))
        held = sum(dht.storage.item_count(ref) for ref in dht.snodes[victim].vnodes)
        assert held > 0
        report = dht.crash_snode(victim)
        assert report.rows_wiped == held
        assert dht.storage.item_count() == 4000 - held

    def test_crash_values_survive(self):
        dht = build_replicated(factor=2)
        keys = sequential_keys(1000)
        dht.bulk_load(keys, [f"value-{i}" for i in range(1000)])
        dht.crash_snode(next(iter(dht.snodes)))
        assert dht.get_many(keys) == [f"value-{i}" for i in range(1000)]

    def test_consecutive_crashes_recover_each_time(self):
        dht = build_replicated(factor=2, snodes=6)
        dht.bulk_load(id_keys(3000, rng=7))
        for _ in range(3):
            dht.crash_snode(next(iter(dht.snodes)))
            assert dht.storage.item_count() == 3000
            dht.verify_replication(deep=True)

    def test_auto_sync_never_destroys_last_surviving_copies(self):
        # Primary stores wiped in place (no topology change yet): the
        # auto-sync passes triggered by subsequent churn must restore the
        # wiped primaries from the surviving replica rows, never drop or
        # overwrite them from the empty primaries.
        dht = build_replicated(factor=2, snodes=6)
        dht.bulk_load(id_keys(5000, rng=20))
        victim = next(iter(dht.snodes.values()))
        for ref in victim.vnodes:
            dht.storage._store(ref).wipe()
        dht.set_enrollment(dht.add_snode(), 3)  # triggers an auto-sync
        dht.remove_snode(next(iter(dht.snodes)))  # and another
        dht.recover()
        assert dht.storage.item_count() == 5000
        dht.verify_replication(deep=True)

    def test_crash_stats_recorded(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(id_keys(1000, rng=8))
        dht.crash_snode(next(iter(dht.snodes)))
        stats = dht.storage.replication
        assert stats.crashes == 1
        assert stats.rows_wiped > 0
        assert stats.rows_restored > 0

    def test_crash_last_vnode_of_group_recovers_in_place(self):
        # Local approach: a group's last vnode cannot leave while other
        # groups exist; the crash wipes it, keeps it enrolled and recovery
        # refills it from replicas.
        config = DHTConfig.for_local(pmin=4, vmin=2, replication_factor=2)
        dht = LocalDHT(config, rng=0)
        snodes = dht.add_snodes(4)
        for snode in snodes:
            dht.set_enrollment(snode, 2)
        dht.bulk_load(id_keys(2000, rng=9))
        # Find a snode hosting a group's only vnode, if any; otherwise any
        # crash still exercises the normal path.
        report = dht.crash_snode(snodes[0].id)
        if report.vnodes_stuck:
            assert not report.snode_removed
        assert dht.storage.item_count() == 2000
        dht.verify_replication(deep=True)


class TestVerifyReplication:
    def test_detects_missing_replica_rows(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(id_keys(500, rng=10))
        loaded = [ref for ref in dht.vnodes if dht.storage.fast_replica_count(ref)]
        dht.storage._replica(loaded[0]).wipe()
        with pytest.raises(ReplicationError):
            dht.verify_replication()

    def test_detects_stray_replica_rows(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(id_keys(500, rng=11))
        # Forge a replica row the placement does not assign.
        placement = dht.placement.placement()
        partition = placement.partitions[0]
        start, _ = dht.hash_space.partition_range(partition)
        stranger = [
            ref for ref in dht.vnodes
            if ref != placement.primaries[0] and ref not in placement.replicas_at(0)
        ][0]
        dht.storage._replica(stranger).put_row("forged", start, "x")
        with pytest.raises(ReplicationError):
            dht.verify_replication()

    def test_deep_detects_value_divergence(self):
        dht = build_replicated(factor=2)
        dht.put("k", "good")
        ref = dht.replicas_of(dht.lookup("k").partition)[0]
        index = dht.lookup("k").index
        dht.storage._replica(ref).put_row("k", index, "evil")
        dht.verify_replication()  # counts still agree
        with pytest.raises(ReplicationError):
            dht.verify_replication(deep=True)

    def test_clean_dht_passes(self):
        dht = build_replicated(factor=2)
        dht.verify_replication(deep=True)  # empty
        dht.bulk_load(id_keys(100, rng=12))
        dht.verify_replication(deep=True)

    def test_detects_primary_rows_outside_owned_partitions(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(id_keys(200, rng=15))
        # Forge a primary row at a vnode that does not own its index.
        placement = dht.placement.placement()
        start, _ = dht.hash_space.partition_range(placement.partitions[0])
        stranger = [r for r in dht.vnodes if r != placement.primaries[0]][0]
        dht.storage._store(stranger)._items["forged"] = (start, "x")
        with pytest.raises(ReplicationError):
            dht.verify_replication()

    def test_count_mismatch_from_one_sided_merge_is_benign(self):
        # Duplicate keys in one bulk batch leave duplicate segment rows in
        # primary and replicas alike; merging only the primary (point read)
        # desyncs the physical counts while contents stay identical.
        dht = build_replicated(factor=2)
        dht.bulk_load(["dup", "other", "dup"], [1, 2, 3])
        assert dht.get("dup") == 3  # merges the primary store only
        dht.verify_replication()
        dht.verify_replication(deep=True)


class TestSnapshotRoundTrip:
    def test_replicas_round_trip(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(sequential_keys(300), list(range(300)))
        restored = restore_dht(snapshot_dht(dht))
        assert restored.config.replication_factor == 2
        assert restored.storage.item_count() == 300
        assert restored.storage.replica_item_count() == dht.storage.replica_item_count()
        restored.verify_replication(deep=True)
        assert restored.storage.replication.as_dict() == dht.storage.replication.as_dict()

    def test_replica_items_without_factor_rejected(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(sequential_keys(50))
        snapshot = snapshot_dht(dht)
        snapshot["config"]["replication_factor"] = 1
        with pytest.raises(ReproError):
            restore_dht(snapshot)

    def test_misplaced_replica_item_rejected(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(sequential_keys(50))
        snapshot = snapshot_dht(dht)
        item = snapshot["replica_items"][0]
        placement = dht.placement.placement()
        # Re-home the row on a vnode that does not replicate its partition.
        pos = int(
            dht.placement.router().locate_batch(
                np.array([item["index"]], dtype=np.uint64)
            )[0]
        )
        illegal = [
            ref.canonical_name
            for ref in dht.vnodes
            if ref not in placement.replicas_at(pos)
        ][0]
        item["vnode"] = illegal
        with pytest.raises(ReproError):
            restore_dht(snapshot)

    def test_pre_replication_snapshot_still_restores(self):
        dht = build_replicated(factor=1)
        dht.bulk_load(sequential_keys(40))
        snapshot = snapshot_dht(dht)
        del snapshot["config"]["replication_factor"]
        del snapshot["replica_items"]
        del snapshot["replication_stats"]
        restored = restore_dht(snapshot)
        assert restored.config.replication_factor == 1
        assert restored.storage.item_count() == 40


class TestDescribeAndCounts:
    def test_describe_reports_replication(self):
        dht = build_replicated(factor=2)
        dht.bulk_load(id_keys(200, rng=13))
        info = dht.describe()
        assert info["replication_factor"] == 2
        assert info["replica_items"] == 200
        assert info["items"] == 200

    def test_fast_counts_split_tiers(self):
        dht = build_replicated(factor=3)
        dht.bulk_load(id_keys(600, rng=14))
        assert dht.storage.fast_primary_count() == 600
        assert dht.storage.fast_replica_count() == 1200
        assert dht.storage.fast_item_count() == 1800


class TestCLIReplicationFlags:
    def test_churn_bench_with_replication_and_crashes(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "churn.json"
        code = main([
            "churn-bench", "--keys", "3000", "--events", "12",
            "--replication", "2", "--crash-rate", "0.3",
            "--snodes", "4", "--output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replication factor" in out
        assert "items lost to crashes" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["replication_factor"] == 2
        assert payload["items_lost"] == 0

    def test_invalid_crash_rate_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main(["churn-bench", "--crash-rate", "1.5"]) == 2
        assert "crash-rate" in capsys.readouterr().err
