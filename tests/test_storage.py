"""Tests for repro.core.storage (vnode stores, migration, stats)."""

from __future__ import annotations

import pytest

from repro.core import DHTStorage, HashSpace, Partition, SnodeId, VnodeRef
from repro.core.errors import StorageError, UnknownVnodeError


def vref(v: int) -> VnodeRef:
    return VnodeRef(SnodeId(0), v)


@pytest.fixture
def storage() -> DHTStorage:
    store = DHTStorage(HashSpace(16))
    store.register_vnode(vref(0))
    store.register_vnode(vref(1))
    return store


class TestBasicOperations:
    def test_put_get_delete(self, storage):
        storage.put(vref(0), "k", index=100, value="v")
        assert storage.get(vref(0), "k") == "v"
        assert storage.contains(vref(0), "k")
        assert storage.delete(vref(0), "k") == "v"
        assert not storage.contains(vref(0), "k")

    def test_get_missing_key_raises_keyerror(self, storage):
        with pytest.raises(KeyError):
            storage.get(vref(0), "missing")
        with pytest.raises(KeyError):
            storage.delete(vref(0), "missing")

    def test_put_overwrites(self, storage):
        storage.put(vref(0), "k", 5, "v1")
        storage.put(vref(0), "k", 5, "v2")
        assert storage.get(vref(0), "k") == "v2"
        assert storage.item_count(vref(0)) == 1

    def test_index_out_of_range_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.put(vref(0), "k", index=2**16, value="v")

    def test_unknown_vnode_rejected(self, storage):
        with pytest.raises(UnknownVnodeError):
            storage.put(vref(9), "k", 0, "v")

    def test_item_counts(self, storage):
        storage.put(vref(0), "a", 1, 1)
        storage.put(vref(1), "b", 2, 2)
        assert storage.item_count(vref(0)) == 1
        assert storage.item_count() == 2
        assert storage.total_items() == 2

    def test_items_of(self, storage):
        storage.put(vref(0), "a", 1, "x")
        assert storage.items_of(vref(0)) == [("a", "x")]


class TestVnodeLifecycle:
    def test_double_register_rejected(self, storage):
        with pytest.raises(StorageError):
            storage.register_vnode(vref(0))

    def test_unregister_requires_empty_store(self, storage):
        storage.put(vref(0), "a", 1, 1)
        with pytest.raises(StorageError):
            storage.unregister_vnode(vref(0))
        storage.delete(vref(0), "a")
        storage.unregister_vnode(vref(0))
        assert not storage.has_vnode(vref(0))


class TestMigration:
    def test_migrate_partition_moves_only_items_in_range(self, storage):
        # Partition(8, 0) of a 16-bit space covers indices [0, 256).
        storage.put(vref(0), "inside", 10, "a")
        storage.put(vref(0), "outside", 1000, "b")
        moved = storage.migrate_partition(Partition(8, 0), vref(0), vref(1))
        assert moved == 1
        assert storage.get(vref(1), "inside") == "a"
        assert storage.get(vref(0), "outside") == "b"
        assert storage.stats.partitions_moved == 1
        assert storage.stats.items_moved == 1

    def test_migrate_all(self, storage):
        storage.put(vref(0), "a", 1, 1)
        storage.put(vref(0), "b", 2, 2)
        moved = storage.migrate_all(vref(0), vref(1))
        assert moved == 2
        assert storage.item_count(vref(0)) == 0
        assert storage.item_count(vref(1)) == 2

    def test_stats_reset(self, storage):
        storage.put(vref(0), "a", 1, 1)
        storage.migrate_partition(Partition(8, 0), vref(0), vref(1))
        storage.stats.reset()
        assert storage.stats.items_moved == 0
        assert storage.stats.partitions_moved == 0
        assert storage.stats.migrations == 0


class TestSelfMigration:
    """Regressions: self-migration used to destroy data / fake stats."""

    def test_migrate_all_to_self_is_a_noop(self, storage):
        # Regression: the items were re-inserted into the same dict and then
        # the dict was cleared, wiping the vnode's whole data set.
        storage.put(vref(0), "a", 1, "va")
        storage.put(vref(0), "b", 2, "vb")
        storage.put_batch(vref(0), ["c"], [3], ["vc"])
        moved = storage.migrate_all(vref(0), vref(0))
        assert moved == 0
        assert storage.item_count(vref(0)) == 3
        assert storage.get(vref(0), "a") == "va"
        assert storage.get(vref(0), "c") == "vc"
        assert storage.stats.partitions_moved == 0
        assert storage.stats.items_moved == 0
        assert storage.stats.migrations == 0

    def test_migrate_partition_to_self_records_no_stats(self, storage):
        # Regression: the move survived but recorded a phantom handover.
        storage.put(vref(0), "inside", 10, "a")
        moved = storage.migrate_partition(Partition(8, 0), vref(0), vref(0))
        assert moved == 0
        assert storage.get(vref(0), "inside") == "a"
        assert storage.stats.partitions_moved == 0
        assert storage.stats.items_moved == 0
        assert storage.stats.migrations == 0

    def test_self_migration_still_validates_the_vnode(self, storage):
        with pytest.raises(UnknownVnodeError):
            storage.migrate_all(vref(9), vref(9))
        with pytest.raises(UnknownVnodeError):
            storage.migrate_partition(Partition(8, 0), vref(9), vref(9))
