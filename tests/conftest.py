"""Shared fixtures for the test suite (small, fast configurations)."""

from __future__ import annotations

import pytest

from repro.core import DHTConfig, GlobalDHT, LocalDHT


@pytest.fixture
def small_global_config() -> DHTConfig:
    """A tiny ungrouped configuration (fast tests)."""
    return DHTConfig.for_global(pmin=4)


@pytest.fixture
def small_local_config() -> DHTConfig:
    """A tiny grouped configuration (fast tests)."""
    return DHTConfig.for_local(pmin=4, vmin=4)


@pytest.fixture
def global_dht(small_global_config) -> GlobalDHT:
    """An empty global-approach DHT with one snode."""
    dht = GlobalDHT(small_global_config, rng=0)
    dht.add_snode()
    return dht


@pytest.fixture
def local_dht(small_local_config) -> LocalDHT:
    """An empty local-approach DHT with one snode."""
    dht = LocalDHT(small_local_config, rng=0)
    dht.add_snode()
    return dht


def grow(dht, n: int, snode=None):
    """Create ``n`` vnodes on the DHT (helper used across test modules)."""
    snode = snode if snode is not None else next(iter(dht.snodes.values()))
    return [dht.create_vnode(snode) for _ in range(n)]


class MigrationOracle:
    """Brute-force reference for partition migration, independent of how the
    storage engine lays a store out: one dict ``key -> (index, value)`` of
    every stored row, filtered by range.

    ``watch(storage)`` wraps the storage's two handover entry points so each
    call's returned row count is checked against the filter as it happens;
    ``rows_in(ranges)`` is what a vnode owning ``[start, end)`` ranges must
    hold afterwards.
    """

    def __init__(self, rows):
        self.rows = dict(rows)
        self.rows_moved = 0
        self.partitions_moved = 0

    def rows_in(self, ranges):
        return {
            key: item
            for key, item in self.rows.items()
            if any(start <= item[0] < end for start, end in ranges)
        }

    def _expect(self, storage, partition, moved):
        want = len(self.rows_in([storage.hash_space.partition_range(partition)]))
        assert moved == want, f"{partition}: moved {moved} rows, oracle says {want}"
        self.rows_moved += want
        self.partitions_moved += 1

    def watch(self, storage):
        migrate_one, migrate_many = storage.migrate_partition, storage.migrate_partitions

        def migrate_partition(partition, source, target):
            moved = migrate_one(partition, source, target)
            if source != target:
                self._expect(storage, partition, moved)
            return moved

        def migrate_partitions(source, moves):
            before = storage.stats.items_moved
            total = migrate_many(source, moves)
            real = [p for p, target in moves if target != source]
            want = sum(
                len(self.rows_in([storage.hash_space.partition_range(p)])) for p in real
            )
            assert total == want == storage.stats.items_moved - before
            self.rows_moved += want
            self.partitions_moved += len(real)
            return total

        storage.migrate_partition = migrate_partition
        storage.migrate_partitions = migrate_partitions
        return self
