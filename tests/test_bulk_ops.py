"""Scalar/batch equivalence tests for the vectorized bulk engine.

The batch API (``hash_keys`` / ``locate_batch`` / ``bulk_load`` /
``lookup_many`` / ``get_many``) is a pure fast path: for any input it must
produce exactly what the per-key API produces.  These tests pin that
contract — including the empty batch, duplicate keys, interleaved
point/bulk writes, and the post-rebalance state where bulk-loaded items
have migrated between vnodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHTConfig, GlobalDHT, HashSpace, LocalDHT
from repro.core.errors import EmptyDHTError, KeyLookupError, StorageError

from tests.conftest import grow


def small_dht(cls=LocalDHT, n_snodes=3, n_vnodes=9, rng=0):
    cfg = (
        DHTConfig.for_local(pmin=4, vmin=4)
        if cls is LocalDHT
        else DHTConfig.for_global(pmin=4)
    )
    dht = cls(cfg, rng=rng)
    snodes = dht.add_snodes(n_snodes)
    for i in range(n_vnodes):
        dht.create_vnode(snodes[i % n_snodes])
    return dht


class TestHashKeys:
    @pytest.mark.parametrize("bh", [8, 32, 64])
    def test_batch_matches_scalar_for_every_key_type(self, bh):
        hs = HashSpace(bh)
        keys = ["alpha", b"beta", 0, 1, -1, 2**63 - 1, -(2**63), 2**80, "", b""]
        batch = hs.hash_keys(keys)
        assert [int(h) for h in batch] == [hs.hash_key(k) for k in keys]

    def test_numpy_int_array_matches_scalar(self):
        hs = HashSpace(32)
        arr = np.array([0, 1, 5, -7, 2**62], dtype=np.int64)
        batch = hs.hash_keys(arr)
        assert batch.dtype == np.uint64
        assert [int(h) for h in batch] == [hs.hash_key(int(v)) for v in arr.tolist()]

    def test_uint64_array_matches_scalar(self):
        hs = HashSpace(32)
        arr = np.array([0, 2**64 - 1, 2**63], dtype=np.uint64)
        assert [int(h) for h in hs.hash_keys(arr)] == [hs.hash_key(int(v)) for v in arr.tolist()]

    @pytest.mark.parametrize(
        "dtype, values",
        [
            (np.int64, [0, 5, -1, -(2**63), 2**63 - 1]),
            (np.uint64, [0, 5, 2**63, 2**64 - 1]),
        ],
    )
    def test_numpy_integer_scalar_hashes_like_int(self, dtype, values):
        hs = HashSpace(32)
        for k in values:
            batch = hs.hash_keys(np.array([k], dtype=dtype))
            assert hs.hash_key(dtype(k)) == hs.hash_key(k) == int(batch[0])

    def test_get_accepts_numpy_integer_keys(self):
        dht = small_dht()
        dht.bulk_load(np.arange(10), [f"v{i}" for i in range(10)])
        assert dht.get(np.int64(5)) == "v5"
        assert dht.get_many([np.int64(5)]) == ["v5"]

    def test_str_fast_path_matches_scalar(self):
        hs = HashSpace(40)
        keys = [f"key:{i}" for i in range(257)]
        assert [int(h) for h in hs.hash_keys(keys)] == [hs.hash_key(k) for k in keys]

    def test_mixed_batch_matches_scalar(self):
        hs = HashSpace(32)
        keys = ["a", 1, b"c", "d", 2**100]
        assert [int(h) for h in hs.hash_keys(keys)] == [hs.hash_key(k) for k in keys]

    def test_wide_hash_space_falls_back_to_object_array(self):
        hs = HashSpace(96)
        keys = ["x", 42, b"y"]
        batch = hs.hash_keys(keys)
        assert batch.dtype == object
        assert list(batch) == [hs.hash_key(k) for k in keys]

    def test_empty_batch(self):
        assert len(HashSpace(32).hash_keys([])) == 0

    def test_bool_keys_rejected(self):
        hs = HashSpace(32)
        with pytest.raises(TypeError):
            hs.hash_keys(np.array([True, False]))


class TestLocateBatch:
    def test_matches_scalar_locate(self):
        dht = small_dht()
        router = dht.placement.router()
        indices = dht.hash_space.hash_keys([f"k{i}" for i in range(200)])
        positions = router.locate_batch(indices)
        for idx, pos in zip(indices.tolist(), positions.tolist()):
            assert router.entry_at(pos) == router.locate(idx)

    def test_empty_router_raises(self):
        dht = LocalDHT(DHTConfig.for_local(pmin=4, vmin=4), rng=0)
        with pytest.raises(EmptyDHTError):
            dht.placement.router().locate_batch(np.array([0], dtype=np.uint64))

    def test_out_of_range_rejected(self):
        dht = small_dht()
        router = dht.placement.router()
        with pytest.raises(KeyLookupError):
            router.locate_batch(np.array([dht.hash_space.size], dtype=np.int64))
        with pytest.raises(KeyLookupError):
            router.locate_batch(np.array([-1], dtype=np.int64))


@pytest.mark.parametrize("cls", [LocalDHT, GlobalDHT])
class TestLookupMany:
    def test_every_result_matches_scalar_lookup(self, cls):
        dht = small_dht(cls)
        keys = [f"key:{i}" for i in range(300)]
        batch = dht.lookup_many(keys)
        assert len(batch) == len(keys)
        for i, key in enumerate(keys):
            assert batch[i] == dht.lookup(key)

    def test_iteration_matches_indexing(self, cls):
        dht = small_dht(cls)
        keys = [f"key:{i}" for i in range(50)]
        batch = dht.lookup_many(keys)
        assert list(batch) == [batch[i] for i in range(len(keys))]

    def test_int_keys_match_scalar(self, cls):
        dht = small_dht(cls)
        keys = np.arange(-100, 100, dtype=np.int64)
        batch = dht.lookup_many(keys)
        for i in (0, 57, 199):
            assert batch[i] == dht.lookup(int(keys[i]))

    def test_empty_batch_ok_even_on_empty_dht(self, cls):
        cfg = (
            DHTConfig.for_local(pmin=4, vmin=4)
            if cls is LocalDHT
            else DHTConfig.for_global(pmin=4)
        )
        dht = cls(cfg, rng=0)
        assert len(dht.lookup_many([])) == 0
        with pytest.raises(EmptyDHTError):
            dht.lookup_many(["something"])

    def test_counts_by_vnode_sums_to_batch_size(self, cls):
        dht = small_dht(cls)
        keys = [f"key:{i}" for i in range(128)]
        counts = dht.lookup_many(keys).counts_by_vnode()
        assert sum(counts.values()) == len(keys)
        scalar_counts = {}
        for key in keys:
            ref = dht.lookup(key).vnode
            scalar_counts[ref] = scalar_counts.get(ref, 0) + 1
        assert counts == scalar_counts


@pytest.mark.parametrize("cls", [LocalDHT, GlobalDHT])
class TestBulkLoad:
    def _twins(self, cls):
        return small_dht(cls), small_dht(cls)

    def test_same_per_vnode_counts_as_scalar_puts(self, cls):
        bulk, scalar = self._twins(cls)
        keys = [f"key:{i}" for i in range(500)]
        values = [f"val:{i}" for i in range(500)]
        assert bulk.bulk_load(keys, values) == 500
        for key, value in zip(keys, values):
            scalar.put(key, value)
        assert {r: bulk.storage.item_count(r) for r in bulk.vnodes} == {
            r: scalar.storage.item_count(r) for r in scalar.vnodes
        }
        assert bulk.get_many(keys) == values
        bulk.verify_storage_consistency()

    def test_values_default_to_none(self, cls):
        dht = small_dht(cls)
        keys = np.arange(100, dtype=np.uint64)
        assert dht.bulk_load(keys) == 100
        assert dht.get_many(keys) == [None] * 100

    def test_empty_batch(self, cls):
        dht = small_dht(cls)
        assert dht.bulk_load([], []) == 0
        assert dht.get_many([]) == []
        assert dht.storage.total_items() == 0

    def test_mismatched_lengths_rejected(self, cls):
        dht = small_dht(cls)
        with pytest.raises(ValueError):
            dht.bulk_load(["a", "b"], ["only-one"])

    def test_duplicate_keys_last_write_wins(self, cls):
        dht = small_dht(cls)
        dht.bulk_load(["dup", "other", "dup"], [1, 2, 3])
        assert dht.get("dup") == 3
        assert dht.storage.total_items() == 2

    def test_sequence_typed_values_survive_untouched(self, cls):
        """Equal-length tuple/list/array values must come back as the same
        objects, not be flattened into a 2-D array and returned as lists."""
        dht = small_dht(cls)
        values = [(1, 2), (3, 4), [5, 6], np.array([7, 8])]
        keys = [f"k{i}" for i in range(len(values))]
        dht.bulk_load(keys, values)
        got = dht.get_many(keys)
        assert got[0] == (1, 2) and isinstance(got[0], tuple)
        assert got[2] == [5, 6] and isinstance(got[2], list)
        assert got[3] is values[3]

    def test_tuple_keys_route_like_scalar(self, cls):
        dht = small_dht(cls)
        keys = [("a", 1), ("a", 2), ("b", 1)]
        with pytest.raises(TypeError):
            dht.bulk_load(keys, [1, 2, 3])  # tuples are not hashable keys here
        # (hash_key only accepts str/bytes/int; the batch path must reject
        # them identically rather than mangling them into 2-D arrays)
        with pytest.raises(TypeError):
            dht.lookup(keys[0])

    def test_put_batch_copies_caller_arrays(self, cls):
        dht = small_dht(cls)
        ref = next(iter(dht.vnodes))
        karr = np.asarray(["a1", "a2"], dtype=object)
        varr = np.asarray(["v1", "v2"], dtype=object)
        idx = np.array([1, 2], dtype=np.uint64)
        dht.storage.put_batch(ref, karr, idx, varr)
        varr[0] = "MUTATED"
        idx[0] = 99
        assert dht.storage.get(ref, "a1") == "v1"
        assert dht.storage._store(ref).get("a1").index == 1

    def test_interleaved_point_and_bulk_writes(self, cls):
        dht = small_dht(cls)
        dht.put("k", "point-1")
        dht.bulk_load(["k"], ["bulk-1"])
        assert dht.get("k") == "bulk-1"
        dht.put("k", "point-2")
        assert dht.get("k") == "point-2"

    def test_post_rebalance_equivalence(self, cls):
        bulk, scalar = self._twins(cls)
        keys = [f"key:{i}" for i in range(400)]
        values = [f"val:{i}" for i in range(400)]
        bulk.bulk_load(keys, values)
        for key, value in zip(keys, values):
            scalar.put(key, value)
        # Rebalance both DHTs identically (same seed => same victim groups).
        for dht in (bulk, scalar):
            newcomer = dht.add_snode()
            for _ in range(3):
                dht.create_vnode(newcomer)
            dht.check_invariants()
        assert bulk.storage.stats.items_moved == scalar.storage.stats.items_moved
        assert {r: bulk.storage.item_count(r) for r in bulk.vnodes} == {
            r: scalar.storage.item_count(r) for r in scalar.vnodes
        }
        # Batch and scalar routing still agree after the moves, and every
        # item is reachable through both APIs.
        batch = bulk.lookup_many(keys)
        for i in (0, 123, 399):
            assert batch[i] == bulk.lookup(keys[i]) == scalar.lookup(keys[i])
        assert bulk.get_many(keys) == values
        assert [scalar.get(k) for k in keys] == values
        bulk.verify_storage_consistency()

    def test_bulk_load_then_rebalance_with_pending_segments(self, cls):
        """Migration must merge pending bulk segments before moving items."""
        dht = small_dht(cls)
        keys = [f"key:{i}" for i in range(300)]
        dht.bulk_load(keys, list(range(300)))
        newcomer = dht.add_snode()
        grow(dht, 2, newcomer)
        dht.verify_storage_consistency()
        assert dht.get_many(keys) == list(range(300))


class TestStorageBatchPaths:
    def test_put_batch_validates_columns(self, local_dht):
        grow(local_dht, 4)
        ref = next(iter(local_dht.vnodes))
        with pytest.raises(StorageError):
            local_dht.storage.put_batch(ref, ["a"], [1, 2], ["v"])

    def test_put_batch_rejects_out_of_space_index(self, local_dht):
        grow(local_dht, 4)
        ref = next(iter(local_dht.vnodes))
        with pytest.raises(StorageError):
            local_dht.storage.put_batch(ref, ["a"], [local_dht.hash_space.size], ["v"])

    def test_get_batch_raises_for_missing_key(self, local_dht):
        grow(local_dht, 4)
        ref = next(iter(local_dht.vnodes))
        local_dht.storage.put_batch(ref, ["a"], [1], ["v"])
        assert local_dht.storage.get_batch(ref, ["a"]) == ["v"]
        with pytest.raises(KeyError):
            local_dht.storage.get_batch(ref, ["a", "missing"])
