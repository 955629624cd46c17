"""The columnar deep replica check is at least as strict as the dict one.

:func:`~repro.core.replication.verify_replica_consistency` compares, range
by range, the newest row of each key on a replica with the primary's
(:meth:`~repro.core.storage.VnodeStore.newest_rows`).  Its predecessor
folded every store into a ``key -> (index, value)`` dict and looked each
replica row up in its primary's; that check lives on here as
:func:`dict_oracle`, over a copy of each store's fold, so it changes no
store.  Hypothesis builds a two-vnode replicated storage with ``str``,
``uint64`` or ``V{w}`` keys and corrupts one replica — a value flipped in
the run or in the hash tier, a missing key, an extra key, a key under a
wrong index — or folds duplicate-key segments on one side only, which
changes no row and must pass.  Whenever the oracle raises, the columnar
check must raise too, and every real corruption is caught.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Hashable, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DHTStorage, HashSpace, Partition, SnodeId, VnodeRef
from repro.core.errors import ReplicationError
from repro.core.replication import (
    ReplicaPlacement,
    sync_replicas,
    verify_replica_consistency,
)
from repro.core.storage import VnodeStore
from repro.utils.arrays import as_object_column

BH = 8
LEVEL = 2  # four ranges, owned alternately by the two vnodes
KEY_WIDTH = 6
VALUE_WIDTH = 8
REFS = (VnodeRef(SnodeId(0), 0), VnodeRef(SnodeId(1), 0))
CORRUPTIONS = ("run_value", "hash_value", "missing", "extra", "wrong_index", "fold_one_side")


# --------------------------------------------------------------------------- the oracle


def folded(store: VnodeStore) -> Dict[Hashable, Tuple[int, Any]]:
    """What folding ``store`` would leave, computed on a copy: the hash
    tier, then every pending row in segment order, later rows winning."""
    rows = dict(store._items)
    for keys, indexes, values in store._segments:
        values = [None] * len(keys) if values is None else values.tolist()
        rows.update(zip(keys.tolist(), zip(indexes.tolist(), values)))
    return rows


def dict_oracle(storage: DHTStorage, placement: ReplicaPlacement) -> None:
    """The dict-based deep check the columnar one replaced: the count pass
    with its merged-content re-check, then every folded replica row looked
    up in its primary's folded dict."""
    pairs = []
    for partition in placement.partitions:
        start, end = storage.hash_space.partition_range(partition)
        pairs.append((start, end - 1))
    primary_counts = np.zeros(len(pairs), dtype=np.int64)
    for pos, primary in enumerate(placement.primaries):
        starts, lasts = storage.range_arrays([pairs[pos]])
        primary_counts[pos] = storage.primary_store(primary).count_buckets(starts, lasts)[0]

    def in_range(store, pair):
        return {key: item for key, item in folded(store).items() if pair[0] <= item[0] <= pair[1]}

    for ref, store in storage.replica_store_items():
        positions = placement.positions_of.get(ref, ())
        if not positions:
            if store.fast_len():
                raise ReplicationError(f"vnode {ref} holds rows but is assigned none")
            continue
        starts, lasts = storage.range_arrays([pairs[p] for p in positions])
        have = store.count_buckets(starts, lasts)
        if int(have.sum()) != store.fast_len():
            raise ReplicationError(f"vnode {ref} holds rows outside its ranges")
        for k, pos in enumerate(positions):
            if int(have[k]) == int(primary_counts[pos]):
                continue
            primary = storage.primary_store(placement.primaries[pos])
            if in_range(store, pairs[pos]) != in_range(primary, pairs[pos]):
                raise ReplicationError(f"range {pos}: counts and rows differ")

    range_starts = [pair[0] for pair in pairs]
    primary_rows = {
        ref: folded(storage.primary_store(ref)) for ref in set(placement.primaries)
    }
    for ref, store in storage.replica_store_items():
        for key, item in folded(store).items():
            pos = bisect.bisect_right(range_starts, item[0]) - 1
            if pos < 0 or not (pairs[pos][0] <= item[0] <= pairs[pos][1]):
                raise ReplicationError(f"replica row {key!r} outside every partition")
            if ref not in placement.replicas[pos]:
                raise ReplicationError(f"replica row {key!r} not replicated at {ref}")
            if primary_rows[placement.primaries[pos]].get(key) != item:
                raise ReplicationError(f"replica row {key!r} disagrees with its primary")


# --------------------------------------------------------------------------- the setup


def _placement() -> ReplicaPlacement:
    partitions = tuple(Partition(LEVEL, r) for r in range(1 << LEVEL))
    primaries = tuple(REFS[r % 2] for r in range(len(partitions)))
    replicas = tuple((REFS[1 - r % 2],) for r in range(len(partitions)))
    return ReplicaPlacement(
        n_ranks=1, version=0, partitions=partitions, primaries=primaries,
        replicas=replicas, by_partition=dict(zip(partitions, replicas)),
        positions_of={
            ref: tuple(r for r in range(len(partitions)) if replicas[r] == (ref,))
            for ref in REFS
        },
    )


def _key_column(kind: str, numbers: List[int]) -> np.ndarray:
    if kind == "uint64":
        return np.array(numbers, dtype=np.uint64)
    if kind == "void":
        raw = b"".join(n.to_bytes(KEY_WIDTH, "little") for n in numbers)
        return np.frombuffer(raw, f"V{KEY_WIDTH}").copy()
    return as_object_column([f"key-{n}" for n in numbers])


def _value_column(numbers: List[int], void: bool) -> np.ndarray:
    if void:
        raw = b"".join(n.to_bytes(VALUE_WIDTH, "little") for n in numbers)
        return np.frombuffer(raw, f"V{VALUE_WIDTH}").copy()
    return as_object_column([f"value-{n}" for n in numbers])


def _replicated(kind: str, numbers: List[int], void: bool, dup: List[int]):
    """Two vnodes, each the primary of two of four ranges and the replica of
    the other two, synced; ``dup`` keys get a second, equal row on both the
    primary and its replica (duplicate-key segments)."""
    storage = DHTStorage(HashSpace(BH))
    for ref in REFS:
        storage.register_vnode(ref)
    placement = _placement()
    keys = _key_column(kind, numbers)
    hashed = keys.astype(object) if kind == "void" else keys
    indexes = storage.hash_space.hash_keys(hashed)
    values = _value_column(numbers, void)
    owner = (indexes >> np.uint64(BH - LEVEL)).astype(np.int64) % 2
    for s, ref in enumerate(REFS):
        rows = owner == s
        if rows.any():
            storage.put_batch(ref, keys[rows], indexes[rows], values[rows])
    sync_replicas(storage, placement)
    for number in dup:
        row = numbers.index(number)
        primary = REFS[owner[row]]
        for store in (storage.primary_store(primary), storage.replica_store(REFS[1 - owner[row]])):
            store.put_many(keys[row : row + 1], indexes[row : row + 1], values[row : row + 1])
    return storage, placement, keys, indexes, owner


def _raises(check) -> bool:
    try:
        check()
    except ReplicationError:
        return True
    return False


def _corrupt(storage, how, keys, indexes, owner, pick, spare, void) -> bool:
    """Apply ``how`` to one replica store; return whether it changed a row."""
    row = pick % len(keys)
    replica = storage.replica_store(REFS[1 - owner[row]])
    key = keys[row : row + 1].tolist()[0]
    index = int(indexes[row])
    flipped = (b"\xff" * VALUE_WIDTH) if void else "flipped"
    if how == "run_value":
        run = replica._sorted_run()
        at = max(i for i, stored in enumerate(run[0].tolist()) if stored == key)
        run[2][at] = flipped
    elif how == "hash_value":
        replica.delete(key, index)  # folds the replica
        replica._items[key] = (index, flipped)
    elif how == "missing":
        replica.delete(key, index)
    elif how == "extra":
        replica.put_row(spare[0], spare[1], "extra")
    elif how == "wrong_index":  # planted past DHTStorage, which refuses it
        value = replica.get_value(key, index)
        replica.delete(key, index)
        replica.put_row(key, (index + 1) % (1 << BH), value)
    else:  # fold_one_side: the same rows, one side's duplicates folded away
        side = storage.primary_store(REFS[owner[row]]) if pick % 2 else replica
        side._merge_segments()
        return False
    return True


# --------------------------------------------------------------------------- the test


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    kind=st.sampled_from(["str", "uint64", "void"]),
    numbers=st.lists(st.integers(0, 10**6), min_size=1, max_size=40, unique=True),
    void=st.booleans(),
    dup=st.integers(0, 3),
    how=st.sampled_from(CORRUPTIONS),
    pick=st.integers(0, 10**6),
)
def test_the_columnar_check_raises_whenever_the_dict_oracle_does(kind, numbers, void, dup, how, pick):
    spare_number = max(numbers) + 1
    duplicated = numbers[: min(dup, len(numbers))]
    storage, placement, keys, indexes, owner = _replicated(kind, numbers, void, duplicated)
    assert not _raises(lambda: dict_oracle(storage, placement))
    assert not _raises(lambda: verify_replica_consistency(storage, placement, deep=True))

    spare_key = _key_column(kind, [spare_number]).tolist()[0]
    spare = (spare_key, storage.hash_space.hash_key(spare_key))
    changed = _corrupt(storage, how, keys, indexes, owner, pick, spare, void)
    oracle = _raises(lambda: dict_oracle(storage, placement))
    columnar = _raises(lambda: verify_replica_consistency(storage, placement, deep=True))
    assert columnar or not oracle
    assert columnar == changed


def test_the_oracle_sees_the_corruptions_too():
    """The oracle is no straw man: it raises on a flipped run value."""
    storage, placement, keys, indexes, owner = _replicated("str", list(range(20)), False, [])
    _corrupt(storage, "run_value", keys, indexes, owner, 3, None, False)
    with pytest.raises(ReplicationError):
        dict_oracle(storage, placement)
