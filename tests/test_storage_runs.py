"""The segment tier's invariant: one index-sorted run plus an unsorted tail.

* a hypothesis state machine drives two :class:`VnodeStore`\\ s through random
  interleavings of every mutating and reading primitive and checks each step
  against a brute-force model (lists and dicts filtered by range) — for
  ``uint64`` indexes, a wide hash space (object index column), ``str`` keys
  and a tiny hash space where every index span holds several keys; point and
  batch reads must answer from the model's last write without ever growing
  the hash tier;
* read-only passes (``count_buckets``, ``verify_replication``) must leave
  every segment array in place — rewriting them is what raised
  ``peak_rss_mb`` on a bulk-loaded cluster;
* reads and the storage invariant check never fold a store into its hash
  tier: after ``get_many`` and ``check_invariants`` on a bulk-loaded engine
  every primary store is still columnar, retaining next to no memory per
  row, and the check still catches a misplaced row in either tier;
* consolidation must not widen a native key column;
* the durable tier replays a consolidated store, and a WAL tail of range ops
  replayed as column masks equals the per-row dict replay.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import DHTStorage, HashSpace, Partition, SnodeId, VnodeRef
from repro.core.durability import (
    DurabilityConfig,
    _apply_op,
    _merge_columns,
    replay_ops,
)
from repro.core.errors import InvariantViolation
from repro.core.storage import VnodeStore, join_parts
from repro.utils.arrays import concat_columns
from repro.workloads.driver import build_cluster

Row = Tuple[Any, int, Any]  # (key, index, value)

#: The model splits the hash space into this many equal ranges; each is owned
#: by exactly one of the two stores (``adopt_parts`` requires that adopted
#: rows lie in ranges the adopter did not own).
N_RANGES = 8
KEYS_PER_RANGE = 6


def vref(v: int) -> VnodeRef:
    return VnodeRef(SnodeId(0), v)


class _Model:
    """Brute-force reference of one store: the hash tier as a dict, the
    pending rows as a list in write order."""

    def __init__(self) -> None:
        self.hash: Dict[Any, Tuple[int, Any]] = {}
        self.pending: List[Row] = []

    def merge(self) -> None:
        for key, index, value in self.pending:
            self.hash[key] = (index, value)
        self.pending = []

    def merged(self) -> Dict[Any, Tuple[int, Any]]:
        out = dict(self.hash)
        for key, index, value in self.pending:
            out[key] = (index, value)
        return out

    def physical(self) -> List[Row]:
        return [(k, i, v) for k, (i, v) in self.hash.items()] + self.pending


def _inside(index: int, span: Tuple[int, int]) -> bool:
    return span[0] <= index <= span[1]


def _segment_rows(segments) -> List[Row]:
    rows: List[Row] = []
    for keys, indexes, values in segments:
        vals = [None] * len(keys) if values is None else values.tolist()
        rows.extend(zip(keys.tolist(), [int(i) for i in indexes.tolist()], vals))
    return rows


class StoreMachine(RuleBasedStateMachine):
    """Two stores sharing one hash space, checked against :class:`_Model`."""

    bh = 16
    str_keys = False

    def __init__(self) -> None:
        super().__init__()
        self.width = (1 << self.bh) // N_RANGES
        self.stores = [VnodeStore(vref(0)), VnodeStore(vref(1))]
        self.models = [_Model(), _Model()]
        self.owner = [r % 2 for r in range(N_RANGES)]
        self.clock = 0
        self.helper = DHTStorage(HashSpace(self.bh))

    # -- helpers ---------------------------------------------------------------

    def _key(self, r: int, slot: int):
        number = r * KEYS_PER_RANGE + slot
        return f"k{number}" if self.str_keys else number

    def _index(self, r: int, slot: int) -> int:
        # Two slots of a range share an index (distinct keys colliding on one
        # hash index); a key always maps to the same index.  The indexes are
        # the range's first, middle and last: both boundaries are inclusive.
        return r * self.width + (0, self.width // 2, self.width - 1)[slot // 2]

    def _spans(self, ranges: List[int]) -> List[Tuple[int, int]]:
        return [(r * self.width, (r + 1) * self.width - 1) for r in sorted(set(ranges))]

    def _arrays(self, ranges: List[int]):
        return self.helper.range_arrays(self._spans(ranges))

    def _index_column(self, indexes: List[int]) -> np.ndarray:
        if self.bh <= 64:
            return np.array(indexes, dtype=np.uint64)
        column = np.empty(len(indexes), dtype=object)
        column[:] = indexes
        return column

    def _value(self):
        self.clock += 1
        return f"v{self.clock}"

    def _key_column(self, keys: List[Any], native: bool) -> np.ndarray:
        if native and not self.str_keys:
            return np.array(keys, dtype=np.int64)
        column = np.empty(len(keys), dtype=object)
        column[:] = keys
        return column

    def _expected_buckets(self, model: _Model, spans) -> List[Tuple[dict, List[Row]]]:
        """Per range: the hash-tier pairs inside it, and the pending rows
        inside it stably sorted by index (write order within one index)."""
        ordered = sorted(model.pending, key=lambda row: row[1])
        return [
            (
                {k: item for k, item in model.hash.items() if _inside(item[0], span)},
                [row for row in ordered if _inside(row[1], span)],
            )
            for span in spans
        ]

    def _check_buckets(self, buckets, expected) -> None:
        assert len(buckets) == len(expected)
        for (pairs, segments), (want_pairs, want_rows) in zip(buckets, expected):
            assert dict(pairs) == want_pairs
            assert len(pairs) == len(want_pairs)
            assert _segment_rows(segments) == want_rows

    # -- rules -----------------------------------------------------------------

    @rule(
        s=st.integers(0, 1),
        picks=st.lists(
            st.tuples(st.integers(0, N_RANGES - 1), st.integers(0, KEYS_PER_RANGE - 1)),
            min_size=1, max_size=12,
        ),
        native=st.booleans(),
        valueless=st.booleans(),
    )
    def put_many(self, s, picks, native, valueless):
        rows = [
            (self._key(r, slot), self._index(r, slot), None if valueless else self._value())
            for r, slot in picks
            if self.owner[r] == s
        ]
        if not rows:
            return
        key_column = self._key_column([row[0] for row in rows], native)
        values = None
        if not valueless:
            values = np.empty(len(rows), dtype=object)
            values[:] = [row[2] for row in rows]
        self.stores[s].put_many(
            key_column, self._index_column([row[1] for row in rows]), values
        )
        self.models[s].pending.extend(rows)

    @rule(s=st.integers(0, 1), r=st.integers(0, N_RANGES - 1),
          slot=st.integers(0, KEYS_PER_RANGE - 1))
    def put(self, s, r, slot):
        if self.owner[r] != s:
            return
        key, index, value = self._key(r, slot), self._index(r, slot), self._value()
        self.stores[s].put(key, index, value)
        self.models[s].merge()
        self.models[s].hash[key] = (index, value)

    @rule(s=st.integers(0, 1), r=st.integers(0, N_RANGES - 1),
          slot=st.integers(0, KEYS_PER_RANGE - 1))
    def delete(self, s, r, slot):
        key = self._key(r, slot)
        self.models[s].merge()
        if key in self.models[s].hash:
            assert self.stores[s].delete(key) == self.models[s].hash.pop(key)
        else:
            with pytest.raises(KeyError):
                self.stores[s].delete(key)

    @rule(s=st.integers(0, 1), routed=st.booleans())
    def get(self, s, routed):
        """A point read of every key, with its hash index or (``routed=False``)
        without one; absent keys raise and are not contained."""
        store = self.stores[s]
        merged = self.models[s].merged()
        hash_tier = dict(store._items)
        for r in range(N_RANGES):
            for slot in range(KEYS_PER_RANGE):
                key = self._key(r, slot)
                index = self._index(r, slot) if routed else None
                want = merged.get(key)
                if want is None:
                    with pytest.raises(KeyError):
                        store.get(key, index)
                else:
                    assert store.get(key, index) == want
                    assert store.get_value(key, index) == want[1]
                assert store.contains(key, index) == (want is not None)
        assert store._items == hash_tier  # reads never fold

    @rule(
        s=st.integers(0, 1),
        picks=st.lists(
            st.tuples(st.integers(0, N_RANGES - 1), st.integers(0, KEYS_PER_RANGE - 1)),
            min_size=1, max_size=12,
        ),
        native=st.booleans(),
        ordered=st.booleans(),
    )
    def get_many(self, s, picks, native, ordered):
        """A batch read (sorted needles, as the engine sends them, or not):
        the model's values in order, or ``KeyError`` for the first absent key."""
        if ordered:
            picks = sorted(picks, key=lambda pick: self._index(*pick))
        store = self.stores[s]
        keys = [self._key(r, slot) for r, slot in picks]
        indexes = self._index_column([self._index(r, slot) for r, slot in picks])
        merged = self.models[s].merged()
        hash_tier = dict(store._items)
        absent = [key for key in keys if key not in merged]
        if absent:
            with pytest.raises(KeyError) as excinfo:
                store.get_many(self._key_column(keys, native), indexes)
            assert excinfo.value.args[0] == absent[0]
        else:
            got = store.get_many(self._key_column(keys, native), indexes)
            assert got == [merged[key][1] for key in keys]
        assert store._items == hash_tier  # reads never fold

    @rule(s=st.integers(0, 1),
          ranges=st.lists(st.integers(0, N_RANGES - 1), min_size=1, max_size=4))
    def count_buckets(self, s, ranges):
        store, model = self.stores[s], self.models[s]
        before = [column for segment in store._segments for column in segment]
        counts = store.count_buckets(*self._arrays(ranges))
        want = [
            sum(_inside(row[1], span) for row in model.physical())
            for span in self._spans(ranges)
        ]
        assert counts.tolist() == want
        after = [column for segment in store._segments for column in segment]
        assert len(before) == len(after)
        assert all(a is b for a, b in zip(before, after))  # read-only

    @rule(s=st.integers(0, 1),
          ranges=st.lists(st.integers(0, N_RANGES - 1), min_size=1, max_size=4))
    def copy_buckets(self, s, ranges):
        spans = self._spans(ranges)
        expected = self._expected_buckets(self.models[s], spans)
        self._check_buckets(self.stores[s].copy_buckets(*self._arrays(ranges)), expected)

    @rule(s=st.integers(0, 1),
          ranges=st.lists(st.integers(0, N_RANGES - 1), min_size=1, max_size=4))
    def move_ranges(self, s, ranges):
        """``pop_buckets`` on the owner, ``adopt_parts`` on the other store."""
        ranges = sorted({r for r in ranges if self.owner[r] == s})
        if not ranges:
            return
        spans = self._spans(ranges)
        src, dst = self.models[s], self.models[1 - s]
        expected = self._expected_buckets(src, spans)
        buckets = self.stores[s].pop_buckets(*self._arrays(ranges))
        self._check_buckets(buckets, expected)
        self.stores[1 - s].adopt_parts(*join_parts(buckets))
        for pairs, rows in expected:
            dst.hash.update(pairs)
            dst.pending.extend(rows)
        moved = lambda index: any(_inside(index, span) for span in spans)  # noqa: E731
        src.hash = {k: item for k, item in src.hash.items() if not moved(item[0])}
        src.pending = [row for row in src.pending if not moved(row[1])]
        for r in ranges:
            self.owner[r] = 1 - s

    @rule(s=st.integers(0, 1),
          ranges=st.lists(st.integers(0, N_RANGES - 1), min_size=0, max_size=5))
    def drop_outside(self, s, ranges):
        spans = self._spans(ranges)
        model = self.models[s]
        kept = lambda index: any(_inside(index, span) for span in spans)  # noqa: E731
        want = sum(not kept(row[1]) for row in model.physical())
        assert self.stores[s].drop_outside(*self._arrays(ranges)) == want
        model.hash = {k: item for k, item in model.hash.items() if kept(item[0])}
        model.pending = [row for row in model.pending if kept(row[1])]

    # -- checked after every step ------------------------------------------------

    @invariant()
    def layout_holds(self):
        for store, model in zip(self.stores, self.models):
            assert store.fast_len() == len(model.physical())
            assert store._sorted <= bool(store._segments)
            if store._sorted:
                indexes = [int(i) for i in store._segments[0][1].tolist()]
                assert indexes == sorted(indexes)

    def teardown(self):
        """The final merge: last write wins, per key."""
        for store, model in zip(self.stores, self.models):
            assert dict(store.raw_dict()) == model.merged()


class WideStoreMachine(StoreMachine):
    bh = 80


class StrKeyStoreMachine(StoreMachine):
    str_keys = True


class TinyStoreMachine(StoreMachine):
    """Two indexes per range: four of a range's six keys share one index."""

    bh = 4


_MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=list(HealthCheck),
)
for _machine in (StoreMachine, WideStoreMachine, StrKeyStoreMachine, TinyStoreMachine):
    _machine.TestCase.settings = _MACHINE_SETTINGS
TestStoreMachine = StoreMachine.TestCase
TestWideStoreMachine = WideStoreMachine.TestCase
TestStrKeyStoreMachine = StrKeyStoreMachine.TestCase
TestTinyStoreMachine = TinyStoreMachine.TestCase


# --------------------------------------------------------------------------- read-only


def _segment_arrays(dht) -> List[np.ndarray]:
    arrays = []
    for ref in dht.vnodes:
        for store in (dht.storage.primary_store(ref), dht.storage.replica_store(ref)):
            arrays.extend(column for segment in store._segments for column in segment)
    return arrays


def test_read_only_passes_leave_every_segment_array_in_place():
    dht = build_cluster("local", 4, 4, pmin=8, vmin=8, replication_factor=2, seed=0)
    dht.bulk_load(np.arange(20_000, dtype=np.int64), np.arange(20_000, dtype=np.int64))
    before = _segment_arrays(dht)
    assert before
    dht.verify_replication()
    bh = dht.hash_space.bh
    for ref, vnode in dht.vnodes.items():
        ranges = sorted((p.start(bh), p.end(bh) - 1) for p in vnode.partitions)
        counts = dht.storage.primary_range_counts(ref, ranges)
        assert int(counts.sum()) == dht.storage.fast_primary_count(ref)
    after = _segment_arrays(dht)
    assert len(before) == len(after)
    assert all(a is b for a, b in zip(before, after))
    assert not any(
        dht.storage.primary_store(ref)._sorted or dht.storage.replica_store(ref)._sorted
        for ref in dht.vnodes
    )


# --------------------------------------------------------------------------- merge-free reads

#: What one ``get_many`` over every key plus ``check_invariants()`` may keep
#: per bulk-loaded row.  Sorting a store's tail into its run replaces arrays
#: of the same size; folding into the hash tier keeps ~200 B per row.
RETAINED_BYTES_PER_ROW = 16


def test_reads_and_the_invariant_check_retain_no_memory_per_row():
    n = 50_000
    keys = np.arange(n, dtype=np.int64)
    dht = build_cluster("local", 4, 4, pmin=8, vmin=8, seed=0)
    tracemalloc.start()
    try:
        dht.bulk_load(keys, keys * 3)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        got = dht.get_many(keys)
        assert got[:3] == [0, 3, 6] and got[-1] == 3 * (n - 1)
        del got
        dht.check_invariants()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / n < RETAINED_BYTES_PER_ROW, f"{retained / n:.1f} B/row retained"


def test_the_invariant_check_is_merge_free_and_catches_a_misplaced_row():
    keys = np.arange(5_000, dtype=np.int64)
    dht = build_cluster("local", 4, 4, pmin=8, vmin=8, seed=0)
    dht.bulk_load(keys, keys)
    assert dht.get_many(keys) == keys.tolist()
    dht.check_invariants()
    stores = [dht.storage.primary_store(ref) for ref in dht.vnodes]
    assert not any(store._items for store in stores)
    assert sum(store.pending_item_count() for store in stores) == len(keys)

    planted = 10**9
    routed = dht.lookup(planted)
    wrong = next(ref for ref in dht.vnodes if ref != routed.vnode)
    plants = (  # (plant, remove): the hash tier, then a pending segment
        (lambda: dht.storage.put(wrong, planted, routed.index, "x"),
         lambda: dht.storage.delete(wrong, planted)),
        (lambda: dht.storage.put_batch(wrong, [planted], [routed.index], ["x"]),
         None),
    )
    for plant, remove in plants:
        plant()
        with pytest.raises(InvariantViolation) as excinfo:
            dht.check_invariants()
        assert excinfo.value.invariant == "storage"
        assert repr(planted) in str(excinfo.value)
        if remove is not None:
            remove()
            dht.check_invariants()


# --------------------------------------------------------------------------- dtypes


def test_consolidating_native_keys_with_a_replayed_batch_keeps_them_native():
    store = VnodeStore(vref(0))
    keys = np.arange(100, 164, dtype=np.int64)
    indexes = (np.arange(64, dtype=np.uint64) * np.uint64(977)) % np.uint64(1 << 16)
    store.put_many(keys[:32], indexes[:32], None)
    # What WAL replay hands back for the same kind of key: python ints in an
    # object column, python-int indexes narrowed to uint64.
    replayed = np.empty(32, dtype=object)
    replayed[:] = keys[32:].tolist()
    store.put_many(replayed, indexes[32:].copy(), None)
    starts, lasts = np.array([0], dtype=np.uint64), np.array([(1 << 16) - 1], dtype=np.uint64)
    (pairs, segments), = store.copy_buckets(starts, lasts)
    assert not pairs and len(segments) == 1
    assert segments[0][0].dtype == np.int64
    assert store._segments[0][0].dtype == np.int64
    assert sorted(segments[0][0].tolist()) == keys.tolist()


def test_concat_columns_never_invents_a_dtype():
    i64, u64 = np.array([-1, 2], dtype=np.int64), np.array([2**63 + 5], dtype=np.uint64)
    mixed = concat_columns([i64, u64])
    assert mixed.dtype == object and mixed.tolist() == [-1, 2, 2**63 + 5]
    strings = np.empty(1, dtype=object)
    strings[:] = ["12"]
    assert concat_columns([i64, strings]).tolist() == [-1, 2, "12"]  # not 12
    too_big = np.empty(1, dtype=object)
    too_big[:] = [2**70]
    assert concat_columns([u64, too_big]).tolist() == [2**63 + 5, 2**70]
    assert concat_columns([i64, i64]).dtype == np.int64


# --------------------------------------------------------------------------- durable


def _durable_storage(tmp_path, bh: int = 16) -> DHTStorage:
    storage = DHTStorage(HashSpace(bh), durability=DurabilityConfig(data_dir=str(tmp_path)))
    storage.register_vnode(vref(0))
    storage.register_vnode(vref(1))
    return storage


def test_consolidated_store_replays_to_the_same_rows(tmp_path):
    storage = _durable_storage(tmp_path)
    keys = np.arange(400, dtype=np.int64)
    indexes = (keys * 163) % (1 << 16)
    storage.put_batch(vref(0), keys[:200], indexes[:200], [f"a{k}" for k in keys[:200]])
    storage.put_batch(vref(0), keys[100:], indexes[100:], [f"b{k}" for k in keys[100:]])
    store = storage.primary_store(vref(0))
    # A handover consolidates the source (and logs the drop), the target
    # folds the adopted slice into its own run.
    moved = storage.migrate_partition(Partition(2, 1), vref(0), vref(1))
    assert moved and store._sorted
    for ref in (vref(0), vref(1)):
        live = dict(storage.primary_store(ref).raw_dict())
        storage.lose_vnode_memory(ref)
        assert storage.primary_store(ref).fast_len() == 0
        storage.replay_vnode(ref)
        assert dict(storage.primary_store(ref).raw_dict()) == live
    assert storage.item_count() == 400
    owner = vref(0) if storage.contains(vref(0), 150) else vref(1)
    assert storage.get(owner, 150) == "b150"  # the later batch still wins
    storage.durable.close()


_RANGE_BOUNDS = st.lists(st.integers(0, 255), min_size=0, max_size=6, unique=True).map(sorted)


def _ranges(bounds: List[int]) -> Tuple[List[int], List[int]]:
    pairs = list(zip(bounds[0::2], bounds[1::2]))
    return [lo for lo, _ in pairs], [hi for _, hi in pairs]


_ROWS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 9)), min_size=1, max_size=10
)


@st.composite
def _wal_op(draw):
    kind = draw(st.sampled_from(["batch", "batch", "pairs", "put", "drop", "retain"]))
    if kind in ("drop", "retain"):
        return (kind, *_ranges(draw(_RANGE_BOUNDS)))
    rows = draw(_ROWS)
    keys = [k for k, _ in rows]
    indexes = [(k * 37) % 256 for k in keys]  # a key always hashes to one index
    values = [f"{kind}{v}" for _, v in rows]
    if kind == "put":
        return ("put", keys[0], indexes[0], values[0])
    if kind == "pairs":
        return ("pairs", [(k, (i, v)) for k, i, v in zip(keys, indexes, values)])
    key_column = np.array(keys, dtype=np.int64)
    value_column = np.empty(len(values), dtype=object)
    value_column[:] = values
    valueless = draw(st.booleans())
    return ("batch", key_column, np.array(indexes, dtype=np.uint64),
            None if valueless else value_column)


@settings(max_examples=150, deadline=None)
@given(checkpoint=st.lists(_wal_op().filter(lambda op: op[0] == "batch"), max_size=2),
       ops=st.lists(_wal_op(), max_size=10))
def test_columnar_replay_of_range_ops_equals_the_dict_replay(checkpoint, ops):
    segments = [(op[1], op[2], op[3]) for op in checkpoint]
    reference: Dict[Any, Tuple[Any, Any]] = {}
    for segment in segments:
        _merge_columns(reference, segment)
    for op in ops:
        _apply_op(reference, op)

    out, zero_copy = replay_ops(list(segments), ops)
    replayed: Dict[Any, Tuple[Any, Any]] = {}
    for segment in out:
        _merge_columns(replayed, segment)
    assert replayed == reference
    assert zero_copy == (not any(op[0] in ("drop", "retain") for op in ops))
    if zero_copy:
        assert all(a is b for a, b in zip(out, segments))  # checkpoint untouched


def test_replay_with_a_point_delete_still_takes_the_exact_path():
    keys = np.array([1, 2, 3], dtype=np.int64)
    batch = ("batch", keys, np.array([10, 20, 30], dtype=np.uint64), None)
    out, zero_copy = replay_ops([], [batch, ("drop", [15], [25]), ("del", 3)])
    assert not zero_copy and len(out) == 1
    assert out[0][0].tolist() == [1]
