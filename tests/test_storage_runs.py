"""The segment tier's invariant: one index-sorted run plus an unsorted tail.

* a hypothesis state machine drives two :class:`VnodeStore`\\ s through random
  interleavings of every mutating and reading primitive and checks each step
  against a brute-force model (lists and dicts filtered by range) — for
  ``uint64`` indexes, a wide hash space (object index column), ``str`` keys,
  a tiny hash space where every index span holds several keys and durable
  stores whose WAL must replay to the live content; batches carry ``object``,
  ``V{w}`` or no values, overwrites of run keys land in the run, adopts
  splice disjoint segments or sort overlapping ones, and point and batch
  reads — of absent keys too — must answer from the model's last write
  without ever growing the hash tier; the whole-store views (``len``,
  ``items``, ``item_count``) and ``verify_replication(deep=True)`` must
  leave every store's tiers and ``fast_len`` as they were, and a durable
  store killed right after them must replay to the same;
* read-only passes (``count_buckets``, ``verify_replication``) must leave
  every segment array in place — rewriting them is what raised
  ``peak_rss_mb`` on a bulk-loaded cluster;
* reads and the storage invariant check never fold a store into its hash
  tier: after ``get_many`` and ``check_invariants`` on a bulk-loaded engine
  every primary store is still columnar, retaining next to no memory per
  row, and the check still catches a misplaced row in either tier;
* consolidation must not widen a native key column;
* the durable tier replays through the store itself: a consolidated store,
  and random WAL op sequences with and without checkpoints, come back with
  the live store's rows and row count.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
import tracemalloc
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import DHTStorage, HashSpace, Partition, SnodeId, VnodeRef
from repro.core.durability import DurabilityConfig, DurabilityStats, DurableVnodeStore
from repro.core.errors import InvariantViolation
from repro.core.replication import ReplicaPlacement, sync_replicas, verify_replica_consistency
from repro.core.storage import VnodeStore, join_parts
from repro.utils.arrays import concat_columns
from repro.workloads.driver import build_cluster
from tests.conftest import key_at

Row = Tuple[Any, int, Any]  # (key, index, value)

#: The model splits the hash space into this many equal ranges; each is owned
#: by exactly one of the two stores (``adopt_parts`` requires that adopted
#: rows lie in ranges the adopter did not own).
N_RANGES = 8
KEYS_PER_RANGE = 6
#: Width of the ``V{w}`` values some batches and puts carry.
VOID_WIDTH = 8


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


def _split(segment, how: str):
    """``segment`` as two segments that keep each index's write order."""
    rows = np.arange(len(segment[0]))
    if how == "halves":
        masks = (rows < len(rows) // 2, rows >= len(rows) // 2)
    else:
        rank = np.unique(segment[1], return_inverse=True)[1]
        masks = (rank % 2 == 0, rank % 2 == 1)
    return [tuple(None if c is None else c[mask] for c in segment) for mask in masks]


def _void_column(values: List[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(values), f"V{VOID_WIDTH}").copy()


class StoreMachine(RuleBasedStateMachine):
    """Two stores sharing one hash space, checked against :class:`_Model`."""

    bh = 16
    str_keys = False
    durable = False

    def __init__(self) -> None:
        super().__init__()
        self.width = (1 << self.bh) // N_RANGES
        self.stores = [VnodeStore(vref(0)), VnodeStore(vref(1))]
        if self.durable:
            self.data_dir = tempfile.mkdtemp()
            config = DurabilityConfig(data_dir=self.data_dir, flush_threshold=5)
            for v, store in enumerate(self.stores):
                directory = os.path.join(self.data_dir, str(v))
                os.makedirs(directory)
                store.durable = DurableVnodeStore(directory, config, DurabilityStats())
        self.models = [_Model(), _Model()]
        self.owner = [r % 2 for r in range(N_RANGES)]
        self.clock = 0
        self.helper = DHTStorage(HashSpace(self.bh))

    # -- helpers ---------------------------------------------------------------

    def _key(self, r: int, slot: int):
        number = r * KEYS_PER_RANGE + slot
        return f"k{number}" if self.str_keys else number

    def _absent_key(self, r: int):
        """A key never written, hashed (like slots 0 and 1) to range ``r``'s
        first index."""
        number = N_RANGES * KEYS_PER_RANGE + r
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

    def _value(self, void: bool = False):
        """A fresh value: ``str``, or ``VOID_WIDTH`` bytes ending in NULs."""
        self.clock += 1
        return self.clock.to_bytes(VOID_WIDTH, "little") if void else f"v{self.clock}"

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
        void=st.booleans(),
    )
    def put_many(self, s, picks, native, valueless, void):
        rows = [
            (self._key(r, slot), self._index(r, slot), None if valueless else self._value(void))
            for r, slot in picks
            if self.owner[r] == s
        ]
        if not rows:
            return
        key_column = self._key_column([row[0] for row in rows], native)
        values = None
        if void and not valueless:
            values = _void_column([row[2] for row in rows])
        elif not valueless:
            values = np.empty(len(rows), dtype=object)
            values[:] = [row[2] for row in rows]
        self.stores[s].put_many(
            key_column, self._index_column([row[1] for row in rows]), values
        )
        self.models[s].pending.extend(rows)

    @rule(s=st.integers(0, 1), r=st.integers(0, N_RANGES - 1),
          slot=st.integers(0, KEYS_PER_RANGE - 1), void=st.booleans())
    def put(self, s, r, slot, void):
        if self.owner[r] == s:
            self._put(s, self._key(r, slot), self._index(r, slot), void)

    @rule(s=st.integers(0, 1), pick=st.integers(0, 2**16), void=st.booleans())
    def overwrite(self, s, pick, void):
        """A point write of a key with pending rows."""
        pending = self.models[s].pending
        if pending:
            key, index, _ = pending[pick % len(pending)]
            self._put(s, key, index, void)

    def _put(self, s, key, index, void):
        """A point write.  It overwrites the key's newest run row in place
        when the key has no hash-tier row and the run's value column holds
        the value as is; otherwise every pending row folds first."""
        value = self._value(void)
        store, model = self.stores[s], self.models[s]
        run = store._sorted_run()  # what any read establishes; same content
        values = None if run is None else run[2]
        holds = values is not None and (
            values.dtype == object or (void and values.dtype == np.dtype(f"V{VOID_WIDTH}"))
        )
        rows = [i for i, row in enumerate(model.pending) if row[0] == key]
        store.put_row(key, index, value)
        if holds and rows and key not in model.hash:
            model.pending[rows[-1]] = (key, index, value)
            assert key not in store._items
        else:
            model.merge()
            model.hash[key] = (index, value)
            assert not store._segments

    @rule(s=st.integers(0, 1), r=st.integers(0, N_RANGES - 1),
          slot=st.integers(0, KEYS_PER_RANGE - 1))
    def delete(self, s, r, slot):
        """A delete folds the store; a failed one leaves it as it was."""
        key, index, model = self._key(r, slot), self._index(r, slot), self.models[s]
        if key in model.merged():
            model.merge()
            assert self.stores[s].delete(key, index) == model.hash.pop(key)
        else:
            with pytest.raises(KeyError):
                self.stores[s].delete(key, index)

    @rule(s=st.integers(0, 1))
    def get(self, s):
        """A point read of every key at its hash index; absent keys raise
        and are not contained."""
        store = self.stores[s]
        merged = self.models[s].merged()
        hash_tier = dict(store._items)
        for r in range(N_RANGES):
            probes = [(self._key(r, slot), self._index(r, slot)) for slot in range(KEYS_PER_RANGE)]
            probes.append((self._absent_key(r), self._index(r, 0)))
            for key, index in probes:
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
          ranges=st.lists(st.integers(0, N_RANGES - 1), min_size=1, max_size=4),
          split=st.sampled_from(["none", "halves", "parity"]))
    def move_ranges(self, s, ranges, split):
        """``pop_buckets`` on the owner, ``adopt_parts`` on the other store.
        The popped segments go over as they are — disjoint, so spliced into
        the run — or each ``split`` in two that keep each index's write
        order: its first and second half (they touch when the cut falls in
        an equal-index span) or the rows of its even and of its odd distinct
        indexes (they overlap from three indexes on).  Touching or
        overlapping segments are sorted in instead."""
        ranges = sorted({r for r in ranges if self.owner[r] == s})
        if not ranges:
            return
        spans = self._spans(ranges)
        src, dst = self.models[s], self.models[1 - s]
        expected = self._expected_buckets(src, spans)
        buckets = self.stores[s].pop_buckets(*self._arrays(ranges))
        self._check_buckets(buckets, expected)
        pairs, segments = join_parts(buckets)
        if split != "none":
            segments = [piece for segment in segments for piece in _split(segment, split)]
        self.stores[1 - s].adopt_parts(pairs, segments)
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

    @rule()
    def views(self):
        """Whole-store views and the deep replica check are read-only: every
        store keeps its tiers and row count, and a durable store killed
        right after them replays to the same."""
        def state():
            return [
                (len(store._items), store.pending_item_count(), store.fast_len())
                for store in self.stores
            ]

        before = state()
        storage, placement = self._replicated()
        for s, (store, model) in enumerate(zip(self.stores, self.models)):
            merged = model.merged()
            assert len(store) == storage.item_count(vref(s)) == len(merged)
            assert dict(store.items()) == merged
        verify_replica_consistency(storage, placement, deep=True)
        assert state() == before
        if self.durable:
            for store in self.stores:
                store.lose_memory()
                store.replay(store.durable.recover(), self._index_column)
            assert state() == before

    def _replicated(self):
        """A storage holding both stores as primaries, each range replicated
        on the store that does not own it, synced."""
        storage = DHTStorage(HashSpace(self.bh))
        refs = [vref(0), vref(1)]
        for ref, store in zip(refs, self.stores):
            storage._stores[ref] = store
            storage._replica_stores[ref] = VnodeStore(ref)
        partitions = tuple(Partition(3, r) for r in range(N_RANGES))
        replicas = tuple((refs[1 - s],) for s in self.owner)
        placement = ReplicaPlacement(
            n_ranks=1, version=0, partitions=partitions,
            primaries=tuple(refs[s] for s in self.owner), replicas=replicas,
            by_partition=dict(zip(partitions, replicas)),
            positions_of={
                ref: tuple(r for r in range(N_RANGES) if replicas[r] == (ref,)) for ref in refs
            },
        )
        sync_replicas(storage, placement)
        return storage, placement

    @rule(s=st.integers(0, 1))
    def replay(self, s):
        """The WAL (and checkpoints) replay to the live content."""
        if self.durable:
            self._check_replay(s)

    def _check_replay(self, s):
        state = self.stores[s].durable.recover()
        replayed = VnodeStore(vref(9))
        replayed.replay(state, self._index_column)
        assert replayed.fast_len() == self.stores[s].fast_len()
        assert dict(replayed.items()) == self.models[s].merged()

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
        try:
            for s, (store, model) in enumerate(zip(self.stores, self.models)):
                if self.durable:
                    self._check_replay(s)
                    store.durable.destroy()
                assert dict(store.items()) == model.merged()
        finally:
            if self.durable:
                shutil.rmtree(self.data_dir, ignore_errors=True)


class WideStoreMachine(StoreMachine):
    bh = 80


class StrKeyStoreMachine(StoreMachine):
    str_keys = True


class TinyStoreMachine(StoreMachine):
    """Two indexes per range: four of a range's six keys share one index."""

    bh = 4


class DurableStoreMachine(StoreMachine):
    """Both stores log to a WAL that checkpoints every few records."""

    durable = True


_MACHINE_SETTINGS = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=list(HealthCheck),
)
for _machine in (
    StoreMachine, WideStoreMachine, StrKeyStoreMachine, TinyStoreMachine, DurableStoreMachine
):
    _machine.TestCase.settings = _MACHINE_SETTINGS
TestStoreMachine = StoreMachine.TestCase
TestWideStoreMachine = WideStoreMachine.TestCase
TestStrKeyStoreMachine = StrKeyStoreMachine.TestCase
TestTinyStoreMachine = TinyStoreMachine.TestCase
TestDurableStoreMachine = DurableStoreMachine.TestCase


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
    numbers = np.arange(400)
    indexes = (numbers * 163) % (1 << 16)
    keys = np.array([key_at(int(index)) for index in indexes], dtype=np.uint64)
    storage.put_batch(vref(0), keys[:200], indexes[:200], [f"a{k}" for k in numbers[:200]])
    storage.put_batch(vref(0), keys[100:], indexes[100:], [f"b{k}" for k in numbers[100:]])
    store = storage.primary_store(vref(0))
    # A handover consolidates the source (and logs the drop), the target
    # folds the adopted slice into its own run.
    moved = storage.migrate_partition(Partition(2, 1), vref(0), vref(1))
    assert moved and store._sorted
    for ref in (vref(0), vref(1)):
        live = dict(storage.primary_store(ref).items())
        storage.lose_vnode_memory(ref)
        assert storage.primary_store(ref).fast_len() == 0
        storage.replay_vnode(ref)
        assert dict(storage.primary_store(ref).items()) == live
    assert storage.item_count() == 400
    key = int(keys[150])
    owner = vref(0) if storage.contains(vref(0), key) else vref(1)
    assert storage.get(owner, key) == "b150"  # the later batch still wins
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
    kind = draw(st.sampled_from(["batch", "batch", "pairs", "put", "del", "drop", "retain"]))
    if kind in ("drop", "retain"):
        return (kind, *_ranges(draw(_RANGE_BOUNDS)))
    rows = draw(_ROWS)
    keys = [k for k, _ in rows]
    indexes = [(k * 37) % 256 for k in keys]  # a key always hashes to one index
    values = [f"{kind}{v}" for _, v in rows]
    if kind == "del":
        return ("del", keys[0])
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


def _uint64_bounds(bounds: List[int]) -> np.ndarray:
    return np.array(bounds, dtype=np.uint64)


def _apply(store: VnodeStore, op) -> None:
    """Run one WAL op through the live store's mutator that logs it."""
    kind = op[0]
    if kind == "batch":
        store.put_many(*op[1:])
    elif kind == "put":
        store.put_row(*op[1:])
    elif kind == "del":
        try:
            store.delete(op[1], (op[1] * 37) % 256)
        except KeyError:
            pass  # a failed delete changes nothing, and is not logged
    elif kind == "pairs":
        store.adopt_parts(op[1], [])
    else:
        starts, lasts = _uint64_bounds(op[1]), _uint64_bounds(op[2])
        if kind == "drop":
            store.pop_buckets(starts, lasts)
        else:
            store.drop_outside(starts, lasts)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_wal_op(), max_size=12), flush_threshold=st.sampled_from([1, 3, 1024]))
def test_replay_through_the_store_equals_the_live_store(ops, flush_threshold):
    """Random op sequences on a live durable store — checkpointing after
    every op, every few ops, or never — replay to its rows and row count."""
    with tempfile.TemporaryDirectory() as data_dir:
        config = DurabilityConfig(data_dir=data_dir, flush_threshold=flush_threshold)
        live = VnodeStore(vref(0), DurableVnodeStore(data_dir, config, DurabilityStats()))
        for op in ops:
            _apply(live, op)
        replayed = VnodeStore(vref(1))
        replayed.replay(live.durable.recover(), _uint64_bounds)
        assert replayed.fast_len() == live.fast_len()
        assert dict(replayed.items()) == dict(live.items())
        live.durable.close()


def test_replay_of_a_drop_and_a_point_delete_through_the_store(tmp_path):
    config = DurabilityConfig(data_dir=str(tmp_path))
    log = DurableVnodeStore(str(tmp_path), config, DurabilityStats())
    log.append(("batch", np.array([1, 2, 3], dtype=np.int64),
                np.array([10, 20, 30], dtype=np.uint64), None))
    log.append(("drop", [15], [25]))
    log.append(("del", 3))
    store = VnodeStore(vref(0))
    store.replay(log.recover(), _uint64_bounds)
    assert dict(store.items()) == {1: (10, None)}
    log.close()


# --------------------------------------------------------------------------- columnar values


def _void_values(n: int, width: int = 16) -> np.ndarray:
    """``n`` distinct ``V{width}`` values ending in NUL bytes (which an ``S``
    dtype would strip)."""
    raw = b"".join(i.to_bytes(4, "little") + b"\x00" * (width - 4) for i in range(n))
    return np.frombuffer(raw, f"V{width}").copy()


def _hashed_storage(n: int = 200):
    """A two-vnode storage whose vnode 0 holds ``n`` bulk rows at their keys'
    hash indexes, with ``V16`` values."""
    storage = DHTStorage(HashSpace(16))
    storage.register_vnode(vref(0))
    storage.register_vnode(vref(1))
    keys = np.arange(n, dtype=np.int64)
    indexes = storage.hash_space.hash_keys(keys)
    values = _void_values(n)
    storage.put_batch(vref(0), keys, indexes, values)
    return storage, keys, indexes, values


def _whole_space(storage):
    return storage.range_arrays([(0, storage.hash_space.size - 1)])


def test_an_in_place_put_changes_no_caller_array_and_no_other_store():
    storage, keys, indexes, values = _hashed_storage()
    callers = (keys.copy(), indexes.copy(), values.copy())
    primary = storage.primary_store(vref(0))
    # Two replica stores adopt the very same copied parts.
    parts = primary.copy_buckets(*_whole_space(storage))
    replicas = [VnodeStore(vref(1)), VnodeStore(vref(2))]
    for replica in replicas:
        replica.adopt_parts(*join_parts(parts))
    part_values = [segment[2].copy() for segment in parts[0][1]]
    # A batch handed to ``put_many`` directly is adopted as is.
    direct = VnodeStore(vref(3))
    direct.put_many(keys, indexes, values)

    key, index, old = 7, int(indexes[7]), values[7].item()
    for store, new in ((primary, b"P" * 16), (replicas[0], b"R" * 16), (direct, b"D" * 16)):
        store.put_row(key, index, new)
        assert not store._items  # landed in the run, nothing folded
        assert store.get(key, index) == (index, new)

    for column, before in zip((keys, indexes, values), callers):
        assert column.tobytes() == before.tobytes()
    for segment, before in zip(parts[0][1], part_values):
        assert segment[2].tobytes() == before.tobytes()
    assert replicas[1].get(key, index) == (index, old)
    assert storage.get(vref(0), key) == b"P" * 16


def test_a_put_folds_unless_the_run_can_take_it():
    storage, keys, indexes, values = _hashed_storage()
    store = storage.primary_store(vref(0))
    store.put_row(3, int(indexes[3]), b"short")  # not 16 bytes: no place in V16
    assert not store._segments and len(store._items) == len(keys)
    assert store.get(3, int(indexes[3])).value == b"short"
    # Key 3 now has a hash-tier row and, after this batch, a run row too.
    store.put_many(keys[:4].copy(), indexes[:4].copy(), values[:4].copy())
    assert store._sorted_run() is not None
    store.put_row(3, int(indexes[3]), b"F" * 16)
    assert not store._segments and store.get(3, int(indexes[3])).value == b"F" * 16


def test_values_leave_a_store_as_bytes_never_void():
    storage, keys, indexes, values = _hashed_storage()
    want = [bytes(v) for v in values.tolist()]
    assert all(v.endswith(b"\x00") for v in want)

    def check(got):
        assert [type(v) for v in got] == [bytes] * len(got)
        assert list(got) == want[: len(got)]

    check([storage.get(vref(0), int(k)) for k in keys])
    check(storage.get_batch(vref(0), keys, indexes))
    check(storage.get_batch(vref(0), keys))  # hashed here
    copied = storage.primary_store(vref(0)).copy_buckets(*_whole_space(storage))
    ((pairs, segments),) = copied
    assert not pairs
    rows = {k: v for segment in segments for k, v in zip(segment[0].tolist(), segment[2].tolist())}
    check([rows[k] for k in range(len(keys))])
    ((_, popped),) = storage.primary_store(vref(0)).pop_buckets(*_whole_space(storage))
    items = [popped[0][2].item(i) for i in range(len(popped[0][2]))]
    assert {type(v) for v in items} == {bytes}
    storage.primary_store(vref(1)).adopt_parts([], popped)
    check([item.value for _, item in sorted(storage.primary_store(vref(1)).items())])


def test_a_handover_is_spliced_into_the_run_without_a_sort(monkeypatch):
    store = VnodeStore(vref(0))
    n = 64
    store.put_many(np.arange(n), np.arange(0, 2 * n, 2, dtype=np.uint64), None)
    assert store._sorted_run() is not None
    sorts = []
    real_argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda *a, **k: sorts.append(1) or real_argsort(*a, **k)
    )
    # Disjoint of each other and of the run's rows (even indexes below 128).
    segments = [
        (np.array([1000, 1001]), np.array([5, 5], dtype=np.uint64), None),
        (np.array([1002]), np.array([200], dtype=np.uint64), None),
    ]
    store.adopt_parts([], segments)
    assert not sorts
    run_indexes = store._segments[0][1].tolist()
    assert run_indexes == sorted(run_indexes) and len(run_indexes) == n + 3
    assert store.get(1001, 5) == (5, None)
    # A segment with a run row inside its [first, last] is sorted in, and so
    # are two segments that overlap each other.
    adopts = (
        [(np.array([2000, 2001]), np.array([11, 15], dtype=np.uint64), None)],
        [
            (np.array([3000, 3001]), np.array([301, 305], dtype=np.uint64), None),
            (np.array([3002]), np.array([303], dtype=np.uint64), None),
        ],
    )
    rows = n + 3
    for segments in adopts:
        sorts.clear()
        store.adopt_parts([], segments)
        rows += sum(len(segment[0]) for segment in segments)
        assert sorts
        run_indexes = store._segments[0][1].tolist()
        assert run_indexes == sorted(run_indexes) and len(run_indexes) == rows


def test_a_point_miss_on_a_bulk_loaded_store_costs_about_a_hit():
    """No miss scans the run: every row sits under its key's hash index
    (the write paths refuse any other), so a key absent from its index
    span and the hash tier is absent."""
    dht = build_cluster("local", 2, 2, pmin=4, vmin=4, seed=0)
    n = 200_000
    dht.bulk_load(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64))
    rng = np.random.default_rng(0)

    def routed(keys):
        return [(dht.lookup(k).vnode, k, dht.lookup(k).index) for k in keys]

    hits = routed(rng.integers(0, n, 300).tolist())
    misses = routed((n + rng.integers(0, 2**40, 300)).tolist())
    storage = dht.storage
    assert all(storage.contains(*probe) for probe in hits)  # establishes every run

    def cost(probes, want):
        start = time.perf_counter()
        for probe in probes:
            assert storage.contains(*probe) is want
        return time.perf_counter() - start

    best_hit = min(cost(hits, True) for _ in range(5))
    best_miss = min(cost(misses, False) for _ in range(5))
    assert best_miss <= 2 * best_hit, (best_miss, best_hit)
    assert not any(storage.primary_store(ref)._items for ref in dht.vnodes)
