"""Key/value storage attached to vnodes, with migration on partition moves.

Every key hashes to an index of ``R_h``, the index falls in exactly one
partition, and the vnode owning that partition stores the item; when the
balancer hands a partition to another vnode, its items migrate with it.
:class:`VnodeStore` is the per-vnode container, :class:`DHTStorage` the
DHT-wide coordinator that routes writes and reads, migrates partitions and
counts the data moved.  ``docs/architecture.md`` ("The vectorized batch
engine") is the long form of what follows.

Every store is a **hash tier + one index-sorted run + an unsorted tail**:
a dict of ``key -> (index, value)`` for point writes, then columnar
batches (numpy key/index/value arrays): the *run*, every pending row
stably sorted by hash index, and the *tail*, the batches
:meth:`VnodeStore.put_many` appended since, in write order.  A partition
is a ``[start, last]`` range, and on the run a range is a slice (two
``searchsorted`` calls), so counting, copying, popping and retaining a
range never bucket rows one by one.  The passes that rewrite or copy a
store anyway, and the reads, establish the run (one stable sort of run +
tail); a partition handover's segments are spliced into it without a
sort.  ``put_many`` stays an O(1) append, and
:meth:`VnodeStore.count_buckets` never replaces a segment.

*Reads never fold:* ``get`` / ``get_many`` / ``contains`` binary-search
the run at the key's hash index, newest row first, and fall back to the
hash tier; only a :attr:`VnodeStore.foreign` store (one handed a row under
another index) scans its run on a miss.  *Overwrites of run keys land in
place* when the run's value column holds the value as is.  *Other writes
fold:* every other ``put``, and every ``delete``, first merges every
pending row into the hash tier in write order, so pending rows are always
newer than hash-tier rows.  *Views never fold:*
:meth:`VnodeStore.newest_rows` gives, per range, the newest row of each
key as columns (vectorized last-write-wins), and ``len``, ``items`` and
the deep replica check read it.  Migration slices rows out of the run and
the target adopts them still columnar, so per-key python objects are only
ever materialized by point writes.  Fixed-width values stay native
(``V{width}``) from the wire to the run and back, and leave a store as
``bytes``.

Every vnode also owns a **replica store** (:mod:`repro.core.replication`),
kept apart from the primary stores: routing, migration and the storage
invariant never see it; :meth:`DHTStorage.item_count` counts *logical*
items, :meth:`DHTStorage.fast_item_count` physical rows of both tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.durability import (
    DurabilityConfig,
    DurabilityStats,
    DurableStoreManager,
    DurableVnodeStore,
    RecoveredState,
)
from repro.core.errors import StorageError, UnknownVnodeError
from repro.core.hashspace import HashSpace, Partition
from repro.core.ids import VnodeRef
from repro.utils.arrays import as_object_column, concat_columns, is_plain_void, locate_ranges
from repro.utils.gcscope import deferred_gc

#: One pending columnar batch: (keys, indexes, values-or-None).
_Segment = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]

#: Raw hash-tier pairs plus columnar segments popped for one range.
_Parts = Tuple[List[Tuple[Hashable, Tuple[int, Any]]], List[_Segment]]

#: Ascending ``[lo, hi)`` row spans of an index-sorted run.
_Spans = List[Tuple[int, int]]


def _bucket_rows(pos: np.ndarray, inside: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(bucket, row_indices)`` for every range with matching rows.

    The grouping step of the *hash-tier* range passes (the segment tier
    slices its sorted run instead).
    """
    rows = np.flatnonzero(inside)
    if rows.size == 0:
        return
    order = rows[np.argsort(pos[rows], kind="stable")]
    buckets = pos[order]
    cuts = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
    lo = 0
    for hi in [*cuts.tolist(), order.size]:
        yield int(buckets[lo]), order[lo:hi]
        lo = hi


def _unsorted_counts(indexes: np.ndarray, starts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """Rows per range of an unsorted index column (hash tier, unsorted tail)."""
    pos, inside = locate_ranges(indexes, starts, lasts)
    return np.bincount(pos[inside], minlength=len(starts))


def _concat_segments(segments: Sequence[_Segment]) -> _Segment:
    """Concatenate segments column-wise, in the order given.

    Pure column concatenation — no hash-tier merge, no per-key python
    objects.  Mixing valueless (``values is None``) and valued segments
    materializes explicit ``None`` columns for the former.
    """
    if len(segments) == 1:
        return segments[0]
    values: Optional[np.ndarray] = None
    if any(s[2] is not None for s in segments):
        values = concat_columns(
            [np.empty(len(s[0]), dtype=object) if s[2] is None else s[2] for s in segments]
        )
    return (
        concat_columns([s[0] for s in segments]),
        concat_columns([s[1] for s in segments]),
        values,
    )


def _run_spans(indexes: np.ndarray, starts: np.ndarray, lasts: np.ndarray) -> _Spans:
    """The ``[lo, hi)`` row span of every range in an index-sorted column."""
    return list(
        zip(
            np.searchsorted(indexes, starts, side="left").tolist(),
            np.searchsorted(indexes, lasts, side="right").tolist(),
        )
    )


def _take_spans(run: _Segment, spans: _Spans) -> _Segment:
    """Copy the rows of ascending spans out of a run (itself index-sorted)."""
    keys, indexes, values = run
    return (
        np.concatenate([keys[lo:hi] for lo, hi in spans]),
        np.concatenate([indexes[lo:hi] for lo, hi in spans]),
        None if values is None else np.concatenate([values[lo:hi] for lo, hi in spans]),
    )


def _span_find(run: _Segment, key: Hashable, index: int) -> int:
    """The run row holding the newest write of ``key`` under hash index
    ``index``, or -1: the equal-index span is scanned backwards, so a later
    write of the key wins over an earlier one."""
    keys, indexes, _ = run
    # A python int needle makes numpy convert the whole uint64 column first.
    row = int(indexes.searchsorted(np.array(index, indexes.dtype), "right")) - 1
    # ``item`` yields python objects, so ``==`` never broadcasts.
    while row >= 0 and indexes.item(row) == index:
        if keys.item(row) == key:
            return row
        row -= 1
    return -1


def _span_row(run: _Segment, key: Hashable, index: int) -> Optional[Tuple[int, Any]]:
    """The newest ``(index, value)`` row of ``key`` under hash index ``index``
    in a sorted run (see :func:`_span_find`), or ``None``."""
    row = _span_find(run, key, index)
    if row < 0:
        return None
    return run[1].item(row), None if run[2] is None else run[2].item(row)


def _scan_row(run: _Segment, key: Hashable) -> Optional[Tuple[int, Any]]:
    """The last row of ``key`` anywhere in a run, or ``None`` — the miss path
    that still finds a row stored under another index than the reader's."""
    probe = np.empty(1, dtype=object)
    probe[0] = key  # an object probe: numpy compares every element with ``==``
    rows = np.flatnonzero(run[0] == probe)
    if rows.size == 0:
        return None
    row = int(rows[-1])
    return run[1].item(row), None if run[2] is None else run[2].item(row)


def _holds(values: Optional[np.ndarray], value: Any) -> bool:
    """Whether ``value`` can be written into the value column ``values`` as
    is: any value into an ``object`` column, exactly ``width`` ``bytes`` into
    a field-less ``V{width}`` one."""
    if values is None:
        return False
    dtype = values.dtype
    if dtype == object:
        return True
    return is_plain_void(dtype) and type(value) is bytes and len(value) == dtype.itemsize


def _comparable_keys(keys: np.ndarray) -> np.ndarray:
    """``keys`` as a column reads can compare python keys against: a
    ``V{width}`` column (fixed-width ``bytes`` keys off the wire) is boxed
    to ``bytes``, because numpy compares no void column with an object one."""
    return keys.astype(object) if keys.dtype.kind == "V" else keys


def _splice(run: Optional[_Segment], segments: Sequence[_Segment]) -> Optional[_Segment]:
    """The index-sorted run holding ``run``'s rows and ``segments``', built by
    concatenating run slices and segments in index order — or ``None`` when
    that would not equal the stable sort: a segment is unsorted, two
    segments overlap, a run row falls inside a segment's ``[first, last]``,
    or an index column's dtype differs from the run's.  Every partition
    handover meets the conditions.  The result never shares an array with
    ``run`` or ``segments``."""
    dtype = segments[0][1].dtype if run is None else run[1].dtype
    if any(s[1].dtype != dtype or np.any(s[1][1:] < s[1][:-1]) for s in segments):
        return None
    ordered = sorted(segments, key=lambda s: s[1].item(0))
    for before, after in zip(ordered, ordered[1:]):
        if not before[1].item(-1) < after[1].item(0):
            return None
    if run is None:
        pieces = ordered
    else:
        firsts = np.concatenate([s[1][:1] for s in ordered])
        lasts = np.concatenate([s[1][-1:] for s in ordered])
        pieces, done = [], 0
        for (lo, hi), segment in zip(_run_spans(run[1], firsts, lasts), ordered):
            if hi > lo:
                return None
            if lo > done:
                pieces.append(_run_slice(run, done, lo))
            pieces.append(segment)
            done = lo
        if done < len(run[0]):
            pieces.append(_run_slice(run, done, len(run[0])))
    if len(pieces) == 1:
        return tuple(None if column is None else column.copy() for column in pieces[0])
    return _concat_segments(pieces)


def _take(rows: _Segment, selector) -> _Segment:
    return tuple(None if column is None else column[selector] for column in rows)


def _newest(
    pairs: Sequence[Tuple[Hashable, Tuple[int, Any]]],
    segments: Sequence[_Segment],
    dtype: np.dtype,
    newest: Optional[Dict[Hashable, Any]],
) -> _Segment:
    """The newest row of each key among one range's parts, index-sorted:
    ``pairs`` (hash-tier rows; indexes in ``dtype``) are older than the run
    slices ``segments``, so after a stable sort by index a row loses to a
    later row of its key in its equal-index span.  ``newest``
    (:meth:`VnodeStore._newest_index`) also drops a foreign store's rows
    under another index than their key's newest."""
    pieces = list(segments)
    if pairs:
        indexes = np.empty(len(pairs), dtype=dtype)
        indexes[:] = [item[0] for _, item in pairs]
        values = as_object_column([item[1] for _, item in pairs])
        pieces.insert(0, (as_object_column([key for key, _ in pairs]), indexes, values))
    if not pieces:
        return np.empty(0, dtype=object), np.empty(0, dtype=dtype), None
    rows = _concat_segments(pieces)
    if pairs:
        rows = _take(rows, np.argsort(rows[1], kind="stable"))
    keys, indexes, _ = rows
    keep = np.ones(len(keys), dtype=bool)
    shared = np.flatnonzero(indexes[1:] == indexes[:-1])
    if shared.size:
        span = np.union1d(shared, shared + 1)
        last = dict(zip(zip(indexes[span].tolist(), keys[span].tolist()), span.tolist()))
        keep[span] = False
        keep[list(last.values())] = True
    if newest is not None:
        keep &= np.array(
            [newest[key] == index for key, index in zip(keys.tolist(), indexes.tolist())],
            dtype=bool,
        )
    return rows if keep.all() else _take(rows, keep)


def _run_slice(run: _Segment, lo: int, hi: int) -> _Segment:
    keys, indexes, values = run
    return keys[lo:hi], indexes[lo:hi], None if values is None else values[lo:hi]


def parts_size(parts: _Parts) -> int:
    """Number of rows in popped or copied parts (hash pairs + segment rows)."""
    pairs, segments = parts
    return len(pairs) + sum(len(segment[0]) for segment in segments)


def join_parts(buckets: Sequence[_Parts]) -> _Parts:
    """Several ranges' popped or copied parts as one :meth:`VnodeStore.adopt_parts`
    argument pair, so a store adopting many ranges is rewritten once."""
    return (
        [pair for pairs, _ in buckets for pair in pairs],
        [segment for _, segments in buckets for segment in segments],
    )


def same_rows(mine: _Segment, theirs: _Segment) -> bool:
    """Whether two :meth:`VnodeStore.newest_rows` views hold the same rows:
    column by column, else — an equal-index span may list its keys in
    another order on each side — as ``(key, index) -> value`` dicts."""
    if len(mine[0]) != len(theirs[0]):
        return False
    views = [
        [np.full(len(keys), None) if c is None else _comparable_keys(c) for c in (keys, *rest)]
        for keys, *rest in (mine, theirs)
    ]
    if all(np.all(a == b) for a, b in zip(*views)):
        return True
    rows = [dict(zip(zip(k.tolist(), i.tolist()), v.tolist())) for k, i, v in views]
    return rows[0] == rows[1]


class StoredItem(NamedTuple):
    """A stored value plus the hash index its key mapped to."""

    index: int
    value: Any


class VnodeStore:
    """The key/value items held by one vnode.

    Point writes work against the hash tier (``_items``); bulk batches land
    in the segment tier (``_segments``): one index-sorted run followed by
    the batches written since.  Reads and whole-store views
    (:meth:`newest_rows`, ``len``, :meth:`items`) search or copy the run
    and may establish it, but never fold it into the hash tier; a point
    write overwrites its key's run row in place or folds it first, a
    delete folds it first.  Only :meth:`count_buckets` leaves even the
    segment arrays in place.  See the module docstring for the layout.
    """

    __slots__ = ("vnode", "_items", "_segments", "_sorted", "foreign", "durable")

    def __init__(self, vnode: VnodeRef, durable: Optional[DurableVnodeStore] = None):
        self.vnode = vnode
        self._items: Dict[Hashable, Tuple[int, Any]] = {}
        self._segments: List[_Segment] = []
        #: True when ``_segments[0]`` is the index-sorted run; the segments
        #: after it (all of them when False) are the unsorted tail, in write
        #: order.  Never True while ``_segments`` is empty.
        self._sorted = False
        #: True once a row may sit under an index other than its key's hash
        #: index (see :class:`DHTStorage`, which checks the indexes callers
        #: hand it).  Until then a read that misses the key's index span and
        #: the hash tier is a miss; after, it scans the run.  Moves carry the
        #: flag to the adopting store; only :meth:`wipe` clears it.  Set it
        #: through :meth:`mark_foreign`, which logs it.
        self.foreign = False
        #: Optional durability tier (WAL + checkpoint files) of this store.
        #: ``None`` — the default, and always the case for replica stores —
        #: leaves every mutation path bit-identical to the RAM-only model.
        self.durable = durable

    def _log(self, op: Tuple) -> None:
        """Append one WAL record; checkpoint when the log grows past the
        flush threshold (the live tiers are flushed shape-preserving)."""
        durable = self.durable
        durable.append(op)
        if durable.should_checkpoint():
            durable.checkpoint(self._items, self._segments, self.foreign)

    def mark_foreign(self) -> None:
        """Set :attr:`foreign`; a durable store logs the change (one WAL
        record), so a restart replays every later write under the flag the
        live store had."""
        if not self.foreign:
            self.foreign = True
            if self.durable is not None:
                self._log(("foreign",))

    # -- segment tier ----------------------------------------------------------

    def put_many(
        self,
        keys: np.ndarray,
        indexes: np.ndarray,
        values: Optional[np.ndarray],
    ) -> None:
        """Bulk store a columnar batch: O(1) — the arrays are adopted as a
        pending segment (sorted into the run by the next read or range pass).

        ``values`` may be ``None`` to store ``None`` for every key.  Later
        duplicates win, exactly as repeated :meth:`put` calls would (pending
        rows are newer than the hash tier, and keep their write order).
        """
        if len(keys):
            self._segments.append((keys, indexes, values))
            if self.durable is not None:
                self._log(("batch", keys, indexes, values))

    def pending_item_count(self) -> int:
        """Rows sitting in pending (unmerged) segments."""
        return sum(len(segment[0]) for segment in self._segments)

    def fast_len(self) -> int:
        """Item count without merging pending segments.

        Exact whenever no key occurs both in the hash tier and a pending
        segment (or twice across segments); an upper bound otherwise.  The
        churn engine uses this for per-event conservation checks so counting
        does not destroy the columnar segments that keep migration fast.
        """
        return len(self._items) + self.pending_item_count()

    def _merge_segments(self) -> None:
        """Merge every pending segment into the hash tier, in write order
        (the run's stable sort kept each key's rows in theirs).

        This is where the per-key python objects are finally materialized —
        one ``dict.update`` over zipped columns per segment, with automatic
        garbage collection paused for the duration.
        """
        segments, self._segments, self._sorted = self._segments, [], False
        with deferred_gc():
            for keys, indexes, values in segments:
                if values is None:
                    pairs = zip(indexes.tolist(), (None,) * len(keys))
                else:
                    pairs = zip(indexes.tolist(), values.tolist())
                self._items.update(zip(keys.tolist(), pairs))

    # -- hash tier -------------------------------------------------------------

    def put(self, key: Hashable, index: int, value: Any) -> bool:
        """Store (or overwrite) an item: in place when the key's newest row
        is in the run (see :meth:`_overwrite_in_run`), else into the hash
        tier after folding every pending row into it.  Returns True when
        the value landed in the run."""
        in_place = bool(self._segments) and self._overwrite_in_run(key, index, value)
        if not in_place:
            if self._segments:
                self._merge_segments()
            self._items[key] = (index, value)
        if self.durable is not None:
            self._log(("put", key, index, value))
        return in_place

    def _overwrite_in_run(self, key: Hashable, index: int, value: Any) -> bool:
        """Write ``value`` over the run row a read of ``key`` at ``index``
        returns; False (nothing written) unless that row exists, the key has
        no hash-tier row, the store holds no foreign-index rows and the
        run's value column holds ``value`` as is (:func:`_holds`).  The run's
        arrays are the store's own, so no other store or caller sees it."""
        if self.foreign or key in self._items:
            return False
        run = self._sorted_run()
        if not _holds(run[2], value):
            return False
        row = _span_find(run, key, index)
        if row < 0:
            return False
        run[2][row] = value
        return True

    def _find(self, key: Hashable, index: Optional[int] = None) -> Optional[Tuple[int, Any]]:
        """The newest ``(index, value)`` row of ``key`` across both tiers, or
        ``None`` — without folding the segment tier into the hash tier.

        ``index`` is the key's hash index: the run is searched at it first.
        Then the hash tier (older than every pending row); a hash-tier row
        stored under another index sends the search back to the run at that
        index.  A key in neither is absent — unless the store is
        :attr:`foreign` or ``index`` is ``None``: then the whole run is
        scanned, so a row stored under an index other than the reader's is
        still found.
        """
        if not self._segments:
            return self._items.get(key)
        run = self._sorted_run()
        if index is not None:
            row = _span_row(run, key, index)
            if row is not None:
                return row
        item = self._items.get(key)
        if item is None:
            return _scan_row(run, key) if index is None or self.foreign else None
        if item[0] != index:
            row = _span_row(run, key, item[0])
            if row is not None:
                return row
        return item

    def get(self, key: Hashable, index: Optional[int] = None) -> StoredItem:
        """Fetch an item; raises :class:`KeyError` if absent.  ``index`` is the
        key's hash index (see :meth:`_find`); reads never fold."""
        row = self._find(key, index)
        if row is None:
            raise KeyError(key)
        return StoredItem(*row)

    def get_value(self, key: Hashable, index: Optional[int] = None) -> Any:
        """Fetch just the stored value (no :class:`StoredItem` wrapper)."""
        row = self._find(key, index)
        if row is None:
            raise KeyError(key)
        return row[1]

    def contains(self, key: Hashable, index: Optional[int] = None) -> bool:
        """True if ``key`` is stored in either tier (``index`` as in :meth:`get`)."""
        return self._find(key, index) is not None

    def get_many(self, keys: np.ndarray, indexes: Optional[np.ndarray]) -> List[Any]:
        """The values of a batch of keys (``indexes`` their hash indexes),
        in the order given; raises :class:`KeyError` for the first absent key.

        One ``searchsorted`` of the whole batch over the run's index column:
        a key whose last equal-index run row is its own is served by one
        vectorized gather.  The rest — an index span holding other keys
        (hash collisions, duplicates) or rows only the hash tier has — take
        :meth:`_find`.  Sorted needles make the search cache-friendly.
        ``indexes=None`` looks every key up on its own.
        """
        run = self._sorted_run()
        if run is None:
            items = self._items
            return [items[key][1] for key in keys.tolist()]
        if indexes is None:
            return [self.get_value(key) for key in keys.tolist()]
        run_keys, run_indexes, run_values = run
        last = np.searchsorted(run_indexes, indexes, side="right") - 1
        at = np.maximum(last, 0)
        hit = (last >= 0) & (run_indexes[at] == indexes) & (run_keys[at] == keys)
        out = np.empty(len(keys), dtype=object)
        if run_values is not None:
            out[hit] = run_values[at[hit]]
        missed = np.flatnonzero(~hit)
        for row, key, index in zip(
            missed.tolist(), keys[missed].tolist(), indexes[missed].tolist()
        ):
            found = self._find(key, index)
            if found is None:
                raise KeyError(key)
            out[row] = found[1]
        return out.tolist()

    def key_columns(self) -> List[np.ndarray]:
        """Every stored key, tier by tier, as columns: the hash tier's keys
        (an object column), then each pending segment's key column.

        Strictly read-only, like :meth:`count_buckets`: the storage
        invariant check routes these columns and never folds the store.
        """
        hash_keys = np.empty(len(self._items), dtype=object)
        hash_keys[:] = list(self._items)
        return [hash_keys, *(segment[0] for segment in self._segments)]

    def delete(self, key: Hashable) -> StoredItem:
        """Remove and return an item; raises :class:`KeyError` if absent,
        leaving the store unfolded (a failed delete is not logged, so it
        must change nothing a replay would not)."""
        if self._segments:
            if self._find(key) is None:
                raise KeyError(key)
            self._merge_segments()
        item = StoredItem(*self._items.pop(key))
        if self.durable is not None:
            self._log(("del", key))
        return item

    def __contains__(self, key: Hashable) -> bool:
        return self.contains(key)

    # -- read-only columnar views ------------------------------------------------

    def _newest_index(self) -> Optional[Dict[Hashable, Any]]:
        """``key -> index`` of the row a fold would keep, for a :attr:`foreign`
        store, a key of which may sit under several indexes; else ``None``."""
        if not self.foreign:
            return None
        newest = {key: item[0] for key, item in self._items.items()}
        run = self._sorted_run()
        if run is not None:
            newest.update(zip(run[0].tolist(), run[1].tolist()))
        return newest

    def newest_rows(self, starts: np.ndarray, lasts: np.ndarray) -> List[_Segment]:
        """Per ``[start, last]`` range, the rows a fold would leave in it —
        the newest row of each key — as index-sorted ``(keys, indexes,
        values)`` columns (``values`` ``None`` when every value is):
        :meth:`copy_buckets`' parts after vectorized last-write-wins
        (:func:`_newest`).  Never folds, never logs."""
        newest = self._newest_index()
        return [_newest(*parts, starts.dtype, newest) for parts in self.copy_buckets(starts, lasts)]

    def _all_newest(self) -> _Segment:
        """:meth:`newest_rows` over the whole store, as one triple."""
        run = self._sorted_run()
        dtype = np.dtype(object) if run is None else run[1].dtype
        return _newest(list(self._items.items()), [run] if run else [], dtype, self._newest_index())

    def __len__(self) -> int:
        return len(self._all_newest()[0])

    def items(self) -> Iterator[Tuple[Hashable, StoredItem]]:
        """Iterate over ``(key, stored_item)`` pairs, in hash-index order;
        never folds (see :meth:`newest_rows`)."""
        keys, indexes, values = self._all_newest()
        values = [None] * len(keys) if values is None else values.tolist()
        for key, index, value in zip(keys.tolist(), indexes.tolist(), values):
            yield key, StoredItem(index, value)

    # -- segment-aware range primitives ------------------------------------------

    def _hash_tier_columns(self, dtype) -> Tuple[np.ndarray, np.ndarray]:
        """The hash tier as ``(keys, indexes)`` columns (for range bucketing)."""
        n = len(self._items)
        keys_arr = np.empty(n, dtype=object)
        keys_arr[:] = list(self._items.keys())
        if dtype == object:
            idx_arr = np.empty(n, dtype=object)
            idx_arr[:] = [item[0] for item in self._items.values()]
        else:
            idx_arr = np.fromiter(
                (item[0] for item in self._items.values()), dtype=dtype, count=n
            )
        return keys_arr, idx_arr

    def _sorted_run(self) -> Optional[_Segment]:
        """Establish the index-sorted run over *every* pending row; return it.

        Run and tail are concatenated in write order and sorted by hash
        index with one stable argsort, so the rows of one key (one index)
        keep their write order and last-write-wins survives the merge.  The
        reads and the passes that rewrite or copy the store call this;
        :meth:`count_buckets` must not.  ``None`` when nothing is pending.
        """
        segments = self._segments
        if not segments:
            return None
        if not self._sorted or len(segments) > 1:
            keys, indexes, values = _concat_segments(segments)
            order = np.argsort(indexes, kind="stable")
            self._set_run(
                (keys[order], indexes[order], None if values is None else values[order])
            )
        return self._segments[0]

    def _set_run(self, run: Optional[_Segment]) -> None:
        """Make ``run`` (index-sorted; ``None`` or empty for no rows) the whole
        segment tier.  ``run``'s arrays must be fresh — owned by no one else
        and writable — because :meth:`put` overwrites values in place."""
        self._segments = [run] if run is not None and len(run[0]) else []
        self._sorted = bool(self._segments)

    def pop_buckets(self, starts: np.ndarray, lasts: np.ndarray) -> List[_Parts]:
        """Pop every item whose hash index falls in one of the given ranges,
        *without* merging pending segments.

        ``starts``/``lasts`` describe disjoint ``[start, last]`` (inclusive)
        ranges sorted by start, one bucket per range.  Returns one
        ``(pairs, segments)`` entry per range: the raw hash-tier pairs plus
        the range's slice of the sorted run (a copy, still columnar).  Rows
        outside every range stay — hash-tier items in the dict, segment rows
        in the run, rewritten as one concatenation of the gaps.
        """
        buckets: List[_Parts] = [([], []) for _ in range(len(starts))]

        if self._items:
            keys_arr, idx_arr = self._hash_tier_columns(starts.dtype)
            pos, inside = locate_ranges(idx_arr, starts, lasts)
            pop = self._items.pop
            for bucket, rows in _bucket_rows(pos, inside):
                pairs = buckets[bucket][0]
                for key in keys_arr[rows].tolist():
                    pairs.append((key, pop(key)))

        run = self._sorted_run()
        if run is not None:
            gaps: _Spans = []
            kept_from = 0
            for bucket, (lo, hi) in enumerate(_run_spans(run[1], starts, lasts)):
                if hi > lo:
                    buckets[bucket][1].append(_take_spans(run, [(lo, hi)]))
                    gaps.append((kept_from, lo))
                    kept_from = hi
            if gaps:
                gaps.append((kept_from, len(run[1])))
                self._set_run(_take_spans(run, gaps))

        if self.durable is not None and any(p[0] or p[1] for p in buckets):
            self._log(("drop", starts.tolist(), lasts.tolist()))
        return buckets

    def copy_buckets(self, starts: np.ndarray, lasts: np.ndarray) -> List[_Parts]:
        """Like :meth:`pop_buckets` but the store keeps every row: the
        returned parts reference (hash tier) or copy (run slices) the
        matching data.  Establishes the run like every copying pass.

        Used by the replica sync pass to copy a primary's range into a
        replica store.
        """
        buckets: List[_Parts] = [([], []) for _ in range(len(starts))]

        if self._items:
            keys_arr, idx_arr = self._hash_tier_columns(starts.dtype)
            pos, inside = locate_ranges(idx_arr, starts, lasts)
            items = self._items
            for bucket, rows in _bucket_rows(pos, inside):
                pairs = buckets[bucket][0]
                for key in keys_arr[rows].tolist():
                    pairs.append((key, items[key]))

        run = self._sorted_run()
        if run is not None:
            for bucket, (lo, hi) in enumerate(_run_spans(run[1], starts, lasts)):
                if hi > lo:
                    buckets[bucket][1].append(_take_spans(run, [(lo, hi)]))

        return buckets

    def count_buckets(self, starts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
        """Physical row count per range, without merging or mutating anything.

        Returns an ``int64`` array with one entry per ``[start, last]`` range.
        Rows are counted across both tiers; like :meth:`fast_len`, a key
        stored in several tiers counts once per occurrence.  Strictly
        read-only: the run is binary-searched, the unsorted tail scanned, no
        segment is replaced — a verification pass over a bulk-loaded cluster
        must not rewrite (and so re-allocate) every store.
        """
        counts = np.zeros(len(starts), dtype=np.int64)
        if len(starts) == 0:
            return counts
        if self._items:
            _, idx_arr = self._hash_tier_columns(starts.dtype)
            counts += _unsorted_counts(idx_arr, starts, lasts)
        tail = self._segments
        if self._sorted:
            indexes = tail[0][1]
            counts += np.searchsorted(indexes, lasts, side="right")
            counts -= np.searchsorted(indexes, starts, side="left")
            tail = tail[1:]
        for segment in tail:
            counts += _unsorted_counts(segment[1], starts, lasts)
        return counts

    def drop_outside(self, starts: np.ndarray, lasts: np.ndarray) -> int:
        """Discard every row whose hash index lies in none of the ranges.

        The retention pass of the replica sync: a replica store keeps only
        the ranges its vnode is still assigned.  Returns the number of rows
        dropped.  The run is cut to the concatenation of the ranges' slices,
        never merged.
        """
        dropped = 0
        if self._items:
            keys_arr, idx_arr = self._hash_tier_columns(starts.dtype)
            _, inside = locate_ranges(idx_arr, starts, lasts)
            out_rows = np.flatnonzero(~inside)
            for key in keys_arr[out_rows].tolist():
                del self._items[key]
            dropped += int(out_rows.size)
        run = self._sorted_run()
        if run is not None:
            spans = [(lo, hi) for lo, hi in _run_spans(run[1], starts, lasts) if hi > lo]
            kept = sum(hi - lo for lo, hi in spans)
            if kept < len(run[1]):
                dropped += len(run[1]) - kept
                self._set_run(_take_spans(run, spans) if spans else None)
        if dropped and self.durable is not None:
            self._log(("retain", starts.tolist(), lasts.tolist()))
        return dropped

    def _clear(self) -> None:
        """Forget both in-memory tiers."""
        self._items = {}
        self._segments = []
        self._sorted = False

    def wipe(self) -> int:
        """Discard every row (both tiers); returns the physical rows destroyed.

        This is what a crash does to a store — no migration, no drain.  A
        crash takes the machine's disk with it, so the durable state (if
        any) is reset too; a *restart* — memory lost, disk intact — goes
        through :meth:`lose_memory` instead.
        """
        n = self.fast_len()
        self._clear()
        self.foreign = False
        if self.durable is not None:
            self.durable.reset()
        return n

    def lose_memory(self) -> int:
        """Drop both in-memory tiers but keep the durable state (kill -9).

        Marks the durable log (when present) as *needing replay*: the disk
        is now ahead of RAM, and recovery must either replay it or — when a
        replica rebuild is chosen instead — discard it.  Returns the number
        of physical rows that vanished from memory.
        """
        n = self.fast_len()
        self._clear()
        if self.durable is not None:
            self.durable.needs_replay = True
        return n

    def adopt_parts(
        self,
        pairs: Iterable[Tuple[Hashable, Tuple[int, Any]]],
        segments: Iterable[_Segment],
        foreign: bool = False,
    ) -> None:
        """Adopt parts popped from another store by :meth:`pop_buckets`.

        The adopted items' hash indexes must lie in ranges this store did not
        previously own (true for every partition handover), so no key can
        collide with existing data and neither side's pending segments need
        merging: pairs go straight into the hash tier, segments are folded
        into the sorted run (after it in write order), so a store shredded by
        a long churn never makes later read-only range passes O(adoptions).
        A handover's segments are sorted, disjoint and hold no run row
        between their first and last index, so they are spliced between run
        slices (:func:`_splice`) instead of re-sorting the whole store; any
        other adoption is concatenated and stably sorted.  ``foreign`` is
        the source store's :attr:`foreign` flag.

        A checkpoint snapshots the in-memory tiers and deletes the WAL, so it
        may only run once every logged part is also in memory: all records
        are appended first, then applied, then the log is checkpointed at
        most once.
        """
        durable = self.durable
        segments = [(_comparable_keys(keys), idx, values) for keys, idx, values in segments]
        if foreign:
            self.mark_foreign()
        if durable is not None:
            pairs = list(pairs)
            if pairs:
                durable.append(("pairs", pairs))
            for seg_keys, seg_indexes, seg_values in segments:
                durable.append(("batch", seg_keys, seg_indexes, seg_values))
        self._items.update(pairs)
        segments = [segment for segment in segments if len(segment[0])]
        if segments:
            run = _splice(self._sorted_run(), segments)
            if run is None:
                self._segments.extend(segments)
                self._sorted_run()
            else:
                self._set_run(run)
        if durable is not None and durable.should_checkpoint():
            durable.checkpoint(self._items, self._segments, self.foreign)

    def materialize_segments(self, owns) -> int:
        """Copy pending-segment columns out of foreign-owned memory.

        ``owns(array) -> bool`` identifies columns living in memory whose
        lifetime this store does not control — the shared-memory blocks the
        parallel bulk pipeline adopts zero-copy.  Called before that memory
        is torn down (``BaseDHT.close``).  Returns the number of segments
        rewritten.
        """
        changed = 0
        for i, (keys, indexes, values) in enumerate(self._segments):
            new_keys = keys.copy() if owns(keys) else keys
            new_indexes = indexes.copy() if owns(indexes) else indexes
            if new_keys is not keys or new_indexes is not indexes:
                self._segments[i] = (new_keys, new_indexes, values)
                changed += 1
        return changed

    def replay(
        self,
        state: RecoveredState,
        index_column: Callable[[Sequence[int]], np.ndarray],
    ) -> None:
        """Rebuild the store from what :meth:`DurableVnodeStore.recover` read.

        Each checkpoint tier goes back into its tier (the store adopts the
        columns), then every WAL record runs through the mutator
        that logged it, with logging off — so every ``put`` makes the same
        in-place-or-fold decision it made live.  ``index_column`` turns a
        logged range's bound list into an index column
        (:meth:`DHTStorage.range_arrays`' dtype).  :attr:`foreign` starts
        at the checkpoint's value and is set again where a ``foreign``
        record was logged.  A ``del`` of an absent key — its row was in a
        checkpoint a corrupt manifest hid — is skipped.
        """
        durable, self.durable = self.durable, None
        try:
            self._clear()
            self.foreign = state.foreign
            if state.hash_tier is not None:
                self._segments = [state.hash_tier]
                self._merge_segments()
            self._segments = [
                (_comparable_keys(keys), indexes, values)
                for keys, indexes, values in state.segments
                if len(keys)
            ]
            for op in state.ops:
                kind = op[0]
                if kind == "batch":
                    self.put_many(op[1], op[2], op[3])
                elif kind == "put":
                    self.put(op[1], op[2], op[3])
                elif kind == "del":
                    try:
                        self.delete(op[1])
                    except KeyError:
                        pass
                elif kind == "pairs":
                    self.adopt_parts(op[1], [])
                elif kind == "drop":
                    self.pop_buckets(index_column(op[1]), index_column(op[2]))
                elif kind == "retain":
                    self.drop_outside(index_column(op[1]), index_column(op[2]))
                elif kind == "foreign":
                    self.mark_foreign()
                else:
                    raise StorageError(f"unknown WAL op kind {kind!r}")
        finally:
            self.durable = durable


@dataclass
class MigrationStats:
    """Counters describing the data movement caused by rebalancing."""

    partitions_moved: int = 0
    items_moved: int = 0
    migrations: int = 0

    def record(self, items: int) -> None:
        """Account for one partition handover that moved ``items`` items."""
        self.partitions_moved += 1
        self.items_moved += items
        self.migrations += 1

    def reset(self) -> None:
        """Zero all counters."""
        self.partitions_moved = 0
        self.items_moved = 0
        self.migrations = 0


@dataclass
class ReplicationStats:
    """Counters describing replica maintenance and crash recovery."""

    #: Rows ingested into replica stores by the write fan-out.
    replica_rows_written: int = 0
    #: Rows copied primary → replica by the sync pass (refills).
    rows_refilled: int = 0
    ranges_refilled: int = 0
    #: Rows moved replica → primary by crash recovery (columnar pop/adopt).
    rows_restored: int = 0
    ranges_restored: int = 0
    #: Stale replica rows discarded (placement changes, vnode removal).
    rows_dropped: int = 0
    #: Physical rows destroyed by crashes (primary + replica tiers).
    rows_wiped: int = 0
    crashes: int = 0
    syncs: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-serializable form (snapshots, churn/bench reports)."""
        return {
            "replica_rows_written": self.replica_rows_written,
            "rows_refilled": self.rows_refilled,
            "ranges_refilled": self.ranges_refilled,
            "rows_restored": self.rows_restored,
            "ranges_restored": self.ranges_restored,
            "rows_dropped": self.rows_dropped,
            "rows_wiped": self.rows_wiped,
            "crashes": self.crashes,
            "syncs": self.syncs,
        }

    def reset(self) -> None:
        """Zero all counters."""
        for name in self.as_dict():
            setattr(self, name, 0)


class DHTStorage:
    """DHT-wide storage coordinator.

    The DHT classes call :meth:`register_vnode` / :meth:`unregister_vnode` as
    vnodes come and go, :meth:`migrate_partition` whenever the balancer moves
    a partition, and :meth:`put` / :meth:`get` / :meth:`delete` for client
    operations (after routing the key to the owning vnode).  The batch
    entry points — :meth:`put_batch` / :meth:`get_batch` — ingest or serve a
    whole per-vnode group of items in one call; grouping keys by owning
    vnode is the router's job (see :meth:`repro.core.base.BaseDHT.bulk_load`),
    so the per-vnode stores are each touched exactly once per batch.

    The write entry points take the hash index of every row from the
    caller.  The router computed it (``routed=True``); any other caller —
    a node serving the wire, a snapshot restore, a test — has its indexes
    checked against the keys' hashes, and a store handed a row under any
    other index is flagged :attr:`VnodeStore.foreign`, so its reads still
    find the row.  The flag is logged, so a store re-attached to its log
    (``register_vnode(fresh=False)``) gets it back from the replay.
    """

    def __init__(
        self,
        hash_space: HashSpace,
        durability: Optional[DurabilityConfig] = None,
    ):
        self.hash_space = hash_space
        self._stores: Dict[VnodeRef, VnodeStore] = {}
        #: Per-vnode stores of *replica* rows: items this vnode holds as a
        #: non-primary replica of partitions owned by other vnodes.  Kept
        #: strictly separate from the primary stores so routing, migration
        #: and the storage-consistency invariant stay untouched.
        self._replica_stores: Dict[VnodeRef, VnodeStore] = {}
        self.stats = MigrationStats()
        self.replication = ReplicationStats()
        #: Counters of the durable tier (zeros when durability is off).
        self.durability = DurabilityStats()
        #: Manager of the per-vnode durable logs, or ``None`` for the
        #: RAM-only model.  Only *primary* stores are durable: replica rows
        #: are soft copies the sync pass can always rebuild, while the WAL
        #: covers acknowledged writes.
        self.durable: Optional[DurableStoreManager] = (
            DurableStoreManager(durability, self.durability)
            if durability is not None
            else None
        )

    # -- vnode lifecycle -------------------------------------------------------

    def register_vnode(self, ref: VnodeRef, fresh: bool = True) -> None:
        """Create an empty store (and replica store) for a new vnode.

        ``fresh=False`` keeps any existing durable state of the vnode on
        disk and marks it for replay instead of resetting it — the path a
        rebooted server process takes to re-adopt the vnodes it hosted.
        """
        if ref in self._stores:
            raise StorageError(f"storage for vnode {ref} already exists")
        log = self.durable.attach(ref, fresh=fresh) if self.durable is not None else None
        self._stores[ref] = VnodeStore(ref, durable=log)
        self._replica_stores[ref] = VnodeStore(ref)

    def unregister_vnode(self, ref: VnodeRef) -> VnodeStore:
        """Drop a vnode's store (its items must have been migrated already).

        The vnode's *replica* rows are redundant copies of data whose
        primaries live elsewhere, so they are simply discarded (and counted
        in :attr:`ReplicationStats.rows_dropped`); the next sync pass
        re-creates them on the vnodes the new placement assigns.
        """
        store = self._store(ref)
        if store.fast_len() > 0:
            raise StorageError(
                f"cannot unregister vnode {ref}: {len(store)} items still stored"
            )
        replica = self._replica_stores.pop(ref)
        self.replication.rows_dropped += replica.fast_len()
        if self.durable is not None:
            self.durable.detach(ref)
        return self._stores.pop(ref)

    def has_vnode(self, ref: VnodeRef) -> bool:
        """True if a store exists for the vnode."""
        return ref in self._stores

    def primary_store(self, ref: VnodeRef) -> VnodeStore:
        """The vnode's primary :class:`VnodeStore`.

        Interface method for the engine subsystems (placement-aware sync,
        recovery, snapshots) that need direct columnar access —
        ``count_buckets`` / ``pop_buckets`` / ``adopt_parts`` — to one
        vnode's primary tier.  Raises :class:`UnknownVnodeError` for vnodes
        without registered storage.
        """
        try:
            return self._stores[ref]
        except KeyError:
            raise UnknownVnodeError(f"no storage registered for vnode {ref}") from None

    def replica_store(self, ref: VnodeRef) -> VnodeStore:
        """The vnode's replica-tier :class:`VnodeStore` (see :meth:`primary_store`)."""
        try:
            return self._replica_stores[ref]
        except KeyError:
            raise UnknownVnodeError(
                f"no replica storage registered for vnode {ref}"
            ) from None

    def replica_store_items(self) -> Iterator[Tuple[VnodeRef, VnodeStore]]:
        """Iterate ``(vnode, replica store)`` pairs in registration order.

        The replica-sync and recovery passes walk every replica tier; this
        is their sanctioned way in (instead of reaching for the private
        store dictionaries).
        """
        return iter(self._replica_stores.items())

    # Internal aliases kept short for the hot paths below.
    _store = primary_store
    _replica = replica_store

    # -- client operations ---------------------------------------------------------

    def _check_index(self, index: int) -> None:
        """Refuse a point write whose hash index lies outside the hash space."""
        if not self.hash_space.contains(index):
            raise StorageError(f"hash index {index} outside the hash space")

    def _foreign_index(self, key: Hashable, index: int) -> bool:
        """Whether ``index`` is not ``key``'s hash index (or ``key`` has none)."""
        try:
            return self.hash_space.hash_key(key) != index
        except (TypeError, ValueError):
            return True

    def _foreign_indexes(self, keys: np.ndarray, indexes: np.ndarray) -> bool:
        """Whether some ``indexes[i]`` is not ``keys[i]``'s hash index."""
        try:
            return bool(np.any(self.hash_space.hash_keys(keys) != indexes))
        except (TypeError, ValueError):
            return True

    def _search_index(self, store: VnodeStore, key: Hashable, index: Optional[int]) -> Optional[int]:
        """The hash index a read of ``key`` searches ``store``'s run at: the
        caller's, else the key's own hash — computed only when the store has
        pending rows (a folded store is one dict lookup).  ``None`` for a key
        no hash function takes; the read then scans the run for it."""
        if index is not None or not store._segments:
            return index
        try:
            return self.hash_space.hash_key(key)
        except TypeError:
            return None

    def _index_column(self, indexes: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """A batch read's index column in the dtype the runs hold: ``uint64``,
        or python ints in an object column past 64 bits."""
        if self.hash_space.bh <= 64:
            return np.asarray(indexes, dtype=np.uint64)
        column = np.asarray(indexes)
        return column if column.dtype == object else column.astype(object)

    def put(
        self, owner: VnodeRef, key: Hashable, index: int, value: Any, routed: bool = False
    ) -> None:
        """Store an item under the vnode that owns hash index ``index``
        (``routed``: see the class docstring)."""
        self._check_index(index)
        self._point_write(self._store(owner), key, index, value, routed)

    def _point_write(
        self, store: VnodeStore, key: Hashable, index: int, value: Any, routed: bool
    ) -> None:
        # A put that landed in place found the key at ``index`` in the run of
        # a store without foreign rows, so ``index`` is the key's hash index.
        if not (store.put(key, index, value) or routed or store.foreign):
            if self._foreign_index(key, index):
                store.mark_foreign()

    def _ingest_batch(
        self,
        store: VnodeStore,
        keys: Union[Sequence[Hashable], np.ndarray],
        indexes: Union[Sequence[int], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]],
        routed: bool,
    ) -> int:
        """Validate and columnar-ingest one batch into ``store`` (shared by
        the primary and replica bulk write paths)."""
        n = len(keys)
        if len(indexes) != n or (values is not None and len(values) != n):
            raise StorageError(
                f"put_batch columns disagree: {n} keys, {len(indexes)} indexes, "
                f"{'none' if values is None else len(values)} values"
            )
        if n == 0:
            return 0
        index_arr = np.array(indexes)  # always a fresh copy
        if index_arr.dtype == object:
            lo, hi = min(indexes), max(indexes)
        else:
            lo, hi = int(index_arr.min()), int(index_arr.max())
        if not self.hash_space.contains(lo) or not self.hash_space.contains(hi):
            raise StorageError("put_batch: hash index outside the hash space")
        if self.hash_space.bh <= 64 and index_arr.dtype != np.uint64:
            # Normalize the segment's index column so migration-time range
            # searches compare a single dtype (values are validated in-range).
            index_arr = index_arr.astype(np.uint64)
        key_arr = _comparable_keys(np.array(as_object_column(keys)))
        value_arr = None if values is None else np.array(as_object_column(values))
        if not (routed or store.foreign) and self._foreign_indexes(key_arr, index_arr):
            store.mark_foreign()
        store.put_many(key_arr, index_arr, value_arr)
        return n

    def put_batch(
        self,
        owner: VnodeRef,
        keys: Union[Sequence[Hashable], np.ndarray],
        indexes: Union[Sequence[int], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]] = None,
        routed: bool = False,
    ) -> int:
        """Bulk-store a group of items that all route to the same vnode.

        Validates the whole index column at once (min/max) instead of per
        item, then hands the columns to :meth:`VnodeStore.put_many` as one
        columnar segment.  The columns are copied on the way in (a shallow,
        references-only copy for object arrays), so callers remain free to
        mutate their arrays after the call.  ``values=None`` stores ``None``
        for every key; ``routed`` is as in the class docstring.  Returns the
        number of items ingested.
        """
        return self._ingest_batch(self._store(owner), keys, indexes, values, routed)

    def put_batch_columns(
        self,
        owner: VnodeRef,
        keys: np.ndarray,
        indexes: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> int:
        """Adopt pre-validated columns as one segment — the trusted fast
        path of the parallel bulk pipeline.

        Unlike :meth:`put_batch` the columns are adopted *as is*: no length,
        range or hash check (the caller's hash kernel produced the index
        column already masked to the hash space) and no defensive copy (the
        columns are shared-memory views or freshly gathered arrays the
        caller promises never to mutate).  Establishing the run and slicing
        it always build new arrays, so adopted views are safe downstream.
        """
        self._store(owner).put_many(keys, indexes, values)
        return len(keys)

    def put_replica_batch_columns(
        self,
        owner: VnodeRef,
        keys: np.ndarray,
        indexes: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> int:
        """Replica-store counterpart of :meth:`put_batch_columns`.

        The parallel replica fan-out adopts the *same* column arrays for
        the primary and every replica rank — safe because segments are
        immutable once appended (every mutation path replaces them).
        """
        self._replica(owner).put_many(keys, indexes, values)
        self.replication.replica_rows_written += len(keys)
        return len(keys)

    def materialize_shared(self, owns) -> int:
        """Copy every store's segments out of foreign-owned (shm) memory.

        See :meth:`VnodeStore.materialize_segments`; walks every primary
        and replica store.  Returns the number of segments rewritten.
        """
        changed = 0
        for store in self._stores.values():
            changed += store.materialize_segments(owns)
        for store in self._replica_stores.values():
            changed += store.materialize_segments(owns)
        return changed

    def get(self, owner: VnodeRef, key: Hashable, index: Optional[int] = None) -> Any:
        """Fetch the value stored for ``key`` at vnode ``owner``.

        ``index`` is the key's hash index when the caller has routed it
        (the store's run is searched there); without it the key is hashed
        here.  Never folds the store (see :meth:`VnodeStore.get`).
        """
        return self._read(self._store(owner), key, index)

    def _read(self, store: VnodeStore, key: Hashable, index: Optional[int]) -> Any:
        try:
            return store.get_value(key, self._search_index(store, key, index))
        except KeyError:
            raise KeyError(key) from None

    def get_batch(
        self,
        owner: VnodeRef,
        keys: Union[Sequence[Hashable], np.ndarray],
        indexes: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> List[Any]:
        """Fetch the values for a group of keys stored at one vnode.

        ``indexes`` is the keys' hash index column (hashed here when
        omitted); sorted needles make the run search cache-friendly.  One
        :meth:`VnodeStore.get_many`, never a fold.  Raises
        :class:`KeyError` for the first absent key, like :meth:`get`.
        """
        store = self._store(owner)
        keys = as_object_column(keys)
        if indexes is not None:
            indexes = self._index_column(indexes)
        elif store._segments:
            try:
                indexes = self.hash_space.hash_keys(keys)
            except TypeError:
                pass  # a key no hash function takes: per-key run scans
        try:
            return store.get_many(keys, indexes)
        except KeyError as exc:
            raise KeyError(exc.args[0]) from None

    def delete(self, owner: VnodeRef, key: Hashable) -> Any:
        """Delete and return the value stored for ``key`` at vnode ``owner``."""
        try:
            return self._store(owner).delete(key).value
        except KeyError:
            raise KeyError(key) from None

    def contains(self, owner: VnodeRef, key: Hashable, index: Optional[int] = None) -> bool:
        """True if ``key`` is stored at vnode ``owner`` (``index`` as in :meth:`get`)."""
        store = self._store(owner)
        return store.contains(key, self._search_index(store, key, index))

    # -- replica operations ------------------------------------------------------

    def put_replica(
        self, owner: VnodeRef, key: Hashable, index: int, value: Any, routed: bool = False
    ) -> None:
        """Store a replica row at vnode ``owner`` (the write fan-out path).

        Validated exactly like :meth:`put`: the runtime feeds this straight
        from a replica ``PutRequest`` off the socket.
        """
        self._check_index(index)
        self._point_write(self._replica(owner), key, index, value, routed)
        self.replication.replica_rows_written += 1

    def put_replica_batch(
        self,
        owner: VnodeRef,
        keys: Union[Sequence[Hashable], np.ndarray],
        indexes: Union[Sequence[int], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]] = None,
        routed: bool = False,
    ) -> int:
        """Bulk-store replica rows at one vnode — :meth:`put_batch` against
        the vnode's replica store (same columnar ingest, same semantics)."""
        n = self._ingest_batch(self._replica(owner), keys, indexes, values, routed)
        self.replication.replica_rows_written += n
        return n

    def get_replica(self, owner: VnodeRef, key: Hashable, index: Optional[int] = None) -> Any:
        """Fetch the replica value stored for ``key`` at vnode ``owner``
        (``index`` as in :meth:`get`)."""
        return self._read(self._replica(owner), key, index)

    def contains_replica(
        self, owner: VnodeRef, key: Hashable, index: Optional[int] = None
    ) -> bool:
        """True if vnode ``owner`` holds a replica row for ``key``."""
        store = self._replica(owner)
        return store.contains(key, self._search_index(store, key, index))

    def delete_replica(self, owner: VnodeRef, key: Hashable) -> bool:
        """Delete the replica row for ``key`` at ``owner`` if present."""
        store = self._replica(owner)
        if key in store:
            store.delete(key)
            return True
        return False

    def replica_items_of(self, ref: VnodeRef) -> List[Tuple[Hashable, Any]]:
        """All ``(key, value)`` replica pairs held by a vnode."""
        return [(k, item.value) for k, item in self._replica(ref).items()]

    def wipe_vnode(self, ref: VnodeRef) -> int:
        """Destroy every row a vnode holds — primary and replica tiers.

        This models a crash: no drain, no migration, the data is simply
        gone.  Returns the number of physical rows destroyed (also recorded
        in :attr:`ReplicationStats.rows_wiped`).
        """
        wiped = self._store(ref).wipe() + self._replica(ref).wipe()
        self.replication.rows_wiped += wiped
        return wiped

    # -- durability --------------------------------------------------------------

    def lose_vnode_memory(self, ref: VnodeRef) -> int:
        """Drop a vnode's in-memory rows (primary and replica) but keep disk.

        This models a kill -9 followed by a reboot of the hosting machine:
        RAM is gone, the WAL and checkpoint segments survive.  Returns the
        number of physical rows that vanished from memory.
        """
        return self._store(ref).lose_memory() + self._replica(ref).lose_memory()

    def has_pending_replay(self) -> bool:
        """True when some durable log holds data its store has not replayed."""
        return self.durable is not None and self.durable.has_pending()

    def replay_vnode(self, ref: VnodeRef) -> RecoveredState:
        """Recover a vnode's primary rows from its durable log.

        :meth:`DurableVnodeStore.recover` reads the disk and
        :meth:`VnodeStore.replay` applies it through the store's own
        mutators, logging nothing — the rows are already on disk.  The
        store being rebuilt anyway, its run is sorted here rather than by
        the first range pass that follows.  The returned state's ``rows`` is
        the replayed store's :meth:`VnodeStore.fast_len`.
        """
        store = self._store(ref)
        if store.durable is None:
            raise StorageError(f"vnode {ref} has no durable log to replay")
        state = store.durable.recover()
        store.replay(state, self._index_column)
        store._sorted_run()
        rows = store.fast_len()
        self.durability.rows_replayed += rows
        return replace(state, rows=rows)

    # -- counting ----------------------------------------------------------------

    def item_count(self, ref: Optional[VnodeRef] = None) -> int:
        """Number of *primary* items stored at one vnode, or in the whole DHT
        (the logical item count — replicas are not included)."""
        if ref is not None:
            return len(self._store(ref))
        return sum(len(s) for s in self._stores.values())

    def replica_item_count(self, ref: Optional[VnodeRef] = None) -> int:
        """Number of replica rows held at one vnode, or in the whole DHT."""
        if ref is not None:
            return len(self._replica(ref))
        return sum(len(s) for s in self._replica_stores.values())

    def fast_item_count(self, ref: Optional[VnodeRef] = None) -> int:
        """Physical rows (primary + replica tiers) without merging segments.

        With a fully synced replication factor ``k`` this equals ``k ×``
        the logical item count; with ``k = 1`` it reduces to the primary
        count exactly as before replication existed.  Exact whenever no key
        is stored twice in one store (the common case: distinct keys); an
        upper bound otherwise.  See :meth:`VnodeStore.fast_len`.
        """
        if ref is not None:
            return self._store(ref).fast_len() + self._replica(ref).fast_len()
        return sum(s.fast_len() for s in self._stores.values()) + sum(
            s.fast_len() for s in self._replica_stores.values()
        )

    def fast_primary_count(self, ref: Optional[VnodeRef] = None) -> int:
        """Primary rows only, without merging pending segments."""
        if ref is not None:
            return self._store(ref).fast_len()
        return sum(s.fast_len() for s in self._stores.values())

    def fast_replica_count(self, ref: Optional[VnodeRef] = None) -> int:
        """Replica rows only, without merging pending segments."""
        if ref is not None:
            return self._replica(ref).fast_len()
        return sum(s.fast_len() for s in self._replica_stores.values())

    def items_of(self, ref: VnodeRef) -> List[Tuple[Hashable, Any]]:
        """All primary ``(key, value)`` pairs stored at a vnode."""
        return [(k, item.value) for k, item in self._store(ref).items()]

    def primary_rows(self, ref: VnodeRef) -> List[Tuple[Hashable, StoredItem]]:
        """All primary ``(key, (index, value))`` rows stored at a vnode.

        Unlike :meth:`items_of` this keeps the hash index, which snapshots
        and the golden-equivalence harness need to round-trip rows exactly.
        """
        return list(self._store(ref).items())

    def replica_rows(self, ref: VnodeRef) -> List[Tuple[Hashable, StoredItem]]:
        """All replica-tier ``(key, (index, value))`` rows held by a vnode."""
        return list(self._replica(ref).items())

    def primary_range_counts(
        self, ref: VnodeRef, ranges: Sequence[Tuple[int, int]]
    ) -> np.ndarray:
        """Primary rows per ``[start, last]`` (inclusive) range, merge-free.

        One :meth:`VnodeStore.count_buckets` pass over the vnode's primary
        store — the measurement primitive of the load-aware rebalancing
        engine (:func:`repro.core.rebalance.measure_loads`) and of
        :meth:`~repro.core.base.BaseDHT.verify_replication`.  Ranges must
        be disjoint and sorted by start (``Vnode.sorted_ranges`` order).
        """
        starts, lasts = self.range_arrays(ranges)
        return self._store(ref).count_buckets(starts, lasts)

    # -- migration --------------------------------------------------------------------

    def range_arrays(self, ranges: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """``[start, last]`` (inclusive) range columns for :meth:`VnodeStore.pop_buckets`.

        Last-inclusive keeps the arrays inside ``uint64`` even when a range
        ends exactly at ``2**64``; hash spaces wider than 64 bits fall back to
        object arrays of python ints.  Interface method: the replica-sync /
        recovery passes and the rebalancing engine build their bucket
        columns through it.
        """
        if self.hash_space.bh <= 64:
            starts = np.array([r[0] for r in ranges], dtype=np.uint64)
            lasts = np.array([r[1] for r in ranges], dtype=np.uint64)
        else:
            starts = np.empty(len(ranges), dtype=object)
            starts[:] = [r[0] for r in ranges]
            lasts = np.empty(len(ranges), dtype=object)
            lasts[:] = [r[1] for r in ranges]
        return starts, lasts

    def migrate_partition(
        self, partition: Partition, source: VnodeRef, target: VnodeRef
    ) -> int:
        """Move every item stored under ``partition`` from ``source`` to ``target``.

        Returns the number of items moved.  Called by the DHT right after the
        entity layer hands the partition over, so routing and storage stay
        consistent.  The partition's slice of the source's sorted run is
        adopted by the target still columnar; hash-tier items move as raw
        tuples into one ``dict.update``.

        A self-migration (``source == target``) is a guarded no-op: it moves
        nothing and leaves :class:`MigrationStats` untouched (it used to
        record a phantom handover).
        """
        src = self._store(source)
        dst = self._store(target)
        if source == target:
            return 0
        start, end = self.hash_space.partition_range(partition)
        starts, lasts = self.range_arrays([(start, end - 1)])
        pairs, segments = src.pop_buckets(starts, lasts)[0]
        moved = parts_size((pairs, segments))
        dst.adopt_parts(pairs, segments, foreign=src.foreign)
        self.stats.record(moved)
        return moved

    def migrate_partitions(
        self, source: VnodeRef, moves: Sequence[Tuple[Partition, VnodeRef]]
    ) -> int:
        """Move many partitions out of ``source`` in one storage pass.

        ``moves`` lists disjoint partitions of ``source`` with their new
        owners.  The hash tier is scanned once for *all* ranges (one
        ``searchsorted`` bucketing instead of one full scan per partition,
        which is what makes draining a vnode O(items) instead of
        O(items × partitions)); the sorted run is sliced once per range and
        rewritten once.  Stats record one handover per partition, exactly
        like per-partition :meth:`migrate_partition` calls would.
        Self-moves (target == source) are skipped without touching stats.
        Returns the total number of items moved.
        """
        real = [(p, t) for p, t in moves if t != source]
        src = self._store(source)
        if not real:
            return 0
        bh = self.hash_space.bh
        real.sort(key=lambda move: move[0].start(bh))
        targets = [self._store(t) for _, t in real]
        starts, lasts = self.range_arrays(
            [(p.start(bh), p.end(bh) - 1) for p, _ in real]
        )
        buckets = src.pop_buckets(starts, lasts)
        per_target: Dict[VnodeRef, _Parts] = {}
        total = 0
        for (_, target), parts in zip(real, buckets):
            moved = parts_size(parts)
            self.stats.record(moved)
            total += moved
            acc = per_target.setdefault(target, ([], []))
            acc[0].extend(parts[0])
            acc[1].extend(parts[1])
        for target, store in zip((t for _, t in real), targets):
            if target in per_target:
                pairs, segments = per_target.pop(target)
                store.adopt_parts(pairs, segments, foreign=src.foreign)
        return total

    def migrate_all(self, source: VnodeRef, target: VnodeRef) -> int:
        """Move every item from ``source`` to ``target`` (vnode removal).

        Pending segments move without merging (they are simply re-homed on
        the target), so the count returned — and recorded in stats — is the
        number of rows moved, which can exceed the number of distinct keys if
        a key occurs in several tiers.  A self-migration (``source ==
        target``) is a guarded no-op that leaves stats untouched — it used to
        re-insert every item into the same dict and then wipe it, destroying
        the vnode's data.
        """
        src = self._store(source)
        dst = self._store(target)
        if source == target:
            return 0
        moved = src.fast_len()
        if moved:
            dst.adopt_parts(src._items.items(), src._segments, foreign=src.foreign)
            src.wipe()  # its log is reset, so its flag must be too
            self.stats.record(moved)
        return moved

    def total_items(self) -> int:
        """Total number of items stored in the DHT."""
        return self.item_count()
