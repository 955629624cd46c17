"""Routing of hash indices and keys to partitions, vnodes and snodes.

In the cluster setting of the paper a lookup is a one-hop operation: the
client hashes the key, consults the partition distribution information and
sends the request straight to the snode hosting the owning vnode.  This
module provides that resolution step for the single-process model: a
:class:`PartitionRouter` keeps a sorted interval table of every partition in
the DHT and answers point queries with binary search and batch queries with
one vectorized :func:`numpy.searchsorted` pass.

The router is rebuilt lazily: the DHT bumps a *topology version* whenever
partitions change hands or are split, and the router rebuilds its table the
next time it is queried with a stale version.  This keeps creation-heavy
simulations cheap (no per-transfer bookkeeping) while queries stay
``O(log P)`` per key — scalar or batched.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import EmptyDHTError, KeyLookupError
from repro.core.hashspace import HashSpace, Partition
from repro.core.ids import GroupId, SnodeId, VnodeRef


@dataclass(frozen=True)
class LookupResult:
    """Outcome of routing a key or hash index."""

    index: int
    partition: Partition
    vnode: VnodeRef
    snode: SnodeId
    group: Optional[GroupId] = None


@dataclass(frozen=True)
class BatchLookupResult:
    """Outcome of routing a batch of keys (or hash indices) at once.

    Stores the result *columnar*: one array of hash indices, one array of
    positions into the router's interval table, and a small per-position
    route table.  Materializing a :class:`LookupResult` per key is deferred
    to :meth:`__getitem__` / iteration, so batch callers that only need the
    aggregate (e.g. per-vnode counts) never pay per-key object costs.
    """

    #: Hash index of every key, in input order.
    indices: np.ndarray
    #: Position of every key in the router's interval table, in input order.
    positions: np.ndarray
    #: ``table position -> (partition, vnode, snode, group)`` for every
    #: position that actually occurs in :attr:`positions`.
    route_table: Dict[int, Tuple[Partition, VnodeRef, SnodeId, Optional[GroupId]]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> LookupResult:
        partition, vnode, snode, group = self.route_table[int(self.positions[i])]
        return LookupResult(
            index=int(self.indices[i]),
            partition=partition,
            vnode=vnode,
            snode=snode,
            group=group,
        )

    def __iter__(self) -> Iterator[LookupResult]:
        for i in range(len(self.indices)):
            yield self[i]

    def counts_by_vnode(self) -> Dict[VnodeRef, int]:
        """How many of the batch's keys each owning vnode received."""
        counts: Dict[VnodeRef, int] = {}
        if len(self.positions) == 0:
            return counts
        uniq, cnt = np.unique(self.positions, return_counts=True)
        for pos, c in zip(uniq.tolist(), cnt.tolist()):
            vnode = self.route_table[pos][1]
            counts[vnode] = counts.get(vnode, 0) + c
        return counts


class PartitionRouter:
    """Sorted interval table mapping hash indices to owning vnodes."""

    def __init__(self, hash_space: HashSpace):
        self.hash_space = hash_space
        self._starts: List[int] = []
        self._entries: List[Tuple[Partition, VnodeRef]] = []
        # Vectorized mirrors of the interval table (bh <= 64 only): partition
        # starts and *inclusive* last indices.  Last-inclusive (rather than
        # exclusive end) keeps the arrays inside uint64 even when the final
        # partition ends exactly at 2**64.
        self._starts_arr: Optional[np.ndarray] = None
        self._last_arr: Optional[np.ndarray] = None
        self._built_version = -1

    @property
    def built_version(self) -> int:
        """Topology version the current table was built against (-1 = never)."""
        return self._built_version

    def rebuild(
        self,
        ownership: Iterable[Tuple[Partition, VnodeRef]],
        version: int,
    ) -> None:
        """Rebuild the interval table from ``(partition, owner)`` pairs."""
        bh = self.hash_space.bh
        entries = sorted(ownership, key=lambda po: po[0].start(bh))
        self._starts = [p.start(bh) for p, _ in entries]
        self._entries = entries
        if bh <= 64 and entries:
            self._starts_arr = np.asarray(self._starts, dtype=np.uint64)
            self._last_arr = np.asarray(
                [p.end(bh) - 1 for p, _ in entries], dtype=np.uint64
            )
        else:
            self._starts_arr = None
            self._last_arr = None
        self._built_version = version

    def is_stale(self, version: int) -> bool:
        """True if the table was built against an older topology version."""
        return self._built_version != version

    @property
    def n_partitions(self) -> int:
        """Number of partitions in the routing table."""
        return len(self._entries)

    def entry_at(self, position: int) -> Tuple[Partition, VnodeRef]:
        """The ``(partition, owner)`` pair at a table position."""
        return self._entries[position]

    def range_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The interval table as ``(starts, lasts)`` uint64 columns.

        ``lasts`` holds *inclusive* last indices (see :meth:`rebuild`).
        Only available for ``bh <= 64`` on a non-empty table — the columnar
        form the parallel executor ships to worker processes.
        """
        if self._starts_arr is None or self._last_arr is None:
            raise EmptyDHTError(
                "routing table has no vectorized columns (empty DHT or bh > 64)"
            )
        return self._starts_arr, self._last_arr

    def entries(self) -> List[Tuple[Partition, VnodeRef]]:
        """The whole sorted interval table (used by the replica placer)."""
        return list(self._entries)

    def locate(self, index: int) -> Tuple[Partition, VnodeRef]:
        """Find the partition (and owner) containing hash index ``index``."""
        if not self._entries:
            raise EmptyDHTError("the DHT has no partitions; create a vnode first")
        if not self.hash_space.contains(index):
            raise KeyLookupError(f"hash index {index} outside the hash space")
        pos = bisect.bisect_right(self._starts, index) - 1
        if pos < 0:
            raise KeyLookupError(
                f"hash index {index} precedes every partition; routing table corrupt"
            )
        partition, owner = self._entries[pos]
        if not partition.contains_index(index, self.hash_space.bh):
            raise KeyLookupError(
                f"hash index {index} not covered by any partition; routing table "
                "has a gap (invariant G1 violated)"
            )
        return partition, owner

    def locate_batch(self, indices: np.ndarray) -> np.ndarray:
        """Find the table position of every hash index in one vectorized pass.

        Returns an ``int64`` array of positions into the interval table,
        suitable for :meth:`entry_at` / grouping.  Raises the same errors as
        :meth:`locate` (empty DHT, out-of-range index, coverage gap), with
        all checks performed post hoc on whole arrays rather than per key.
        """
        if not self._entries:
            raise EmptyDHTError("the DHT has no partitions; create a vnode first")
        indices = np.asarray(indices)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        if self._starts_arr is None:
            # Wide hash space (bh > 64): indices are python ints; route each
            # through the scalar path (correct, just not vectorized).
            return np.fromiter(
                (bisect.bisect_right(self._starts, int(i)) - 1 for i in self._check_scalar(indices)),
                dtype=np.int64,
                count=indices.size,
            )
        if indices.dtype.kind not in "iu":
            raise KeyLookupError(f"hash indices must be integers, got {indices.dtype}")
        lo = int(indices.min())
        hi = int(indices.max())
        if lo < 0 or hi >= self.hash_space.size:
            bad = lo if lo < 0 else hi
            raise KeyLookupError(f"hash index {bad} outside the hash space")
        positions = np.searchsorted(
            self._starts_arr, indices.astype(np.uint64, copy=False), side="right"
        ).astype(np.int64, copy=False) - 1
        # Post-hoc vectorized gap check: every index must fall inside its
        # partition's [start, last] range (invariant G1).
        preceding = positions < 0
        safe = np.where(preceding, 0, positions)
        uncovered = preceding | (indices.astype(np.uint64, copy=False) > self._last_arr[safe])
        if uncovered.any():
            offender = int(indices[int(np.argmax(uncovered))])
            if bool(preceding[int(np.argmax(uncovered))]):
                raise KeyLookupError(
                    f"hash index {offender} precedes every partition; routing table corrupt"
                )
            raise KeyLookupError(
                f"hash index {offender} not covered by any partition; routing table "
                "has a gap (invariant G1 violated)"
            )
        return positions

    def _check_scalar(self, indices: np.ndarray) -> Iterator[int]:
        """Yield indices after running the scalar checks (bh > 64 fallback)."""
        for i in indices:
            self.locate(int(i))  # raises on any routing problem
            yield int(i)

    def coverage_is_complete(self) -> bool:
        """True if the table's partitions exactly tile the hash space."""
        if not self._entries:
            return False
        expected_start = 0
        for partition, _ in self._entries:
            if partition.start(self.hash_space.bh) != expected_start:
                return False
            expected_start = partition.end(self.hash_space.bh)
        return expected_start == self.hash_space.size

    def owners(self) -> Dict[Partition, VnodeRef]:
        """The current ``partition -> owner`` mapping as a dict."""
        return {p: owner for p, owner in self._entries}
