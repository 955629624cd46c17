"""Partition Distribution Records (the paper's GPDR and LPDR).

A *Partition Distribution Record* registers the number of partitions held by
each vnode.  The **LPDR** (local approach, section 3.2) covers only the
vnodes of one group and is replicated at every snode that hosts a vnode of
that group.  The **GPDR** (global approach, section 2.1.4) covers every vnode
of the DHT and is replicated at every snode; the model represents it as the
LPDR of the global approach's one group.

The record is where the balancing algorithm of section 2.5 operates: it
sorts vnodes by partition count, picks the *victim* (the most loaded vnode)
and decides whether handing one partition to the newly created vnode
improves the balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.errors import UnknownVnodeError
from repro.core.ids import GroupId, VnodeRef


class PartitionDistributionRecord:
    """Table mapping each vnode to its current number of partitions.

    The record is intentionally a small, self-contained data structure with
    deterministic iteration order (insertion order, like the underlying
    ``dict``), so that the balancing algorithm is reproducible and the same
    plan is derived by every snode holding a replica.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[VnodeRef, int]] = None):
        self._counts: Dict[VnodeRef, int] = {}
        if counts:
            for ref, count in counts.items():
                self.add_vnode(ref, count)

    # -- membership ------------------------------------------------------------

    def add_vnode(self, ref: VnodeRef, count: int = 0) -> None:
        """Register a vnode with an initial partition count (default 0)."""
        if ref in self._counts:
            raise ValueError(f"vnode {ref} already present in record")
        if count < 0:
            raise ValueError(f"partition count must be non-negative, got {count}")
        self._counts[ref] = int(count)

    def remove_vnode(self, ref: VnodeRef) -> int:
        """Remove a vnode and return the count it had."""
        try:
            return self._counts.pop(ref)
        except KeyError:
            raise UnknownVnodeError(f"vnode {ref} not present in record") from None

    def __contains__(self, ref: VnodeRef) -> bool:
        return ref in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[VnodeRef]:
        return iter(self._counts)

    def vnodes(self) -> List[VnodeRef]:
        """The registered vnodes, in insertion order."""
        return list(self._counts)

    # -- counts ------------------------------------------------------------------

    def count(self, ref: VnodeRef) -> int:
        """Number of partitions currently attributed to ``ref``."""
        try:
            return self._counts[ref]
        except KeyError:
            raise UnknownVnodeError(f"vnode {ref} not present in record") from None

    def set_count(self, ref: VnodeRef, count: int) -> None:
        """Overwrite the partition count of a vnode."""
        if ref not in self._counts:
            raise UnknownVnodeError(f"vnode {ref} not present in record")
        if count < 0:
            raise ValueError(f"partition count must be non-negative, got {count}")
        self._counts[ref] = int(count)

    def increment(self, ref: VnodeRef, by: int = 1) -> int:
        """Add ``by`` partitions to a vnode's count and return the new count."""
        self.set_count(ref, self.count(ref) + by)
        return self._counts[ref]

    def decrement(self, ref: VnodeRef, by: int = 1) -> int:
        """Remove ``by`` partitions from a vnode's count and return the new count."""
        new = self.count(ref) - by
        if new < 0:
            raise ValueError(f"cannot decrement {ref} below zero")
        self.set_count(ref, new)
        return new

    def double_all(self) -> None:
        """Double every count (the record-level view of a split-all cascade)."""
        for ref in self._counts:
            self._counts[ref] *= 2

    def counts(self) -> Dict[VnodeRef, int]:
        """A copy of the full ``vnode -> count`` mapping."""
        return dict(self._counts)

    def counts_array(self) -> np.ndarray:
        """Partition counts as a numpy integer array (insertion order)."""
        return np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))

    def total_partitions(self) -> int:
        """Total number of partitions registered (``P`` or ``P_g``)."""
        return sum(self._counts.values())

    # -- balance queries ------------------------------------------------------------

    def sorted_by_count(self, descending: bool = True) -> List[Tuple[VnodeRef, int]]:
        """Entries sorted by partition count (ties broken by canonical name).

        This is the "sort the entries of the table" step of the creation
        algorithm (section 2.5, step 3); a deterministic tie-break guarantees
        every replica of the record derives the same victim.
        """
        return sorted(
            self._counts.items(),
            key=lambda item: (-item[1] if descending else item[1], item[0]),
        )

    def victim(self) -> VnodeRef:
        """The vnode holding the most partitions (deterministic tie-break)."""
        if not self._counts:
            raise UnknownVnodeError("record is empty; no victim vnode exists")
        return self.sorted_by_count(descending=True)[0][0]

    def min_vnode(self) -> VnodeRef:
        """The vnode holding the fewest partitions (deterministic tie-break)."""
        if not self._counts:
            raise UnknownVnodeError("record is empty")
        return self.sorted_by_count(descending=False)[0][0]

    def relative_std(self) -> float:
        """Relative standard deviation of the counts, ``sigma(Pv) / mean(Pv)``.

        This is the quality metric of the *global* approach (section 2.4),
        valid whenever every partition has the same size.
        """
        arr = self.counts_array()
        if arr.size == 0:
            return 0.0
        mean = arr.mean()
        if mean == 0:
            return 0.0
        return float(arr.std() / mean)

    # -- replication helpers ----------------------------------------------------------

    def copy(self) -> "PartitionDistributionRecord":
        """An independent replica of this record."""
        clone = type(self).__new__(type(self))
        clone._counts = dict(self._counts)
        return clone

    def synchronize_from(self, other: "PartitionDistributionRecord") -> None:
        """Overwrite this replica's contents with another replica's contents."""
        self._counts = dict(other._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionDistributionRecord):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{ref}:{count}" for ref, count in self._counts.items())
        return f"{type(self).__name__}({inner})"


class LPDR(PartitionDistributionRecord):
    """Local Partition Distribution Record of one group (section 3.2).

    A down-sized GPDR restricted to the vnodes of a single group (the whole
    DHT in the global approach, where it *is* the GPDR), plus the
    group's common splitlevel (invariant G3': every partition of the group
    has size ``2**Bh / 2**splitlevel``).
    """

    __slots__ = ("group_id", "splitlevel")

    def __init__(
        self,
        group_id: GroupId,
        splitlevel: int,
        counts: Optional[Mapping[VnodeRef, int]] = None,
    ):
        if splitlevel < 0:
            raise ValueError(f"splitlevel must be non-negative, got {splitlevel}")
        super().__init__(counts)
        self.group_id = group_id
        self.splitlevel = int(splitlevel)

    def partition_fraction(self) -> float:
        """Fraction of the hash space covered by one partition of this group."""
        return 2.0 ** (-self.splitlevel)

    def group_quota(self) -> float:
        """Fraction of the hash space covered by the whole group (``Q_g``)."""
        return self.total_partitions() * self.partition_fraction()

    def vnode_quota(self, ref: VnodeRef) -> float:
        """Fraction of the hash space covered by one vnode of the group (``Q_v,g``)."""
        return self.count(ref) * self.partition_fraction()

    def double_all(self) -> None:
        """Split every partition of the group: counts double, splitlevel + 1."""
        super().double_all()
        self.splitlevel += 1

    def copy(self) -> "LPDR":
        clone = LPDR(self.group_id, self.splitlevel)
        clone._counts = dict(self._counts)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LPDR):
            return NotImplemented
        return (
            self.group_id == other.group_id
            and self.splitlevel == other.splitlevel
            and self._counts == other._counts
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LPDR(group={self.group_id}, splitlevel={self.splitlevel}, "
            f"vnodes={len(self)}, partitions={self.total_partitions()})"
        )
