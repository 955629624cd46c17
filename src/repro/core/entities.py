"""Model entities: vnodes, snodes and groups.

These classes are the *entity layer* of the model (figures 1 and 2 of the
paper): they own actual :class:`~repro.core.hashspace.Partition` objects and
the key/value items stored under them.  The *record layer*
(:mod:`repro.core.records`) holds only partition counts; the DHT model in
:mod:`repro.core.local_model` keeps the two layers consistent by applying
every :class:`~repro.core.rebalance.RebalancePlan` to both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import (
    InvariantViolation,
    PartitionError,
    UnknownVnodeError,
)
from repro.core.hashspace import Partition
from repro.core.ids import GroupId, SnodeId, VnodeRef
from repro.core.records import LPDR


class Vnode:
    """A virtual node: the unit of coarse-grain balancing (section 2.1.2).

    A vnode owns a set of partitions (between ``Pmin`` and ``Pmax`` of them,
    invariant G4/G4') and, through them, a share (*quota*) of the hash
    space.  In the local approach every vnode belongs to exactly one group.
    """

    __slots__ = ("ref", "group_id", "_partitions")

    def __init__(self, ref: VnodeRef, group_id: Optional[GroupId] = None):
        self.ref = ref
        self.group_id = group_id
        self._partitions: Set[Partition] = set()

    # -- partition ownership -------------------------------------------------

    @property
    def partitions(self) -> Set[Partition]:
        """A snapshot of the partitions currently owned by this vnode."""
        return set(self._partitions)

    @property
    def partition_count(self) -> int:
        """Number of partitions owned (``P_v`` / ``P_v,g``)."""
        return len(self._partitions)

    @property
    def quota(self) -> Fraction:
        """Exact fraction of the hash space owned by this vnode (``Q_v``)."""
        return sum((p.fraction for p in self._partitions), Fraction(0))

    def add_partition(self, partition: Partition) -> None:
        """Attach a partition to this vnode."""
        if partition in self._partitions:
            raise PartitionError(f"{self.ref} already owns {partition}")
        self._partitions.add(partition)

    def remove_partition(self, partition: Partition) -> None:
        """Detach a partition from this vnode."""
        try:
            self._partitions.remove(partition)
        except KeyError:
            raise PartitionError(f"{self.ref} does not own {partition}") from None

    def owns(self, partition: Partition) -> bool:
        """True if this vnode currently owns ``partition``."""
        return partition in self._partitions

    def pick_victim_partition(self) -> Partition:
        """Choose the partition to hand over during a transfer.

        The paper leaves the choice open ("choose a victim partition from
        it", section 2.5 step 4a); we pick the partition with the highest
        start so the choice is deterministic and independent of set ordering.
        """
        if not self._partitions:
            raise PartitionError(f"{self.ref} owns no partitions to hand over")
        return max(self._partitions, key=Partition.ring_sort_key)

    def split_all_partitions(self) -> None:
        """Binary-split every owned partition (splitlevel + 1, count doubles)."""
        new_partitions: Set[Partition] = set()
        for partition in self._partitions:
            left, right = partition.split()
            new_partitions.add(left)
            new_partitions.add(right)
        self._partitions = new_partitions

    def sorted_ranges(self, bh: int) -> List[Tuple[int, int]]:
        """Owned partitions as disjoint ``[start, last]`` (inclusive) ranges.

        Sorted by start — the column layout the range-bucketing storage
        primitives (:meth:`~repro.core.storage.VnodeStore.count_buckets` and
        friends) consume; :meth:`~repro.core.base.BaseDHT.verify_replication`
        uses it to check, merge-free, that every primary row lies inside a
        partition its vnode owns.
        """
        ordered = sorted(self._partitions, key=Partition.ring_sort_key)
        return [(p.start(bh), p.end(bh) - 1) for p in ordered]

    def partition_containing(self, index: int, bh: int) -> Optional[Partition]:
        """The owned partition containing hash index ``index``, if any."""
        for partition in self._partitions:
            if partition.contains_index(index, bh):
                return partition
        return None

    def splitlevels(self) -> Set[int]:
        """The set of splitlevels present among the owned partitions."""
        return {p.level for p in self._partitions}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vnode({self.ref}, partitions={self.partition_count}, group={self.group_id})"


class Snode:
    """A software node: the active entity managing part of a DHT (section 2.1.1).

    A cluster node may host several snodes (one per DHT it participates in);
    a snode hosts a dynamic set of vnodes whose number reflects its
    *enrollment level* — the amount of local resources bound to the DHT,
    possibly scaled by the relative performance of the hosting cluster node.
    """

    __slots__ = ("id", "cluster_node", "vnodes", "_next_vnode_index")

    def __init__(self, snode_id: SnodeId, cluster_node: Optional[str] = None):
        self.id = snode_id
        self.cluster_node = cluster_node
        self.vnodes: Dict[VnodeRef, Vnode] = {}
        self._next_vnode_index = 0

    def new_vnode_ref(self) -> VnodeRef:
        """Allocate the canonical name of this snode's next vnode."""
        ref = VnodeRef(self.id, self._next_vnode_index)
        self._next_vnode_index += 1
        return ref

    def attach_vnode(self, vnode: Vnode) -> None:
        """Register a vnode as hosted by this snode."""
        if vnode.ref.snode != self.id:
            raise ValueError(f"vnode {vnode.ref} does not belong to snode {self.id}")
        if vnode.ref in self.vnodes:
            raise ValueError(f"vnode {vnode.ref} already attached to snode {self.id}")
        self.vnodes[vnode.ref] = vnode

    def detach_vnode(self, ref: VnodeRef) -> Vnode:
        """Unregister a vnode from this snode and return it."""
        try:
            return self.vnodes.pop(ref)
        except KeyError:
            raise UnknownVnodeError(f"vnode {ref} not hosted by snode {self.id}") from None

    @property
    def n_vnodes(self) -> int:
        """Current enrollment level of this snode, in vnodes."""
        return len(self.vnodes)

    @property
    def quota(self) -> Fraction:
        """Exact fraction of the hash space handled by this snode (``Q_n``)."""
        return sum((v.quota for v in self.vnodes.values()), Fraction(0))

    @property
    def partition_count(self) -> int:
        """Total partitions across all vnodes hosted by this snode."""
        return sum(v.partition_count for v in self.vnodes.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Snode({self.id}, vnodes={self.n_vnodes}, host={self.cluster_node})"


class Group:
    """A group of vnodes: the unit of independent balancing (section 3.1).

    A group owns an :class:`~repro.core.records.LPDR` (its authoritative
    partition-count table plus the common splitlevel ``l_g``) and references
    to its member vnodes.  The group's vnodes are typically scattered across
    several snodes (figure 2).
    """

    __slots__ = ("id", "lpdr", "vnodes")

    def __init__(self, group_id: GroupId, splitlevel: int):
        self.id = group_id
        self.lpdr = LPDR(group_id, splitlevel)
        self.vnodes: Dict[VnodeRef, Vnode] = {}

    # -- membership -----------------------------------------------------------

    def add_vnode(self, vnode: Vnode, partition_count: int = 0) -> None:
        """Add a vnode to the group and register it in the LPDR."""
        if vnode.ref in self.vnodes:
            raise ValueError(f"vnode {vnode.ref} already in group {self.id}")
        self.vnodes[vnode.ref] = vnode
        self.lpdr.add_vnode(vnode.ref, partition_count)
        vnode.group_id = self.id

    def adopt_vnode(self, vnode: Vnode) -> None:
        """Add an existing vnode keeping its current partition count (group split/merge)."""
        self.add_vnode(vnode, vnode.partition_count)

    def attach_entity(self, vnode: Vnode) -> None:
        """Register a vnode entity *without* touching the LPDR.

        Used during vnode creation, where the balancing planner itself adds
        the LPDR entry (step 1 of the algorithm of section 2.5) and the
        entity only needs to be associated with the group.
        """
        if vnode.ref in self.vnodes:
            raise ValueError(f"vnode {vnode.ref} already in group {self.id}")
        self.vnodes[vnode.ref] = vnode
        vnode.group_id = self.id

    def remove_vnode(self, ref: VnodeRef) -> Vnode:
        """Remove a vnode from the group and the LPDR, returning the entity."""
        try:
            vnode = self.vnodes.pop(ref)
        except KeyError:
            raise UnknownVnodeError(f"vnode {ref} not in group {self.id}") from None
        self.lpdr.remove_vnode(ref)
        vnode.group_id = None
        return vnode

    def __contains__(self, ref: VnodeRef) -> bool:
        return ref in self.vnodes

    # -- derived quantities -----------------------------------------------------

    @property
    def splitlevel(self) -> int:
        """Common splitlevel ``l_g`` of every partition of the group (G3')."""
        return self.lpdr.splitlevel

    @property
    def n_vnodes(self) -> int:
        """Number of vnodes in the group (``V_g``)."""
        return len(self.vnodes)

    @property
    def total_partitions(self) -> int:
        """Total partitions over all vnodes of the group (``P_g``)."""
        return self.lpdr.total_partitions()

    @property
    def quota(self) -> Fraction:
        """Exact fraction of the hash space held by the group (``Q_g``)."""
        return sum((v.quota for v in self.vnodes.values()), Fraction(0))

    def is_full(self, vmax: int) -> bool:
        """True when the group holds ``Vmax`` vnodes and must split before growing."""
        return self.n_vnodes >= vmax

    # -- consistency ---------------------------------------------------------------

    def verify_consistent(self) -> None:
        """Check that the LPDR matches the entity layer (counts and splitlevels).

        Raises :class:`InvariantViolation` on any mismatch; used by the DHT
        invariant checkers and by tests.
        """
        for ref, vnode in self.vnodes.items():
            recorded = self.lpdr.count(ref)
            if recorded != vnode.partition_count:
                raise InvariantViolation(
                    "LPDR",
                    f"group {self.id}: vnode {ref} owns {vnode.partition_count} "
                    f"partitions but the LPDR records {recorded}",
                )
            levels = vnode.splitlevels()
            if levels and levels != {self.splitlevel}:
                raise InvariantViolation(
                    "G3'",
                    f"group {self.id}: vnode {ref} owns partitions at splitlevels "
                    f"{sorted(levels)} but the group splitlevel is {self.splitlevel}",
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Group({self.id}, vnodes={self.n_vnodes}, "
            f"partitions={self.total_partitions}, splitlevel={self.splitlevel})"
        )
