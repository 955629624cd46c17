"""The local approach: groups of vnodes balanced independently (section 3).

The global set of vnodes is divided into mutually exclusive *groups*
(invariant L1) whose sizes fluctuate between ``Vmin`` and ``Vmax = 2·Vmin``
(invariant L2).  Each group balances itself with the same algorithm as the
global approach, restricted to its own LPDR, so balancing events in
different groups can proceed in parallel and every snode only needs partial
knowledge of the partition distribution.

Vnode creation (section 3.6):

1. draw a random hash index ``r``; the vnode owning the partition containing
   ``r`` is the *victim vnode* and its group the *victim group* (so a group
   is chosen with probability equal to its quota);
2. if the victim group is full (``Vmax`` vnodes), it splits into two groups
   of ``Vmin`` randomly chosen vnodes (section 3.7) identified by the binary
   prefix scheme of figure 3, and one of the two is picked at random to
   receive the new vnode;
3. the chosen group runs the balancing algorithm of section 2.5 on its LPDR.

The global approach (section 2) is the degenerate case: with ``vmin=None``
the DHT has one root group that never splits, whose LPDR is the GPDR, so
G1-G5 are G1'-G5' over that single group.  Creation then draws no victim
and consumes no randomness.  :class:`GlobalDHT` is the public constructor
for that case.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.base import BaseDHT, SnodeLike
from repro.core.rebalance import plan_vnode_creation
from repro.core.config import DHTConfig
from repro.core.entities import Group, Vnode
from repro.core.errors import (
    InvariantViolation,
    ReproError,
    StorageError,
    UnknownGroupError,
)
from repro.core.hashspace import iter_level_partitions
from repro.core.ids import GroupId, VnodeRef
from repro.utils.rng import RngLike
from repro.utils.validation import is_power_of_two


def ideal_group_count(n_vnodes: int, vmin: int) -> int:
    """The ideal number of groups ``G_ideal`` for ``V`` vnodes (section 4.2.1).

    Ideally the number of groups doubles every time ``V`` crosses a power-of-
    two boundary beyond ``Vmax = 2·Vmin``: one group while ``V <= Vmax``, two
    groups while ``V <= 2·Vmax``, four while ``V <= 4·Vmax``, and so on.
    """
    if n_vnodes < 1:
        return 0
    vmax = 2 * vmin
    if n_vnodes <= vmax:
        return 1
    return 1 << math.ceil(math.log2(n_vnodes / vmax))


class LocalDHT(BaseDHT):
    """Cluster-oriented DHT balanced with the *local* (grouped) approach.

    With an ungrouped configuration (``config.vmin is None``) the same class
    runs the *global* approach: one group, no ``Vmax``, never split.

    Examples
    --------
    >>> from repro import DHTConfig, LocalDHT
    >>> dht = LocalDHT(DHTConfig.for_local(pmin=4, vmin=4), rng=42)
    >>> snode = dht.add_snode()
    >>> refs = [dht.create_vnode(snode) for _ in range(32)]
    >>> dht.n_groups >= 2
    True
    """

    def __init__(self, config: Optional[DHTConfig] = None, rng: RngLike = None):
        config = config if config is not None else DHTConfig.paper_default()
        super().__init__(config, rng)
        self.groups: Dict[GroupId, Group] = {}
        #: Number of group splits performed so far (used by reports/ablations).
        self.group_splits = 0

    @property
    def approach(self) -> str:
        """``"local"`` for a grouped configuration, ``"global"`` otherwise."""
        return "local" if self.config.is_grouped else "global"

    # ------------------------------------------------------------------ groups

    @property
    def n_groups(self) -> int:
        """Current number of groups (``G_real`` in figure 7)."""
        return len(self.groups)

    def get_group(self, group_id: GroupId) -> Group:
        """Resolve a group identifier to its entity."""
        try:
            return self.groups[group_id]
        except KeyError:
            raise UnknownGroupError(f"group {group_id} does not exist") from None

    def group_of(self, ref: VnodeRef) -> Group:
        """The group containing a given vnode."""
        vnode = self.get_vnode(ref)
        if vnode.group_id is None:
            raise UnknownGroupError(f"vnode {ref} is not assigned to any group")
        return self.get_group(vnode.group_id)

    def group_quotas(self) -> Dict[GroupId, float]:
        """Quota ``Q_g`` of every group (fractions of the hash space)."""
        return {gid: float(g.quota) for gid, g in self.groups.items()}

    def ideal_group_count(self) -> int:
        """``G_ideal`` for the current number of vnodes (figure 7)."""
        return ideal_group_count(self.n_vnodes, self.config.vmin)

    def sigma_qg(self) -> float:
        """Relative standard deviation of group quotas (``sigma-bar(Qg)``, fig. 8).

        Measured against the ideal average quota ``1/G`` (section 4.2.1);
        since group quotas always sum to 1, this equals the actual mean.
        """
        if not self.groups:
            return 0.0
        quotas = np.array([float(g.quota) for g in self.groups.values()])
        mean = 1.0 / quotas.size
        return float(np.sqrt(np.mean((quotas - mean) ** 2)) / mean)

    # ------------------------------------------------------------------ creation

    def create_vnode(self, snode: SnodeLike) -> VnodeRef:
        """Create a vnode on ``snode`` following the local algorithm of §3.6."""
        node = self.get_snode(snode)
        ref = node.new_vnode_ref()
        vnode = Vnode(ref)
        self._register_vnode(node, vnode)

        if not self.groups:
            # First vnode of the DHT: create group 0 (section 3.7 case a).
            group = Group(GroupId.root(), self.config.initial_splitlevel)
            self.groups[group.id] = group
            group.attach_entity(vnode)
            plan_vnode_creation(group.lpdr, ref, self.config.pmin)
            for partition in iter_level_partitions(group.splitlevel):
                vnode.add_partition(partition)
            self.topology.bump()
            self.data.sync_after_topology_change()
            return ref

        if not self.config.is_grouped:
            # Global approach: the one group takes every vnode, no rng drawn.
            target_group = self.groups[GroupId.root()]
        else:
            # Select the victim group by random lookup (probability = quota).
            r = self.hash_space.random_index(self.rng)
            victim_group = self.group_of(self.find_owner(r).vnode)
            # Full victim group: split it and pick one of the halves at
            # random (section 3.7 case b).
            if victim_group.is_full(self.config.vmax):
                child_a, child_b = self._split_group(victim_group)
                target_group = child_a if int(self.rng.integers(0, 2)) == 0 else child_b
            else:
                target_group = victim_group

        target_group.attach_entity(vnode)
        plan = plan_vnode_creation(target_group.lpdr, ref, self.config.pmin)
        self.apply_plan(plan, scope=list(target_group.vnodes.keys()))
        self.data.sync_after_topology_change()
        return ref

    def _split_group(self, group: Group) -> Tuple[Group, Group]:
        """Split a full group into two groups of ``Vmin`` vnodes (section 3.7).

        Membership of the two halves is chosen uniformly at random; the new
        identifiers follow the binary prefix scheme of figure 3.  Because a
        full group is perfectly balanced (invariant G5'), both halves end up
        with exactly half of the parent's quota.
        """
        vmax = self.config.vmax
        if group.n_vnodes != vmax:
            raise ReproError(
                f"group {group.id} has {group.n_vnodes} vnodes; only a full group "
                f"(Vmax={vmax}) may split"
            )
        members = list(group.vnodes.keys())
        permutation = self.rng.permutation(len(members))
        shuffled = [members[i] for i in permutation]
        half_a, half_b = shuffled[: self.config.vmin], shuffled[self.config.vmin :]

        id_a, id_b = group.id.split()
        child_a = Group(id_a, group.splitlevel)
        child_b = Group(id_b, group.splitlevel)
        for refs, child in ((half_a, child_a), (half_b, child_b)):
            for ref in refs:
                vnode = group.vnodes[ref]
                child.add_vnode(vnode, group.lpdr.count(ref))

        del self.groups[group.id]
        self.groups[id_a] = child_a
        self.groups[id_b] = child_b
        self.group_splits += 1
        return child_a, child_b

    # ------------------------------------------------------------------ removal

    def remove_vnode(self, ref: VnodeRef) -> None:
        """Remove a vnode, redistributing its partitions within its group.

        Library extension (the paper does not define removal).  The vnode's
        partitions are handed one by one to the least-loaded vnodes of the
        same group, which preserves L1, G1'-G4'; G5' and the lower bound of
        L2 may no longer hold afterwards (see docs/paper-mapping.md).
        """
        group = self.group_of(ref)
        others = [r for r in group.vnodes if r != ref]

        if not others:
            if self.n_groups > 1:
                raise ReproError(
                    f"cannot remove vnode {ref}: it is the last vnode of group "
                    f"{group.id} and other groups exist (group merging across "
                    "different splitlevels is not supported)"
                )
            if self.storage.item_count(ref) > 0:
                raise StorageError(
                    "cannot remove the last vnode while it still stores items"
                )
            vnode = self.get_vnode(ref)
            for partition in vnode.partitions:
                vnode.remove_partition(partition)
            group.remove_vnode(ref)
            del self.groups[group.id]
            self._unregister_vnode(ref)
            self.data.sync_after_topology_change()
            return

        self.drain_vnode(ref, others)
        group.remove_vnode(ref)
        self._sync_record_counts(others)
        self._unregister_vnode(ref)
        self.data.sync_after_topology_change()

    # ------------------------------------------------------- rebalancing engine hooks

    def load_scopes(self) -> Dict[GroupId, Tuple[List[VnodeRef], int]]:
        """One balancing scope per group (L1: groups partition the vnode set)."""
        return {
            gid: (list(group.vnodes), group.splitlevel)
            for gid, group in self.groups.items()
        }

    def _sync_record_counts(self, refs: Iterable[VnodeRef]) -> None:
        """Overwrite the LPDR counts of ``refs`` from the entity layer."""
        for ref in refs:
            self.group_of(ref).lpdr.set_count(ref, self.get_vnode(ref).partition_count)

    def _apply_scope_split(self, scope: GroupId) -> None:
        """Binary-split every partition of one group (G3' keeps its splitlevel)."""
        group = self.get_group(scope)
        for vnode in group.vnodes.values():
            vnode.split_all_partitions()
        group.lpdr.double_all()  # the LPDR also advances the group splitlevel

    # --------------------------------------------------------------- invariants

    def check_invariants(self, strict: Optional[bool] = None) -> None:
        """Verify L1-L2 and G1'-G5' plus record/entity/storage consistency."""
        strict = self._effective_strict(strict)
        if not self.vnodes:
            if self.groups:
                raise InvariantViolation("L1", "groups exist but the DHT has no vnodes")
            return

        # L1: groups partition the vnode set.
        seen: Dict[VnodeRef, GroupId] = {}
        for gid, group in self.groups.items():
            for ref in group.vnodes:
                if ref in seen:
                    raise InvariantViolation(
                        "L1", f"vnode {ref} belongs to groups {seen[ref]} and {gid}"
                    )
                seen[ref] = gid
        if set(seen) != set(self.vnodes):
            raise InvariantViolation(
                "L1", "the union of all groups differs from the DHT's vnode set"
            )

        # L2: Vmin <= Vg <= Vmax, except group 0 while it is the only group
        # (ungrouped, Vmax is infinite and the sole root group is exempt).
        vmin, vmax = self.config.vmin, self.config.vmax
        for gid, group in self.groups.items():
            if vmax is not None and group.n_vnodes > vmax:
                raise InvariantViolation(
                    "L2", f"group {gid} has {group.n_vnodes} > Vmax={vmax} vnodes"
                )
            sole_root = gid.is_root and self.n_groups == 1
            if strict and not sole_root and group.n_vnodes < vmin:
                raise InvariantViolation(
                    "L2", f"group {gid} has {group.n_vnodes} < Vmin={vmin} vnodes"
                )
            if group.n_vnodes < 1:
                raise InvariantViolation("L2", f"group {gid} is empty")

        # G1': full, non-overlapping cover of R_h.
        self.verify_coverage()

        for gid, group in self.groups.items():
            # LPDR/entity consistency and G3' (common splitlevel).
            group.verify_consistent()

            # G2': the group's partition count is a power of two.
            total = group.total_partitions
            if not is_power_of_two(total):
                raise InvariantViolation(
                    "G2'", f"group {gid} holds {total} partitions (not a power of two)"
                )

            # G4': Pmin <= Pv,g <= Pmax.
            for ref in group.vnodes:
                count = group.lpdr.count(ref)
                if count < self.config.pmin:
                    raise InvariantViolation(
                        "G4'",
                        f"vnode {ref} of group {gid} holds {count} < Pmin="
                        f"{self.config.pmin} partitions",
                    )
                if strict and count > self.config.pmax:
                    raise InvariantViolation(
                        "G4'",
                        f"vnode {ref} of group {gid} holds {count} > Pmax="
                        f"{self.config.pmax} partitions",
                    )

            # G5': Vg a power of two implies every vnode holds Pmin partitions.
            if strict and is_power_of_two(group.n_vnodes):
                for ref in group.vnodes:
                    count = group.lpdr.count(ref)
                    if count != self.config.pmin:
                        raise InvariantViolation(
                            "G5'",
                            f"group {gid} has a power-of-two vnode count "
                            f"({group.n_vnodes}) but vnode {ref} holds {count} != "
                            f"Pmin={self.config.pmin} partitions",
                        )

        self.verify_storage_consistency()

    # ------------------------------------------------------------------- misc

    def describe(self) -> Dict[str, object]:
        """Summary dict, with group-level statistics when grouped."""
        info = super().describe()
        if self.config.is_grouped:
            info.update(
                {
                    "groups": self.n_groups,
                    "ideal_groups": self.ideal_group_count(),
                    "sigma_qg": self.sigma_qg(),
                    "group_splits": self.group_splits,
                }
            )
        return info


class GlobalDHT(LocalDHT):
    """Cluster-oriented DHT balanced with the *global* approach (section 2).

    A :class:`LocalDHT` forced to ``vmin=None``: every vnode sits in the one
    root group, whose LPDR is the GPDR of the paper, and creation serializes
    across the whole DHT.  The balancing algorithm sees the complete
    distribution, so ``sigma-bar(Qv)`` equals ``sigma-bar(Pv)`` (every
    partition has the same size, G3) and returns to exactly zero whenever
    the number of vnodes is a power of two (G5).

    Examples
    --------
    >>> from repro import DHTConfig, GlobalDHT
    >>> dht = GlobalDHT(DHTConfig.for_global(pmin=4), rng=0)
    >>> snode = dht.add_snode()
    >>> refs = [dht.create_vnode(snode) for _ in range(4)]
    >>> dht.sigma_qv()   # V = 4 is a power of two: perfectly balanced (G5)
    0.0
    """

    def __init__(self, config: Optional[DHTConfig] = None, rng: RngLike = None):
        config = config if config is not None else DHTConfig.for_global()
        super().__init__(config.with_(vmin=None), rng)

    @property
    def splitlevel(self) -> int:
        """Common splitlevel of every partition (G3); the initial one while empty."""
        return next(
            (g.splitlevel for g in self.groups.values()), self.config.initial_splitlevel
        )

    def partition_counts(self) -> Dict[VnodeRef, int]:
        """Current ``vnode -> partition count`` mapping (the GPDR)."""
        return next((g.lpdr.counts() for g in self.groups.values()), {})

    def sigma_pv(self) -> float:
        """Relative standard deviation of partition counts (``sigma-bar(Pv)``).

        In the global approach this equals ``sigma-bar(Qv)`` (section 2.4).
        """
        return next((g.lpdr.relative_std() for g in self.groups.values()), 0.0)
