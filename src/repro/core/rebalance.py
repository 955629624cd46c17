"""Unified, policy-driven rebalancing engine.

Every partition-movement decision of the model is planned here, in one
shared Plan/Action vocabulary, by three *policies*:

* the **creation policy** (:func:`plan_vnode_creation`) — the algorithm of
  section 2.5, run whenever a vnode is created (it used to live in
  the retired ``repro.core.balancer`` module);
* the **removal policy** (:func:`plan_vnode_removal`) — the library's
  removal extension: hand each partition of a leaving vnode to the
  least-loaded recipient (previously an inline loop in
  :meth:`repro.core.base.BaseDHT.drain_vnode`);
* the **load-aware policy** (:func:`measure_loads` /
  :func:`plan_load_round`) — new with this engine: read the *measured*
  per-partition item loads (merge-free, via
  :meth:`~repro.core.storage.VnodeStore.count_buckets`) and plan partition
  transfers — plus binary splits of overloaded partitions' scopes — that
  cut the max/mean item load across snodes.

The count-bucket fast path of the simulators (:func:`greedy_fill`, which
:mod:`repro.sim.local` re-exports) lives here too: it is the same creation
policy evaluated on a count multiset in ``O(distinct counts)`` instead of
``O(transfers)``, and the property suite checks the two produce identical
count multisets.

Planners only *decide*; applying a plan (moving actual
:class:`~repro.core.hashspace.Partition` objects, migrating stored rows,
updating replicas) is an *executor's* job.  The load-aware policy is
fully decoupled from both the measurement source and the transport:
:func:`drive_load_rebalance` runs measure → plan → execute rounds
against any :class:`~repro.core.engine.interfaces.LoadProvider` /
:class:`~repro.core.engine.interfaces.LoadPlanExecutor` pair.  In
process, :meth:`repro.core.base.BaseDHT.rebalance_load` drives it with
:class:`StorageLoadProvider` (columnar ``count_buckets`` measurement)
and :meth:`~repro.core.base.BaseDHT.execute_load_round` (vectorized
migration, replicas re-synced afterwards); the networked runtime awaits
the same driver with NodeStats aggregation as the provider and
peer-to-peer RPC transfers as the executor.

Invariant contract of the load-aware policy
-------------------------------------------

* **Transfers** stay inside one balancing scope (the whole DHT for the
  global approach, one group for the local approach), never drop the
  victim below ``Pmin`` and never lift a recipient above the scope's
  count cap, so G1/G2/G3 (and their primed variants), G4 and G5 are all
  preserved — a transfer-only plan keeps even the strict balanced-state
  invariants intact.
* **Load splits** (:class:`LoadSplitAction`) binary-split *every*
  partition of the scope (preserving G3/G3' and the power-of-two counts
  of G2/G2'), doubling every member's partition count.  Like vnode
  removal, this forfeits the balanced-state guarantees (``Pmax`` of
  G4/G4' and G5/G5'); the DHT records it and
  :meth:`~repro.core.base.BaseDHT.check_invariants` relaxes those checks
  exactly as it already does after removals.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    Literal,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import ConfigError, InvariantViolation
from repro.core.hashspace import Partition
from repro.core.ids import GroupId, SnodeId, VnodeRef
from repro.core.records import PartitionDistributionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.core.base import BaseDHT

# --------------------------------------------------------------------------- actions


@dataclass(frozen=True)
class SplitAllAction:
    """Every vnode of the plan's scope must binary-split all of its partitions.

    Emitted by the creation policy when the victim already sits at ``Pmin``
    (the split-all cascade of section 2.5).
    """

    kind: Literal["split_all"] = "split_all"


@dataclass(frozen=True)
class TransferAction:
    """Hand one partition from ``victim`` to ``recipient``.

    Creation-policy transfers leave ``partition`` unset (the entity layer
    picks the victim partition deterministically); removal and load-aware
    transfers name the exact partition that moves.
    """

    victim: VnodeRef
    recipient: VnodeRef
    partition: Optional[Partition] = None
    kind: Literal["transfer"] = "transfer"


@dataclass(frozen=True)
class LoadSplitAction:
    """Binary-split every partition of one balancing scope, for load.

    ``scope`` names the group to split (the global approach's one group is
    the whole DHT); ``partition`` records the overloaded partition that
    motivated the split (purely informational).  Splitting the whole scope
    — never a single partition — is what keeps G3/G3' (uniform splitlevel
    per scope) and G2/G2' (power-of-two partition counts) intact.
    """

    scope: GroupId
    partition: Optional[Partition] = None
    kind: Literal["load_split"] = "load_split"


#: The unified action vocabulary (a real ``Union`` alias — usable both in
#: signatures and with ``typing.get_args`` — replacing the accidental
#: string literal the old ``balancer.Action`` was).
Action = Union[SplitAllAction, TransferAction, LoadSplitAction]


@dataclass
class RebalancePlan:
    """The full sequence of actions produced for one vnode creation."""

    new_vnode: VnodeRef
    actions: List[Action] = field(default_factory=list)

    @property
    def transfers(self) -> List[TransferAction]:
        """Only the partition-handover actions of the plan."""
        return [a for a in self.actions if isinstance(a, TransferAction)]

    @property
    def split_alls(self) -> List[SplitAllAction]:
        """Only the split-all cascade actions of the plan."""
        return [a for a in self.actions if isinstance(a, SplitAllAction)]

    @property
    def n_transfers(self) -> int:
        """Number of partitions handed over to the new vnode."""
        return len(self.transfers)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)


@dataclass
class LoadRebalancePlan:
    """One round of load-aware actions (transfers plus optional splits)."""

    actions: List[Action] = field(default_factory=list)

    @property
    def transfers(self) -> List[TransferAction]:
        """Only the partition-handover actions of the plan."""
        return [a for a in self.actions if isinstance(a, TransferAction)]

    @property
    def splits(self) -> List[LoadSplitAction]:
        """Only the scope-split actions of the plan."""
        return [a for a in self.actions if isinstance(a, LoadSplitAction)]

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)


# --------------------------------------------------------------- creation policy


def transfer_improves_balance(victim_count: int, recipient_count: int) -> bool:
    """True if moving one partition from victim to recipient lowers ``sigma(Pv)``.

    With the mean unchanged, the variance changes proportionally to
    ``(x-1)^2 + (y+1)^2 - x^2 - y^2 = 2 (y - x + 1)``, which is negative iff
    ``x - y >= 2``.
    """
    return victim_count - recipient_count >= 2


def plan_vnode_creation(
    record: PartitionDistributionRecord,
    new_vnode: VnodeRef,
    pmin: int,
    max_split_alls: Optional[int] = None,
) -> RebalancePlan:
    """Run the creation algorithm of section 2.5 and mutate ``record`` in place.

    Parameters
    ----------
    record:
        The LPDR of the target group (in the global approach, the LPDR of
        its one group: the GPDR).  The record is updated to the post-creation state; the
        returned plan lists the actions an entity layer must mirror.
    new_vnode:
        Canonical reference of the vnode being created.  It must *not* be in
        the record yet (step 1 adds it with zero partitions).
    pmin:
        Minimum partitions per vnode (``Pmin``); the split-all cascade fires
        when the victim would otherwise drop below it.
    max_split_alls:
        Safety valve for the cascade (defaults to unlimited).  A correct
        model never needs more than one split-all per creation; the limit
        exists so that a corrupted record fails loudly instead of looping.

    Returns
    -------
    RebalancePlan
        The ordered list of :class:`SplitAllAction` / :class:`TransferAction`
        steps that were applied to the record.
    """
    if new_vnode in record:
        raise ValueError(f"vnode {new_vnode} already exists in the record")
    if pmin < 1:
        raise ValueError(f"pmin must be >= 1, got {pmin}")

    plan = RebalancePlan(new_vnode=new_vnode)

    # Step 1: register the new vnode with zero partitions.
    record.add_vnode(new_vnode, 0)

    # First vnode of the record: it simply receives the group's initial
    # pmin partitions; there is nobody to take partitions from.
    if len(record) == 1:
        record.set_count(new_vnode, pmin)
        return plan

    splits_done = 0
    while True:
        # Step 3: sort by partition count, pick the victim.
        victim = record.victim()
        if victim == new_vnode:
            # The new vnode became (one of) the most loaded: nothing more to
            # gain (a transfer to itself is meaningless).
            break
        victim_count = record.count(victim)
        recipient_count = record.count(new_vnode)

        # Step 4: does handing one partition over improve the balance?
        if not transfer_improves_balance(victim_count, recipient_count):
            break

        if victim_count <= pmin:
            # Invariant G4 forbids the victim from dropping below Pmin: every
            # vnode binary-splits its partitions (doubling its count), then
            # the handover continues (section 2.5, last paragraphs).
            if max_split_alls is not None and splits_done >= max_split_alls:
                raise InvariantViolation(
                    "G4",
                    f"victim {victim} at Pmin={pmin} after {splits_done} split-all "
                    "cascades; record is inconsistent",
                )
            record.double_all()
            plan.actions.append(SplitAllAction())
            splits_done += 1
            continue

        record.decrement(victim)
        record.increment(new_vnode)
        plan.actions.append(TransferAction(victim=victim, recipient=new_vnode))

    return plan


def greedy_fill(counts: Sequence[int], pmin: int) -> Tuple[List[int], int, int]:
    """The creation policy evaluated on a count multiset (bucket fast path).

    Implements the same algorithm as :func:`plan_vnode_creation` but
    processes whole "count buckets" at a time, so a creation costs
    ``O(distinct count values)`` instead of ``O(partitions transferred)``.
    This is the planner the count-level simulator
    (:mod:`repro.sim.local`, both approaches) consumes; the
    property suite checks it produces exactly the same count multiset as
    the one-transfer-at-a-time planner.

    Parameters
    ----------
    counts:
        Partition counts of the scope's existing vnodes (all ``>= pmin``).
    pmin:
        Minimum partitions per vnode.

    Returns
    -------
    (new_counts, new_vnode_count, level_increase)
        ``new_counts`` are the updated counts of the *existing* vnodes (same
        order as the input, scaled by the split cascade if one occurred),
        ``new_vnode_count`` is the count assigned to the new vnode and
        ``level_increase`` is how many split-all cascades fired (0 or 1 in
        any reachable state).
    """
    if pmin < 2:
        raise ConfigError(f"pmin must be >= 2, got {pmin}")
    if not counts:
        return [], pmin, 0

    working = list(counts)
    level_increase = 0

    # Bucket-level greedy: values -> number of vnodes at that value.
    hist: Dict[int, int] = {}
    for c in working:
        hist[c] = hist.get(c, 0) + 1

    new = 0
    while hist:
        m = max(hist)
        if m - new < 2:
            break
        if m <= pmin:
            # Split-all cascade: the victim already sits at (or, in degenerate
            # hand-built states, below) Pmin, so handing a partition over
            # would violate G4'.  Every partition of the group binary-splits:
            # all counts double, including the new vnode's (section 2.5).
            hist = {value * 2: count for value, count in hist.items()}
            new *= 2
            level_increase += 1
            continue
        k = hist[m]
        allowed = m - 1 - new  # how many single transfers keep the condition true
        take = min(k, allowed)
        if take <= 0:
            break
        hist[m] -= take
        if hist[m] == 0:
            del hist[m]
        hist[m - 1] = hist.get(m - 1, 0) + take
        new += take
        if take < k:
            break

    # Rebuild per-vnode counts.  The greedy only ever removes partitions from
    # the currently largest counts, so the final multiset is obtained by
    # clipping the sorted counts; assign the clipped values back largest-first
    # so the mapping is deterministic.
    final_multiset: List[int] = []
    for value, count in hist.items():
        final_multiset.extend([value] * count)
    final_multiset.sort(reverse=True)
    order = sorted(range(len(working)), key=lambda i: (-working[i], i))
    new_counts = list(working)
    for rank, idx in enumerate(order):
        new_counts[idx] = final_multiset[rank]
    return new_counts, new, level_increase


def equalized_counts(total: int, n_vnodes: int) -> Tuple[int, int, int]:
    """Helper describing the most balanced integer distribution of ``total``.

    Returns ``(low, high, n_high)``: ``n_high`` vnodes hold ``high = low+1``
    partitions and the rest hold ``low``, with ``low = total // n_vnodes``.
    Used by tests as an analytical anchor for the planner's output.
    """
    if n_vnodes <= 0:
        raise ValueError("n_vnodes must be positive")
    low, n_high = divmod(total, n_vnodes)
    high = low + 1 if n_high else low
    return low, high, n_high


# ---------------------------------------------------------------- removal policy


def plan_vnode_removal(
    victim: VnodeRef,
    partitions: Sequence[Partition],
    recipient_counts: Mapping[VnodeRef, int],
) -> List[TransferAction]:
    """Plan the drain of a leaving vnode: each partition to the least-loaded recipient.

    ``partitions`` must be the victim's partitions in ring order (the
    deterministic iteration order the removal extension has always used);
    ``recipient_counts`` maps every eligible recipient to its current
    partition count.  Counts are tracked as the plan grows, so consecutive
    handovers spread over the recipients exactly like the historical
    one-at-a-time greedy (deterministic tie-break by canonical name).
    """
    if not recipient_counts:
        raise ValueError("cannot plan a removal without recipient vnodes")
    counts = dict(recipient_counts)
    actions: List[TransferAction] = []
    for partition in partitions:
        target = min(counts, key=lambda ref: (counts[ref], ref))
        counts[target] += 1
        actions.append(
            TransferAction(victim=victim, recipient=target, partition=partition)
        )
    return actions


# -------------------------------------------------------------- load-aware policy


@dataclass(frozen=True)
class PartitionLoad:
    """Measured item load of one partition: owner, scope and stored rows."""

    partition: Partition
    vnode: VnodeRef
    scope: GroupId
    rows: int

    @property
    def snode(self) -> SnodeId:
        """The snode hosting the owning vnode."""
        return self.vnode.snode


@dataclass
class LoadSnapshot:
    """One merge-free measurement of the DHT's item-load distribution.

    Produced by :func:`measure_loads`; consumed by :func:`plan_load_round`
    and summarized by :class:`LoadRebalanceReport`.  Loads count *primary*
    rows only — replica rows follow placement and are re-synced after the
    plan executes.
    """

    #: Per-partition loads, every partition of the DHT exactly once.
    partitions: List[PartitionLoad]
    #: Partition count of every vnode (entity-layer truth).
    counts: Dict[VnodeRef, int]
    #: Splitlevel of every balancing scope.
    scope_levels: Dict[GroupId, int]
    #: Member vnodes of every balancing scope.
    scope_members: Dict[GroupId, Tuple[VnodeRef, ...]]

    def vnode_rows(self) -> Dict[VnodeRef, int]:
        """Stored primary rows per vnode."""
        rows: Dict[VnodeRef, int] = {ref: 0 for ref in self.counts}
        for pl in self.partitions:
            rows[pl.vnode] += pl.rows
        return rows

    def snode_rows(self) -> Dict[SnodeId, int]:
        """Stored primary rows per snode (snodes hosting at least one vnode)."""
        rows: Dict[SnodeId, int] = {}
        for ref in self.counts:
            rows.setdefault(ref.snode, 0)
        for pl in self.partitions:
            rows[pl.snode] = rows.get(pl.snode, 0) + pl.rows
        return rows

    @property
    def total_rows(self) -> int:
        """Total primary rows measured."""
        return sum(pl.rows for pl in self.partitions)

    @property
    def mean_snode_rows(self) -> float:
        """Mean primary rows per (vnode-hosting) snode."""
        rows = self.snode_rows()
        return sum(rows.values()) / len(rows) if rows else 0.0

    @property
    def max_snode_rows(self) -> int:
        """Primary rows held by the most loaded snode."""
        rows = self.snode_rows()
        return max(rows.values()) if rows else 0

    @property
    def max_over_mean(self) -> float:
        """The headline imbalance metric: max / mean per-snode item load."""
        mean = self.mean_snode_rows
        return self.max_snode_rows / mean if mean > 0 else 0.0


@dataclass
class LoadRebalanceReport:
    """Outcome of one :meth:`~repro.core.base.BaseDHT.rebalance_load` call."""

    #: Measure → plan → execute rounds that produced at least one action.
    rounds: int = 0
    #: Partition transfers executed.
    transfers: int = 0
    #: Scope splits executed (each forfeits the strict balanced-state invariants).
    splits: int = 0
    #: Primary rows migrated by the transfers.
    rows_moved: int = 0
    #: Partition handovers recorded by the storage layer.
    partitions_moved: int = 0
    #: Wall-clock seconds spent rebalancing (measurement + planning + execution).
    seconds: float = 0.0
    #: Total primary rows measured (unchanged by rebalancing).
    total_rows: int = 0
    before_max: int = 0
    before_mean: float = 0.0
    before_max_over_mean: float = 0.0
    after_max: int = 0
    after_mean: float = 0.0
    after_max_over_mean: float = 0.0

    @property
    def actions_total(self) -> int:
        """Transfers plus splits."""
        return self.transfers + self.splits

    @property
    def reduction(self) -> float:
        """How many times smaller max/mean per-snode load got (>= 1 is a win)."""
        if self.after_max_over_mean <= 0:
            return 1.0
        return self.before_max_over_mean / self.after_max_over_mean

    @property
    def rows_per_second(self) -> float:
        """Migration throughput of the rebalance (rows moved per second)."""
        return self.rows_moved / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable form (benches, churn reports)."""
        return {
            "rounds": self.rounds,
            "transfers": self.transfers,
            "splits": self.splits,
            "rows_moved": self.rows_moved,
            "partitions_moved": self.partitions_moved,
            "seconds": self.seconds,
            "rows_per_second": self.rows_per_second,
            "total_rows": self.total_rows,
            "before_max": self.before_max,
            "before_mean": self.before_mean,
            "before_max_over_mean": self.before_max_over_mean,
            "after_max": self.after_max,
            "after_mean": self.after_mean,
            "after_max_over_mean": self.after_max_over_mean,
            "reduction": self.reduction,
        }

    def summary(self) -> str:
        """One-line human-readable outcome (used by churn event notes)."""
        return (
            f"{self.transfers} transfers, {self.splits} splits, "
            f"{self.rows_moved} rows moved; max/mean "
            f"{self.before_max_over_mean:.2f} -> {self.after_max_over_mean:.2f}"
        )


def measure_loads(dht: "BaseDHT") -> LoadSnapshot:
    """Measure per-partition item loads without merging any storage segment.

    One :meth:`~repro.core.storage.VnodeStore.count_buckets` pass per vnode
    (a ``searchsorted`` bucketing of the store's columns against the
    vnode's owned ranges) — the same merge-free machinery migration and
    replica sync use, so measuring never destroys the columnar segments
    that keep those paths fast.

    This is the measurement half of :class:`StorageLoadProvider`, the
    in-process implementation of the
    :class:`~repro.core.engine.interfaces.LoadProvider` protocol.
    """
    bh = dht.hash_space.bh
    partitions: List[PartitionLoad] = []
    counts: Dict[VnodeRef, int] = {}
    scope_levels: Dict[GroupId, int] = {}
    scope_members: Dict[GroupId, Tuple[VnodeRef, ...]] = {}
    for scope, (members, level) in dht.load_scopes().items():
        scope_levels[scope] = level
        scope_members[scope] = tuple(members)
        for ref in members:
            vnode = dht.get_vnode(ref)
            ordered = sorted(vnode.partitions, key=Partition.ring_sort_key)
            counts[ref] = len(ordered)
            if not ordered:
                continue
            ranges = [(p.start(bh), p.end(bh) - 1) for p in ordered]
            rows = dht.storage.primary_range_counts(ref, ranges)
            partitions.extend(
                PartitionLoad(partition=p, vnode=ref, scope=scope, rows=int(r))
                for p, r in zip(ordered, rows.tolist())
            )
    return LoadSnapshot(
        partitions=partitions,
        counts=counts,
        scope_levels=scope_levels,
        scope_members=scope_members,
    )


def snapshot_from_counts(
    dht: "BaseDHT",
    row_counts: Mapping[str, Mapping[Tuple[int, int], int]],
) -> LoadSnapshot:
    """Build a :class:`LoadSnapshot` from externally measured row counts.

    ``dht`` supplies the topology (scopes, members, partitions — typically
    a coordinator's metadata twin holding zero items); ``row_counts`` maps
    each vnode's canonical name to its measured per-partition primary rows
    keyed by ``(level, index)``.  Missing vnodes or partitions count as
    zero rows.  The iteration order is *identical* to
    :func:`measure_loads`, so a remote provider reporting the same loads
    yields a decision-identical snapshot — the differential guarantee the
    runtime's NodeStats-driven rebalancer is pinned against.
    """
    partitions: List[PartitionLoad] = []
    counts: Dict[VnodeRef, int] = {}
    scope_levels: Dict[GroupId, int] = {}
    scope_members: Dict[GroupId, Tuple[VnodeRef, ...]] = {}
    for scope, (members, level) in dht.load_scopes().items():
        scope_levels[scope] = level
        scope_members[scope] = tuple(members)
        for ref in members:
            vnode = dht.get_vnode(ref)
            ordered = sorted(vnode.partitions, key=Partition.ring_sort_key)
            counts[ref] = len(ordered)
            if not ordered:
                continue
            measured = row_counts.get(ref.canonical_name, {})
            partitions.extend(
                PartitionLoad(
                    partition=p,
                    vnode=ref,
                    scope=scope,
                    rows=int(measured.get((p.level, p.index), 0)),
                )
                for p in ordered
            )
    return LoadSnapshot(
        partitions=partitions,
        counts=counts,
        scope_levels=scope_levels,
        scope_members=scope_members,
    )


def plan_load_round(
    snapshot: LoadSnapshot,
    pmin: int,
    pmax: int,
    bh: int,
    tolerance: float = 1.15,
    allow_splits: bool = True,
    level_boosts: Optional[Mapping[GroupId, int]] = None,
    max_partitions_per_vnode: int = 1024,
) -> LoadRebalancePlan:
    """Plan one round of load-aware actions from a measured snapshot.

    Transfers are accepted greedily while they strictly reduce the sum of
    squared per-snode loads (the same improvement test the count greedy
    uses, applied to item loads): a partition with ``w`` rows moves from
    snode ``A`` to snode ``B`` only if ``load(B) + w < load(A)``, which
    guarantees termination and monotone improvement.  Every transfer stays
    inside its partition's balancing scope, keeps the victim at or above
    ``Pmin`` and the recipient at or below the scope's count cap
    (``Pmax`` scaled by the splits previously applied to the scope, so a
    never-split scope preserves G4/G4' exactly).  Each out-of-tolerance
    snode's partitions are walked once, hottest first, so a round costs
    ``O(P log P + P · V_scope)``.

    When no transfer is acceptable but the hottest snode still exceeds
    ``tolerance × mean``, the plan ends with one :class:`LoadSplitAction`
    for the scope of that snode's most loaded partition — provided the
    scope's splitlevel has room below ``bh`` and doubling would keep every
    member at or below ``max_partitions_per_vnode`` (splits double a whole
    scope, so an unreachable tolerance must not be allowed to double
    partition counts forever): halving the partition granularity is what
    unlocks the next round's transfers when a single hot partition is too
    heavy to place anywhere.

    The plan is deterministic for a given snapshot (ties break by ring
    order / canonical names), so the vectorized and legacy migration
    executors make identical decisions.
    """
    if tolerance < 1.0:
        raise ValueError(f"tolerance must be >= 1.0, got {tolerance}")
    boosts = dict(level_boosts or {})

    snode_rows = snapshot.snode_rows()
    if not snode_rows:
        return LoadRebalancePlan()
    mean = sum(snode_rows.values()) / len(snode_rows)
    if mean <= 0:
        return LoadRebalancePlan()
    limit = tolerance * mean

    counts = dict(snapshot.counts)
    # Per-scope recipient cap: Pmax scaled by the scope's split history, but
    # never below the largest count already present (pre-existing overshoot
    # from earlier rebalances must not freeze the scope).
    caps: Dict[GroupId, int] = {}
    for scope, members in snapshot.scope_members.items():
        boosted = pmax << boosts.get(scope, 0)
        present = max((counts[ref] for ref in members), default=pmax)
        caps[scope] = max(boosted, present)

    def desc(pls: List[PartitionLoad]) -> List[PartitionLoad]:
        return sorted(pls, key=lambda pl: (-pl.rows, pl.partition.ring_sort_key()))

    parts_on: Dict[SnodeId, List[PartitionLoad]] = {sid: [] for sid in snode_rows}
    for pl in snapshot.partitions:
        parts_on[pl.snode].append(pl)

    plan = LoadRebalancePlan()

    def find_recipient(pl: PartitionLoad, source: SnodeId) -> Optional[VnodeRef]:
        """Coldest eligible vnode of the partition's scope, off ``source``."""
        best: Optional[Tuple[int, int, VnodeRef]] = None
        for ref in snapshot.scope_members[pl.scope]:
            if ref.snode == source or ref == pl.vnode:
                continue
            if counts[ref] + 1 > caps[pl.scope]:
                continue
            target_rows = snode_rows[ref.snode]
            if target_rows + pl.rows >= snode_rows[source]:
                continue  # would not strictly improve the sum of squares
            key = (target_rows, counts[ref], ref)
            if best is None or key < best:
                best = key
            # NOTE: comparing the full tuple keeps the choice deterministic.
        return best[2] if best else None

    # Each snode is drained at most once per round: its partitions are walked
    # hottest-first, shedding every acceptable move, until it falls within
    # tolerance or runs out of candidates.  Receiving snodes keep the moved
    # partitions in their lists, so a later (colder) source can re-shed them
    # if that still improves the balance.
    exhausted: set = set()
    while True:
        candidates = [
            sid for sid in snode_rows
            if sid not in exhausted and snode_rows[sid] > limit
        ]
        if not candidates:
            break
        source = max(candidates, key=lambda sid: (snode_rows[sid], sid))
        kept: List[PartitionLoad] = []
        ordered = desc(parts_on[source])
        for i, pl in enumerate(ordered):
            if snode_rows[source] <= limit or pl.rows <= 0:
                kept.extend(ordered[i:])
                break
            if counts[pl.vnode] <= pmin:
                kept.append(pl)  # G4/G4' lower bound: the victim cannot shrink
                continue
            recipient = find_recipient(pl, source)
            if recipient is None:
                kept.append(pl)
                continue
            plan.actions.append(
                TransferAction(victim=pl.vnode, recipient=recipient, partition=pl.partition)
            )
            counts[pl.vnode] -= 1
            counts[recipient] += 1
            snode_rows[source] -= pl.rows
            snode_rows[recipient.snode] += pl.rows
            parts_on[recipient.snode].append(
                PartitionLoad(pl.partition, recipient, pl.scope, pl.rows)
            )
        parts_on[source] = kept
        exhausted.add(source)

    # No acceptable transfer left: if the hottest snode is still out of
    # tolerance *because of granularity* — some colder snode still has a
    # recipient with count headroom, so only the partition weight blocks the
    # move — split the scope of the heaviest such partition to refine the
    # granularity for the next round.  When the blocker is the count caps
    # instead (every eligible recipient is full), splitting is futile: it
    # doubles counts and caps together and halves every partition's rows,
    # leaving the absorbable load unchanged — so no split is planned and the
    # engine stops rather than doubling partition counts for nothing.
    if allow_splits:
        hottest = max(snode_rows, key=lambda sid: (snode_rows[sid], sid))
        if snode_rows[hottest] > limit:
            # NOTE: a victim at the Pmin floor is no obstacle here — the
            # split doubles every count, lifting the floor constraint.
            for pl in desc(parts_on[hottest]):
                if pl.rows <= 0:
                    break
                scope = pl.scope
                widest = max(
                    (counts[ref] for ref in snapshot.scope_members[scope]), default=0
                )
                if (
                    snapshot.scope_levels[scope] >= bh
                    or 2 * widest > max_partitions_per_vnode
                ):
                    continue
                blocked_by_weight = any(
                    ref.snode != hottest
                    and ref != pl.vnode
                    and counts[ref] + 1 <= caps[scope]
                    and snode_rows[ref.snode] < snode_rows[hottest]
                    for ref in snapshot.scope_members[scope]
                )
                if blocked_by_weight:
                    plan.actions.append(
                        LoadSplitAction(scope=scope, partition=pl.partition)
                    )
                    break
    return plan


# ------------------------------------------------------ provider / driver split


class StorageLoadProvider:
    """:class:`~repro.core.engine.interfaces.LoadProvider` over a live DHT.

    Measures through :meth:`~repro.core.storage.DHTStorage.primary_range_counts`
    (see :func:`measure_loads`); the networked runtime substitutes a
    provider that aggregates ``NodeStats`` replies into the same snapshot
    structure, so planning is identical regardless of where the rows live.
    """

    def __init__(self, dht: "BaseDHT"):
        self.dht = dht

    def measure(self) -> LoadSnapshot:
        return measure_loads(self.dht)


class LoadRoundAborted(Exception):
    """Raised by an executor that gave up part-way through a round.

    Carries what the round had already moved, so the driver's report keeps
    the partial counts; the driver stops planning and reports the loads of
    its last good measurement.
    """

    def __init__(self, transfers: int, rows_moved: int, partitions_moved: int):
        super().__init__(f"load round aborted after {transfers} transfers")
        self.transfers = transfers
        self.rows_moved = rows_moved
        self.partitions_moved = partitions_moved


async def _settled(value):
    """``value``, or its result when a transport handed back an awaitable."""
    return await value if inspect.isawaitable(value) else value


async def drive_load_rebalance(
    provider,
    executor,
    *,
    pmin: int,
    pmax: int,
    bh: int,
    max_rounds: int = 64,
    tolerance: float = 1.15,
    allow_splits: bool = True,
    max_splits: int = 12,
    max_partitions_per_vnode: int = 1024,
) -> LoadRebalanceReport:
    """Run measure → plan → execute rounds until the load is within tolerance.

    The one driver of the load-aware policy: ``provider`` implements
    :class:`~repro.core.engine.interfaces.LoadProvider` (where the loads
    come from), ``executor`` implements
    :class:`~repro.core.engine.interfaces.LoadPlanExecutor` (how the rows
    move).  It is a coroutine so that a transport whose ``measure`` /
    ``execute_load_round`` are RPC can be awaited; the in-process pair
    returns plain values, never suspends, and
    :meth:`~repro.core.base.BaseDHT.rebalance_load` drives the coroutine
    with :func:`~repro.utils.coro.run_sync`.  Either way the rounds are the
    same code, so two runs observing identical measurements make identical
    decisions.  Level boosts (one per executed scope split) are tracked
    here so split scopes get the doubled count cap on the next round.  An
    executor that raises :class:`LoadRoundAborted` ends the run.
    """
    snapshot = await _settled(provider.measure())
    report = LoadRebalanceReport(
        total_rows=snapshot.total_rows,
        before_max=snapshot.max_snode_rows,
        before_mean=snapshot.mean_snode_rows,
        before_max_over_mean=snapshot.max_over_mean,
        after_max=snapshot.max_snode_rows,
        after_mean=snapshot.mean_snode_rows,
        after_max_over_mean=snapshot.max_over_mean,
    )
    if not snapshot.counts or snapshot.total_rows == 0:
        return report

    boosts: Dict[GroupId, int] = {}
    while report.rounds < max_rounds:
        plan = plan_load_round(
            snapshot,
            pmin=pmin,
            pmax=pmax,
            bh=bh,
            tolerance=tolerance,
            allow_splits=allow_splits and report.splits < max_splits,
            level_boosts=boosts,
            max_partitions_per_vnode=max_partitions_per_vnode,
        )
        if not plan:
            break
        report.rounds += 1
        try:
            rows_moved, partitions_moved = await _settled(
                executor.execute_load_round(plan)
            )
        except LoadRoundAborted as partial:
            report.transfers += partial.transfers
            report.rows_moved += partial.rows_moved
            report.partitions_moved += partial.partitions_moved
            break
        report.transfers += len(plan.transfers)
        for action in plan.splits:
            boosts[action.scope] = boosts.get(action.scope, 0) + 1
            report.splits += 1
        report.rows_moved += rows_moved
        report.partitions_moved += partitions_moved
        snapshot = await _settled(provider.measure())

    report.after_max = snapshot.max_snode_rows
    report.after_mean = snapshot.mean_snode_rows
    report.after_max_over_mean = snapshot.max_over_mean
    return report
