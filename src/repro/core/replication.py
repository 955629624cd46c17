"""Data replication: ring-successor placement, sync, and crash recovery.

The paper replicates *metadata* — every snode holds the GPDR (section 2.5),
every group member the LPDR (section 3.2) — but each data partition is
stored exactly once, so a single snode crash loses data.  This module adds
k-way **data replication** as a library extension, following the
successor-replication scheme popularized by consistent-hashing systems (cf.
:mod:`repro.baselines.consistent_hashing`):

* :class:`ReplicaPlacer` maps every partition of the routing table to
  ``replication_factor - 1`` replica vnodes in **ring-successor order**,
  walking the sorted partition table from the partition's own position and
  skipping any vnode whose hosting snode already holds a copy — so the
  replicas of a partition never co-locate on one snode (the point of
  replication; in the local approach this also spreads copies across
  groups, since successor partitions usually belong to other groups).
* :func:`sync_replicas` reconciles the per-vnode replica stores with the
  current placement after a topology change: stale rows are dropped with
  columnar range filters, missing ranges are refilled by *copying* the
  primary's rows (:meth:`~repro.core.storage.VnodeStore.copy_buckets`), so
  the primary's pending segments survive untouched.
* :func:`recover_primaries` is the crash path: partitions whose new primary
  store is empty are rebuilt by *moving* a surviving replica's rows into
  the primary via the columnar
  :meth:`~repro.core.storage.VnodeStore.pop_buckets` /
  :meth:`~repro.core.storage.VnodeStore.adopt_parts` migration machinery.

Replica rows live in per-vnode **replica stores**, strictly separate from
the primary stores — routing, partition migration and the paper's
storage-consistency invariant are untouched by replication.  The write path
(:meth:`~repro.core.base.BaseDHT.put` / ``bulk_load``) fans out to the
replica stores synchronously; reads fall back primary → replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ReplicationError
from repro.core.hashspace import Partition
from repro.core.ids import VnodeRef
from repro.core.storage import DHTStorage, join_parts, parts_size, same_rows

#: One entry of the router's sorted interval table.
_TableEntry = Tuple[Partition, VnodeRef]


@dataclass(frozen=True)
class ReplicaPlacement:
    """The replica assignment for one routing-table snapshot.

    Positions index the router's sorted interval table (the same positions
    :meth:`~repro.core.lookup.PartitionRouter.locate_batch` returns), so the
    bulk write path can fan a batch out to replicas with plain array
    indexing — no extra routing pass per rank.
    """

    #: Replica ranks requested (``replication_factor - 1``).
    n_ranks: int
    #: Topology version this placement was computed against.
    version: int
    #: Partition at every table position (sorted by range start).
    partitions: Tuple[Partition, ...]
    #: Primary owner at every table position.
    primaries: Tuple[VnodeRef, ...]
    #: Replica vnodes at every table position (may be shorter than
    #: ``n_ranks`` when the cluster has fewer distinct snodes).
    replicas: Tuple[Tuple[VnodeRef, ...], ...]
    #: ``partition -> replica vnodes`` (the scalar write/read fan-out map).
    by_partition: Dict[Partition, Tuple[VnodeRef, ...]] = field(repr=False)
    #: ``replica vnode -> ascending table positions it replicates``.
    positions_of: Dict[VnodeRef, Tuple[int, ...]] = field(repr=False)

    @property
    def n_positions(self) -> int:
        """Number of routing-table positions (partitions) covered."""
        return len(self.partitions)

    def replicas_at(self, position: int) -> Tuple[VnodeRef, ...]:
        """Replica vnodes of the partition at a table position."""
        return self.replicas[position]

    def replicas_for(self, partition: Partition) -> Tuple[VnodeRef, ...]:
        """Replica vnodes of a partition (empty tuple if unknown)."""
        return self.by_partition.get(partition, ())


class ReplicaPlacer:
    """Compute ring-successor replica placements for a partition table.

    For every partition, replicas are the owners of the next partitions in
    ring order whose hosting snodes are all distinct from each other and
    from the primary's snode.  When the cluster has fewer than
    ``replication_factor`` distinct snodes, each partition simply gets as
    many replicas as distinct snodes allow (the effective factor is
    ``min(replication_factor, n_snodes)``).
    """

    def __init__(self, replication_factor: int):
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self.replication_factor = replication_factor

    @property
    def n_ranks(self) -> int:
        """Replica ranks placed per partition (``replication_factor - 1``)."""
        return self.replication_factor - 1

    def place(self, entries: Sequence[_TableEntry], version: int = 0) -> ReplicaPlacement:
        """Place replicas for a sorted ``(partition, owner)`` interval table."""
        n = len(entries)
        partitions = tuple(p for p, _ in entries)
        primaries = tuple(ref for _, ref in entries)
        # Cap each walk at the achievable rank count: with D distinct
        # snodes at most D-1 replicas exist for any partition, and a full
        # ring walk encounters all of them — so the walk stops as soon as
        # the cap is reached instead of scanning the whole table hunting a
        # snode that does not exist (the factor > snodes case).
        distinct_snodes = len({ref.snode for ref in primaries})
        max_ranks = min(self.n_ranks, max(0, distinct_snodes - 1))
        replica_rows: List[Tuple[VnodeRef, ...]] = []
        positions_of: Dict[VnodeRef, List[int]] = {}
        for pos in range(n):
            used = {primaries[pos].snode}
            picked: List[VnodeRef] = []
            j = (pos + 1) % n
            for _ in range(n - 1):
                if len(picked) >= max_ranks:
                    break
                candidate = primaries[j]
                if candidate.snode not in used:
                    picked.append(candidate)
                    used.add(candidate.snode)
                j = (j + 1) % n
            row = tuple(picked)
            replica_rows.append(row)
            for ref in row:
                positions_of.setdefault(ref, []).append(pos)
        return ReplicaPlacement(
            n_ranks=self.n_ranks,
            version=version,
            partitions=partitions,
            primaries=primaries,
            replicas=tuple(replica_rows),
            by_partition=dict(zip(partitions, replica_rows)),
            positions_of={ref: tuple(poss) for ref, poss in positions_of.items()},
        )


# --------------------------------------------------------------------------- reports


@dataclass
class SyncReport:
    """What one replica sync pass did."""

    rows_dropped: int = 0
    rows_refilled: int = 0
    ranges_refilled: int = 0

    @property
    def changed(self) -> bool:
        """True if the pass moved or dropped any rows."""
        return bool(self.rows_dropped or self.rows_refilled)


@dataclass
class RecoveryReport:
    """What one primary-recovery pass did after a crash or restart."""

    #: Partition ranges whose primary was rebuilt from a surviving replica.
    ranges_restored: int = 0
    #: Physical rows moved replica -> primary (columnar pop/adopt).
    rows_restored: int = 0
    #: Empty-primary ranges for which no replica rows exist anywhere.  This
    #: includes ranges that legitimately store nothing; actual data loss is
    #: judged by the caller from logical item counts (see the churn engine).
    ranges_without_source: int = 0
    #: Vnodes recovered by replaying their durable log (disk was cheaper, or
    #: the only option).
    disk_replays: int = 0
    #: Physical rows those replays brought back.
    rows_replayed: int = 0
    #: WAL records (the non-checkpointed tail) those replays applied.
    wal_records_replayed: int = 0
    #: Vnodes whose durable log was discarded because rebuilding from
    #: surviving replicas was priced cheaper than a disk replay.
    replica_rebuilds_chosen: int = 0


@dataclass
class RestartReport:
    """Outcome of one snode restart (kill -9 + reboot: RAM lost, disk kept).

    Unlike a crash, a restart leaves the topology untouched — every vnode of
    the snode stays enrolled with wiped in-memory stores, and recovery
    chooses per vnode between replaying its durable log and rebuilding from
    surviving replicas (:func:`recover_primaries`).
    """

    snode: int
    #: Vnodes hosted by the restarted snode (all stay in the topology).
    vnodes: Tuple[str, ...]
    #: Physical rows (primary + replica tiers) that vanished from memory.
    rows_lost_in_memory: int
    recovery: Optional[RecoveryReport] = None
    sync: Optional[SyncReport] = None


@dataclass
class CrashReport:
    """Outcome of one snode crash (wipe, topology removal, recovery, sync)."""

    snode: int
    #: Vnodes whose removal from the topology succeeded.
    vnodes_removed: Tuple[str, ...]
    #: Vnodes the model refused to remove (e.g. the last vnode of a group in
    #: the local approach).  They stay enrolled with wiped stores — like a
    #: machine that reboots after the crash — and recovery refills them.
    vnodes_stuck: Tuple[str, ...]
    #: Physical rows destroyed by the wipe (primary + replica tiers).
    rows_wiped: int
    recovery: Optional[RecoveryReport] = None
    sync: Optional[SyncReport] = None
    notes: Tuple[str, ...] = ()

    @property
    def snode_removed(self) -> bool:
        """True when every vnode (and hence the snode) left the topology."""
        return not self.vnodes_stuck


# --------------------------------------------------------------------------- passes


def _range_pairs(storage: DHTStorage, placement: ReplicaPlacement) -> List[Tuple[int, int]]:
    """``[start, last]`` (inclusive) range per table position."""
    pairs = []
    for partition in placement.partitions:
        start, end = storage.hash_space.partition_range(partition)
        pairs.append((start, end - 1))
    return pairs


def _positions_by_store(
    positions: Sequence[int], stores: Sequence[VnodeRef]
) -> Dict[VnodeRef, List[int]]:
    """Group table positions (ascending) by the store each one involves, so a
    pass makes one multi-range call per store instead of one per position."""
    grouped: Dict[VnodeRef, List[int]] = {}
    for pos, ref in zip(positions, stores):
        grouped.setdefault(ref, []).append(pos)
    return grouped


def _primary_counts(
    storage: DHTStorage, placement: ReplicaPlacement, pairs: List[Tuple[int, int]]
) -> np.ndarray:
    """Physical primary rows per table position (one range pass per owner)."""
    counts = np.zeros(len(pairs), dtype=np.int64)
    by_primary = _positions_by_store(range(len(pairs)), placement.primaries)
    for ref, positions in by_primary.items():
        starts, lasts = storage.range_arrays([pairs[p] for p in positions])
        counts[positions] = storage.primary_store(ref).count_buckets(starts, lasts)
    return counts


def sync_replicas(storage: DHTStorage, placement: ReplicaPlacement) -> SyncReport:
    """Reconcile every replica store with ``placement``.

    Two phases per replica store, both columnar and merge-free:

    1. *retain* — rows outside the vnode's assigned ranges are dropped
       (:meth:`~repro.core.storage.VnodeStore.drop_outside`);
    2. *refill* — assigned ranges whose physical row count disagrees with
       the primary's are discarded and re-copied from the primary
       (:meth:`~repro.core.storage.VnodeStore.copy_buckets` +
       :meth:`~repro.core.storage.VnodeStore.adopt_parts`).

    Row *counts* are a sound equality proxy here because every mutation
    (put/delete/bulk write) is applied to primary and replicas in lock
    step; only placement changes can make them diverge, and those are
    exactly the ranges this pass re-copies.

    The pass is **recovery-safe**: ranges whose primary store is empty
    while a replica still holds rows are handed to
    :func:`recover_primaries` *before* reconciliation, so a sync that runs
    against a damaged (wiped-in-place) primary can never drop or overwrite
    the last surviving copy of a partition.
    """
    report = SyncReport()
    stats = storage.replication
    stats.syncs += 1

    if placement.n_ranks == 0 or placement.n_positions == 0:
        for store in [s for _, s in storage.replica_store_items()]:
            report.rows_dropped += store.wipe()
        stats.rows_dropped += report.rows_dropped
        return report

    pairs = _range_pairs(storage, placement)
    primary_counts = _primary_counts(storage, placement, pairs)
    if bool(np.any(primary_counts == 0)) and any(
        store.fast_len() for store in [s for _, s in storage.replica_store_items()]
    ):
        # Empty primaries with surviving replica rows anywhere: restore them
        # first, or the retain/refill below would destroy the last copies.
        # The precomputed pairs/counts are reused, so this adds no extra
        # full scan when nothing needs restoring (legitimately empty
        # partitions on sparse datasets).
        recovery = recover_primaries(storage, placement, pairs, primary_counts)
        if recovery.rows_restored:
            primary_counts = _primary_counts(storage, placement, pairs)

    for ref, store in storage.replica_store_items():
        positions = placement.positions_of.get(ref)
        if not positions:
            report.rows_dropped += store.wipe()
            continue
        starts, lasts = storage.range_arrays([pairs[p] for p in positions])
        report.rows_dropped += store.drop_outside(starts, lasts)
        have = store.count_buckets(starts, lasts)
        stale = [
            pos for k, pos in enumerate(positions) if int(have[k]) != primary_counts[pos]
        ]
        if not stale:
            continue
        # Mismatched ranges are discarded in one pass and re-copied with one
        # multi-range call per primary store holding them.
        popped = store.pop_buckets(*storage.range_arrays([pairs[p] for p in stale]))
        report.rows_dropped += sum(parts_size(parts) for parts in popped)
        refill = [pos for pos in stale if primary_counts[pos]]
        by_primary = _positions_by_store(refill, [placement.primaries[p] for p in refill])
        for primary, wanted in by_primary.items():
            copied = storage.primary_store(primary).copy_buckets(
                *storage.range_arrays([pairs[p] for p in wanted])
            )
            store.adopt_parts(*join_parts(copied))
        report.rows_refilled += sum(int(primary_counts[pos]) for pos in refill)
        report.ranges_refilled += len(refill)

    stats.rows_dropped += report.rows_dropped
    stats.rows_refilled += report.rows_refilled
    stats.ranges_refilled += report.ranges_refilled
    return report


def recover_primaries(
    storage: DHTStorage,
    placement: ReplicaPlacement,
    pairs: Optional[List[Tuple[int, int]]] = None,
    primary_counts: Optional[np.ndarray] = None,
) -> RecoveryReport:
    """Rebuild empty primaries from surviving replica rows (crash recovery).

    For every table position whose primary store holds zero rows in the
    partition's range, the replica store holding the most rows for that
    range is selected as the source and its rows are *moved* into the
    primary with the columnar :meth:`~repro.core.storage.VnodeStore.pop_buckets`
    / :meth:`~repro.core.storage.VnodeStore.adopt_parts` path (the same
    machinery partition migration uses; the source's copy is re-created by
    the following :func:`sync_replicas` pass if the placement still assigns
    it).  Stale replicas can only *undercount* a range — every mutation
    reaches all assigned replicas synchronously and copies are only ever
    taken from the primary — so picking the fullest survivor is safe.

    When the storage runs a durable tier, vnodes flagged as *needing
    replay* (restarted with an intact disk) are decided first, per vnode:
    replaying the durable log costs ``replay_records ×
    disk_record_replay_cost`` while rebuilding from surviving replicas
    costs ``replica_rows × replica_row_fetch_cost``; the cheaper side wins
    (disk on a tie, and always when some needy range of the vnode has no
    replica coverage).  A vnode recovered from disk is skipped by the
    replica-restore loop below; one rebuilt from replicas has its stale log
    discarded first so the restored rows land on a clean WAL.

    ``pairs``/``primary_counts`` let :func:`sync_replicas` share its
    already-computed range columns instead of re-scanning.
    """
    report = RecoveryReport()
    if placement.n_positions == 0:
        return report
    if pairs is None:
        pairs = _range_pairs(storage, placement)
    if primary_counts is None:
        primary_counts = _primary_counts(storage, placement, pairs)
    needy = [pos for pos in range(placement.n_positions) if primary_counts[pos] == 0]
    if not needy and not storage.has_pending_replay():
        return report

    needy_pairs = [pairs[p] for p in needy]
    best_rows = np.zeros(len(needy), dtype=np.int64)
    best_source: List[Optional[VnodeRef]] = [None] * len(needy)
    if needy:
        starts, lasts = storage.range_arrays(needy_pairs)
        for ref, store in storage.replica_store_items():
            if store.fast_len() == 0:
                continue
            counts = store.count_buckets(starts, lasts)
            for k in np.flatnonzero(counts > best_rows).tolist():
                best_rows[k] = counts[k]
                best_source[k] = ref

    replayed = _replay_pending_logs(storage, placement, needy, best_rows, report)

    # One multi-range pop per (surviving replica store, primary store) pair.
    moves: Dict[Tuple[VnodeRef, VnodeRef], List[int]] = {}
    for k, pos in enumerate(needy):
        if replayed[k]:
            continue
        if best_source[k] is None:
            report.ranges_without_source += 1
            continue
        moves.setdefault((best_source[k], placement.primaries[pos]), []).append(pos)
    for (source, primary), positions in moves.items():
        replica = storage.replica_store(source)
        popped = replica.pop_buckets(*storage.range_arrays([pairs[p] for p in positions]))
        storage.primary_store(primary).adopt_parts(*join_parts(popped))
        report.rows_restored += sum(parts_size(parts) for parts in popped)
        report.ranges_restored += len(positions)

    storage.replication.rows_restored += report.rows_restored
    storage.replication.ranges_restored += report.ranges_restored
    return report


def _replay_pending_logs(
    storage: DHTStorage,
    placement: ReplicaPlacement,
    needy: List[int],
    best_rows: np.ndarray,
    report: RecoveryReport,
) -> List[bool]:
    """Decide disk replay vs replica rebuild for every pending durable log.

    Returns a per-``needy``-position mask of ranges already recovered from
    disk (the replica-restore loop must skip them).  Every pending log is
    settled here one way or the other, so ``has_pending_replay`` is False
    afterwards.
    """
    replayed = [False] * len(needy)
    if not storage.has_pending_replay():
        return replayed
    config = storage.durable.config
    by_primary: Dict[VnodeRef, List[int]] = {}
    for k, pos in enumerate(needy):
        by_primary.setdefault(placement.primaries[pos], []).append(k)
    for ref in storage.durable.pending_refs():
        log = storage.durable.log_for(ref)
        ks = by_primary.get(ref, [])
        # A replica rebuild is only sound when the placement actually covers
        # every needy range of this vnode (the effective factor is capped by
        # the distinct-snode count).  Replicas of a vnode's partitions never
        # co-locate on its own snode, so after a single-snode restart the
        # surviving copies are complete and ``best_rows`` is exact.
        covered = bool(ks) and all(placement.replicas[needy[k]] for k in ks)
        replica_rows = int(sum(best_rows[k] for k in ks))
        if covered and log.replay_cost() > replica_rows * config.replica_row_fetch_cost:
            # Rebuilding from replicas is cheaper: discard the stale log so
            # the restored rows are re-logged onto a clean WAL by adopt_parts.
            log.reset()
            report.replica_rebuilds_chosen += 1
            continue
        state = storage.replay_vnode(ref)
        report.disk_replays += 1
        report.rows_replayed += state.rows
        report.wal_records_replayed += state.wal_records
        for k in ks:
            replayed[k] = True
    return replayed


# --------------------------------------------------------------------------- checks


def verify_placement(placement: ReplicaPlacement, expected_ranks: int) -> None:
    """Check the structural placement invariants; raise :class:`ReplicationError`.

    Every partition must have ``expected_ranks`` replicas (the caller knows
    how many distinct snodes are available), and the primary plus replicas
    of a partition must all live on pairwise-distinct snodes.
    """
    for pos, (partition, primary) in enumerate(
        zip(placement.partitions, placement.primaries)
    ):
        row = placement.replicas[pos]
        if len(row) != expected_ranks:
            raise ReplicationError(
                f"partition {partition} has {len(row)} replicas, expected "
                f"{expected_ranks}"
            )
        snodes = [primary.snode] + [ref.snode for ref in row]
        if len(set(snodes)) != len(snodes):
            raise ReplicationError(
                f"partition {partition} co-locates copies on one snode: primary "
                f"{primary}, replicas {list(row)}"
            )


def verify_replica_consistency(
    storage: DHTStorage, placement: ReplicaPlacement, deep: bool = False
) -> None:
    """Check replica stores against their primaries; raise :class:`ReplicationError`.

    The count pass (always run, merge-free): every replica store holds the
    primary's physical row count in each assigned range and no row outside
    them.  Counts can diverge benignly when one side folded a duplicate key
    away, so a mismatched range — and with ``deep=True`` every assigned
    range — is compared by content: the newest row of each key
    (:meth:`~repro.core.storage.VnodeStore.newest_rows`), keys, indexes and
    values, replica against primary.  No store is folded.
    """
    pairs = _range_pairs(storage, placement)
    primary_counts = _primary_counts(storage, placement, pairs)

    for ref, store in storage.replica_store_items():
        positions = placement.positions_of.get(ref, ())
        if not positions:
            if store.fast_len():
                raise ReplicationError(
                    f"vnode {ref} holds {store.fast_len()} replica rows but the "
                    f"placement assigns it none"
                )
            continue
        starts, lasts = storage.range_arrays([pairs[p] for p in positions])
        have = store.count_buckets(starts, lasts)
        if int(have.sum()) != store.fast_len():
            raise ReplicationError(
                f"vnode {ref} holds {store.fast_len() - int(have.sum())} replica "
                f"rows outside its assigned ranges"
            )
        checked = [
            pos for k, pos in enumerate(positions)
            if deep or int(have[k]) != int(primary_counts[pos])
        ]
        by_primary = _positions_by_store(checked, [placement.primaries[p] for p in checked])
        for primary, group in by_primary.items():
            bounds = storage.range_arrays([pairs[p] for p in group])
            views = zip(store.newest_rows(*bounds), storage.primary_store(primary).newest_rows(*bounds))
            for pos, (mine, theirs) in zip(group, views):
                if not same_rows(mine, theirs):
                    raise ReplicationError(
                        f"partition {placement.partitions[pos]}: replica {ref} holds "
                        f"{len(mine[0])} rows, primary {primary} holds {len(theirs[0])}, "
                        f"and their keys, indexes or values differ"
                    )
