"""The composition shell shared by the global and local DHT models.

:class:`BaseDHT` used to implement the whole engine inline; since the
engine-core extraction it *wires together* the four subsystems of
:mod:`repro.core.engine` and keeps the public API of both approaches
bit-identical:

* :class:`~repro.core.engine.topology.TopologyManager` — snode/vnode
  registries, canonical-name allocation and the topology version clock;
* :class:`~repro.core.engine.placement.PlacementService` — partition
  routing and replica placement behind one versioned-cache facade;
* :class:`~repro.core.engine.storage.StorageEngine` — the replica-aware
  data plane (scalar and columnar bulk paths) and sync orchestration;
* :class:`~repro.core.engine.recovery.RecoveryManager` — snode
  crash/restart recovery and replication verification.

The shell still owns what is genuinely *model-level*: quota computation and
the balance-quality metrics of section 2.3/3.5, application of a
:class:`~repro.core.rebalance.RebalancePlan` to the entity layer, the
load-aware rebalancing driver, and enrollment management (growing /
shrinking the number of vnodes a snode contributes, section 2.1.2).

The concrete model (:class:`~repro.core.local_model.LocalDHT`, whose
:class:`~repro.core.local_model.GlobalDHT` constructor runs the global
approach as one group that never splits) implements vnode creation/removal
and the invariant checks.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.engine.placement import PlacementService
from repro.core.engine.recovery import RecoveryManager
from repro.core.engine.storage import StorageEngine, _position_runs  # noqa: F401  (compat re-export)
from repro.core.engine.topology import SnodeLike, TopologyManager
from repro.core.rebalance import (
    LoadRebalancePlan,
    LoadRebalanceReport,
    RebalancePlan,
    SplitAllAction,
    StorageLoadProvider,
    TransferAction,
    drive_load_rebalance,
    plan_vnode_removal,
)
from repro.core.config import DHTConfig
from repro.core.entities import Snode, Vnode
from repro.core.errors import EmptyDHTError, InvariantViolation
from repro.core.hashspace import HashSpace, Partition
from repro.core.ids import GroupId, SnodeId, VnodeRef
from repro.core.lookup import BatchLookupResult, LookupResult
from repro.core.replication import (
    CrashReport,
    RecoveryReport,
    RestartReport,
    SyncReport,
)
from repro.core.storage import DHTStorage
from repro.utils.coro import run_sync
from repro.utils.rng import RngLike, ensure_rng


class BaseDHT(ABC):
    """Common composition shell of both DHT approaches."""

    def __init__(self, config: DHTConfig, rng: RngLike = None):
        self.config = config
        self.rng = ensure_rng(rng)
        self.hash_space = HashSpace(config.bh)
        self.storage = DHTStorage(self.hash_space, durability=config.durability)
        #: Membership plane: registries, enrollment, version clock.
        self.topology = TopologyManager()
        #: Placement plane: routing + replica placement (versioned caches).
        self.placement = PlacementService(
            self.hash_space,
            self.topology,
            config.replication_factor,
            config.replica_ranks,
        )
        parallel = None
        if config.parallel is not None and config.parallel.enabled:
            # Imported lazily: the multicore pipeline is optional and its
            # module spawns no processes until the first eligible batch.
            from repro.parallel.executor import ParallelExecutor

            parallel = ParallelExecutor(config.parallel, self.hash_space)
        #: Multicore executor (``None`` when ``config.parallel`` is off).
        self.parallel = parallel
        #: Data plane: replica-aware reads/writes over ``self.storage``.
        self.data = StorageEngine(
            self.storage,
            self.placement,
            self.hash_space,
            config.replica_ranks,
            parallel=parallel,
        )
        #: Failure plane: crash/restart recovery (delegates vnode removal
        #: back to this shell, which knows the model-specific policy).
        self.recovery = RecoveryManager(
            topology=self.topology,
            placement=self.placement,
            data=self.data,
            membership=self,
            hash_space=self.hash_space,
            replica_ranks=config.replica_ranks,
        )

    def close(self) -> None:
        """Release WAL file handles and multicore resources (worker
        processes, shared memory).

        Safe to call repeatedly, and the DHT stays usable: a WAL handle
        reopens on the next append.  Zero-copy segments the bulk pipeline
        adopted into vnode stores are materialized as private copies first,
        so every read keeps working after close — only the worker pool and
        its shared-memory arena go away.
        """
        if self.storage.durable is not None:
            self.storage.durable.close()
        if self.parallel is None:
            return
        self.storage.materialize_shared(self.parallel.owns_array)
        self.parallel.close()
        self.parallel = None
        self.data.parallel = None

    # ------------------------------------------------------------------ snodes

    @property
    def snodes(self) -> Dict[SnodeId, Snode]:
        """The live snode registry (owned by the topology manager)."""
        return self.topology.snodes

    @property
    def vnodes(self) -> Dict[VnodeRef, Vnode]:
        """The live vnode registry (owned by the topology manager)."""
        return self.topology.vnodes

    def add_snode(self, cluster_node: Optional[str] = None) -> Snode:
        """Enroll a new snode in the DHT (it starts with zero vnodes)."""
        return self.topology.allocate_snode(cluster_node)

    def add_snodes(self, n: int, cluster_nodes: Optional[Iterable[str]] = None) -> List[Snode]:
        """Enroll ``n`` snodes at once (convenience for simulations)."""
        hosts = list(cluster_nodes) if cluster_nodes is not None else [None] * n
        if len(hosts) != n:
            raise ValueError("cluster_nodes must have exactly n entries")
        return [self.add_snode(host) for host in hosts]

    def get_snode(self, snode: SnodeLike) -> Snode:
        """Resolve an id / integer / Snode object to the registered Snode."""
        return self.topology.resolve_snode(snode)

    def remove_snode(self, snode: SnodeLike) -> None:
        """Withdraw a snode from the DHT, removing each of its vnodes first."""
        node = self.get_snode(snode)
        with self.data.deferred_sync():
            for ref in list(node.vnodes):
                self.remove_vnode(ref)
        self.topology.drop_snode(node.id)

    @property
    def n_snodes(self) -> int:
        """Number of snodes currently enrolled."""
        return self.topology.n_snodes

    # ------------------------------------------------------------------ vnodes

    @abstractmethod
    def create_vnode(self, snode: SnodeLike) -> VnodeRef:
        """Create a new vnode hosted by ``snode`` and rebalance the DHT."""

    @abstractmethod
    def remove_vnode(self, ref: VnodeRef) -> None:
        """Remove a vnode, redistributing its partitions (library extension)."""

    def get_vnode(self, ref: VnodeRef) -> Vnode:
        """Resolve a vnode reference to its entity."""
        return self.topology.resolve_vnode(ref)

    @property
    def n_vnodes(self) -> int:
        """Total number of vnodes in the DHT (``V``)."""
        return self.topology.n_vnodes

    @property
    def total_partitions(self) -> int:
        """Total number of partitions in the DHT (``P``)."""
        return self.topology.total_partitions

    def set_enrollment(self, snode: SnodeLike, target_vnodes: int) -> List[VnodeRef]:
        """Grow or shrink a snode's enrollment to ``target_vnodes`` vnodes.

        This is how dynamic enrollment changes (section 2.1.2) are expressed:
        growing creates vnodes one by one (each creation triggers the
        balancing algorithm); shrinking removes the snode's most recently
        created vnodes.  Returns the refs created (possibly empty).
        """
        if target_vnodes < 0:
            raise ValueError("target_vnodes must be non-negative")
        node = self.get_snode(snode)
        created: List[VnodeRef] = []
        with self.data.deferred_sync():
            while node.n_vnodes < target_vnodes:
                created.append(self.create_vnode(node))
            while node.n_vnodes > target_vnodes:
                newest = max(node.vnodes, key=lambda r: r.vnode_index)
                self.remove_vnode(newest)
        return created

    # ------------------------------------------------------------- vnode helpers

    def _register_vnode(self, snode: Snode, vnode: Vnode) -> None:
        """Attach a freshly created vnode to the registries and its stores."""
        self.topology.register_vnode(snode, vnode)
        self.data.register_vnode(vnode.ref)

    def _unregister_vnode(self, ref: VnodeRef) -> Vnode:
        """Detach a vnode from the registries (storage must be empty)."""
        vnode = self.topology.unregister_vnode(ref)
        self.data.unregister_vnode(ref)
        return vnode

    def apply_plan(self, plan: RebalancePlan, scope: Iterable[VnodeRef]) -> None:
        """Mirror a rebalance plan onto the entity and storage layers.

        ``scope`` is the set of vnodes affected by split-all cascades: every
        vnode of the DHT for the global approach, the vnodes of the victim
        group for the local approach.  Transfers name their vnodes
        explicitly.
        """
        scope_refs = list(scope)
        for action in plan.actions:
            if isinstance(action, SplitAllAction):
                for ref in scope_refs:
                    self.get_vnode(ref).split_all_partitions()
            elif isinstance(action, TransferAction):
                victim = self.get_vnode(action.victim)
                recipient = self.get_vnode(action.recipient)
                partition = (
                    action.partition
                    if action.partition is not None
                    else victim.pick_victim_partition()
                )
                victim.remove_partition(partition)
                recipient.add_partition(partition)
                self.storage.migrate_partition(partition, victim.ref, recipient.ref)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown rebalance action {action!r}")
        self.topology.bump()

    def drain_vnode(self, ref: VnodeRef, recipients: List[VnodeRef]) -> None:
        """Hand every partition of ``ref`` to the least-loaded recipient.

        Used by vnode removal.  The assignment is planned by the unified
        engine's removal policy (:func:`repro.core.rebalance.plan_vnode_removal`:
        each handover to the recipient with the fewest partitions,
        deterministic tie-break by canonical name) and executed in one
        storage pass.
        """
        if not recipients:
            raise EmptyDHTError("cannot drain a vnode without any recipient vnodes")
        vnode = self.get_vnode(ref)
        plan = plan_vnode_removal(
            ref,
            sorted(vnode.partitions, key=Partition.ring_sort_key),
            {r: self.get_vnode(r).partition_count for r in recipients},
        )
        moves: List[Tuple[Partition, VnodeRef]] = []
        for action in plan:
            vnode.remove_partition(action.partition)
            self.get_vnode(action.recipient).add_partition(action.partition)
            moves.append((action.partition, action.recipient))
        # One storage pass for the whole drain: the hash tier is bucketed
        # once across all ranges instead of rescanned per partition.
        self.storage.migrate_partitions(ref, moves)
        self.topology.bump()

    # -------------------------------------------------------- load-aware rebalancing

    @abstractmethod
    def load_scopes(self) -> Dict[GroupId, Tuple[List[VnodeRef], int]]:
        """Balancing scopes for the load-aware engine.

        Maps each group (the global approach has exactly one) to
        ``(member vnode refs, group splitlevel)``.
        """

    @abstractmethod
    def _sync_record_counts(self, refs: Iterable[VnodeRef]) -> None:
        """Overwrite the record-layer count of each vnode from the entity layer."""

    @abstractmethod
    def _apply_scope_split(self, scope: GroupId) -> None:
        """Binary-split every partition of one balancing scope (record + entities)."""

    def rebalance_load(
        self,
        max_rounds: int = 64,
        tolerance: float = 1.15,
        allow_splits: bool = True,
        max_splits: int = 12,
        max_partitions_per_vnode: int = 1024,
    ) -> LoadRebalanceReport:
        """Rebalance *measured item load* across snodes (library extension).

        The paper's algorithm balances partition **counts**; under a skewed
        key distribution the item load per snode can stay badly skewed
        while ``sigma(Pv)`` reports perfect balance.  This entry point runs
        the unified engine's load-aware policy in measure → plan → execute
        rounds until the max/mean per-snode item load falls within
        ``tolerance`` (or no further action is possible, or ``max_rounds``
        is reached):

        * loads are measured merge-free
          (:func:`~repro.core.rebalance.measure_loads`, one columnar
          ``count_buckets`` pass per vnode);
        * transfers move whole partitions between vnodes of the same
          balancing scope through the columnar migration machinery
          (:meth:`~repro.core.storage.DHTStorage.migrate_partition`, i.e.
          ``pop_buckets`` / ``adopt_parts``);
        * when a single partition is too hot to place anywhere, its whole
          scope binary-splits (:class:`~repro.core.rebalance.LoadSplitAction`)
          to halve the transfer granularity — at most ``max_splits`` times,
          and never past ``max_partitions_per_vnode`` per member (splits
          double a whole scope, so the budget is what keeps an unreachable
          ``tolerance`` from doubling partition counts forever).

        Transfers preserve every invariant including the strict
        balanced-state ones; scope splits forfeit ``Pmax``/G5 (exactly like
        vnode removal) and are recorded so
        :meth:`check_invariants` relaxes those checks automatically.
        Replicas are re-synced once at the end, so the operation is
        replication-safe (``verify_replication`` passes afterwards) and
        conserves the logical item count exactly.
        """
        t0 = time.perf_counter()
        with self.data.deferred_sync():
            report = run_sync(
                drive_load_rebalance(
                    StorageLoadProvider(self),
                    self,
                    pmin=self.config.pmin,
                    pmax=self.config.pmax,
                    bh=self.hash_space.bh,
                    max_rounds=max_rounds,
                    tolerance=tolerance,
                    allow_splits=allow_splits,
                    max_splits=max_splits,
                    max_partitions_per_vnode=max_partitions_per_vnode,
                )
            )
        report.seconds = time.perf_counter() - t0
        return report

    def execute_load_round(self, plan: LoadRebalancePlan) -> Tuple[int, int]:
        """Apply one planned load-rebalance round in-process.

        The :class:`~repro.core.engine.interfaces.LoadPlanExecutor` side of
        the load-aware engine: transfers move whole partitions through the
        vectorized migration machinery, splits binary-split their whole
        scope, and the topology version bumps once per round.  Returns the
        ``(rows, partitions)`` actually moved (storage-stat deltas), so
        callers can account movement without re-measuring.
        """
        stats = self.storage.stats
        base_rows, base_partitions = stats.items_moved, stats.partitions_moved
        for action in plan.transfers:
            victim = self.get_vnode(action.victim)
            recipient = self.get_vnode(action.recipient)
            victim.remove_partition(action.partition)
            recipient.add_partition(action.partition)
            self.storage.migrate_partition(
                action.partition, action.victim, action.recipient
            )
            self._sync_record_counts((action.victim, action.recipient))
        for action in plan.splits:
            self._apply_scope_split(action.scope)
            self.topology.load_splits_occurred = True
        self.topology.bump()
        return (
            stats.items_moved - base_rows,
            stats.partitions_moved - base_partitions,
        )

    # ------------------------------------------------------------------ routing

    @property
    def topology_version(self) -> int:
        """The topology version clock (bumped on ownership changes)."""
        return self.topology.version

    # --------------------------------------------------------------- replication

    @property
    def replication_factor(self) -> int:
        """Number of copies kept of every stored item (``k``, from config)."""
        return self.config.replication_factor

    def replicas_of(self, partition: Partition) -> Tuple[VnodeRef, ...]:
        """Replica vnodes of a partition (empty when replication is off)."""
        return self.placement.replicas_of(partition)

    def sync_replicas(self) -> SyncReport:
        """Reconcile every replica store with the current placement.

        Runs automatically after every topology change (vnode creation and
        removal, enrollment changes, snode joins/leaves/crashes); exposed
        for callers that mutate topology through lower-level entry points.
        """
        return self.data.sync_replicas()

    def crash_snode(self, snode: SnodeLike) -> CrashReport:
        """Crash a live snode: its data is destroyed, not drained.

        See :meth:`repro.core.engine.recovery.RecoveryManager.crash_snode`
        for the full semantics (wipe, re-homing, re-replication; vnodes the
        model refuses to remove stay enrolled with wiped stores and are
        refilled by recovery).
        """
        return self.recovery.crash_snode(snode)

    def restart_snode(self, snode: SnodeLike) -> RestartReport:
        """Hard-restart a live snode: RAM is lost, the disk (if any) is kept.

        See :meth:`repro.core.engine.recovery.RecoveryManager.restart_snode`:
        models a kill -9 plus reboot; recovery then chooses per vnode
        between replaying its durable log and copying from survivors.
        """
        return self.recovery.restart_snode(snode)

    def recover(self) -> Tuple[RecoveryReport, SyncReport]:
        """Rebuild empty primaries from surviving replicas, then re-sync.

        Safe to call at any time; both passes are no-ops on a consistent
        DHT.  Returns the recovery and sync reports.
        """
        return self.recovery.recover()

    def verify_replication(self, deep: bool = False) -> None:
        """Check replica placement and replica/primary consistency.

        Raises :class:`~repro.core.errors.ReplicationError` on co-located
        replicas, under-replicated partitions, out-of-range primary rows or
        replica stores disagreeing with their primaries (row counts always;
        contents with ``deep=True``).
        """
        self.recovery.verify_replication(deep=deep)

    def find_owner(self, index: int) -> LookupResult:
        """Route a hash index to its partition, owning vnode and hosting snode."""
        partition, ref = self.placement.locate(index)
        vnode = self.get_vnode(ref)
        return LookupResult(
            index=index,
            partition=partition,
            vnode=ref,
            snode=ref.snode,
            group=vnode.group_id,
        )

    def lookup(self, key: Hashable) -> LookupResult:
        """Route an application key to its owner (hashing it first)."""
        return self.find_owner(self.hash_space.hash_key(key))

    def lookup_many(self, keys: Union[Sequence[Hashable], np.ndarray]) -> BatchLookupResult:
        """Route a batch of keys in one vectorized pass.

        Equivalent to ``[self.lookup(k) for k in keys]`` — for every ``i``,
        ``lookup_many(keys)[i] == lookup(keys[i])`` — but hashing and routing
        run over whole arrays (:meth:`HashSpace.hash_keys`,
        :meth:`PartitionRouter.locate_batch`) and per-key
        :class:`LookupResult` objects are only materialized on access.

        An empty batch returns an empty result without touching the router,
        so it is valid even on an empty DHT.
        """
        if len(keys) == 0:
            return BatchLookupResult(
                indices=np.empty(0, dtype=np.uint64),
                positions=np.empty(0, dtype=np.int64),
            )
        router = self.placement.router()
        present: Optional[List[int]] = None
        routed = (
            self.parallel.hash_locate(router, keys) if self.parallel is not None else None
        )
        if routed is not None:
            # Fused parallel hash+locate (bit-identical to the serial pair).
            indices, positions, present = routed
        else:
            indices = self.hash_space.hash_keys(keys)
            positions = router.locate_batch(indices)
        if present is None:
            # bincount + flatnonzero beats np.unique here: positions are
            # small non-negative ints and the occupied set is tiny.
            present = np.flatnonzero(np.bincount(positions)).tolist()
        route_table = {}
        for pos in present:
            partition, ref = router.entry_at(pos)
            route_table[pos] = (partition, ref, ref.snode, self.get_vnode(ref).group_id)
        return BatchLookupResult(indices=indices, positions=positions, route_table=route_table)

    # ---------------------------------------------------------------- key/value API

    def put(self, key: Hashable, value: Any) -> LookupResult:
        """Store ``value`` under ``key`` at the owning vnode (and replicas)."""
        result = self.lookup(key)
        self.data.write(result.vnode, result.partition, key, result.index, value)
        return result

    def get(self, key: Hashable) -> Any:
        """Fetch the value stored under ``key`` (raises ``KeyError`` if absent).

        Falls back to the partition's replicas when the primary misses —
        e.g. a primary store that lost rows in place and has not been
        healed by the next :meth:`recover` / sync pass yet.
        """
        result = self.lookup(key)
        return self.data.read(result.vnode, result.partition, key, result.index)

    def delete(self, key: Hashable) -> Any:
        """Delete and return the value stored under ``key`` (and its replicas).

        Mirrors :meth:`get`'s fallback: when the primary misses but a
        replica still holds the key (an in-place damaged primary awaiting
        the next recovery pass), the replica copies are deleted and the
        value returned — anything :meth:`contains` reports as present can
        be deleted, and no removed key is later resurrected by recovery.
        """
        result = self.lookup(key)
        return self.data.discard(result.vnode, result.partition, key)

    def contains(self, key: Hashable) -> bool:
        """True if ``key`` is currently stored in the DHT (any copy)."""
        try:
            result = self.lookup(key)
        except EmptyDHTError:
            return False
        return self.data.holds(result.vnode, result.partition, key, result.index)

    # ------------------------------------------------------------------- bulk API

    def bulk_load(
        self,
        keys: Union[Sequence[Hashable], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]] = None,
    ) -> int:
        """Store a whole batch of items in one vectorized pass.

        See :meth:`repro.core.engine.storage.StorageEngine.bulk_load` — one
        hash pass, one routing pass, one stable counting sort, one
        ``put_batch`` per touched vnode (plus replica fan-out on the same
        position runs).  Returns the number of items ingested.
        """
        return self.data.bulk_load(keys, values)

    def bulk_load_report(
        self,
        keys: Union[Sequence[Hashable], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]] = None,
    ):
        """:meth:`bulk_load` returning the full per-stage/per-rank report.

        See :class:`repro.core.engine.storage.BulkLoadReport` for the
        fields (wall time, stage breakdown, rows and seconds per replica
        rank, and whether the multicore pipeline ran).
        """
        return self.data.bulk_load_report(keys, values)

    def get_many(self, keys: Union[Sequence[Hashable], np.ndarray]) -> List[Any]:
        """Fetch the values for a batch of keys, in input order.

        Equivalent to ``[self.get(k) for k in keys]`` (including raising
        :class:`KeyError` for absent keys) but routed in one vectorized pass
        with one :meth:`DHTStorage.get_batch` per owning vnode.
        """
        if len(keys) == 0:
            return []
        return self.data.get_many(self.lookup_many(keys), keys)

    def __contains__(self, key: Hashable) -> bool:
        return self.contains(key)

    # ------------------------------------------------------------------ quotas

    def quotas(self) -> Dict[VnodeRef, float]:
        """Quota ``Q_v`` of every vnode as floats."""
        return {ref: float(v.quota) for ref, v in self.vnodes.items()}

    def quota_array(self) -> np.ndarray:
        """Vnode quotas as a numpy array (order: vnode registry order)."""
        return np.array([float(v.quota) for v in self.vnodes.values()], dtype=np.float64)

    def snode_quotas(self) -> Dict[SnodeId, float]:
        """Quota ``Q_n`` handled by each physical/software node (section 4.3)."""
        return {sid: float(s.quota) for sid, s in self.snodes.items()}

    def sigma_qv(self) -> float:
        """Relative standard deviation of vnode quotas, as a fraction (not %).

        This is the paper's quality metric ``sigma-bar(Qv)`` (sections 2.3 and
        3.5), computed against the ideal average ``1/V`` (which equals the
        actual mean because quotas always sum to 1).
        """
        quotas = self.quota_array()
        if quotas.size == 0:
            return 0.0
        mean = 1.0 / quotas.size
        return float(np.sqrt(np.mean((quotas - mean) ** 2)) / mean)

    def sigma_qn(self) -> float:
        """Relative standard deviation of per-snode quotas (``sigma-bar(Qn)``)."""
        values = np.array([float(s.quota) for s in self.snodes.values()])
        if values.size == 0:
            return 0.0
        mean = values.mean()
        if mean == 0:
            return 0.0
        return float(values.std() / mean)

    # --------------------------------------------------------------- invariants

    def verify_coverage(self) -> None:
        """Check invariant G1/G1': the partitions exactly tile the hash space."""
        if not self.vnodes:
            return
        router = self.placement.router()
        if not router.coverage_is_complete():
            raise InvariantViolation(
                "G1", "the union of all partitions does not tile the hash space"
            )

    def verify_storage_consistency(self) -> None:
        """Check that every stored item lives at the vnode owning its hash index.

        Merge-free: each vnode's keys are routed tier by tier
        (:meth:`~repro.core.storage.VnodeStore.key_columns`), one
        :meth:`lookup_many` per column.  Keys are re-hashed, never trusted
        to their stored index, and no store is folded.
        """
        for ref in self.vnodes:
            for keys in self.storage.primary_store(ref).key_columns():
                if len(keys) == 0:
                    continue
                routed = self.lookup_many(keys)
                for pos, (_, owner, _, _) in routed.route_table.items():
                    if owner != ref:
                        row = int(np.flatnonzero(routed.positions == pos)[0])
                        raise InvariantViolation(
                            "storage",
                            f"key {keys[row:row + 1].tolist()[0]!r} stored at {ref} "
                            f"but routed to {owner}",
                        )

    @abstractmethod
    def check_invariants(self, strict: Optional[bool] = None) -> None:
        """Verify every invariant of the approach; raise on violation.

        ``strict=None`` (default) enables the balanced-state invariants (G5,
        G5', the lower bound of L2) only if no vnode was ever removed and no
        load-driven scope split ever fired — removal and load-aware
        rebalancing are library extensions the paper does not define, and
        they cannot always restore those invariants without partition
        merging.
        """

    # ------------------------------------------------------------------- misc

    def describe(self) -> Dict[str, Any]:
        """A plain-dict summary of the DHT state (used by examples/reports)."""
        return {
            "approach": self.approach,
            "bh": self.config.bh,
            "pmin": self.config.pmin,
            "vmin": self.config.vmin,
            "snodes": self.n_snodes,
            "vnodes": self.n_vnodes,
            "partitions": self.total_partitions,
            "items": self.storage.total_items(),
            "replication_factor": self.config.replication_factor,
            "replica_items": self.storage.replica_item_count(),
            "durable": self.config.durability is not None,
            "sigma_qv": self.sigma_qv(),
            "sigma_qn": self.sigma_qn(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(snodes={self.n_snodes}, vnodes={self.n_vnodes}, "
            f"partitions={self.total_partitions})"
        )

    # ------------------------------------------------------- subclass helpers

    def _effective_strict(self, strict: Optional[bool]) -> bool:
        """Resolve the ``strict=None`` default of :meth:`check_invariants`.

        Balanced-state invariants (G5/G5'/L2 lower bound) only hold while no
        vnode was ever removed and no load-driven scope split fired; the
        concrete models call this to decide whether to enforce them.
        """
        if strict is None:
            return not (
                self.topology.removals_occurred or self.topology.load_splits_occurred
            )
        return strict
