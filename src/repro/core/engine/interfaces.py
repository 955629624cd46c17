"""Narrow Protocol interfaces between the four engine subsystems.

These are the *only* contracts the subsystems may assume of each other (and
of the composition shell that wires them together).  A networked runtime
implements the same protocols over RPC stubs; the in-process runtime
implements them with the concrete classes of this package.

This module is deliberately **numpy-free** and imports nothing outside
:mod:`typing` at runtime — it must stay importable by transport code that
never touches the columnar storage machinery.  ``scripts/check_layering.py``
enforces both properties in CI.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Hashable,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # typing-only: these modules pull in numpy at runtime
    from repro.core.entities import Snode, Vnode
    from repro.core.hashspace import Partition
    from repro.core.ids import SnodeId, VnodeRef
    from repro.core.lookup import PartitionRouter
    from repro.core.rebalance import LoadRebalancePlan, LoadSnapshot
    from repro.core.replication import (
        CrashReport,
        RecoveryReport,
        ReplicaPlacement,
        RestartReport,
        SyncReport,
    )


@runtime_checkable
class TopologyProtocol(Protocol):
    """Membership plane: registries, enrollment and the version clock.

    The version is a monotonic counter bumped on every mutation that can
    change partition ownership; the placement plane rebuilds its caches
    lazily whenever it observes a newer version.
    """

    snodes: Dict["SnodeId", "Snode"]
    vnodes: Dict["VnodeRef", "Vnode"]
    version: int

    def bump(self) -> None:
        """Advance the topology version (invalidates routing/placement)."""

    def allocate_snode(self, cluster_node: Optional[str] = None) -> "Snode":
        """Enroll a new snode under the next canonical id."""

    def resolve_snode(self, snode: Any) -> "Snode":
        """Resolve an id / integer / entity to the registered snode."""

    def resolve_vnode(self, ref: "VnodeRef") -> "Vnode":
        """Resolve a vnode reference to its entity."""

    def register_vnode(self, snode: "Snode", vnode: "Vnode") -> None:
        """Attach a freshly created vnode to the registries and bump."""

    def unregister_vnode(self, ref: "VnodeRef") -> "Vnode":
        """Detach a vnode from the registries and bump."""

    def iter_ownership(self) -> Iterator[Tuple["Partition", "VnodeRef"]]:
        """Yield every ``(partition, owning vnode)`` pair of the topology."""


@runtime_checkable
class PlacementProtocol(Protocol):
    """Placement plane: versioned routing and replica-placement caches."""

    def router(self) -> "PartitionRouter":
        """The partition router for the current topology (rebuilt lazily)."""

    def placement(self) -> "ReplicaPlacement":
        """The replica placement for the current topology (rebuilt lazily)."""

    def replicas_of(self, partition: "Partition") -> Tuple["VnodeRef", ...]:
        """Replica vnodes of a partition (empty when replication is off)."""


@runtime_checkable
class StorageEngineProtocol(Protocol):
    """Data plane: replica-fanout reads/writes and sync orchestration."""

    sync_paused: bool

    def register_vnode(self, ref: "VnodeRef") -> None:
        """Create the primary/replica stores backing a new vnode."""

    def unregister_vnode(self, ref: "VnodeRef") -> None:
        """Drop the (empty) stores of a removed vnode."""

    def write(self, owner: "VnodeRef", partition: "Partition", key: Hashable, index: int, value: Any) -> None:
        """Store one item at its owner and fan it out to the replicas."""

    def read(
        self, owner: "VnodeRef", partition: "Partition", key: Hashable, index: Optional[int] = None
    ) -> Any:
        """Fetch one item, falling back to replicas on a primary miss."""

    def sync_replicas(self) -> "SyncReport":
        """Reconcile every replica store with the current placement."""

    def sync_after_topology_change(self) -> None:
        """Post-mutation hook: re-sync replicas unless paused or disabled."""

    def deferred_sync(self) -> ContextManager[None]:
        """Batch several topology mutations into one trailing sync pass."""


@runtime_checkable
class LoadProvider(Protocol):
    """Measurement plane of the load-aware rebalancing engine.

    A provider produces the :class:`~repro.core.rebalance.LoadSnapshot` the
    planner (:func:`~repro.core.rebalance.plan_load_round`) consumes: every
    partition of the balancing domain exactly once with its *measured*
    primary row count, plus the entity-layer partition counts and scope
    membership.  The in-process implementation
    (:class:`~repro.core.rebalance.StorageLoadProvider`) counts rows with
    one merge-free ``count_buckets`` pass per vnode over
    ``DHTStorage.primary_range_counts``; the networked runtime aggregates
    ``NodeStats`` replies from the served snodes instead.  Two providers
    reporting identical loads must yield decision-identical plans — the
    planner itself is a pure function of the snapshot.
    """

    def measure(self) -> "LoadSnapshot":
        """One fresh measurement of the per-partition primary item loads."""


@runtime_checkable
class LoadPlanExecutor(Protocol):
    """Transport half of the load-aware engine: apply one planned round.

    The planner only *decides*; an executor moves the rows.  The in-process
    executor is :meth:`~repro.core.base.BaseDHT.execute_load_round`
    (``pop_buckets``/``adopt_parts`` through the vectorized migration
    machinery); the networked runtime executes the same plan by ordering
    each transfer's *source* snode to push the extracted rows directly to
    the target over RPC.
    """

    def execute_load_round(self, plan: "LoadRebalancePlan") -> Tuple[int, int]:
        """Apply every action of ``plan``; return ``(rows, partitions)`` moved."""


@runtime_checkable
class MembershipOps(Protocol):
    """What the failure plane needs from the model shell.

    Vnode removal is model-specific (the global approach drains into every
    survivor, the local approach within the group), so recovery delegates
    it back through this narrow protocol instead of knowing the models.
    """

    def remove_vnode(self, ref: "VnodeRef") -> None:
        """Remove a vnode, redistributing its partitions."""


@runtime_checkable
class RecoveryProtocol(Protocol):
    """Failure plane: crash/restart handling and replication verification."""

    def crash_snode(self, snode: Any) -> "CrashReport":
        """Crash a live snode: wipe its stores, re-home its partitions."""

    def restart_snode(self, snode: Any) -> "RestartReport":
        """Hard-restart a live snode: RAM lost, durable tier kept."""

    def recover(self) -> Tuple["RecoveryReport", "SyncReport"]:
        """Rebuild empty primaries from survivors, then re-sync replicas."""

    def verify_replication(self, deep: bool = False) -> None:
        """Check replica placement and replica/primary consistency."""


__all__ = [
    "LoadPlanExecutor",
    "LoadProvider",
    "MembershipOps",
    "PlacementProtocol",
    "RecoveryProtocol",
    "StorageEngineProtocol",
    "TopologyProtocol",
]
