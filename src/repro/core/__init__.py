"""Core model of the paper: entities, invariants and balancing algorithms.

The package is layered:

* :mod:`repro.core.hashspace` / :mod:`repro.core.ids` — the value types
  (partitions, hash space, canonical names, group identifiers);
* :mod:`repro.core.records` / :mod:`repro.core.rebalance` — the *record
  layer*: LPDR tables (one per group; the GPDR is the global approach's
  single LPDR) and the unified rebalancing engine (creation,
  removal and load-aware policies);
* :mod:`repro.core.entities` / :mod:`repro.core.storage` /
  :mod:`repro.core.lookup` — the *entity layer*: vnodes, snodes, groups,
  stored items and key routing;
* :mod:`repro.core.engine` — the transport-agnostic *engine core*: the
  membership, placement, data and failure planes behind narrow Protocol
  interfaces;
* :mod:`repro.core.local_model` — the DHT model composing the engine
  subsystems; the global approach is its one-group, never-split case.
"""

from repro.core.rebalance import (
    Action,
    LoadRebalancePlan,
    LoadRebalanceReport,
    LoadSnapshot,
    LoadSplitAction,
    PartitionLoad,
    RebalancePlan,
    SplitAllAction,
    TransferAction,
    greedy_fill,
    measure_loads,
    plan_load_round,
    plan_vnode_creation,
    plan_vnode_removal,
    transfer_improves_balance,
)
from repro.core.config import DHTConfig, ParallelConfig, SimulationConfig, DEFAULT_BH
from repro.core.durability import DurabilityConfig, DurabilityStats
from repro.core.engine import (
    PlacementService,
    RecoveryManager,
    StorageEngine,
    TopologyManager,
)
from repro.core.entities import Group, Snode, Vnode
from repro.core.errors import (
    ConfigError,
    DurabilityError,
    EmptyDHTError,
    InvariantViolation,
    KeyLookupError,
    ParallelError,
    PartitionError,
    ProtocolError,
    ReplicationError,
    ReproError,
    StorageError,
    UnknownGroupError,
    UnknownSnodeError,
    UnknownVnodeError,
)
from repro.core.hashspace import (
    HashSpace,
    Partition,
    WHOLE_SPACE,
    iter_level_partitions,
    partitions_are_disjoint,
    partitions_cover_space,
    total_fraction,
)
from repro.core.ids import GroupId, SnodeId, VnodeRef
from repro.core.local_model import GlobalDHT, LocalDHT, ideal_group_count
from repro.core.lookup import BatchLookupResult, LookupResult, PartitionRouter
from repro.core.records import LPDR, PartitionDistributionRecord
from repro.core.replication import (
    CrashReport,
    RecoveryReport,
    ReplicaPlacement,
    ReplicaPlacer,
    RestartReport,
    SyncReport,
)
from repro.core.snapshot import restore_dht, snapshot_dht
from repro.core.storage import (
    DHTStorage,
    MigrationStats,
    ReplicationStats,
    StoredItem,
    VnodeStore,
)

__all__ = [
    "DEFAULT_BH",
    "DHTConfig",
    "SimulationConfig",
    "HashSpace",
    "Partition",
    "WHOLE_SPACE",
    "iter_level_partitions",
    "partitions_are_disjoint",
    "partitions_cover_space",
    "total_fraction",
    "SnodeId",
    "VnodeRef",
    "GroupId",
    "LPDR",
    "PartitionDistributionRecord",
    "Action",
    "RebalancePlan",
    "LoadRebalancePlan",
    "LoadRebalanceReport",
    "LoadSnapshot",
    "LoadSplitAction",
    "PartitionLoad",
    "SplitAllAction",
    "TransferAction",
    "greedy_fill",
    "measure_loads",
    "plan_load_round",
    "plan_vnode_creation",
    "plan_vnode_removal",
    "transfer_improves_balance",
    "Vnode",
    "Snode",
    "Group",
    "GlobalDHT",
    "LocalDHT",
    "TopologyManager",
    "PlacementService",
    "StorageEngine",
    "RecoveryManager",
    "ideal_group_count",
    "snapshot_dht",
    "restore_dht",
    "BatchLookupResult",
    "LookupResult",
    "PartitionRouter",
    "DHTStorage",
    "VnodeStore",
    "StoredItem",
    "MigrationStats",
    "ReplicationStats",
    "ReplicaPlacer",
    "ReplicaPlacement",
    "SyncReport",
    "RecoveryReport",
    "CrashReport",
    "RestartReport",
    "DurabilityConfig",
    "ParallelConfig",
    "DurabilityStats",
    "DurabilityError",
    "ReplicationError",
    "ReproError",
    "ConfigError",
    "InvariantViolation",
    "UnknownSnodeError",
    "UnknownVnodeError",
    "UnknownGroupError",
    "ParallelError",
    "PartitionError",
    "StorageError",
    "KeyLookupError",
    "ProtocolError",
    "EmptyDHTError",
]
