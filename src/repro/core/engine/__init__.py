"""The transport-agnostic engine core of the DHT.

This package is the boundary named by ROADMAP item 1: everything a DHT
*runtime* needs — membership bookkeeping, partition routing and replica
placement, the data plane, and crash/restart recovery — carved out of the
former ``BaseDHT`` god-class into four subsystems whose only coupling is
typed calls.  The in-process models
(:class:`~repro.core.local_model.LocalDHT` and its global-approach
constructor :class:`~repro.core.local_model.GlobalDHT`) are thin composition shells over
these four; a future networked runtime puts :mod:`repro.cluster.messages`
on a wire between them without rewriting any of the planes.

* :class:`TopologyManager` (:mod:`repro.core.engine.topology`) — the
  *membership plane*: snode/vnode registries, canonical-name allocation,
  enrollment bookkeeping and the topology version clock that invalidates
  every downstream cache;
* :class:`PlacementService` (:mod:`repro.core.engine.placement`) — the
  *placement plane*: the partition router and the replica placer behind a
  single versioned-cache facade (``router()``, ``placement()``,
  ``replicas_of()``, ``locate_batch()``);
* :class:`StorageEngine` (:mod:`repro.core.engine.storage`) — the *data
  plane*: replica-fanout reads/writes, the columnar bulk pipelines and the
  deferred replica-sync orchestration over :class:`~repro.core.storage.DHTStorage`;
* :class:`RecoveryManager` (:mod:`repro.core.engine.recovery`) — the
  *failure plane*: snode crash/restart, the cheapest-of recovery decision
  (durable-log replay vs. replica copy) and replication verification.

:mod:`repro.core.engine.interfaces` defines the narrow
:class:`typing.Protocol` types the subsystems expect of each other; it is
deliberately numpy-free so a networked runtime can type against it without
importing the columnar machinery (enforced by ``scripts/check_layering.py``).
"""

from repro.core.engine.interfaces import (
    MembershipOps,
    PlacementProtocol,
    RecoveryProtocol,
    StorageEngineProtocol,
    TopologyProtocol,
)
from repro.core.engine.placement import PlacementService
from repro.core.engine.recovery import RecoveryManager
from repro.core.engine.storage import StorageEngine
from repro.core.engine.topology import SnodeLike, TopologyManager

__all__ = [
    "MembershipOps",
    "PlacementProtocol",
    "PlacementService",
    "RecoveryManager",
    "RecoveryProtocol",
    "SnodeLike",
    "StorageEngine",
    "StorageEngineProtocol",
    "TopologyManager",
    "TopologyProtocol",
]
