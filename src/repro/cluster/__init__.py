"""Cluster substrate: network model and DHT control-protocol simulation.

The paper's evaluation only measures balance quality, but its central
argument for the local approach is *parallelism*: in the global approach
every snode participates in every vnode creation, so consecutive creations
serialize across the whole DHT; in the local approach a creation only
involves the snodes hosting vnodes of the victim group, so creations in
different groups overlap in time (sections 1, 3 and 6).

This package provides the substrate needed to quantify that claim:

* :mod:`repro.cluster.network` — a one-hop cluster network model (latency +
  bandwidth), as assumed by the paper (section 5);
* :mod:`repro.cluster.simulator` — a small discrete-event simulation engine
  with FIFO resources (locks);
* :mod:`repro.cluster.protocol` — the DHT control protocol of both
  approaches: the vnode-creation simulator driven by the fast balance
  simulators, and the full-lifecycle simulator
  (:class:`~repro.cluster.protocol.LifecycleProtocolSimulator`) that prices
  churn traces — joins, leaves, crashes with replica rebuild, enrollment
  changes, load rebalancing — from a live-DHT replay, producing per-event
  latency, makespan and per-kind breakdown statistics.
"""

from repro.cluster.network import NetworkModel
from repro.cluster.protocol import (
    CreationProtocolSimulator,
    EventProfile,
    KindStats,
    LifecycleComparison,
    LifecycleProtocolSimulator,
    ProtocolCosts,
    ProtocolStats,
    compare_lifecycle_protocols,
    lifecycle_event_cost,
    staggered_arrival_times,
)
from repro.cluster.simulator import EventScheduler, FifoResource
from repro.cluster.messages import (
    Ack,
    CrashNotice,
    CreateVnodeRequest,
    Message,
    PartitionTransfer,
    RebalanceTransfer,
    RecordSync,
    RemoveVnodeRequest,
    ReplicaRebuildTransfer,
    ReplicaSyncTransfer,
    RestartNotice,
)

__all__ = [
    "NetworkModel",
    "EventScheduler",
    "FifoResource",
    "Message",
    "CreateVnodeRequest",
    "RemoveVnodeRequest",
    "CrashNotice",
    "RestartNotice",
    "RecordSync",
    "PartitionTransfer",
    "ReplicaRebuildTransfer",
    "ReplicaSyncTransfer",
    "RebalanceTransfer",
    "Ack",
    "ProtocolCosts",
    "ProtocolStats",
    "KindStats",
    "EventProfile",
    "CreationProtocolSimulator",
    "LifecycleProtocolSimulator",
    "LifecycleComparison",
    "compare_lifecycle_protocols",
    "lifecycle_event_cost",
    "staggered_arrival_times",
]
