"""Networked snode runtime: real asyncio servers speaking the typed protocol.

The simulation models the cluster protocol as typed messages priced by a
network model; this package *runs* it.  Each snode becomes an asyncio-served
endpoint (an ``asyncio.Protocol`` per connection, over TCP or unix sockets)
hosting the PR-7 engine subsystems — a
:class:`~repro.core.storage.DHTStorage`, a local topology view and a
:class:`~repro.core.engine.placement.PlacementService` — behind an RPC
dispatcher.  The messages of
:mod:`repro.cluster.messages` are the wire format (length-prefixed frames,
see :mod:`repro.runtime.codec`).

Layers:

- :mod:`repro.runtime.codec` — frame encoding, and the protocol that parses
  frames as their bytes arrive.
- :mod:`repro.runtime.rpc` — client with per-request timeout and bounded
  retry over a persistent connection.
- :mod:`repro.runtime.node` — the served snode: storage + dispatcher.
- :mod:`repro.runtime.client` — cluster client: routing, replica fan-out.
- :mod:`repro.runtime.faults` — crash / kill-9 / pause fault injection.
- :mod:`repro.runtime.harness` — boots K nodes, replays churn traces, and
  runs the protocol simulator as a differential oracle.
"""

from repro.runtime.client import ClusterClient
from repro.runtime.faults import FaultInjector
from repro.runtime.harness import ClusterHarness, HarnessReport
from repro.runtime.node import SnodeNode, SnodeServer
from repro.runtime.rpc import RpcClient, RpcError, RpcTimeoutError

__all__ = [
    "ClusterClient",
    "ClusterHarness",
    "FaultInjector",
    "HarnessReport",
    "RpcClient",
    "RpcError",
    "RpcTimeoutError",
    "SnodeNode",
    "SnodeServer",
]
