"""Cluster harness: boot K served snodes, replay churn, oracle against the sim.

The harness is the runtime's coordinator.  It keeps a **metadata twin** — a
regular single-process :class:`~repro.core.base.BaseDHT` holding *zero
items* — as the control-plane authority: every topology event of a churn
trace is applied to the twin first (same code path as the simulation,
:func:`repro.workloads.churn.apply_topology_event`), and the resulting
ownership/placement *diff* is translated into RPCs that move real rows
between the served nodes:

- every row that changes place is pushed by the snode holding it straight
  to the snode that needs it — one ``PeerTransferRequest`` from
  :meth:`ClusterHarness._transfer`, the only mover, per store pair and tier
  pair of an event (per planned action in rebalance rounds); the
  coordinator link carries that order and its metadata ack, never the rows;
- a primary ownership change is a primary → primary move;
- a crash destroys the victim's state (fault injector) and the lost ranges
  are copied replica → primary from the replicas the *pre-event* placement
  says survived;
- a restart kills and reboots the node (memory lost, disk kept) and the
  primaries come back via WAL replay — or, without durability, from
  surviving replicas;
- after placement changes, each replica store gets one ``RangeRetain`` of
  the ranges it still holds intact (dropping both what it no longer
  replicates and what went stale), then one primary → replica copy per
  store pair refills the rest.

Replaying a trace is :func:`repro.workloads.replay.replay` with the harness
as its backend: that module owns the loop, the timers and the verification
*policy* (the conservation ledger checked after every topology event, what
may be lost, when replication is verified); the harness supplies the
operations — including ``verify_replication`` over RPC (one ``RangeCount``
per store and tier; per-partition primary and replica counts must agree).

Finally the :class:`~repro.cluster.protocol.LifecycleProtocolSimulator`
doubles as a **differential oracle**: the same trace is profiled and priced
by the cost model, and the report pairs each applied topology event's
simulated duration with its measured wall-clock.

Load-aware ``rebalance`` events run over the runtime itself, through the
same :func:`~repro.core.rebalance.drive_load_rebalance` the in-process
engine uses: :class:`RuntimeLoadProvider` aggregates per-partition primary
row counts from concurrent ``NodeStats`` replies into the exact snapshot
structure the planner consumes
(:func:`repro.core.rebalance.snapshot_from_counts`), and the harness is the
executor (:meth:`ClusterHarness.execute_load_round`): every planned
transfer is one more call of the mover.  The twin mirrors each executed
action through the public
:meth:`~repro.core.base.BaseDHT.execute_load_round`, and a replica
maintenance pass restores placement after the rounds.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.messages import (
    NodeStatsRequest,
    PeerTransferRequest,
    PingRequest,
    RangeCount,
    RangeDrop,
    RangeRetain,
    TopologySnapshot,
    VnodeCreate,
    VnodeDrop,
    WalReplay,
)
from repro.cluster.protocol import (
    LifecycleProtocolSimulator,
    ProtocolCosts,
    lifecycle_event_cost,
)
from repro.core.errors import ReproError
from repro.core.ids import VnodeRef
from repro.core.rebalance import (
    LoadRebalancePlan,
    LoadRoundAborted,
    LoadSnapshot,
    drive_load_rebalance,
    snapshot_from_counts,
)
from repro.runtime.client import COORDINATOR_ID, ClusterClient
from repro.runtime.faults import FaultInjector, NodeHandle
from repro.runtime.node import SnodeNode, SnodeServer
from repro.runtime.rpc import RpcClient, RpcError
from repro.workloads.churn import (
    REBALANCE_EVENT_KNOBS,
    ChurnEvent,
    ChurnSpec,
    apply_topology_event,
    make_churn_trace,
)
from repro.workloads.replay import Applied, EventOutcome, check_conservation, replay

#: ``(start, end, primary_ref, replica_refs)``: one half-open partition.
_Partition = Tuple[int, int, VnodeRef, Tuple[VnodeRef, ...]]
#: Ranges per ``(src, dst, tier, target_tier, pop)``: one ``_transfer`` each.
_Moves = Dict[Tuple[VnodeRef, VnodeRef, str, str, bool], List[Tuple[int, int]]]


class HarnessError(ReproError):
    """The served cluster violated conservation or replication invariants."""


@dataclass
class _TwinState:
    """Range-level snapshot of the twin's ownership and placement."""

    #: Every partition, sorted by start.
    partitions: List[_Partition]
    hosted: Dict[int, Set[VnodeRef]]


@dataclass
class _RebalanceState:
    """What one ``rebalance`` event carries between its rounds."""

    before: _TwinState
    before_cover: Dict[VnodeRef, List[Tuple[int, int]]]
    #: Refs of a transfer source that died and was rebooted mid-event.
    restarted: Set[VnodeRef] = field(default_factory=set)
    failure_note: str = ""


@dataclass
class HarnessReport:
    """Outcome of one churn replay over the served cluster."""

    name: str
    processes: bool
    n_events: int
    applied: int
    skipped: int
    loaded: int
    lookups: int
    items_lost: int
    conservation_checks: int
    replication_checks: int
    wall_s: float
    events: List[EventOutcome] = field(default_factory=list)
    rpc_latencies_s: List[float] = field(default_factory=list)
    faults: List[tuple] = field(default_factory=list)
    #: One record per executed runtime rebalance event: the full
    #: :class:`~repro.core.rebalance.LoadRebalanceReport` dict plus the
    #: coordinator-vs-peer byte breakdown of its transfers.
    rebalances: List[Dict[str, Any]] = field(default_factory=list)
    #: Total on-wire bytes of the coordinator's connections over the run.
    coordinator_bytes: int = 0

    def events_per_second(self) -> float:
        return self.n_events / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        if not self.rpc_latencies_s:
            return {"p50_us": 0.0, "p99_us": 0.0}
        column = np.asarray(self.rpc_latencies_s)
        return {
            "p50_us": float(np.percentile(column, 50) * 1e6),
            "p99_us": float(np.percentile(column, 99) * 1e6),
        }

    def oracle_by_kind(self) -> Dict[str, Dict[str, float]]:
        """Simulated vs measured seconds per topology event kind."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self.events:
            if record.simulated_s is None:
                continue
            bucket = out.setdefault(
                record.kind, {"n": 0, "simulated_s": 0.0, "measured_s": 0.0}
            )
            bucket["n"] += 1
            bucket["simulated_s"] += record.simulated_s
            bucket["measured_s"] += record.seconds
        return out

    def as_dict(self, include_events: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "processes": self.processes,
            "n_events": self.n_events,
            "applied": self.applied,
            "skipped": self.skipped,
            "loaded": self.loaded,
            "lookups": self.lookups,
            "items_lost": self.items_lost,
            "conservation_checks": self.conservation_checks,
            "replication_checks": self.replication_checks,
            "wall_s": self.wall_s,
            "events_per_second": self.events_per_second(),
            "rpc_calls": len(self.rpc_latencies_s),
            "rpc_latency": self.latency_percentiles(),
            "oracle_by_kind": self.oracle_by_kind(),
            "faults": [list(entry) for entry in self.faults],
            "coordinator_bytes": self.coordinator_bytes,
            "rebalances": list(self.rebalances),
        }
        if include_events:
            out["events"] = [
                {
                    "kind": record.kind,
                    "describe": record.detail,
                    "applied": record.applied,
                    "measured_s": record.seconds,
                    "simulated_s": record.simulated_s,
                    "note": record.note,
                }
                for record in self.events
            ]
        return out


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce sorted half-open ranges into their disjoint union."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _covers(merged: List[Tuple[int, int]], start: int, end: int) -> bool:
    """True when the merged ranges contain all of ``[start, end)``."""
    return any(lo <= start and end <= hi for lo, hi in merged)


def _inclusive(ranges: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Half-open ``(start, end)`` ranges to the wire's ``(start, last)``."""
    return tuple((start, end - 1) for start, end in ranges if end > start)


class RuntimeLoadProvider:
    """Load measurement over the served cluster (the runtime LoadProvider).

    Aggregates one concurrent ``NodeStats(partitions=True)`` round into the
    exact :class:`~repro.core.rebalance.LoadSnapshot` structure the planner
    consumes — topology (scopes, members, partition order) from the
    coordinator's metadata twin, per-partition primary row counts from the
    served nodes.  Identical measured loads therefore yield
    decision-identical plans to the in-process
    :func:`~repro.core.rebalance.measure_loads` provider; the differential
    tests pin this.  ``measure`` is a coroutine (measurement is RPC);
    :func:`~repro.core.rebalance.drive_load_rebalance` awaits it.
    """

    def __init__(self, harness: "ClusterHarness"):
        self.harness = harness

    async def measure(self) -> LoadSnapshot:
        stats = await self.harness.gather_stats(partitions=True)
        row_counts: Dict[str, Dict[Tuple[int, int], int]] = {}
        for payload in stats.values():
            row_counts.update(payload.get("partitions") or {})
        return snapshot_from_counts(self.harness.twin, row_counts)


class ClusterHarness:
    """Boot, drive, and verify a served cluster against its metadata twin.

    The harness is the RPC backend of :func:`repro.workloads.replay.replay`
    (``load`` / ``lookup`` / ``apply`` / ``primary_count`` /
    ``verify_replication``) and the runtime
    :class:`~repro.core.engine.interfaces.LoadPlanExecutor`.
    """

    #: What the replayer raises when the cluster breaks an invariant.
    error = HarnessError

    def __init__(
        self,
        spec: ChurnSpec,
        *,
        trace: Optional[Sequence[ChurnEvent]] = None,
        processes: bool = False,
        base_dir: Optional[str] = None,
        rpc_timeout: float = 10.0,
        costs: Optional[ProtocolCosts] = None,
    ):
        if processes and base_dir is None:
            raise ValueError("process mode needs base_dir for unix sockets")
        self.spec = spec
        self.trace: List[ChurnEvent] = (
            list(trace) if trace is not None else make_churn_trace(spec)
        )
        self.processes = processes
        self.base_dir = base_dir
        self.rpc_timeout = rpc_timeout
        self.costs = costs or ProtocolCosts()
        # Per-node data directories: explicit via the spec, or defaulted on
        # in process mode (a rebooted process can only recover from disk).
        self.data_root = spec.data_dir or (base_dir if processes else None)
        self.durable = self.data_root is not None

        # The twin is the coordinator's RAM-only model: the served nodes own
        # the disk and do the bulk work.
        self.twin = spec.build_dht(data_dir=None, workers=0)
        self.bh = self.twin.hash_space.bh
        self.handles: Dict[int, NodeHandle] = {}
        self.client = ClusterClient(
            bh=self.bh, replication_factor=spec.replication_factor
        )
        self.faults = FaultInjector(spawner=self._spawn_process)
        #: The replay ledger: every acknowledged primary row (see
        #: :mod:`repro.workloads.replay`; callers that bulk-load outside
        #: the trace add their rows here).
        self.expected_total = 0
        self._started = False
        #: One dict per executed rebalance event (report + byte breakdown).
        self.rebalance_records: List[Dict[str, Any]] = []
        #: Set when a failed mid-transfer source could not be rebuilt
        #: (no replica, no disk) — sanctions the loss for that event only.
        self._rebalance_loss = False
        self._rebalance: Optional[_RebalanceState] = None
        #: Coordinator-link bytes of connections already closed (retired or
        #: crashed nodes), so totals never go backwards.
        self._retired_coordinator_bytes = 0
        #: Totals over every transfer: bytes the snodes report on their peer
        #: links, and coordinator-link bytes of the orders and their acks.
        self.peer_bytes = 0
        self.coordinator_transfer_bytes = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Boot one served node per twin snode and create their vnodes."""
        state = self._snapshot()
        for snode_id in sorted(state.hosted):
            await self._boot_node(snode_id)
        for snode_id, refs in state.hosted.items():
            for ref in sorted(refs):
                await self._call(
                    snode_id, VnodeCreate, ref=ref.canonical_name, fresh=True
                )
        await self._push_topology()
        self._started = True

    async def close(self) -> None:
        for handle in self.handles.values():
            await handle.close()
        self.handles.clear()

    async def __aenter__(self) -> "ClusterHarness":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- node plumbing ---------------------------------------------------------

    def _node_dir(self, snode_id: int) -> Optional[str]:
        if self.data_root is None:
            return None
        return os.path.join(self.data_root, f"node-{snode_id}")

    async def _boot_node(self, snode_id: int) -> NodeHandle:
        handle = NodeHandle(
            snode_id=snode_id,
            bh=self.bh,
            replication_factor=self.spec.replication_factor,
            data_dir=self._node_dir(snode_id),
            process_mode=self.processes,
        )
        if self.processes:
            await self._spawn_process(handle)
        else:
            node = SnodeNode(
                snode_id,
                bh=self.bh,
                replication_factor=self.spec.replication_factor,
                data_dir=handle.data_dir,
            )
            server = SnodeServer(node)
            await server.start()
            handle.node = node
            handle.server = server
            handle.address = server.address
            handle.rpc = RpcClient(server.address, timeout=self.rpc_timeout)
        self.handles[snode_id] = handle
        self.client.connect(snode_id, handle.rpc)
        return handle

    async def _spawn_process(self, handle: NodeHandle) -> None:
        """Spawn (or re-spawn) one snode as a real OS process on a unix socket."""
        assert self.base_dir is not None
        unix_path = os.path.join(self.base_dir, f"snode-{handle.snode_id}.sock")
        if os.path.exists(unix_path):
            os.unlink(unix_path)
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--snode",
            str(handle.snode_id),
            "--bh",
            str(self.bh),
            "--replication-factor",
            str(self.spec.replication_factor),
            "--unix",
            unix_path,
        ]
        if handle.data_dir is not None:
            argv += ["--data-dir", handle.data_dir]
        handle.process = subprocess.Popen(argv)
        handle.address = unix_path
        handle.rpc = RpcClient(unix_path, timeout=self.rpc_timeout)
        self.client.connect(handle.snode_id, handle.rpc)
        await self._wait_ready(handle)

    async def _wait_ready(self, handle: NodeHandle, deadline_s: float = 20.0) -> None:
        started = time.monotonic()
        while True:
            try:
                probe = RpcClient(handle.address, timeout=1.0, retries=0)
                await probe.call(
                    PingRequest(src=COORDINATOR_ID, dst=handle.snode_id)
                )
                await probe.close()
                return
            except Exception:
                if time.monotonic() - started > deadline_s:
                    raise HarnessError(
                        f"snode {handle.snode_id} never became ready"
                    ) from None
                await asyncio.sleep(0.05)

    async def _call(
        self, snode_id: int, message_cls, *, timeout: Optional[float] = None, **fields_
    ):
        handle = self.handles[snode_id]
        assert handle.rpc is not None
        message = message_cls(src=COORDINATOR_ID, dst=snode_id, **fields_)
        return await handle.rpc.call(message, timeout=timeout)

    async def _call_ref(self, ref: VnodeRef, message_cls, **fields_):
        return await self._call(
            ref.snode.value, message_cls, ref=ref.canonical_name, **fields_
        )

    # -- twin snapshots --------------------------------------------------------

    def _snapshot(self) -> _TwinState:
        bh, placement = self.bh, self.twin.placement
        replicated = self.spec.replication_factor > 1
        partitions = sorted(
            (p.start(bh), p.end(bh), ref, placement.replicas_of(p) if replicated else ())
            for p, ref in self.twin.topology.iter_ownership()
        )
        hosted = {
            snode_id.value: set(snode.vnodes.keys())
            for snode_id, snode in self.twin.topology.snodes.items()
        }
        return _TwinState(partitions, hosted)

    async def _push_topology(self) -> None:
        topology = self.twin.topology
        ownership = list(topology.iter_ownership())
        entries = tuple(
            (partition.level, partition.index, ref.canonical_name)
            for partition, ref in ownership
        )
        self.client.update_topology(topology.version, ownership)
        for snode_id in sorted(snode.value for snode in topology.snodes):
            await self._call(
                snode_id, TopologySnapshot, version=topology.version, entries=entries
            )

    @staticmethod
    def _replica_cover(
        partitions: List[_Partition],
    ) -> Dict[VnodeRef, List[Tuple[int, int]]]:
        cover: Dict[VnodeRef, List[Tuple[int, int]]] = {}
        for start, end, _primary, replicas in partitions:
            for ref in replicas:
                cover.setdefault(ref, []).append((start, end))
        return {ref: _merge_ranges(ranges) for ref, ranges in cover.items()}

    @staticmethod
    def _diff_moves(
        before: List[_Partition], after: List[_Partition]
    ) -> List[Tuple[int, int, VnodeRef, VnodeRef]]:
        """Segments whose owner changed, by merge-scanning both partition lists."""
        moves: List[Tuple[int, int, VnodeRef, VnodeRef]] = []
        i = j = 0
        cursor = before[0][0] if before else 0
        space_end = max(
            before[-1][1] if before else 0, after[-1][1] if after else 0
        )
        while cursor < space_end and i < len(before) and j < len(after):
            while i < len(before) and before[i][1] <= cursor:
                i += 1
            while j < len(after) and after[j][1] <= cursor:
                j += 1
            if i >= len(before) or j >= len(after):
                break
            segment_end = min(before[i][1], after[j][1])
            if before[i][2] != after[j][2]:
                moves.append((cursor, segment_end, before[i][2], after[j][2]))
            cursor = segment_end
        return moves

    # -- data movement ---------------------------------------------------------

    async def _transfer(
        self,
        src: VnodeRef,
        dst: VnodeRef,
        ranges: Sequence[Tuple[int, int]],
        *,
        tier: str = "primary",
        target_tier: str = "primary",
        pop: bool = False,
    ) -> int:
        """Order ``src``'s snode to push ``ranges`` of its ``tier`` into
        ``dst``'s ``target_tier`` and, with ``pop``, to drop its copy once the
        target has adopted; return the rows that travelled.

        The one way rows change place, whatever the event kind.  The ranges
        go on the wire sorted and coalesced.
        """
        coordinator_before = self._coordinator_bytes()
        response = await self._call_ref(
            src,
            PeerTransferRequest,
            target_ref=dst.canonical_name,
            target_address=self.handles[dst.snode.value].address,
            tier=tier,
            ranges=_inclusive(_merge_ranges(ranges)),
            pop=pop,
            target_tier=target_tier,
        )
        self.coordinator_transfer_bytes += self._coordinator_bytes() - coordinator_before
        self.peer_bytes += int(response.payload["peer_bytes"])
        return int(response.payload["rows"])

    async def _move(self, moves: _Moves) -> None:
        """One :meth:`_transfer` per store pair, carrying all of its ranges."""
        for (src, dst, tier, target_tier, pop), ranges in moves.items():
            await self._transfer(
                src, dst, ranges, tier=tier, target_tier=target_tier, pop=pop
            )

    @staticmethod
    def _plan_rebuild(
        segments: Sequence[Tuple[int, int, VnodeRef]],
        before: _TwinState,
        dead_refs: Set[VnodeRef],
        cover: Dict[VnodeRef, List[Tuple[int, int]]],
    ) -> Tuple[_Moves, List[Tuple[int, int]]]:
        """Plan rebuilding the ``(start, end, dst)`` primary segments from
        replicas: the replica → primary copies by store pair, and the
        fragments no surviving replica covers (only possible without
        replication).

        Each fragment a segment shares with a pre-event partition comes from
        the first of its replicas that is not dead and whose pre-event
        ``cover`` contains it.
        """
        partitions = before.partitions
        starts = [partition[0] for partition in partitions]
        moves: _Moves = {}
        lost: List[Tuple[int, int]] = []
        for start, end, dst in segments:
            first = max(bisect_right(starts, start) - 1, 0)
            for seg_start, seg_end, _primary, replicas in partitions[first:]:
                lo, hi = max(start, seg_start), min(end, seg_end)
                if lo >= hi:
                    break
                alive = (ref for ref in replicas if ref not in dead_refs)
                source = next((ref for ref in alive if _covers(cover.get(ref, []), lo, hi)), None)
                if source is None:
                    lost.append((lo, hi))
                else:
                    key = (source, dst, "replica", "primary", False)
                    moves.setdefault(key, []).append((lo, hi))
        return moves, lost

    def _coordinator_bytes(self) -> int:
        """Total on-wire bytes of the coordinator's connections, ever."""
        live = sum(
            handle.rpc.bytes_sent + handle.rpc.bytes_received
            for handle in self.handles.values()
            if handle.rpc is not None
        )
        return self._retired_coordinator_bytes + live

    def _retire_rpc_bytes(self, handle: Optional[NodeHandle]) -> None:
        """Bank a connection's byte counters before it is dropped/replaced."""
        if handle is not None and handle.rpc is not None:
            self._retired_coordinator_bytes += (
                handle.rpc.bytes_sent + handle.rpc.bytes_received
            )

    async def _reboot(self, snode_id: int, refs: Set[VnodeRef]) -> None:
        """Bring a killed node back: new connection, vnodes re-attached.

        The old connection's byte counters are banked first.  An in-process
        node keeps its (emptied) vnodes across a reboot; a real process
        starts blank and is told which vnodes it hosts (``fresh=False``:
        keep what the disk holds).
        """
        handle = self.handles[snode_id]
        self._retire_rpc_bytes(handle)
        await self.faults.reboot(handle)
        self.client.connect(snode_id, handle.rpc)
        if not handle.in_process:
            await self._wait_ready(handle)
            for ref in sorted(refs):
                await self._call(
                    snode_id, VnodeCreate, ref=ref.canonical_name, fresh=False
                )

    async def _recover_primaries(
        self,
        refs: Set[VnodeRef],
        now: _TwinState,
        before: _TwinState,
        before_cover: Dict[VnodeRef, List[Tuple[int, int]]],
    ) -> List[Tuple[int, int]]:
        """Refill the primaries of rebooted ``refs``; return the ranges lost.

        WAL replay when the nodes own disk; otherwise each range ``refs``
        own ``now`` is rebuilt from a replica the *pre-event* placement says
        survived, and a range with no such replica is lost.
        """
        if self.durable:
            for ref in sorted(refs):
                await self._call_ref(ref, WalReplay)
            return []
        owned = [(start, end, owner) for start, end, owner, _ in now.partitions if owner in refs]
        moves, lost = self._plan_rebuild(owned, before, refs, before_cover)
        await self._move(moves)
        return lost

    async def apply(self, event: ChurnEvent) -> Applied:
        """Mirror one twin topology change onto the served cluster."""
        if event.kind == "rebalance":
            return await self._runtime_rebalance()

        before = self._snapshot()
        before_cover = self._replica_cover(before.partitions)

        try:
            done = Applied(note=apply_topology_event(self.twin, event).note)
        except ReproError as exc:
            # The model refused — possibly part-way (a leave that drained
            # some vnodes before one could not go).  Whatever the twin did
            # is mirrored below; only the fault itself is not injected.
            done = Applied(applied=False, note=f"skipped: {exc}")

        crash_sid = event.snode if done.applied and event.kind == "snode_crash" else None
        restart_sid = event.snode if done.applied and event.kind == "snode_restart" else None
        after = self._snapshot()
        crashed_refs = set(before.hosted.get(crash_sid, set())) if crash_sid is not None else set()
        restarted_refs = (
            set(before.hosted.get(restart_sid, set())) if restart_sid is not None else set()
        )

        # 1. Inject the real fault.
        if crash_sid is not None and crash_sid in self.handles:
            handle = self.handles.pop(crash_sid)
            self._retire_rpc_bytes(handle)
            await self.faults.crash(handle)
            self.client.disconnect(crash_sid)
        if restart_sid is not None and restart_sid in self.handles:
            await self.faults.kill(self.handles[restart_sid])
            await self._reboot(restart_sid, restarted_refs)

        # 2. Boot joined snodes, create new vnodes.
        for snode_id in sorted(set(after.hosted) - set(before.hosted)):
            await self._boot_node(snode_id)
        for snode_id, refs in after.hosted.items():
            for ref in sorted(refs - before.hosted.get(snode_id, set())):
                await self._call(
                    snode_id, VnodeCreate, ref=ref.canonical_name, fresh=True
                )

        # 3. Restart recovery: WAL replay (durable) or replica rebuild.
        for start, end in await self._recover_primaries(
            restarted_refs, after, before, before_cover
        ):
            done.note = f"{done.note}; restart lost [{start}, {end})".strip("; ")

        # 4. Primary ownership moves (crash-owned segments come from replicas).
        diff = self._diff_moves(before.partitions, after.partitions)
        crash_owned = [(start, end, dst) for start, end, src, dst in diff if src in crashed_refs]
        moves, unrecovered = self._plan_rebuild(crash_owned, before, crashed_refs, before_cover)
        for start, end, src, dst in diff:
            if src not in crashed_refs:
                key = (src, dst, "primary", "primary", True)
                moves.setdefault(key, []).append((start, end))
        await self._move(moves)
        if unrecovered:
            done.note = f"{done.note}; {len(unrecovered)} ranges unrecoverable".strip("; ")

        # 5. New routing state everywhere.
        await self._push_topology()

        # 6. Replica maintenance: retain the intact ranges, refill the rest.
        await self._replica_maintenance(after, before_cover, restarted_refs)

        # 7. Drop drained vnodes; retire departed nodes.
        for snode_id, refs in before.hosted.items():
            if snode_id == crash_sid:
                continue
            for ref in sorted(refs - after.hosted.get(snode_id, set())):
                await self._call(snode_id, VnodeDrop, ref=ref.canonical_name)
        for snode_id in sorted(set(before.hosted) - set(after.hosted)):
            if snode_id == crash_sid:
                continue
            handle = self.handles.pop(snode_id, None)
            if handle is not None:
                self._retire_rpc_bytes(handle)
                await handle.close()
            self.client.disconnect(snode_id)

        return done

    async def _replica_maintenance(
        self,
        after: _TwinState,
        before_cover: Dict[VnodeRef, List[Tuple[int, int]]],
        restarted_refs: Set[VnodeRef],
    ) -> None:
        """Make every replica store match the twin's placement.

        ``before_cover`` is the replica cover *before* the topology change:
        a replica range it already covered is intact (its rows are keyed by
        hash and primaries never mutate rows during a move) unless its
        vnode is on a restarted node whose memory is gone.  Each replica
        store gets one ``RangeRetain`` of its intact ranges, which discards
        both what the vnode no longer replicates and the stale ranges; then
        one primary → replica copy per store pair refills the rest.
        """
        if self.spec.replication_factor <= 1:
            return
        intact: Dict[VnodeRef, List[Tuple[int, int]]] = {}
        refills: _Moves = {}
        for start, end, primary, replicas in after.partitions:
            for ref in replicas:
                if ref not in restarted_refs and _covers(before_cover.get(ref, []), start, end):
                    intact.setdefault(ref, []).append((start, end))
                else:
                    key = (primary, ref, "primary", "replica", False)
                    refills.setdefault(key, []).append((start, end))
        for refs in after.hosted.values():
            for ref in sorted(refs):
                ranges = _inclusive(_merge_ranges(intact.get(ref, [])))
                await self._call_ref(ref, RangeRetain, tier="replica", ranges=ranges)
        await self._move(refills)

    # -- runtime load rebalance ------------------------------------------------

    async def _runtime_rebalance(self) -> Applied:
        """One load-aware rebalance event executed over the served cluster.

        :func:`~repro.core.rebalance.drive_load_rebalance` — the driver the
        in-process engine runs — with NodeStats measurement as the provider
        and this harness as the executor, under the knobs every backend
        gives a ``rebalance`` trace event.  A replica maintenance pass
        restores placement afterwards.
        """
        before = self._snapshot()
        state = self._rebalance = _RebalanceState(
            before, self._replica_cover(before.partitions)
        )
        coord_before = self._coordinator_bytes()
        transfers_before = self.coordinator_transfer_bytes
        peer_before = self.peer_bytes
        self._rebalance_loss = False

        report = await drive_load_rebalance(
            RuntimeLoadProvider(self),
            self,
            pmin=self.twin.config.pmin,
            pmax=self.twin.config.pmax,
            bh=self.bh,
            **REBALANCE_EVENT_KNOBS,
        )
        # The byte split of the rounds' transfers alone: taken before
        # replica maintenance adds its refills to the totals.
        record = report.as_dict()
        record["coordinator_transfer_bytes"] = self.coordinator_transfer_bytes - transfers_before
        record["peer_bytes"] = self.peer_bytes - peer_before

        await self._push_topology()
        await self._replica_maintenance(
            self._snapshot(), state.before_cover, state.restarted
        )

        record["coordinator_bytes"] = self._coordinator_bytes() - coord_before
        record["aborted"] = bool(state.failure_note)
        self.rebalance_records.append(record)

        note = report.summary()
        if state.failure_note:
            note = f"{note}; {state.failure_note}"
        return Applied(note=note, loss_sanctioned=self._rebalance_loss)

    async def execute_load_round(self, plan: LoadRebalancePlan) -> Tuple[int, int]:
        """Apply one planned round over RPC (the runtime ``LoadPlanExecutor``).

        Each transfer is one :meth:`_transfer` move from the victim to the
        recipient; the twin mirrors every executed action through
        :meth:`~repro.core.base.BaseDHT.execute_load_round` so ownership,
        placement and future diffs stay authoritative.  A source that dies
        mid-push is recovered like a restart and the round — and with it
        the event — ends through :class:`~repro.core.rebalance.LoadRoundAborted`.
        """
        state = self._rebalance
        rows = moved = 0
        for action in plan.transfers:
            hash_range = (action.partition.start(self.bh), action.partition.end(self.bh))
            try:
                rows += await self._transfer(
                    action.victim, action.recipient, [hash_range], pop=True
                )
            except (RpcError, ConnectionError, OSError):
                state.failure_note = await self._recover_failed_transfer(
                    action, hash_range, state
                )
                raise LoadRoundAborted(moved, rows, moved)
            moved += 1
            self.twin.execute_load_round(LoadRebalancePlan(actions=[action]))
        for action in plan.splits:
            self.twin.execute_load_round(LoadRebalancePlan(actions=[action]))
        await self._push_topology()
        return rows, moved

    async def _recover_failed_transfer(
        self, action, hash_range: Tuple[int, int], state: _RebalanceState
    ) -> str:
        """Clean up after a transfer source died mid-peer-push.

        The handshake is adopt-before-drop, so at the moment of death the
        moved rows exist on the target (already adopted), on the source
        (never dropped), or on both — never on neither.  The failed action
        was not mirrored on the twin (ownership stays with the victim), so
        the target's partial adoption is dropped — idempotent, it owned no
        primary rows in that range — and the source is recovered like a
        restart (the pre-event replica cover is still physically intact
        mid-rebalance because replica maintenance only runs after the
        rounds).  Records the refs whose replica tiers must be refilled and
        returns the failure note.
        """
        await self._call_ref(
            action.recipient, RangeDrop, ranges=_inclusive([hash_range])
        )
        sid = action.victim.snode.value
        if sid not in self.handles:
            return f"transfer source s{sid} gone"
        refs = set(state.before.hosted.get(sid, set()))
        state.restarted |= refs
        await self._reboot(sid, refs)
        lost = await self._recover_primaries(
            refs, self._snapshot(), state.before, state.before_cover
        )
        if lost:
            self._rebalance_loss = True
            return (
                f"transfer source s{sid} died mid-transfer; "
                f"{len(lost)} ranges unrecoverable"
            )
        return f"transfer source s{sid} died mid-transfer; recovered"

    # -- verification ----------------------------------------------------------

    async def gather_stats(
        self, partitions: bool = False, timeout: Optional[float] = None
    ) -> Dict[int, Dict[str, Any]]:
        """One concurrent NodeStats round: ``{snode_id: stats payload}``.

        Requests go out to every served node at once with a per-request
        timeout, so a single paused snode delays the round by at most one
        timeout instead of stalling every node behind it serially.
        """
        ids = sorted(self.handles)
        per_request = timeout if timeout is not None else self.rpc_timeout
        responses = await asyncio.gather(
            *(
                self._call(
                    snode_id,
                    NodeStatsRequest,
                    partitions=partitions,
                    timeout=per_request,
                )
                for snode_id in ids
            )
        )
        return {
            snode_id: response.payload
            for snode_id, response in zip(ids, responses)
        }

    async def primary_count(self) -> int:
        """Summed primary rows across every served node."""
        stats = await self.gather_stats()
        return sum(int(payload["primary"]) for payload in stats.values())

    async def check_conservation(self, allow_loss: bool) -> int:
        """Hold the cluster to the ledger (:func:`repro.workloads.replay.check_conservation`).

        Raises :class:`HarnessError` unless the served primaries sum to
        :attr:`expected_total`; with ``allow_loss`` a deficit rebases the
        ledger instead and is returned.
        """
        return await check_conservation(self, allow_loss)

    async def verify_replication(self) -> int:
        """Per-partition primary vs replica range counts over RPC.

        One ``RangeCount`` per (store, tier) carries all of its partitions;
        the requests are read-only, so they go out together.  Returns the
        number of (partition, replica) pairs checked; raises
        :class:`HarnessError` on the first mismatch in partition order.
        """
        partitions = [entry for entry in self._snapshot().partitions if entry[3]]
        wanted: Dict[Tuple[VnodeRef, str], List[Tuple[int, int]]] = {}
        for start, end, primary, replicas in partitions:
            for store in ((primary, "primary"), *((ref, "replica") for ref in replicas)):
                wanted.setdefault(store, []).append((start, end))
        replies = await asyncio.gather(
            *(
                self._call_ref(ref, RangeCount, tier=tier, ranges=_inclusive(ranges))
                for (ref, tier), ranges in wanted.items()
            )
        )
        held = {
            (ref, tier, start): count
            for ((ref, tier), ranges), reply in zip(wanted.items(), replies)
            for (start, _end), count in zip(ranges, reply.payload)
        }
        checked = 0
        for start, end, primary, replicas in partitions:
            primary_count = held[primary, "primary", start]
            for ref in replicas:
                if held[ref, "replica", start] != primary_count:
                    raise HarnessError(
                        f"replica divergence on [{start}, {end}): primary "
                        f"{primary} holds {primary_count}, replica {ref} "
                        f"holds {held[ref, 'replica', start]}"
                    )
                checked += 1
        return checked

    # -- trace replay ----------------------------------------------------------

    async def load(self, chunk) -> int:
        return await self.client.bulk_load(chunk)

    async def lookup(self, chunk) -> int:
        for key in chunk.tolist():
            await self.client.get(key)
        return len(chunk)

    async def run(self, oracle: bool = True) -> HarnessReport:
        """Replay the trace against the served cluster and verify every event.

        The loop and its checks are :func:`repro.workloads.replay.replay`
        with this harness as the backend.  With ``oracle=True`` the same
        trace is profiled by the lifecycle simulator and each applied
        topology event is annotated with its simulated cost-model duration.
        """
        if not self._started:
            await self.start()
        result = await replay(
            self.trace,
            self.spec.make_keys(),
            self,
            seed=self.spec.seed,
            replication_factor=self.spec.replication_factor,
        )

        if oracle:
            self._annotate_with_oracle(result.outcomes)

        latencies: List[float] = []
        for handle in self.handles.values():
            if handle.rpc is not None:
                latencies.extend(handle.rpc.call_durations)

        return HarnessReport(
            name=self.spec.name,
            processes=self.processes,
            n_events=len(self.trace),
            applied=result.applied,
            skipped=result.skipped,
            loaded=result.loaded,
            lookups=result.lookups,
            items_lost=result.items_lost,
            conservation_checks=result.conservation_checks,
            replication_checks=result.replication_checks,
            wall_s=result.wall_s,
            events=result.outcomes,
            rpc_latencies_s=latencies,
            faults=list(self.faults.log),
            rebalances=list(self.rebalance_records),
            coordinator_bytes=self._coordinator_bytes(),
        )

    def _annotate_with_oracle(self, records: List[EventOutcome]) -> None:
        """Pair each topology event with the simulator's cost-model duration.

        The lifecycle simulator replays the *same trace* against its own
        single-process DHT (loads included, so data-dependent costs are
        real) and produces one profile per topology event, in trace order.
        Raises :class:`HarnessError` unless every topology outcome has
        exactly one profile, of the same kind, at the same position.
        """
        simulator = LifecycleProtocolSimulator(
            spec=self.spec, trace=self.trace, costs=self.costs
        )
        profiles = simulator.profiles()
        topology_records = [
            record for record in records if record.kind not in ("load", "lookup")
        ]
        replayed = [record.kind for record in topology_records]
        profiled = [profile.kind for profile in profiles]
        if replayed != profiled:
            raise HarnessError(
                f"oracle cannot pair {len(replayed)} topology outcomes "
                f"{replayed} with {len(profiled)} profiles {profiled}"
            )
        for record, profile in zip(topology_records, profiles):
            duration, _messages, _nbytes = lifecycle_event_cost(self.costs, profile)
            record.simulated_s = duration


__all__ = [
    "ClusterHarness",
    "HarnessError",
    "HarnessReport",
    "RuntimeLoadProvider",
]
