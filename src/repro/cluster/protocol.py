"""Discrete-event simulation of the DHT control protocol.

This is the substrate behind the parallelism/scalability claims of the
paper (sections 1, 3 and 6), which its evaluation argues only qualitatively:

* **Global approach** — a vnode creation is only complete "when the GPDR
  becomes synchronized in all snodes and all the necessary transfers of
  partitions have been concluded" (section 2.5), so every creation involves
  every snode and consecutive creations execute serially.  The simulation
  models this with a single DHT-wide FIFO lock.
* **Local approach** — a creation involves only the snodes hosting vnodes of
  the victim group (section 3.6), so creations targeting different groups
  overlap; the simulation uses one FIFO lock per group.

Every control-plane event is described by one :class:`EventProfile`,
priced by one cost function (:func:`lifecycle_event_cost`: request fan-out
with acks, record update and synchronization, data movement) and queued on
one discrete-event queue under the approach's locks.  Profiles come from
two sources:

* :class:`CreationProtocolSimulator` — the paper's own scenario, a schedule
  of vnode *creations*.  The balance dynamics (which group receives a vnode,
  how many partitions are handed over, when groups split) come from the fast
  count-level simulator of :mod:`repro.sim`; each creation becomes a
  ``"create"`` profile.  The outcome feeds the ``ablation_parallelism``
  experiment.
* :class:`LifecycleProtocolSimulator` — the **full topology lifecycle**: a
  churn trace (:mod:`repro.workloads.churn`) of snode joins, graceful
  leaves, crashes with replica rebuild, kill-9 restarts with WAL replay,
  enrollment changes and load-aware rebalance passes is replayed by the one
  trace replayer (:func:`repro.workloads.replay.replay`, conservation and
  replication checked after every topology event) against a *live* DHT,
  and a recording backend captures what every event actually did (vnodes
  created/removed, partitions and rows migrated, surviving-replica rows
  promoted by crash recovery, replica-sync fan-out volume, rebalance plan
  actions).  The outcome feeds the ``ablation_lifecycle`` experiment,
  ``repro protocol-bench`` and the runtime harness's cost-model oracle.

Simplification: the *identity* of the victim group — and, for the lifecycle
simulator, the effect of every event — does not depend on the request
timing (events are profiled in trace order).  This is the same independence
assumption the paper makes when it evaluates balance quality separately
from protocol concurrency; the discrete-event layer only resolves the
queueing that timing induces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.messages import (
    Ack,
    CrashNotice,
    CreateVnodeRequest,
    PartitionTransfer,
    RebalanceTransfer,
    RecordSync,
    RemoveVnodeRequest,
    ReplicaRebuildTransfer,
    ReplicaSyncTransfer,
    RestartNotice,
)
from repro.cluster.network import NetworkModel
from repro.cluster.simulator import EventScheduler, FifoResource
from repro.core.config import DHTConfig
from repro.core.errors import ProtocolError
from repro.core.ids import SnodeId
from repro.sim.local import LocalBalanceSimulator
from repro.utils.coro import run_sync
from repro.utils.rng import RngLike, ensure_rng
from repro.workloads.arrivals import ArrivalEvent
from repro.workloads.churn import (
    TOPOLOGY_KINDS,
    ChurnEvent,
    ChurnSpec,
    DHTBackend,
    TopologyOutcome,
    apply_topology_event,
    make_churn_trace,
)
from repro.workloads.replay import Applied, replay

Approach = Literal["global", "local"]

#: Lock key of the DHT-wide barrier (global approach / whole-DHT events).
GLOBAL_LOCK = "global"


@dataclass(frozen=True)
class ProtocolCosts:
    """Cost parameters of the control protocol."""

    #: Cluster network (one-hop latency + bandwidth).
    network: NetworkModel = field(default_factory=NetworkModel)
    #: CPU time to process one record entry during the update/sort of a
    #: GPDR/LPDR replica (section 4.1.2 points out this grows with the table).
    record_entry_processing_s: float = 2e-6
    #: Application data moved when one partition is handed over.  Used by the
    #: creation simulator, whose count-level substrate has no stored rows: a
    #: handover is priced as this many bytes of ``row_payload_bytes`` rows.
    partition_payload_bytes: float = 64 * 1024
    #: Wire size of one stored row (key + value + envelope).  Used by the
    #: lifecycle simulator, which prices transfers by actual row counts.
    row_payload_bytes: float = 256.0
    #: CPU time to replay one WAL record during restart recovery (local-disk
    #: sequential read + apply; no network transfer is involved).
    wal_replay_record_s: float = 5e-7
    #: Coordinator-side wire bytes of one peer-to-peer partition handover
    #: (the ``PeerTransferRequest`` order plus its metadata ``Ack``).  The
    #: row payload itself is priced on the peer link — the coordinator
    #: never relays it.
    peer_transfer_metadata_bytes: float = 96.0

    def __post_init__(self) -> None:
        if self.record_entry_processing_s < 0:
            raise ValueError("record_entry_processing_s must be non-negative")
        if self.partition_payload_bytes < 0:
            raise ValueError("partition_payload_bytes must be non-negative")
        if self.row_payload_bytes < 0:
            raise ValueError("row_payload_bytes must be non-negative")
        if self.wal_replay_record_s < 0:
            raise ValueError("wal_replay_record_s must be non-negative")
        if self.peer_transfer_metadata_bytes < 0:
            raise ValueError("peer_transfer_metadata_bytes must be non-negative")


@dataclass
class KindStats:
    """Latency/volume breakdown of one event kind in a lifecycle simulation."""

    kind: str
    count: int
    applied: int
    mean_latency_s: float
    p95_latency_s: float
    max_latency_s: float
    messages: int
    bytes: float
    #: Total in-service (lock-held) seconds spent on events of this kind.
    service_s: float

    def throughput(self, makespan: float) -> float:
        """Events of this kind completed per second of simulated time."""
        return self.count / makespan if makespan > 0 else 0.0

    def as_dict(self) -> Dict[str, Union[str, int, float]]:
        """JSON-serializable form."""
        return {
            "kind": self.kind,
            "count": self.count,
            "applied": self.applied,
            "mean_latency_s": self.mean_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "max_latency_s": self.max_latency_s,
            "messages": self.messages,
            "bytes": self.bytes,
            "service_s": self.service_s,
        }


@dataclass
class ProtocolStats:
    """Outcome of a protocol simulation.

    Creation simulations populate only the aggregate fields; lifecycle
    simulations additionally fill :attr:`per_kind` (one entry per event
    kind present in the trace) and :attr:`events_skipped`.
    """

    approach: str
    n_snodes: int
    latencies: np.ndarray
    makespan: float
    total_messages: int
    total_bytes: float
    lock_waits: int
    #: Per-event-kind breakdown (lifecycle simulations only).
    per_kind: Dict[str, KindStats] = field(default_factory=dict)
    #: Events the model could not serve (recorded, priced as a rejected
    #: request, but applying no topology change).
    events_skipped: int = 0
    #: Lock grants actually handed out (must equal the completed lock
    #: acquisitions — requests still queued at the end of a run are not
    #: grants).
    lock_grants: int = 0

    @property
    def n_creations(self) -> int:
        """Number of vnode creations simulated."""
        return len(self.latencies)

    @property
    def n_events(self) -> int:
        """Number of control-plane events simulated (alias of ``n_creations``)."""
        return len(self.latencies)

    @property
    def mean_latency(self) -> float:
        """Mean creation latency (arrival to completion), in seconds."""
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    @property
    def p95_latency(self) -> float:
        """95th-percentile creation latency, in seconds."""
        return float(np.percentile(self.latencies, 95)) if self.latencies.size else 0.0

    @property
    def throughput(self) -> float:
        """Completed creations per second of simulated time."""
        return self.n_creations / self.makespan if self.makespan > 0 else 0.0

    def as_dict(self) -> Dict[str, Union[str, int, float, Dict]]:
        """Summary dict (for reports and benchmarks)."""
        out: Dict[str, Union[str, int, float, Dict]] = {
            "approach": self.approach,
            "n_snodes": self.n_snodes,
            "creations": self.n_creations,
            "makespan_s": self.makespan,
            "mean_latency_s": self.mean_latency,
            "p95_latency_s": self.p95_latency,
            "throughput_per_s": self.throughput,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
            "lock_waits": self.lock_waits,
        }
        if self.per_kind:
            out["events_skipped"] = self.events_skipped
            out["per_kind"] = {kind: ks.as_dict() for kind, ks in self.per_kind.items()}
        return out


class CreationProtocolSimulator:
    """Simulate a schedule of vnode creations under either approach.

    Parameters
    ----------
    config:
        DHT configuration.  For the global approach ``vmin`` is ignored.
    n_snodes:
        Number of snodes enrolled (one per cluster node in the paper's
        setting).  Vnodes are assigned to the snode named by each arrival
        event.
    arrivals:
        The workload: a sequence of :class:`~repro.workloads.arrivals.ArrivalEvent`
        (only ``create`` events are supported) or plain arrival times.
    approach:
        ``"global"`` or ``"local"``.
    costs:
        Network and processing cost parameters.
    rng:
        Seed/generator for the balance simulator's random decisions.

    Examples
    --------
    >>> from repro.core import DHTConfig
    >>> from repro.workloads import ConsecutiveCreations
    >>> sim = CreationProtocolSimulator(
    ...     DHTConfig.for_local(pmin=4, vmin=4), n_snodes=8,
    ...     arrivals=ConsecutiveCreations(64, n_snodes=8), approach="local", rng=0)
    >>> stats = sim.run()
    >>> stats.n_creations
    64
    """

    def __init__(
        self,
        config: DHTConfig,
        n_snodes: int,
        arrivals: Union[Sequence[ArrivalEvent], Sequence[float]],
        approach: Approach = "local",
        costs: Optional[ProtocolCosts] = None,
        rng: RngLike = None,
    ):
        if n_snodes < 1:
            raise ValueError("n_snodes must be >= 1")
        if approach not in ("global", "local"):
            raise ValueError(f"approach must be 'global' or 'local', got {approach!r}")
        self.config = config
        self.n_snodes = n_snodes
        self.approach = approach
        self.costs = costs if costs is not None else ProtocolCosts()
        self.rng = ensure_rng(rng)
        self.events = self._normalize_arrivals(arrivals)
        if not self.events:
            raise ValueError("the arrival schedule is empty")

    @staticmethod
    def _normalize_arrivals(
        arrivals: Union[Sequence[ArrivalEvent], Sequence[float]]
    ) -> List[ArrivalEvent]:
        events: List[ArrivalEvent] = []
        for index, item in enumerate(arrivals):
            if isinstance(item, ArrivalEvent):
                if item.kind != "create":
                    raise ProtocolError(
                        f"unsupported arrival event kind {item.kind!r} "
                        f"(expected 'create')"
                    )
                events.append(item)
            else:
                events.append(ArrivalEvent(time=float(item), snode=index, kind="create"))
        return sorted(events, key=lambda e: e.time)

    def run(self) -> ProtocolStats:
        """Run the discrete-event simulation and return its statistics.

        The balance simulator, driven in arrival order, says what each
        creation does (victim group, transfers, split); each becomes a
        ``"create"`` :class:`EventProfile`, priced and queued like any
        lifecycle event.
        """
        config = self.config if self.approach == "local" else self.config.with_(vmin=None)
        balance = LocalBalanceSimulator(config, rng=self.rng)
        records = [balance.create_vnode() for _ in self.events]

        # Map vnodes to hosting snodes (the snode that issued the creation).
        vnode_snode: Dict[int, int] = {
            record.vnode: event.snode % self.n_snodes
            for record, event in zip(records, self.events)
        }
        row_bytes = self.costs.row_payload_bytes

        profiles: List[EventProfile] = []
        for event, record in zip(self.events, records):
            if self.approach == "global":
                involved = self.n_snodes
                lock_key: object = GLOBAL_LOCK
            else:
                hosts = {vnode_snode[m] for m in record.group_members}
                hosts.add(event.snode % self.n_snodes)
                involved = len(hosts)
                lock_key = ("group", record.group_id)
            # The count-level substrate stores no rows: each handover carries
            # partition_payload_bytes, priced as rows of row_payload_bytes.
            payload = record.n_transfers * self.costs.partition_payload_bytes
            profiles.append(
                EventProfile(
                    kind="create",
                    time=event.time,
                    lookup_rpc=(self.approach == "local"),
                    vnodes_created=1,
                    involved_snodes=involved,
                    record_entries=record.group_size,
                    partitions_moved=record.n_transfers,
                    rows_moved=int(payload // row_bytes) if row_bytes else 0,
                    rebalance_splits=int(record.group_split),
                    lock_keys=(lock_key,),
                )
            )
        stats = _simulate(profiles, self.costs, self.approach, self.n_snodes)
        # Creation runs report the aggregate fields only.
        stats.per_kind = {}
        return stats


# ------------------------------------------------------- profile, cost, queue


@dataclass
class EventProfile:
    """What one control-plane event did, as input to the cost model.

    Produced by :class:`LifecycleProtocolSimulator` replaying a trace
    against a live DHT (or by :class:`CreationProtocolSimulator` from the
    count-level balance simulator); priced by :func:`lifecycle_event_cost`.
    Lifecycle row counts are physical rows actually moved by the live replay
    (migration and replication statistics deltas), so the protocol costs
    scale with the data the cluster really holds.
    """

    #: Event kind: a churn topology kind or ``"create"``.
    kind: str
    #: Arrival time of the request (seconds).
    time: float
    #: False when the model rejected the event (priced as request + refusal).
    applied: bool = True
    #: Local approach only: the request is preceded by a scope-lookup RPC.
    lookup_rpc: bool = False
    #: Vnodes created / gracefully removed by the event.
    vnodes_created: int = 0
    vnodes_removed: int = 0
    #: Snodes taking part in the event (all snodes for the global approach,
    #: the snodes hosting vnodes of the touched groups for the local one).
    involved_snodes: int = 1
    #: Record entries synchronized across the involved snodes (GPDR size for
    #: the global approach, the touched groups' LPDR sizes for the local).
    record_entries: int = 0
    #: Partition handovers and primary rows migrated gracefully.
    partitions_moved: int = 0
    rows_moved: int = 0
    #: Crash recovery: rebuild transfers and surviving-replica rows promoted.
    recovery_transfers: int = 0
    rows_restored: int = 0
    #: Restart recovery: rows and WAL records replayed from the local disk
    #: tier (priced as CPU time, not network transfer).
    rows_replayed: int = 0
    wal_records_replayed: int = 0
    #: Replica-sync fan-out: replica ranks written and rows refilled.
    sync_ranks: int = 0
    rows_refilled: int = 0
    #: Load-aware rebalance scope splits executed, or the group split of a
    #: creation (each re-broadcasts records).
    rebalance_splits: int = 0
    #: FIFO locks the event must hold (sorted; chained in this order).
    lock_keys: Tuple[object, ...] = ()
    #: Optional remark from the live replay (skip reason, rebalance summary).
    note: str = ""


def lifecycle_event_cost(
    costs: ProtocolCosts, profile: EventProfile
) -> Tuple[float, int, float]:
    """Service time of one control-plane event once its locks are held.

    Returns ``(duration_s, n_messages, n_bytes)``.  The model: request
    fan-out with acknowledgements, record update/sort plus synchronization
    broadcast, then bulk data movement serialized onto the coordinator's
    link.  A vnode creation is one creation request, one record broadcast
    (two on a group split) and its partition handovers.  Lifecycle data
    volumes come from the live replay: graceful migration is priced per
    partition handover with
    the rows it actually moved, crash recovery by the surviving-replica
    rows promoted back to primaries, the replica-sync fan-out by the rows
    refilled per replica rank, and rebalance passes by the plan's
    transfers (plus one extra record broadcast per scope split).
    Rebalance row payloads flow on the peer link — the coordinator pays
    metadata-only bytes per handover (order + ack).  Every other handover
    is still priced as relayed, bulk data serialized onto the coordinator's
    link — the paper-era protocol, kept as the model — although the
    runtime (:mod:`repro.runtime.harness`) now moves those rows snode to
    snode as well; ``test_relayed_migration_still_priced_through_the_coordinator``
    pins it.
    """
    net = costs.network
    peers = max(0, profile.involved_snodes - 1)
    duration = 0.0
    messages = 0
    nbytes = 0.0

    request: object
    if profile.kind == "snode_crash":
        request = CrashNotice(src=0, dst=0)
    elif profile.kind == "snode_restart":
        request = RestartNotice(src=0, dst=0)
    elif profile.kind == "snode_leave":
        request = RemoveVnodeRequest(src=0, dst=0)
    else:
        request = CreateVnodeRequest(src=0, dst=0)

    if not profile.applied:
        # The request reaches the coordinating snode and is refused.
        duration += net.rpc_time(request.size_bytes())
        messages += 2
        nbytes += request.size_bytes() + Ack.BASE_SIZE_BYTES
        return duration, messages, nbytes

    if profile.lookup_rpc:
        # Local approach: locate the victim scope first (one RPC).
        duration += net.rpc_time(request.size_bytes())
        messages += 2
        nbytes += request.size_bytes() + Ack.BASE_SIZE_BYTES

    # Request fan-out + acknowledgements.  Crashes broadcast one failure
    # notice and restarts one rejoin notice; graceful events broadcast one
    # creation request per vnode they create and one removal request per
    # vnode they drop (an enrollment change issues one per touched vnode,
    # of the matching type).
    if profile.kind in ("snode_crash", "snode_restart"):
        fan_out = [(request, 1)]
    else:
        fan_out = [
            (CreateVnodeRequest(src=0, dst=0), profile.vnodes_created),
            (RemoveVnodeRequest(src=0, dst=0), profile.vnodes_removed),
        ]
    for message, rounds in fan_out:
        for _ in range(rounds):
            duration += net.broadcast_time(message.size_bytes(), peers) + net.latency_s
            messages += 2 * peers
            nbytes += peers * (message.size_bytes() + Ack.BASE_SIZE_BYTES)

    # Record update/sort on every involved snode, then the synchronized
    # record is distributed; each rebalance scope split re-broadcasts it.
    sync = RecordSync(src=0, dst=0, n_entries=profile.record_entries)
    duration += costs.record_entry_processing_s * profile.record_entries
    for _ in range(1 + profile.rebalance_splits):
        duration += net.broadcast_time(sync.size_bytes(), peers)
        messages += peers
        nbytes += peers * sync.size_bytes()

    bandwidth = net.bandwidth_bytes_per_s

    # Graceful data migration.  Rebalance handovers flow peer-to-peer: the
    # coordinator sends one PeerTransferRequest order and receives one
    # metadata ack per partition, while the source snode ships the rows
    # directly to the target as one RebalanceTransfer on the peer link.
    # Other graceful moves are still priced as relayed: one
    # PartitionTransfer per handover carrying the rows the replay moved.
    if profile.partitions_moved:
        if profile.kind == "rebalance":
            meta = profile.partitions_moved * costs.peer_transfer_metadata_bytes
            payload = (
                profile.partitions_moved * RebalanceTransfer.BASE_SIZE_BYTES
                + profile.rows_moved * costs.row_payload_bytes
            )
            duration += (
                profile.partitions_moved * 2 * net.latency_s
                + (meta + payload) / bandwidth
            )
            messages += 3 * profile.partitions_moved
            nbytes += meta + payload
        else:
            payload = (
                profile.partitions_moved * PartitionTransfer.BASE_SIZE_BYTES
                + profile.rows_moved * costs.row_payload_bytes
            )
            duration += profile.partitions_moved * net.latency_s + payload / bandwidth
            messages += profile.partitions_moved
            nbytes += payload

    # Restart recovery: the rejoining snode replays its own WAL/segments
    # from local disk.  Pure CPU time — no messages, no network bytes.
    if profile.wal_records_replayed:
        duration += costs.wal_replay_record_s * profile.wal_records_replayed

    # Crash recovery: surviving-replica rows promoted back to primaries.
    if profile.rows_restored or profile.recovery_transfers:
        transfers = max(1, profile.recovery_transfers)
        payload = (
            transfers * ReplicaRebuildTransfer.BASE_SIZE_BYTES
            + profile.rows_restored * costs.row_payload_bytes
        )
        duration += transfers * net.latency_s + payload / bandwidth
        messages += transfers
        nbytes += payload

    # Replica-sync fan-out: primary rows refilled into the replica ranks.
    if profile.rows_refilled:
        ranks = max(1, profile.sync_ranks)
        payload = (
            ranks * ReplicaSyncTransfer.BASE_SIZE_BYTES
            + profile.rows_refilled * costs.row_payload_bytes
        )
        duration += net.latency_s + payload / bandwidth
        messages += ranks
        nbytes += payload

    return duration, messages, nbytes


def staggered_arrival_times(n_events: int, batch_size: int, gap: float) -> List[float]:
    """Arrival times for a burst-churn workload: batches every ``gap`` seconds.

    The lifecycle analogue of :class:`~repro.workloads.arrivals.StaggeredBatches`:
    event ``i`` arrives at ``(i // batch_size) * gap`` — concurrent batches
    of topology events, the scenario where the global approach's DHT-wide
    barrier hurts most.
    """
    if n_events < 0:
        raise ValueError("n_events must be non-negative")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if gap < 0:
        raise ValueError("gap must be non-negative")
    return [(i // batch_size) * gap for i in range(n_events)]


def _simulate(
    profiles: Sequence[EventProfile],
    costs: ProtocolCosts,
    approach: str,
    n_snodes: int,
) -> ProtocolStats:
    """Price every profile and resolve the queueing on the event engine.

    Each profile is priced by :func:`lifecycle_event_cost` and arrives at
    its ``time``.  Events chain-acquire their locks in ``lock_keys`` order
    (sorted, hence deadlock-free) and hold them for the whole service time,
    so events on disjoint locks overlap and events sharing one serialize.
    """
    scheduler = EventScheduler()
    locks: Dict[object, FifoResource] = {}
    n = len(profiles)
    latencies = np.zeros(n, dtype=np.float64)
    completion = np.zeros(n, dtype=np.float64)
    durations = np.zeros(n, dtype=np.float64)
    event_messages = np.zeros(n, dtype=np.int64)
    event_bytes = np.zeros(n, dtype=np.float64)

    def get_lock(key: object) -> FifoResource:
        if key not in locks:
            locks[key] = FifoResource(scheduler, name=str(key))
        return locks[key]

    for index, profile in enumerate(profiles):
        duration, messages, nbytes = lifecycle_event_cost(costs, profile)
        durations[index] = duration
        event_messages[index] = messages
        event_bytes[index] = nbytes

        def make_handlers(i: int, dur: float, keys: Tuple[object, ...]):
            def on_complete() -> None:
                completion[i] = scheduler.now
                latencies[i] = scheduler.now - profiles[i].time
                for key in reversed(keys):
                    get_lock(key).release()

            def acquire_from(j: int) -> None:
                if j >= len(keys):
                    scheduler.schedule_after(dur, on_complete)
                else:
                    get_lock(keys[j]).acquire(lambda: acquire_from(j + 1))

            def on_arrival() -> None:
                acquire_from(0)

            return on_arrival

        scheduler.schedule_at(profile.time, make_handlers(index, duration, profile.lock_keys))

    scheduler.run()
    makespan = float(completion.max() - min(p.time for p in profiles))

    per_kind: Dict[str, KindStats] = {}
    for kind in dict.fromkeys(p.kind for p in profiles):
        mask = np.asarray([p.kind == kind for p in profiles], dtype=bool)
        kind_latencies = latencies[mask]
        per_kind[kind] = KindStats(
            kind=kind,
            count=int(mask.sum()),
            applied=sum(1 for p in profiles if p.kind == kind and p.applied),
            mean_latency_s=float(kind_latencies.mean()),
            p95_latency_s=float(np.percentile(kind_latencies, 95)),
            max_latency_s=float(kind_latencies.max()),
            messages=int(event_messages[mask].sum()),
            bytes=float(event_bytes[mask].sum()),
            service_s=float(durations[mask].sum()),
        )

    return ProtocolStats(
        approach=approach,
        n_snodes=n_snodes,
        latencies=latencies,
        makespan=makespan,
        total_messages=int(event_messages.sum()),
        total_bytes=float(event_bytes.sum()),
        lock_waits=sum(lock.total_waits for lock in locks.values()),
        per_kind=per_kind,
        events_skipped=sum(1 for p in profiles if not p.applied),
        lock_grants=sum(lock.total_grants for lock in locks.values()),
    )


def _snapshot(dht) -> Dict[object, Tuple[object, int]]:
    """Per-vnode ``(group id, partition count)`` map of the live DHT."""
    return {
        ref: (vnode.group_id, vnode.partition_count)
        for ref, vnode in dht.vnodes.items()
    }


class _ProfileRecorder(DHTBackend):
    """The in-process replay backend, recording what each topology event did.

    ``apply`` applies the event exactly like :class:`DHTBackend` and appends
    one :class:`EventProfile` to :attr:`profiles`: vnodes created/removed,
    partitions and rows migrated, recovery and replica-sync volume,
    rebalance splits, and the lock scope the event needs under ``approach``
    (the DHT-wide barrier for the global approach, the touched groups for
    the local one).  The ``i``-th topology event arrives at
    ``arrival_times[i]``.
    """

    def __init__(self, dht, approach: str, arrival_times: Sequence[float]):
        super().__init__(dht, self._apply_and_keep)
        self.approach = approach
        self.arrival_times = arrival_times
        self.profiles: List[EventProfile] = []
        self._outcome = TopologyOutcome()

    def _apply_and_keep(self, event: ChurnEvent) -> str:
        self._outcome = apply_topology_event(self.dht, event)
        return self._outcome.note

    async def apply(self, event: ChurnEvent) -> Applied:
        dht = self.dht
        before = _snapshot(dht)
        snodes_before = len(dht.snodes)
        replication = dht.storage.replication
        restored0, refilled0 = replication.rows_restored, replication.rows_refilled
        durability = dht.storage.durability
        replayed0, wal0 = durability.rows_replayed, durability.wal_records_replayed
        self._outcome = TopologyOutcome()  # stays empty if the model refuses

        done = await super().apply(event)
        outcome = self._outcome

        after = _snapshot(dht)
        added = [ref for ref in after if ref not in before]
        removed = [ref for ref in before if ref not in after]
        changed = added + removed + [
            ref
            for ref, state in after.items()
            if ref in before and before[ref] != state
        ]
        touched_groups = {
            gid
            for ref in changed
            for gid, _ in (before.get(ref, (None, 0)), after.get(ref, (None, 0)))
            if gid is not None
        }

        if self.approach == "global":
            involved = max(snodes_before, len(dht.snodes))
            record_entries = len(after) if changed else 0
            lock_keys: Tuple[object, ...] = (GLOBAL_LOCK,)
        else:
            members = {
                ref
                for snap in (before, after)
                for ref, (gid, _) in snap.items()
                if gid in touched_groups
            }
            hosts = {ref.snode for ref in members}
            if event.snode >= 0:
                hosts.add(SnodeId(event.snode))
            involved = max(1, len(hosts))
            record_entries = len(members)
            lock_keys = tuple(
                sorted(("group", gid.depth, gid.value) for gid in touched_groups)
            )

        recovery_transfers = 0
        for report in (outcome.crash, outcome.restart):
            if report is not None and report.recovery is not None:
                recovery_transfers = report.recovery.ranges_restored

        self.profiles.append(
            EventProfile(
                kind=event.kind,
                time=self.arrival_times[len(self.profiles)],
                applied=done.applied,
                lookup_rpc=(self.approach == "local" and len(added) > 0),
                vnodes_created=len(added),
                vnodes_removed=len(removed),
                involved_snodes=involved,
                record_entries=record_entries,
                partitions_moved=done.partitions_moved,
                rows_moved=done.items_moved,
                recovery_transfers=recovery_transfers,
                rows_restored=replication.rows_restored - restored0,
                rows_replayed=durability.rows_replayed - replayed0,
                wal_records_replayed=durability.wal_records_replayed - wal0,
                sync_ranks=dht.config.replication_factor - 1,
                rows_refilled=replication.rows_refilled - refilled0,
                rebalance_splits=(
                    outcome.rebalance.splits if outcome.rebalance is not None else 0
                ),
                lock_keys=lock_keys,
                note=done.note,
            )
        )
        return done


class LifecycleProtocolSimulator:
    """Simulate the control-protocol cost of a full topology-lifecycle trace.

    The simulation runs in two deterministic phases:

    1. **Profiling** — the trace is replayed, in trace order, by
       :func:`repro.workloads.replay.replay` against a live DHT (built
       exactly like the churn engine builds it, same seed, same event
       semantics via :func:`repro.workloads.churn.apply_topology_event`),
       with the replayer's conservation and replication checks after every
       topology event.  ``load`` events populate the stores so
       data-dependent costs are real; each topology event yields an
       :class:`EventProfile` capturing what it did — vnodes
       created/removed, partitions and rows migrated, surviving-replica rows
       promoted by crash recovery, replica-sync fan-out volume, rebalance
       plan actions — plus the lock scope it needs (the DHT-wide barrier for
       the global approach, the touched groups for the local one).
    2. **Queueing** — the profiles are priced and queued on the same
       discrete-event queue as the creation simulator's.

    Parameters
    ----------
    spec:
        A :class:`~repro.workloads.churn.ChurnSpec` describing the cluster
        and the trace.
    trace:
        Optional explicit churn trace (defaults to
        :func:`~repro.workloads.churn.make_churn_trace` on ``spec``).
        ``load`` and ``lookup`` events are replayed during profiling but
        not priced.
    arrival_times:
        Arrival time of each *topology* event of the trace, non-decreasing
        and aligned with the trace's topology events (see
        :func:`staggered_arrival_times`).  Defaults to all zero — one
        maximally concurrent burst.
    costs:
        Network and processing cost parameters.

    Examples
    --------
    >>> from repro.workloads.churn import ChurnSpec
    >>> spec = ChurnSpec(n_keys=2000, n_events=12, n_snodes=4,
    ...                  vnodes_per_snode=2, pmin=8, vmin=8, seed=3)
    >>> stats = LifecycleProtocolSimulator(spec).run()
    >>> stats.n_events
    12
    """

    def __init__(
        self,
        spec: ChurnSpec,
        trace: Optional[Sequence[ChurnEvent]] = None,
        arrival_times: Optional[Sequence[float]] = None,
        costs: Optional[ProtocolCosts] = None,
    ):
        self.costs = costs if costs is not None else ProtocolCosts()
        self.spec = spec
        self.approach: str = spec.approach
        self.n_snodes = spec.n_snodes
        self.trace: List[ChurnEvent] = list(
            trace if trace is not None else make_churn_trace(spec)
        )
        self._profiles: Optional[List[EventProfile]] = None

        n_topology = sum(1 for e in self.trace if e.kind in TOPOLOGY_KINDS)
        if arrival_times is None:
            self._arrival_times = [0.0] * n_topology
        else:
            self._arrival_times = [float(t) for t in arrival_times]
            if len(self._arrival_times) != n_topology:
                raise ValueError(
                    f"arrival_times has {len(self._arrival_times)} entries but "
                    f"the trace contains {n_topology} topology events"
                )
            if any(t < 0 for t in self._arrival_times):
                raise ValueError("arrival times must be non-negative")
            if any(
                b < a for a, b in zip(self._arrival_times, self._arrival_times[1:])
            ):
                raise ValueError(
                    "arrival times must be non-decreasing (events are "
                    "profiled in trace order)"
                )
        if n_topology == 0:
            raise ValueError("the trace contains no topology events")

    def profiles(self) -> List[EventProfile]:
        """The per-event profiles (replaying the trace on first call).

        Raises :class:`~repro.core.errors.ReproError` naming the event if
        the replay's conservation or replication check fails.
        """
        if self._profiles is None:
            dht = self.spec.build_dht(workers=0)
            recorder = _ProfileRecorder(dht, self.approach, self._arrival_times)
            try:
                run_sync(
                    replay(
                        self.trace,
                        self.spec.make_keys(),
                        recorder,
                        seed=self.spec.seed,
                        replication_factor=self.spec.replication_factor,
                    )
                )
            finally:
                dht.close()
            self._profiles = recorder.profiles
        return self._profiles

    def run(self) -> ProtocolStats:
        """Run the discrete-event simulation and return its statistics."""
        return _simulate(self.profiles(), self.costs, self.approach, self.n_snodes)


@dataclass
class LifecycleComparison:
    """One churn trace replayed under several lock structures."""

    #: The exact trace every approach replayed (same object, same order).
    trace: List[ChurnEvent]
    #: Arrival time of each topology event (shared by every approach).
    arrival_times: List[float]
    #: ``{approach: stats}`` for each simulated approach.
    results: Dict[str, ProtocolStats]

    @property
    def n_topology_events(self) -> int:
        """Topology events simulated per approach."""
        return len(self.arrival_times)

    @property
    def makespan_speedup(self) -> float:
        """How much faster local finishes than global (requires both runs)."""
        return self.results["global"].makespan / self.results["local"].makespan


def compare_lifecycle_protocols(
    spec: ChurnSpec,
    trace: Optional[Sequence[ChurnEvent]] = None,
    batch_size: int = 1,
    gap: float = 0.0,
    arrival_times: Optional[Sequence[float]] = None,
    costs: Optional[ProtocolCosts] = None,
    approaches: Sequence[str] = ("local", "global"),
) -> LifecycleComparison:
    """Replay one churn trace under several lock structures, apples to apples.

    The shared orchestration behind ``repro protocol-bench`` and the
    ``ablation_lifecycle`` experiment: build the trace from ``spec``
    (unless given), assign the topology events to concurrent arrival
    batches (:func:`staggered_arrival_times` with ``batch_size``/``gap``,
    unless explicit ``arrival_times`` are given), and run one
    :class:`LifecycleProtocolSimulator` per requested approach on the
    *same* trace and times — only the lock structure (and the live DHT
    model it prices) differs between the runs.
    """
    events = list(trace) if trace is not None else make_churn_trace(spec)
    n_topology = sum(1 for e in events if e.kind in TOPOLOGY_KINDS)
    if arrival_times is None:
        times = staggered_arrival_times(n_topology, batch_size=batch_size, gap=gap)
    else:
        times = [float(t) for t in arrival_times]
    results = {
        approach: LifecycleProtocolSimulator(
            replace(spec, approach=approach),
            trace=events,
            arrival_times=times,
            costs=costs,
        ).run()
        for approach in approaches
    }
    return LifecycleComparison(trace=events, arrival_times=times, results=results)
