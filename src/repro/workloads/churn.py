"""Churn engine: replay timed topology-event traces against a live DHT.

The paper's elastic DHT is defined by partitions changing hands as vnodes
come and go.  A churn trace interleaves **topology events** — ``snode_join``,
``snode_leave``, ``enrollment_change``, ``snode_crash``, ``snode_restart``,
``rebalance`` — with bulk
``load``/``lookup`` chunks, and :class:`ChurnEngine` replays the trace
against a live :class:`~repro.core.local_model.LocalDHT` (either approach)
with an **item-conservation check** after every topology event
(rebalancing must never create or destroy data).  The replay loop and the conservation rule themselves live
in :mod:`repro.workloads.replay`, shared with the served cluster; this
module owns the trace, the in-process backend and the report.

Crashes are the failure-injection half of the replication extension
(:mod:`repro.core.replication`): a crash drops a live snode *without* a
graceful drain — its stores are wiped, ownership moves to survivors, and a
re-replication pass rebuilds the lost primaries from surviving replicas.

The trace is generated up front by :func:`make_churn_trace` from a
declarative :class:`ChurnSpec`, fully deterministic for a given seed: the
generator simulates the DHT's sequential snode-id allocation so every event
names its concrete target snode, and the engine asserts the ids line up at
replay time.  Events the model cannot serve — e.g. removing the last vnode
of a group while other groups exist, which the local approach's removal
extension rejects — are recorded as *skipped* rather than aborting the run;
conservation is checked either way.

Replay produces a :class:`ChurnReport`: migration volume (items/partitions
moved, via :class:`~repro.core.storage.MigrationStats` deltas per event),
load/lookup throughput *under churn*, time spent in topology events, and
the post-churn balance metrics ``sigma_qv``/``sigma_qn``.  The
``repro churn-bench`` CLI subcommand is a thin wrapper that prints the
report and can persist it as JSON.

Conservation checks use :meth:`~repro.core.storage.DHTStorage.fast_primary_count`
— logical (primary) rows counted without merging pending segments — so the
check itself does not destroy the columnar segments that make vectorized
migration fast, and replica rows (whose population legitimately changes
with placement) stay out of the conserved quantity; the final deep
verification recounts through the merged path and runs the full invariant
suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.base import BaseDHT
from repro.core.errors import ReproError
from repro.core.rebalance import LoadRebalanceReport
from repro.core.replication import CrashReport, RestartReport
from repro.metrics.balance import item_load_stats
from repro.core.ids import SnodeId
from repro.utils.coro import run_sync
from repro.workloads.driver import APPROACHES, build_cluster
from repro.workloads.keys import id_keys, uniform_keys, zipf_id_keys
from repro.workloads.replay import Applied, EventOutcome, replay

#: Trace families the churn engine can replay.
CHURN_WORKLOADS = ("ids", "uniform", "zipf")
#: Event kinds that mutate the topology (and trigger conservation checks).
TOPOLOGY_KINDS = (
    "snode_join",
    "snode_leave",
    "enrollment_change",
    "snode_crash",
    "snode_restart",
    "rebalance",
)


@dataclass(frozen=True)
class ChurnEvent:
    """One step of a churn trace.

    ``kind`` is one of :data:`TOPOLOGY_KINDS` plus the data-plane kinds
    ``"load"`` (bulk-load the key slice ``[lo, hi)``) and ``"lookup"``
    (issue ``n_reads`` batch lookups over the first ``hi`` loaded keys).
    Topology events name their concrete target snode id; joins and
    enrollment changes carry the target enrollment in ``vnodes``.  A
    ``"snode_crash"`` drops a live snode *without a graceful drain* — its
    data is destroyed and must be rebuilt from replicas.
    """

    kind: str
    snode: int = -1
    vnodes: int = 0
    lo: int = 0
    hi: int = 0
    n_reads: int = 0

    def describe(self) -> str:
        """Short human-readable form (used in outcome rows)."""
        if self.kind == "load":
            return f"load keys[{self.lo}:{self.hi}]"
        if self.kind == "lookup":
            return f"lookup {self.n_reads} of first {self.hi}"
        if self.kind == "snode_join":
            return f"join s{self.snode} ({self.vnodes} vnodes)"
        if self.kind == "snode_leave":
            return f"leave s{self.snode}"
        if self.kind == "snode_crash":
            return f"crash s{self.snode}"
        if self.kind == "snode_restart":
            return f"restart s{self.snode}"
        if self.kind == "rebalance":
            return "rebalance item load"
        return f"enroll s{self.snode} -> {self.vnodes} vnodes"


@dataclass(frozen=True)
class ChurnSpec:
    """Declarative description of one churn scenario."""

    #: Scenario name (shown in reports).
    name: str = "churn"
    #: Trace family: ``"ids"`` (uint64 ids, fully vectorized), ``"uniform"``
    #: or ``"zipf"`` (distinct uint64 ids with zipf-skewed hash-space
    #: placement — the workload that makes load-aware rebalancing matter).
    workload: str = "ids"
    #: Number of distinct keys loaded over the course of the trace.
    n_keys: int = 100_000
    #: Number of topology events (joins/leaves/enrollment changes).
    n_events: int = 64
    #: DHT approach: ``"local"`` (grouped) or ``"global"``.
    approach: str = "local"
    #: Snodes enrolled before the trace starts.
    n_snodes: int = 8
    #: Vnodes per snode (initial enrollment and default join enrollment).
    vnodes_per_snode: int = 4
    #: The trace never shrinks the cluster below this many snodes.
    min_snodes: int = 2
    #: The trace never grows the cluster beyond this many snodes.
    max_snodes: int = 24
    #: The key population is loaded in this many chunks spread over the trace.
    load_chunks: int = 8
    #: Lookups issued per loaded key of each chunk (read trace volume).
    read_multiplier: float = 0.5
    #: Relative odds of each topology event kind.
    join_weight: float = 0.4
    leave_weight: float = 0.3
    enroll_weight: float = 0.3
    #: Relative odds of a crash (ungraceful snode failure).  Zero keeps the
    #: pre-replication trace mix bit-identical.
    crash_weight: float = 0.0
    #: Relative odds of a load-aware rebalance pass
    #: (:meth:`~repro.core.base.BaseDHT.rebalance_load`).  Zero keeps older
    #: traces bit-identical.
    rebalance_weight: float = 0.0
    #: Relative odds of a hard restart (kill -9 + reboot: RAM lost, disk —
    #: when :attr:`data_dir` is set — kept, topology unchanged).  Zero keeps
    #: older traces bit-identical.
    restart_weight: float = 0.0
    #: Copies kept of every item (``1`` = no replication, the seed model).
    replication_factor: int = 1
    #: Directory for the durable tier (WAL + checkpointed segments per
    #: primary vnode); ``None`` runs the RAM-only model.  With a durable
    #: tier, restarted snodes must serve every acknowledged write even at
    #: ``replication_factor == 1``.
    data_dir: Optional[str] = None
    #: Worker processes for the multicore bulk pipeline (0 = serial; the
    #: equivalence tests replay identical traces at several worker counts).
    workers: int = 0
    #: Model parameters (small defaults keep 64-event traces fast).
    pmin: int = 8
    vmin: int = 8
    #: Skew exponent of the ``"zipf"`` workload (ignored otherwise).
    zipf_exponent: float = 1.1
    #: Hash-space buckets of the ``"zipf"`` workload (power of two).
    zipf_ranges: int = 256
    #: Master seed (trace generation, cluster build and read picks).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workload not in CHURN_WORKLOADS:
            raise ValueError(
                f"workload must be one of {CHURN_WORKLOADS}, got {self.workload!r}"
            )
        if self.approach not in APPROACHES:
            raise ValueError(f"approach must be one of {APPROACHES}, got {self.approach!r}")
        if self.n_keys < 1:
            raise ValueError("n_keys must be >= 1")
        if self.n_events < 0:
            raise ValueError("n_events must be non-negative")
        if self.n_snodes < 1 or self.vnodes_per_snode < 1:
            raise ValueError("n_snodes and vnodes_per_snode must be >= 1")
        if not (1 <= self.min_snodes <= self.n_snodes <= self.max_snodes):
            raise ValueError("need 1 <= min_snodes <= n_snodes <= max_snodes")
        if self.load_chunks < 1:
            raise ValueError("load_chunks must be >= 1")
        if self.read_multiplier < 0:
            raise ValueError("read_multiplier must be non-negative")
        weights = (
            self.join_weight,
            self.leave_weight,
            self.enroll_weight,
            self.crash_weight,
            self.rebalance_weight,
            self.restart_weight,
        )
        if min(weights) < 0 or sum(weights) <= 0:
            raise ValueError("event weights must be non-negative and not all zero")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if self.zipf_ranges < 2 or self.zipf_ranges & (self.zipf_ranges - 1):
            raise ValueError("zipf_ranges must be a power of two >= 2")

    def make_keys(self) -> Union[np.ndarray, List[str]]:
        """The distinct key population loaded over the trace."""
        if self.workload == "ids":
            return id_keys(self.n_keys, rng=self.seed)
        if self.workload == "zipf":
            return zipf_id_keys(
                self.n_keys,
                exponent=self.zipf_exponent,
                n_ranges=self.zipf_ranges,
                rng=self.seed,
            )
        return uniform_keys(self.n_keys, rng=self.seed)

    def build_dht(self, **overrides: Any) -> BaseDHT:
        """Enroll the initial cluster described by the spec.

        ``overrides`` replace :func:`~repro.workloads.driver.build_cluster`
        keywords — the runtime harness's twin passes ``data_dir=None``
        because only the served nodes, not the coordinator's model, own disk.
        """
        kwargs: Dict[str, Any] = dict(
            pmin=self.pmin,
            vmin=self.vmin,
            replication_factor=self.replication_factor,
            seed=self.seed,
            data_dir=self.data_dir,
            workers=self.workers,
        )
        kwargs.update(overrides)
        return build_cluster(
            self.approach, self.n_snodes, self.vnodes_per_snode, **kwargs
        )


def make_churn_trace(spec: ChurnSpec) -> List[ChurnEvent]:
    """Generate the deterministic event trace described by ``spec``.

    Topology events are drawn with the spec's weights under the cluster-size
    bounds (a leave — or crash — at ``min_snodes`` falls back to a join; a
    join at ``max_snodes`` falls back to an enrollment change), tracking the
    DHT's sequential snode-id allocation so every event names a concrete
    snode.  The key population is split into ``load_chunks`` slices
    interleaved evenly with the topology events, each followed by a
    batch-lookup event over the keys loaded so far.

    With ``crash_weight == 0`` (the default) the crash kind never enters the
    weighted draw, so traces are bit-identical to the pre-replication
    generator for the same spec and seed; ``rebalance_weight == 0`` likewise
    keeps pre-rebalancing traces unchanged.  A ``rebalance`` event targets
    no snode (it runs :meth:`~repro.core.base.BaseDHT.rebalance_load` over
    the whole DHT) and is never substituted by the cluster-size bounds.
    """
    rng = np.random.default_rng(spec.seed)
    alive = list(range(spec.n_snodes))
    next_id = spec.n_snodes
    kinds = ["snode_join", "snode_leave", "enrollment_change"]
    raw_weights = [spec.join_weight, spec.leave_weight, spec.enroll_weight]
    if spec.crash_weight > 0:
        kinds.append("snode_crash")
        raw_weights.append(spec.crash_weight)
    if spec.rebalance_weight > 0:
        kinds.append("rebalance")
        raw_weights.append(spec.rebalance_weight)
    if spec.restart_weight > 0:
        kinds.append("snode_restart")
        raw_weights.append(spec.restart_weight)
    weights = np.array(raw_weights, dtype=np.float64)
    weights /= weights.sum()

    topology: List[ChurnEvent] = []
    for _ in range(spec.n_events):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind == "rebalance":
            topology.append(ChurnEvent("rebalance"))
            continue
        if kind == "snode_restart":
            # A restart leaves the cluster size unchanged, so no bounds
            # substitution applies — any alive snode can be restarted.
            pick = alive[int(rng.integers(0, len(alive)))]
            topology.append(ChurnEvent("snode_restart", snode=pick))
            continue
        if kind in ("snode_leave", "snode_crash") and len(alive) <= spec.min_snodes:
            kind = "snode_join"
        if kind == "snode_join" and len(alive) >= spec.max_snodes:
            kind = "enrollment_change"
        if kind == "snode_join":
            topology.append(
                ChurnEvent("snode_join", snode=next_id, vnodes=spec.vnodes_per_snode)
            )
            alive.append(next_id)
            next_id += 1
        elif kind in ("snode_leave", "snode_crash"):
            pick = alive.pop(int(rng.integers(0, len(alive))))
            topology.append(ChurnEvent(kind, snode=pick))
        else:
            pick = alive[int(rng.integers(0, len(alive)))]
            target = 1 + int(rng.integers(0, 2 * spec.vnodes_per_snode))
            topology.append(ChurnEvent("enrollment_change", snode=pick, vnodes=target))

    bounds = np.linspace(0, spec.n_keys, spec.load_chunks + 1).astype(int)
    trace: List[ChurnEvent] = []
    taken = 0
    for chunk in range(spec.load_chunks):
        lo, hi = int(bounds[chunk]), int(bounds[chunk + 1])
        if hi > lo:
            trace.append(ChurnEvent("load", lo=lo, hi=hi))
            n_reads = int(round((hi - lo) * spec.read_multiplier))
            if n_reads:
                trace.append(ChurnEvent("lookup", hi=hi, n_reads=n_reads))
        upto = (chunk + 1) * spec.n_events // spec.load_chunks
        trace.extend(topology[taken:upto])
        taken = upto
    trace.extend(topology[taken:])
    return trace


@dataclass
class TopologyOutcome:
    """What applying one topology event to a live DHT reported.

    ``note`` is the human-readable remark for churn outcome rows; the crash
    and rebalance reports are kept so cost models (the control-plane
    protocol simulation of :mod:`repro.cluster.protocol`) can price the
    event from what it actually did.
    """

    note: str = ""
    crash: Optional[CrashReport] = None
    rebalance: Optional[LoadRebalanceReport] = None
    restart: Optional[RestartReport] = None


#: How a ``rebalance`` trace event drives the load-aware policy, on every
#: backend: a maintenance pass, not a full shatter.  Under churn the next
#: join/leave reshuffles load anyway, so the scope splits are capped (each
#: doubles a whole scope's partition count and taxes every later topology
#: event) and the tolerance is looser than a standalone rebalance.
REBALANCE_EVENT_KNOBS = {"tolerance": 1.25, "max_splits": 2}


def apply_topology_event(dht: BaseDHT, event: ChurnEvent) -> TopologyOutcome:
    """Apply one topology event to a live DHT and report what it did.

    Shared by :class:`ChurnEngine`, the runtime coordinator's metadata twin
    and the lifecycle protocol simulator
    (:class:`repro.cluster.protocol.LifecycleProtocolSimulator`), so all
    replay a trace with identical semantics.

    Raises :class:`~repro.core.errors.ReproError` for events the model
    cannot serve (callers record those as *skipped*).
    """
    if event.kind == "snode_join":
        snode = dht.add_snode()
        if snode.id.value != event.snode:  # pragma: no cover - defensive
            raise AssertionError(
                f"trace expected join of snode {event.snode}, DHT allocated {snode.id}"
            )
        dht.set_enrollment(snode, event.vnodes)
        return TopologyOutcome()
    if event.kind == "snode_leave":
        dht.remove_snode(SnodeId(event.snode))
        return TopologyOutcome()
    if event.kind == "enrollment_change":
        dht.set_enrollment(SnodeId(event.snode), event.vnodes)
        return TopologyOutcome()
    if event.kind == "snode_crash":
        report = dht.crash_snode(SnodeId(event.snode))
        note = ""
        if report.vnodes_stuck:
            note = (
                f"vnodes {', '.join(report.vnodes_stuck)} could not leave the "
                f"topology; wiped, kept enrolled and recovered in place"
            )
        return TopologyOutcome(note=note, crash=report)
    if event.kind == "snode_restart":
        restart = dht.restart_snode(SnodeId(event.snode))
        note = ""
        if restart.recovery is not None and restart.recovery.disk_replays:
            note = (
                f"replayed {restart.recovery.rows_replayed} rows from disk "
                f"({restart.recovery.disk_replays} vnode logs)"
            )
        return TopologyOutcome(note=note, restart=restart)
    if event.kind == "rebalance":
        report = dht.rebalance_load(**REBALANCE_EVENT_KNOBS)
        return TopologyOutcome(note=report.summary(), rebalance=report)
    raise ValueError(f"unknown topology event kind {event.kind!r}")


@dataclass
class ChurnReport:
    """Outcome of one churn run: volume, throughput and balance."""

    name: str
    approach: str
    replication_factor: int
    n_events: int
    events_applied: int
    events_skipped: int
    joins: int
    leaves: int
    enrollment_changes: int
    crashes: int
    #: Load-aware rebalance passes executed (``rebalance`` events).
    rebalances: int
    #: Hard restarts executed (``snode_restart`` events: RAM lost, disk kept).
    restarts: int
    #: Logical items lost to crashes and restarts (always 0 when a replica
    #: or — for restarts — the durable tier survived).
    items_lost: int
    #: Replica rows rebuilt by recovery + sync (replica->primary restores
    #: plus primary->replica refills) over the whole run.
    replica_rows_rebuilt: int
    keys_loaded: int
    load_seconds: float
    lookups_issued: int
    lookup_seconds: float
    topology_seconds: float
    items_moved: int
    partitions_moved: int
    migrations: int
    max_event_items_moved: int
    conservation_checks: int
    final_items: int
    final_replica_items: int
    n_snodes: int
    n_vnodes: int
    n_partitions: int
    sigma_qv: float
    sigma_qn: float
    #: Item-weighted imbalance of the final state (merge-free; the
    #: quantity ``rebalance`` events optimize — the paper's sigma metrics
    #: above weigh partitions, not stored items).
    sigma_items_vnode: float = 0.0
    sigma_items_snode: float = 0.0
    max_mean_items_snode: float = 0.0
    outcomes: List[EventOutcome] = field(default_factory=list, repr=False)

    @property
    def load_keys_per_second(self) -> float:
        """Bulk-load throughput while the topology was churning."""
        return self.keys_loaded / self.load_seconds if self.load_seconds > 0 else 0.0

    @property
    def lookup_keys_per_second(self) -> float:
        """Batch-lookup throughput while the topology was churning."""
        return self.lookups_issued / self.lookup_seconds if self.lookup_seconds > 0 else 0.0

    @property
    def migration_items_per_second(self) -> float:
        """Items migrated per second of topology-event time."""
        return self.items_moved / self.topology_seconds if self.topology_seconds > 0 else 0.0

    @property
    def mean_event_items_moved(self) -> float:
        """Average number of items moved per applied topology event."""
        return self.items_moved / self.events_applied if self.events_applied else 0.0

    def as_dict(self, include_events: bool = False) -> Dict[str, Any]:
        """JSON-serializable form (``repro churn-bench --output``)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "approach": self.approach,
            "replication_factor": self.replication_factor,
            "n_events": self.n_events,
            "events_applied": self.events_applied,
            "events_skipped": self.events_skipped,
            "joins": self.joins,
            "leaves": self.leaves,
            "enrollment_changes": self.enrollment_changes,
            "crashes": self.crashes,
            "rebalances": self.rebalances,
            "restarts": self.restarts,
            "items_lost": self.items_lost,
            "replica_rows_rebuilt": self.replica_rows_rebuilt,
            "keys_loaded": self.keys_loaded,
            "load_seconds": self.load_seconds,
            "load_keys_per_second": self.load_keys_per_second,
            "lookups_issued": self.lookups_issued,
            "lookup_seconds": self.lookup_seconds,
            "lookup_keys_per_second": self.lookup_keys_per_second,
            "topology_seconds": self.topology_seconds,
            "items_moved": self.items_moved,
            "partitions_moved": self.partitions_moved,
            "migrations": self.migrations,
            "migration_items_per_second": self.migration_items_per_second,
            "max_event_items_moved": self.max_event_items_moved,
            "mean_event_items_moved": self.mean_event_items_moved,
            "conservation_checks": self.conservation_checks,
            "final_items": self.final_items,
            "final_replica_items": self.final_replica_items,
            "n_snodes": self.n_snodes,
            "n_vnodes": self.n_vnodes,
            "n_partitions": self.n_partitions,
            "sigma_qv": self.sigma_qv,
            "sigma_qn": self.sigma_qn,
            "sigma_items_vnode": self.sigma_items_vnode,
            "sigma_items_snode": self.sigma_items_snode,
            "max_mean_items_snode": self.max_mean_items_snode,
        }
        if include_events:
            out["events"] = [
                {
                    "kind": o.kind,
                    "detail": o.detail,
                    "seconds": o.seconds,
                    "items_moved": o.items_moved,
                    "partitions_moved": o.partitions_moved,
                    "applied": o.applied,
                    "note": o.note,
                }
                for o in self.outcomes
            ]
        return out

    def as_rows(self) -> List[List[str]]:
        """Property/value rows for :func:`repro.report.format_table`."""
        return [
            ["scenario", self.name],
            ["approach", self.approach],
            ["replication factor", str(self.replication_factor)],
            ["topology events", f"{self.n_events} ({self.events_applied} applied, "
                                f"{self.events_skipped} skipped)"],
            ["event mix", f"{self.joins} joins / {self.leaves} leaves / "
                          f"{self.enrollment_changes} enrollment changes / "
                          f"{self.crashes} crashes / {self.rebalances} rebalances / "
                          f"{self.restarts} restarts"],
            ["items lost to crashes", f"{self.items_lost:,}"],
            ["replica rows rebuilt", f"{self.replica_rows_rebuilt:,}"],
            ["keys loaded", f"{self.keys_loaded:,}"],
            ["load keys/s", f"{self.load_keys_per_second:,.0f}"],
            ["lookups issued", f"{self.lookups_issued:,}"],
            ["lookup keys/s", f"{self.lookup_keys_per_second:,.0f}"],
            ["items moved", f"{self.items_moved:,} over {self.partitions_moved:,} "
                            f"partition handovers"],
            ["migration items/s", f"{self.migration_items_per_second:,.0f}"],
            ["max/mean items per event", f"{self.max_event_items_moved:,} / "
                                         f"{self.mean_event_items_moved:,.0f}"],
            ["conservation checks", f"{self.conservation_checks} passed"],
            ["final items", f"{self.final_items:,} (+{self.final_replica_items:,} "
                            f"replica rows)"],
            ["final topology", f"{self.n_snodes} snodes, {self.n_vnodes} vnodes, "
                               f"{self.n_partitions} partitions"],
            ["sigma(Qv)", f"{self.sigma_qv * 100:.2f}%"],
            ["sigma(Qn)", f"{self.sigma_qn * 100:.2f}%"],
            ["sigma items/vnode", f"{self.sigma_items_vnode * 100:.2f}%"],
            ["sigma items/snode", f"{self.sigma_items_snode * 100:.2f}%"],
            ["max/mean items per snode", f"{self.max_mean_items_snode:.2f}"],
        ]


class DHTBackend:
    """The in-process :func:`~repro.workloads.replay.replay` backend.

    Every operation completes inline, so the replay coroutine never
    suspends.  The ledger starts at the primary rows the DHT already holds
    (a caller-supplied DHT may be preloaded).
    """

    error = ReproError

    def __init__(self, dht: BaseDHT, apply: Callable[[ChurnEvent], Optional[str]]):
        self.dht = dht
        self._apply = apply
        self.durable = dht.storage.durable is not None
        self.expected_total = dht.storage.fast_primary_count()

    async def load(self, chunk) -> int:
        return self.dht.bulk_load(chunk)

    async def lookup(self, chunk) -> int:
        return len(self.dht.lookup_many(chunk))

    async def apply(self, event: ChurnEvent) -> Applied:
        stats = self.dht.storage.stats
        items, partitions = stats.items_moved, stats.partitions_moved
        try:
            done = Applied(note=self._apply(event) or "")
        except ReproError as exc:  # the model cannot serve it: skipped
            done = Applied(applied=False, note=str(exc))
        done.items_moved = stats.items_moved - items
        done.partitions_moved = stats.partitions_moved - partitions
        return done

    async def primary_count(self) -> int:
        return self.dht.storage.fast_primary_count()

    async def verify_replication(self) -> int:
        self.dht.verify_replication()
        return 1


class ChurnEngine:
    """Replay a churn trace against a live DHT, checking conservation."""

    def __init__(self, spec: ChurnSpec, trace: Optional[Sequence[ChurnEvent]] = None):
        self.spec = spec
        self.trace: List[ChurnEvent] = (
            list(trace) if trace is not None else make_churn_trace(spec)
        )

    # -- construction ---------------------------------------------------------

    def build_dht(self) -> BaseDHT:
        """Enroll the initial cluster described by the spec."""
        return self.spec.build_dht()

    def make_keys(self) -> Union[np.ndarray, List[str]]:
        """The key population to replay (subclasses may supply their own)."""
        return self.spec.make_keys()

    # -- execution ------------------------------------------------------------

    def run(self, dht: Optional[BaseDHT] = None, deep_verify: bool = True) -> ChurnReport:
        """Replay the trace; raise :class:`ReproError` if items are not conserved.

        Conservation follows :mod:`repro.workloads.replay`'s rule, judged on
        the *logical* item count (primary rows,
        :meth:`~repro.core.storage.DHTStorage.fast_primary_count`), so the
        physical row count is free to change when placement legitimately
        gains or loses replica ranks.

        ``deep_verify`` additionally runs the DHT's full invariant suite and
        an exact (merged-path) recount at the end of the run.

        A DHT built internally is closed before returning (releasing the
        multicore worker pool when ``spec.workers > 0``); a caller-provided
        DHT is left alone.
        """
        owns_dht = dht is None
        if dht is None:
            dht = self.build_dht()
        try:
            return self._run(dht, deep_verify)
        finally:
            if owns_dht:
                dht.close()

    def _run(self, dht: BaseDHT, deep_verify: bool) -> ChurnReport:
        spec = self.spec
        stats = dht.storage.stats
        base_items, base_partitions, base_migrations = (
            stats.items_moved, stats.partitions_moved, stats.migrations,
        )
        replication = dht.storage.replication
        base_rebuilt = replication.rows_restored + replication.rows_refilled

        # The method is looked up per event so a test can swap it on the instance.
        backend = DHTBackend(dht, lambda event: self._apply_topology(dht, event))
        result = run_sync(
            replay(
                self.trace,
                self.make_keys(),
                backend,
                seed=spec.seed,
                replication_factor=spec.replication_factor,
            )
        )

        if deep_verify:
            dht.check_invariants()
            if spec.replication_factor > 1:
                dht.verify_replication()
            final_items = dht.storage.total_items()
            if final_items != backend.expected_total:
                raise ReproError(
                    f"churn run lost data: {backend.expected_total} items expected "
                    f"({result.loaded} loaded distinct keys, {result.items_lost} lost "
                    f"to unreplicated crashes), but {final_items} remain"
                )
        else:
            final_items = dht.storage.fast_primary_count()
        item_loads = item_load_stats(dht)
        kinds = Counter(o.kind for o in result.outcomes if o.applied)

        return ChurnReport(
            name=spec.name,
            approach=spec.approach,
            replication_factor=spec.replication_factor,
            n_events=result.applied + result.skipped,
            events_applied=result.applied,
            events_skipped=result.skipped,
            joins=kinds["snode_join"],
            leaves=kinds["snode_leave"],
            enrollment_changes=kinds["enrollment_change"],
            crashes=kinds["snode_crash"],
            rebalances=kinds["rebalance"],
            restarts=kinds["snode_restart"],
            items_lost=result.items_lost,
            replica_rows_rebuilt=(
                replication.rows_restored + replication.rows_refilled - base_rebuilt
            ),
            keys_loaded=result.loaded,
            load_seconds=result.seconds("load"),
            lookups_issued=result.lookups,
            lookup_seconds=result.seconds("lookup"),
            topology_seconds=result.seconds(*TOPOLOGY_KINDS),
            items_moved=stats.items_moved - base_items,
            partitions_moved=stats.partitions_moved - base_partitions,
            migrations=stats.migrations - base_migrations,
            max_event_items_moved=max((o.items_moved for o in result.outcomes), default=0),
            conservation_checks=result.conservation_checks,
            final_items=final_items,
            final_replica_items=dht.storage.fast_replica_count(),
            n_snodes=dht.n_snodes,
            n_vnodes=dht.n_vnodes,
            n_partitions=dht.total_partitions,
            sigma_qv=dht.sigma_qv(),
            sigma_qn=dht.sigma_qn(),
            sigma_items_vnode=item_loads.vnodes.sigma,
            sigma_items_snode=item_loads.snodes.sigma,
            max_mean_items_snode=item_loads.snodes.max_over_mean,
            outcomes=result.outcomes,
        )

    def _apply_topology(self, dht: BaseDHT, event: ChurnEvent) -> Optional[str]:
        """Apply one topology event to the live DHT.

        Returns an optional note for the outcome row (crashes report vnodes
        the model refused to drop; those stay enrolled with recovered data).
        """
        return apply_topology_event(dht, event).note or None


def run_churn(spec: ChurnSpec) -> ChurnReport:
    """Convenience: build the engine for ``spec`` and run it."""
    return ChurnEngine(spec).run()
