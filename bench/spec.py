"""What the benchmark measures: workloads, metric ownership, per-layer targets.

Metric names, units, directions and the driver's bounds are declared once, in
``BENCHMARK.json`` at the repository root; :func:`declared` loads them.  This
module adds what that file has no key for: the sizes of each workload, which
workloads own each end-to-end metric, the bounds of the end-to-end metrics the
driver cannot carry, and the end-to-end metric each per-layer metric should
move.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Cluster construction, event traces and the Zipf layout never depend on
#: ``--seed``: the seed shapes the generated keys only, so every seed does the
#: same amount of work.  (2 gives ``engine_churn_durable`` a trace with every
#: event kind, about as much graceful as fault time, and no refused event.)
CLUSTER_SEED = 2
REPLICATION_FACTOR = 2
LOOKUP_PASSES = 3
#: Rows of the value-checked read-back sample (untimed).
READ_BACK_ROWS = 2_000

ENGINE_BATCH = "engine_batch"
ENGINE_CHURN = "engine_churn_durable"
RPC_POINT = "rpc_point"
RPC_ELASTIC = "rpc_elastic"

GRACEFUL_KINDS = ("snode_join", "snode_leave", "enrollment_change", "rebalance")
FAULT_KINDS = ("snode_crash", "snode_restart")

#: ``(kind, snode, vnodes)`` — the fixed topology trace of ``rpc_elastic`` on a
#: 4-snode cluster: 2 rebalances, 2 joins, 2 leaves, 1 enrollment change,
#: 2 crashes, 1 restart.  Every crash is followed by a graceful event, whose
#: replica maintenance restores rf=2 before the next fault.
RPC_ELASTIC_TRACE = (
    ("rebalance", -1, 0),
    ("snode_join", 4, 4),
    ("snode_crash", 1, 0),
    ("snode_join", 5, 4),
    ("snode_leave", 0, 0),
    ("enrollment_change", 2, 6),
    ("snode_crash", 3, 0),
    ("snode_restart", 4, 0),
    ("rebalance", -1, 0),
    ("snode_leave", 5, 0),
)


@dataclass(frozen=True)
class Workload:
    """One named workload: a deployment shape, the sizes and order of a cycle."""

    name: str
    shape: str  # "engine" (in-process BaseDHT) or "rpc" (served cluster)
    snodes: int
    vnodes: int
    key_family: str  # "ids" | "zipf"
    int_rows: int
    str_rows: int
    value_bytes: int  # 0 loads keys only
    chunks: int
    phases: Tuple[str, ...]
    point_ops: int = 0  # per client
    clients: int = 1
    durable: bool = False
    churn_events: int = 0  # engine shape: length of the generated churn trace
    trace: Tuple[Tuple[str, int, int], ...] = ()
    preload_in_setup: bool = False

    @property
    def rows(self) -> int:
        return self.int_rows + self.str_rows


_FULL: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name=ENGINE_BATCH, shape="engine", snodes=8, vnodes=4, key_family="ids",
            int_rows=1_000_000, str_rows=200_000, value_bytes=8, chunks=8,
            phases=("ingest", "lookup", "read"),
        ),
        Workload(
            name=ENGINE_CHURN, shape="engine", snodes=8, vnodes=4, key_family="zipf",
            int_rows=500_000, str_rows=0, value_bytes=0, chunks=4,
            phases=("churn",), durable=True, churn_events=32,
        ),
        Workload(
            name=RPC_POINT, shape="rpc", snodes=4, vnodes=4, key_family="ids",
            int_rows=200_000, str_rows=0, value_bytes=64, chunks=1,
            phases=("point",), point_ops=40_000, clients=2, preload_in_setup=True,
        ),
        Workload(
            name=RPC_ELASTIC, shape="rpc", snodes=4, vnodes=4, key_family="zipf",
            int_rows=300_000, str_rows=0, value_bytes=64, chunks=8,
            phases=("ingest", "trace"), clients=2, trace=RPC_ELASTIC_TRACE,
        ),
    )
}
WORKLOAD_NAMES = tuple(_FULL)


def workload(name: str, scale: str = "full") -> Workload:
    """The named workload; ``scale="smoke"`` shrinks rows and ops ~20x."""
    full = _FULL[name]
    if scale == "full":
        return full
    if scale != "smoke":
        raise ValueError(f"scale must be 'full' or 'smoke', got {scale!r}")
    return replace(
        full,
        int_rows=full.int_rows // 20,
        str_rows=full.str_rows // 20,
        point_ops=full.point_ops // 20,
        churn_events=min(full.churn_events, 12),
    )


# --------------------------------------------------------------------------- metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


_ALL = WORKLOAD_NAMES
#: The fifteen end-to-end metrics and the workloads that own each: only there
#: is it measured by the workload's own cycles, written to result files and
#: judged by ``compare.py``.
OWNERS: Dict[str, Tuple[str, ...]] = {
    "setup_s": _ALL,
    "ingest_rows_per_s": (ENGINE_BATCH, RPC_ELASTIC),
    "lookup_rows_per_s": (ENGINE_BATCH,),
    "read_rows_per_s": (ENGINE_BATCH,),
    "get_us_p50": (RPC_POINT,),
    "get_us_p99": (RPC_POINT,),
    "put_us_p50": (RPC_POINT,),
    "put_us_p99": (RPC_POINT,),
    "ops_per_s": (RPC_POINT,),
    "elastic_s": (ENGINE_CHURN, RPC_ELASTIC),
    "recover_s": (ENGINE_CHURN, RPC_ELASTIC),
    "disk_bytes_per_row": (ENGINE_CHURN,),
    "wire_bytes_per_row": (RPC_ELASTIC,),
    "peak_rss_mb": _ALL,
    "failed_share": _ALL,
}
#: End-to-end metrics the driver's ``end_to_end`` list cannot carry (zero on
#: some workload, or no steadier than the largest bound it allows; see the
#: README).  ``BENCHMARK.json`` lists them under ``per_layer``; the bench's own
#: tooling holds them to these bounds.
TOOL_BOUNDS: Dict[str, float] = {
    "get_us_p99": 0.25,
    "put_us_p99": 0.25,
    "disk_bytes_per_row": 0.01,
    "wire_bytes_per_row": 0.01,
    "failed_share": 0.0,
}

_EVENT_KINDS = GRACEFUL_KINDS + FAULT_KINDS
_SERVED = {
    "GetRequest": ("ops_per_s", RPC_POINT),
    "PutRequest": ("ops_per_s", RPC_POINT),
    "BulkLoadChunk": ("ingest_rows_per_s", RPC_ELASTIC),
    **{m: ("elastic_s", RPC_ELASTIC) for m in (
        "RangeExtract", "RangeAdopt", "RangeCount", "NodeStatsRequest", "PeerTransferRequest")},
}


def _fault(kind: str) -> str:
    return "recover_s" if kind in FAULT_KINDS else "elastic_s"


#: Per-layer metric -> (the end-to-end metric it should move, the workload
#: where, how it is measured).  On every other workload the prediction is
#: *no change*.
TARGETS: Dict[str, Tuple[str, str, str]] = {
    "core.hashspace.hash_int_rows_per_s": (
        "ingest_rows_per_s", ENGINE_BATCH, "HashSpace.hash_keys on the uint64 sample"),
    "core.hashspace.hash_str_rows_per_s": (
        "ingest_rows_per_s", ENGINE_BATCH, "HashSpace.hash_keys on the str sample"),
    "core.hashspace.hash_key_us": ("get_us_p50", RPC_POINT, "scalar HashSpace.hash_key"),
    "core.lookup.locate_batch_rows_per_s": (
        "lookup_rows_per_s", ENGINE_BATCH, "PlacementService.locate_batch on the hashed sample"),
    "core.lookup.locate_us": ("get_us_p50", RPC_POINT, "scalar PlacementService.locate"),
    **{
        f"core.engine.storage.bulk_stage_s.{stage}": (
            "ingest_rows_per_s", ENGINE_BATCH, f"BulkLoadReport {stage} stage seconds, sample")
        for stage in ("hash", "locate", "sort", "adopt")
    },
    "core.engine.storage.rank0_rows_per_s": (
        "ingest_rows_per_s", ENGINE_BATCH, "BulkLoadReport primary-rank ingest rate"),
    "core.engine.storage.rank1_rows_per_s": (
        "ingest_rows_per_s", ENGINE_BATCH, "BulkLoadReport first-replica-rank ingest rate"),
    "core.storage.merge_rows_per_s": (
        "read_rows_per_s", ENGINE_BATCH,
        "first get_many after ingest (lazy pending-segment merge)"),
    "core.storage.get_batch_rows_per_s": (
        "read_rows_per_s", ENGINE_BATCH, "second, warm get_many"),
    "core.storage.point_get_us": ("get_us_p50", RPC_POINT, "warm in-process dht.get"),
    "core.storage.point_put_us": ("put_us_p50", RPC_POINT, "warm in-process dht.put"),
    "core.storage.migrate_rows_per_s": (
        "elastic_s", ENGINE_CHURN, "MigrationStats rows moved by one join / its seconds"),
    "core.storage.rows_moved": (
        "elastic_s", ENGINE_CHURN, "MigrationStats rows moved by that join (exact)"),
    "core.replication.sync_s": (
        "elastic_s", ENGINE_CHURN, "sync_replicas() after a join made under deferred_sync"),
    "core.replication.rows_refilled": (
        "elastic_s", ENGINE_CHURN, "SyncReport.rows_refilled of that pass (exact)"),
    "core.replication.crash_rebuild_rows_per_s": (
        "recover_s", ENGINE_CHURN, "rows restored from replicas by crash_snode / its seconds"),
    "core.rebalance.plan_s": (
        "elastic_s", RPC_ELASTIC, "pure plan_load_round on the measured snapshot"),
    "core.rebalance.rounds": ("elastic_s", RPC_ELASTIC, "rebalance_load rounds (exact)"),
    "core.rebalance.max_over_mean_after": (
        "elastic_s", RPC_ELASTIC,
        "max/mean snode load after rebalance_load (exact; quality guard)"),
    "core.durability.wal_bytes_per_row": (
        "disk_bytes_per_row", ENGINE_CHURN, "DurabilityStats.wal_bytes_written / rows (exact)"),
    "core.durability.checkpoints": (
        "disk_bytes_per_row", ENGINE_CHURN,
        "DurabilityStats.checkpoints of a cycle (durable workload) or of the sample ingest"),
    "core.durability.wal_append_rows_per_s": (
        "elastic_s", ENGINE_CHURN, "DurableVnodeStore.append of columnar batch records"),
    "core.durability.checkpoint_rows_per_s": (
        "elastic_s", ENGINE_CHURN, "DurableVnodeStore.checkpoint of the sample"),
    "core.durability.replay_rows_per_s": (
        "recover_s", ENGINE_CHURN, "DurableVnodeStore.recover of that checkpoint + WAL"),
    "core.durability.write_amp_time": (
        "elastic_s", ENGINE_CHURN, "durable / RAM bulk_load seconds on the same rows"),
    "core.local_model.create_vnode_ms": ("setup_s", ENGINE_BATCH, "dht.create_vnode"),
    "core.local_model.sigma_qv": (
        "elastic_s", ENGINE_CHURN,
        "sigma(Qv) of the workload's final topology (exact; the paper's quality metric)"),
    "cluster.messages.encode_small_us": (
        "get_us_p50", RPC_POINT, "mean Message.encode of GetRequest, PutRequest, Ack"),
    "cluster.messages.decode_small_us": (
        "get_us_p50", RPC_POINT, "mean decode of the same three"),
    "cluster.messages.get_request_bytes": (
        "get_us_p50", RPC_POINT, "len(GetRequest.encode())"),
    "cluster.messages.encode_bulk_rows_per_s": (
        "ingest_rows_per_s", RPC_ELASTIC, "BulkLoadChunk.encode, 50k rows"),
    "cluster.messages.decode_bulk_rows_per_s": (
        "ingest_rows_per_s", RPC_ELASTIC, "decode of that chunk"),
    "cluster.messages.bulk_bytes_per_row": (
        "wire_bytes_per_row", RPC_ELASTIC, "encoded chunk bytes / rows (exact)"),
    "runtime.codec.encode_frame_small_us": (
        "get_us_p50", RPC_POINT, "encode_frame(GetRequest)"),
    "runtime.codec.frame_bulk_mb_per_s": (
        "ingest_rows_per_s", RPC_ELASTIC,
        "encode_frame + read_frame of an 8 MB body (copy cost)"),
    "runtime.rpc.ping_rtt_us_p50": (
        "get_us_p50", RPC_POINT, "serial RpcClient.call(PingRequest) on loopback"),
    "runtime.rpc.ping_rtt_us_p99": ("get_us_p99", RPC_POINT, "same, p99"),
    "runtime.rpc.pipelined_ping_per_s": (
        "ops_per_s", RPC_POINT, "64 pings in flight on one connection"),
    "runtime.rpc.retries": (
        "failed_share", RPC_POINT,
        "requests served minus calls completed on the probe connection"),
    "runtime.rpc.timeouts": (
        "failed_share", RPC_POINT, "RpcTimeoutError raised to the workload"),
    "runtime.node.dispatch_get_us": (
        "get_us_p50", RPC_POINT, "await SnodeNode.dispatch(GetRequest), no socket"),
    "runtime.node.dispatch_put_us": (
        "put_us_p50", RPC_POINT, "await SnodeNode.dispatch(PutRequest), no socket"),
    "runtime.node.dispatch_bulk_rows_per_s": (
        "ingest_rows_per_s", RPC_ELASTIC, "dispatch(BulkLoadChunk), 50k rows"),
    "runtime.node.stats_partitions_us": (
        "elastic_s", RPC_ELASTIC, "dispatch(NodeStatsRequest(partitions=True))"),
    **{
        f"runtime.node.requests_served.{message}": (
            *target, f"{message} handled by the nodes alive at the end of a cycle (NodeStats)")
        for message, target in _SERVED.items()
    },
    "runtime.client.route_us": (
        "put_us_p50", RPC_POINT, "hash_key + locate + replicas_of on the client's own view"),
    "runtime.client.rpcs_per_put": (
        "put_us_p50", RPC_POINT, "RPC calls completed per ClusterClient.put"),
    "runtime.client.bulk_group_rows_per_s": (
        "ingest_rows_per_s", RPC_ELASTIC, "hash_keys + locate_batch + stable argsort grouping"),
    **{
        f"runtime.harness.event_s.{kind}": (
            _fault(kind), RPC_ELASTIC,
            f"EventRecord.measured_s summed over {kind} events of a cycle")
        for kind in _EVENT_KINDS
    },
    "runtime.harness.verify_s": (
        "elastic_s", RPC_ELASTIC,
        "HarnessReport.wall_s minus summed event seconds (unreported verification)"),
    "runtime.harness.coordinator_bytes": (
        "elastic_s", RPC_ELASTIC, "HarnessReport.coordinator_bytes per cycle"),
    "runtime.harness.peer_bytes": (
        "elastic_s", RPC_ELASTIC, "peer-link bytes of the cycle's rebalances"),
    "runtime.harness.rpc_calls": (
        "elastic_s", RPC_ELASTIC, "coordinator/client RPC calls completed per cycle"),
    **{
        f"workloads.churn.event_s.{kind}": (
            _fault(kind), ENGINE_CHURN,
            f"EventOutcome.seconds summed over {kind} events of a cycle")
        for kind in _EVENT_KINDS
    },
    "workloads.churn.verify_s": (
        "elastic_s", ENGINE_CHURN, "ChurnEngine.run wall minus summed event seconds"),
    "parallel.bulk_load_w2_rows_per_s": (
        "ingest_rows_per_s", ENGINE_BATCH,
        "bulk_load with ParallelConfig(workers=2); nothing uses it by default"),
    "parallel.pool_start_s": (
        "setup_s", ENGINE_BATCH, "first parallel bulk_load minus a warm one (pool start)"),
    "trace_overhead": (
        "ops_per_s", RPC_POINT, "median traced / median untraced cycle wall of the same run"),
}



@dataclass(frozen=True)
class Declarations:
    """``BENCHMARK.json``, checked against the maps above."""

    document: dict
    run_seconds: int
    #: Names of the driver's ``end_to_end`` list, in its order.
    driver_e2e: Tuple[str, ...]
    #: The fifteen end-to-end metrics by name, in the order of ``OWNERS``.
    e2e: Dict[str, Metric]
    #: What a traced run prints: the layer metrics, then the end-to-end
    #: metrics of ``TOOL_BOUNDS``.
    per_layer: Dict[str, Metric]


@functools.lru_cache(maxsize=1)
def declared() -> Declarations:
    """Load ``BENCHMARK.json``; raise unless it and this module name exactly
    the same workloads and metrics."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if tuple(w["name"] for w in document["workloads"]) != WORKLOAD_NAMES:
        raise ValueError("BENCHMARK.json and bench/spec.py name different workloads")
    entries = document["end_to_end"] + document["per_layer"]
    by_name = {m["name"]: m for m in entries}
    if len(by_name) != len(entries):
        raise ValueError("BENCHMARK.json declares a metric name twice")
    for name in by_name:
        if not NAME_RE.match(name):
            raise ValueError(f"malformed metric name {name!r}")
    driver_e2e = tuple(m["name"] for m in document["end_to_end"])
    per_layer = {m["name"]: Metric(m["name"], m["unit"], m["better"])
                 for m in document["per_layer"]}
    if set(driver_e2e) | set(TOOL_BOUNDS) != set(OWNERS) or set(driver_e2e) & set(TOOL_BOUNDS):
        raise ValueError("end-to-end metrics: BENCHMARK.json, OWNERS and TOOL_BOUNDS disagree")
    if set(per_layer) != set(TARGETS) | set(TOOL_BOUNDS):
        odd = set(per_layer) ^ (set(TARGETS) | set(TOOL_BOUNDS))
        raise ValueError(f"per-layer metrics: BENCHMARK.json and TARGETS disagree on {sorted(odd)}")
    for name, (target, where, _how) in TARGETS.items():
        if where not in OWNERS.get(target, ()):
            raise ValueError(f"{name}: {target!r} is not an end-to-end metric of {where!r}")
    e2e = {
        name: Metric(name, by_name[name]["unit"], by_name[name]["better"],
                     by_name[name].get("bound", TOOL_BOUNDS.get(name)))
        for name in OWNERS
    }
    return Declarations(document, document["run_seconds"], driver_e2e, e2e, per_layer)
