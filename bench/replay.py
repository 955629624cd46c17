"""Per-layer metrics of a traced run.

Two sources, both outside ``src/``: the traced cycles (event seconds, bytes
and request counts the workload's own reports carry), and **layer replay** —
a sample of the workload's rows is fed to one layer's public function in
isolation, a few repetitions, median kept.  Every workload replays every
layer on its *own* rows (key family, value size), so a layer number is
comparable across runs of one workload, not across workloads.
"""

from __future__ import annotations

import asyncio
import statistics
import tempfile
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List

import numpy as np

from bench import inputs as inp
from bench import spec
from bench.engine_shape import build
from bench.measure import Cycle, percentile
from bench.rpc_shape import cluster_spec
from repro.cluster.messages import (
    Ack,
    BulkLoadChunk,
    GetRequest,
    NodeStatsRequest,
    PingRequest,
    PutRequest,
    VnodeCreate,
    decode,
)
from repro.core.durability import DurabilityConfig, DurabilityStats, DurableVnodeStore
from repro.core.rebalance import measure_loads, plan_load_round
from repro.runtime.codec import encode_frame, read_frame
from repro.runtime.harness import ClusterHarness
from repro.runtime.node import SnodeNode

SAMPLE_ROWS = 200_000
SAMPLE_STR_ROWS = 50_000
BULK_ROWS = 50_000
SCALAR_CALLS = 20_000
REPS = 3


def _seconds(fn: Callable[[], Any], reps: int = REPS) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _us_per_call(fn: Callable[[Any], Any], args: List[Any]) -> float:
    t0 = time.perf_counter()
    for a in args:
        fn(a)
    return (time.perf_counter() - t0) / len(args) * 1e6


async def _us_per_await(fn: Callable[[Any], Any], args: List[Any]) -> float:
    t0 = time.perf_counter()
    for a in args:
        await fn(a)
    return (time.perf_counter() - t0) / len(args) * 1e6


# --------------------------------------------------------------------------- engine layers


def _engine_layers(m: Dict[str, float], w: spec.Workload, data: inp.Inputs, tmp_root: str) -> None:
    rows = len(data.int_keys)
    scalar_keys = data.key_list[:SCALAR_CALLS]

    empty = build(w)
    hs = empty.hash_space
    m["core.hashspace.hash_int_rows_per_s"] = rows / _seconds(lambda: hs.hash_keys(data.int_keys))
    m["core.hashspace.hash_str_rows_per_s"] = len(data.str_keys) / _seconds(
        lambda: hs.hash_keys(data.str_keys)
    )
    m["core.hashspace.hash_key_us"] = _us_per_call(hs.hash_key, scalar_keys)
    indexes = hs.hash_keys(data.int_keys)
    m["core.lookup.locate_batch_rows_per_s"] = rows / _seconds(
        lambda: empty.placement.locate_batch(indexes)
    )
    m["core.lookup.locate_us"] = _us_per_call(empty.placement.locate, indexes[:SCALAR_CALLS].tolist())
    snode = next(iter(empty.snodes))
    m["core.local_model.create_vnode_ms"] = _seconds(lambda: empty.create_vnode(snode), 8) * 1e3
    empty.close()

    # bulk_load stages, on a fresh RAM engine each repetition; the last one
    # stays loaded for the storage, migration and replication replays.
    reports, dht = [], None
    for _ in range(REPS):
        if dht is not None:
            dht.close()
        dht = build(w)
        reports.append(dht.bulk_load_report(data.int_keys, data.int_values))

    def med(get: Callable[[Any], float]) -> float:
        return statistics.median(get(r) for r in reports)

    stage = "core.engine.storage.bulk_stage_s."
    m[stage + "hash"] = med(lambda r: r.hash_seconds)
    m[stage + "locate"] = med(lambda r: r.locate_seconds)
    m[stage + "sort"] = med(lambda r: r.group_seconds)
    m[stage + "adopt"] = med(lambda r: r.ingest_seconds + r.replica_seconds)
    for rank in (0, 1):
        m[f"core.engine.storage.rank{rank}_rows_per_s"] = med(
            lambda r: r.rows_by_rank[rank] / r.seconds_by_rank[rank]
            if len(r.rows_by_rank) > rank and r.seconds_by_rank[rank] > 0 else 0.0
        )
    ram_ingest_s = med(lambda r: r.seconds)

    m["core.storage.merge_rows_per_s"] = rows / _seconds(lambda: dht.get_many(data.int_keys), 1)
    m["core.storage.get_batch_rows_per_s"] = rows / _seconds(lambda: dht.get_many(data.int_keys))
    value = b"\x00" * max(8, w.value_bytes)
    for key in scalar_keys:  # touch every store of both tiers once
        dht.put(key, value)
    m["core.storage.point_put_us"] = _us_per_call(lambda k: dht.put(k, value), scalar_keys)
    m["core.storage.point_get_us"] = _us_per_call(dht.get, scalar_keys)

    snapshot = measure_loads(dht)
    m["core.rebalance.plan_s"] = _seconds(lambda: plan_load_round(
        snapshot, pmin=dht.config.pmin, pmax=dht.config.pmax, bh=hs.bh, tolerance=1.25,
    ))
    rebalance = dht.rebalance_load(tolerance=1.25, max_splits=2)
    m["core.rebalance.rounds"] = rebalance.rounds
    m["core.rebalance.max_over_mean_after"] = rebalance.after_max_over_mean

    # One join with the replica sync held back, so migration and sync are
    # timed apart (a join normally runs both).
    moved_before = dht.storage.stats.items_moved
    with dht.data.deferred_sync():
        t0 = time.perf_counter()
        joined = dht.add_snode()
        dht.set_enrollment(joined, w.vnodes)
        join_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        sync = dht.sync_replicas()
        m["core.replication.sync_s"] = time.perf_counter() - t0
    moved = dht.storage.stats.items_moved - moved_before
    m["core.storage.rows_moved"] = moved
    m["core.storage.migrate_rows_per_s"] = moved / join_s
    m["core.replication.rows_refilled"] = sync.rows_refilled
    t0 = time.perf_counter()
    crash = dht.crash_snode(next(iter(dht.snodes)))
    crash_s = time.perf_counter() - t0
    restored = crash.recovery.rows_restored if crash.recovery is not None else 0
    m["core.replication.crash_rebuild_rows_per_s"] = restored / crash_s
    dht.close()

    with tempfile.TemporaryDirectory(prefix="replay-", dir=tmp_root) as tmp:
        durable = build(w, data_dir=f"{tmp}/engine")
        t0 = time.perf_counter()
        durable.bulk_load(data.int_keys, data.int_values)
        m["core.durability.write_amp_time"] = (time.perf_counter() - t0) / ram_ingest_s
        stats = durable.storage.durability
        m["core.durability.wal_bytes_per_row"] = stats.wal_bytes_written / rows
        m["core.durability.checkpoints"] = stats.checkpoints
        durable.close()

        # The store's own write path, on the columnar records put_many logs.
        store = DurableVnodeStore(
            f"{tmp}/store", DurabilityConfig(data_dir=f"{tmp}/store"), DurabilityStats()
        )
        store.reset()
        segments = [
            (data.int_keys[lo:hi], indexes[lo:hi],
             None if data.int_values is None else data.int_values[lo:hi])
            for lo, hi in inp.chunk_bounds(rows, 16)
        ]
        t0 = time.perf_counter()
        for segment in segments:
            store.append(("batch",) + segment)
        m["core.durability.wal_append_rows_per_s"] = rows / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        store.checkpoint({}, segments)
        m["core.durability.checkpoint_rows_per_s"] = rows / (time.perf_counter() - t0)
        store.append(("batch",) + segments[0])
        t0 = time.perf_counter()
        recovered = store.recover()
        m["core.durability.replay_rows_per_s"] = recovered.rows / (time.perf_counter() - t0)
        store.destroy()

    parallel = build(w, workers=2)
    try:
        t0 = time.perf_counter()
        parallel.bulk_load(data.int_keys, data.int_values)
        cold_s = time.perf_counter() - t0
        warm_s = _seconds(lambda: parallel.bulk_load(data.int_keys, data.int_values), 2)
    finally:
        parallel.close()
    m["parallel.bulk_load_w2_rows_per_s"] = rows / warm_s
    m["parallel.pool_start_s"] = max(0.0, cold_s - warm_s)


# --------------------------------------------------------------------------- wire layers


async def _wire_layers(m: Dict[str, float], w: spec.Workload, data: inp.Inputs) -> None:
    bulk_keys = data.int_keys[:BULK_ROWS]
    bulk_values = None if data.int_values is None else data.int_values[:BULK_ROWS]
    bulk_rows = len(bulk_keys)
    async with ClusterHarness(cluster_spec(w), trace=[]) as harness:
        client = harness.client
        await client.bulk_load(bulk_keys, bulk_values)
        sid = min(harness.handles)
        node, rpc = harness.handles[sid].node, harness.handles[sid].rpc

        # Keys whose primary lives on the probed node, as ready-made requests.
        gets, puts = [], []
        value = b"\x00" * max(8, w.value_bytes)
        for key in bulk_keys.tolist():
            index = client.hash_space.hash_key(key)
            _partition, ref = client.placement.locate(index)
            if ref.snode.value == sid:
                gets.append(GetRequest(src=-1, dst=sid, ref=ref.canonical_name, key=key))
                puts.append(PutRequest(src=-1, dst=sid, ref=ref.canonical_name, key=key,
                                       index=index, value=value))
            if len(gets) == SCALAR_CALLS // 4:
                break
        ack = Ack(src=sid, dst=-1, payload=value)
        small = [gets[0], puts[0], ack]
        encoded = [message.encode() for message in small]
        m["cluster.messages.get_request_bytes"] = len(encoded[0])
        m["cluster.messages.encode_small_us"] = statistics.mean(
            _us_per_call(lambda _i, msg=msg: msg.encode(), list(range(SCALAR_CALLS // 4)))
            for msg in small
        )
        m["cluster.messages.decode_small_us"] = statistics.mean(
            _us_per_call(lambda _i, body=body: decode(body), list(range(SCALAR_CALLS // 4)))
            for body in encoded
        )
        m["runtime.codec.encode_frame_small_us"] = _us_per_call(
            lambda i: encode_frame(i, gets[0]), list(range(SCALAR_CALLS // 4))
        )

        indexes = client.hash_space.hash_keys(bulk_keys)
        chunk = BulkLoadChunk(src=-1, dst=sid, ref=gets[0].ref, keys=bulk_keys,
                              indexes=indexes, values=bulk_values)
        m["cluster.messages.encode_bulk_rows_per_s"] = bulk_rows / _seconds(chunk.encode)
        body = chunk.encode()
        m["cluster.messages.bulk_bytes_per_row"] = len(body) / bulk_rows
        m["cluster.messages.decode_bulk_rows_per_s"] = bulk_rows / _seconds(lambda: decode(body))

        big = Ack(src=sid, dst=-1, payload=bytes(8 << 20))
        frame_s = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            frame = encode_frame(1, big, response=True)
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            await read_frame(reader)
            frame_s.append(time.perf_counter() - t0)
        m["runtime.codec.frame_bulk_mb_per_s"] = len(frame) / 1e6 / statistics.median(frame_s)

        ping = PingRequest(src=-1, dst=sid)
        pings_before = (await harness.gather_stats())[sid]["requests"].get("PingRequest", 0)
        rtts = []
        for _ in range(SCALAR_CALLS // 4):
            t0 = time.perf_counter()
            await rpc.call(ping)
            rtts.append(time.perf_counter() - t0)
        m["runtime.rpc.ping_rtt_us_p50"] = percentile(rtts, 50) * 1e6
        m["runtime.rpc.ping_rtt_us_p99"] = percentile(rtts, 99) * 1e6
        t0 = time.perf_counter()
        for _ in range(SCALAR_CALLS // 4 // 64):
            await asyncio.gather(*(rpc.call(ping) for _ in range(64)))
        pipelined = SCALAR_CALLS // 4 // 64 * 64
        m["runtime.rpc.pipelined_ping_per_s"] = pipelined / (time.perf_counter() - t0)
        served = (await harness.gather_stats())[sid]["requests"]["PingRequest"] - pings_before
        m["runtime.rpc.retries"] = served - (len(rtts) + pipelined)

        m["runtime.node.dispatch_get_us"] = await _us_per_await(node.dispatch, gets)
        m["runtime.node.dispatch_put_us"] = await _us_per_await(node.dispatch, puts)
        stats = NodeStatsRequest(src=-1, dst=sid, partitions=True)
        m["runtime.node.stats_partitions_us"] = await _us_per_await(node.dispatch, [stats] * 50)

        route_keys = data.key_list[:SCALAR_CALLS]

        def route(key: int) -> None:
            partition, _ref = client.placement.locate(client.hash_space.hash_key(key))
            client.placement.replicas_of(partition)

        m["runtime.client.route_us"] = _us_per_call(route, route_keys)
        calls_before = sum(len(h.rpc.call_durations) for h in harness.handles.values())
        n_puts = 200
        for key in route_keys[:n_puts]:
            await client.put(key, value)
        calls = sum(len(h.rpc.call_durations) for h in harness.handles.values()) - calls_before
        m["runtime.client.rpcs_per_put"] = calls / n_puts

        def group() -> None:
            positions = client.placement.locate_batch(client.hash_space.hash_keys(data.int_keys))
            np.argsort(positions, kind="stable")

        m["runtime.client.bulk_group_rows_per_s"] = len(data.int_keys) / _seconds(group)

    # A node of its own, so the chunk lands in an empty store every time.
    bulk_s = []
    for n in range(REPS):
        fresh = SnodeNode(1000 + n, bh=harness.bh, replication_factor=spec.REPLICATION_FACTOR)
        await fresh.dispatch(VnodeCreate(src=-1, dst=fresh.snode_id, ref=chunk.ref))
        t0 = time.perf_counter()
        reply = await fresh.dispatch(chunk)
        bulk_s.append(time.perf_counter() - t0)
        if reply.error is not None:
            raise RuntimeError(f"replayed BulkLoadChunk was refused: {reply.error}")
    m["runtime.node.dispatch_bulk_rows_per_s"] = bulk_rows / statistics.median(bulk_s)


# --------------------------------------------------------------------------- assembly


def _cycle_median(cycles: List[Cycle], key: str) -> float:
    values = [c.sums.get(key, 0.0) for c in cycles]
    return statistics.median(values) if values else 0.0


def per_layer_metrics(w: spec.Workload, seed: int, tmp_root: str,
                      cycles: List[Cycle]) -> Dict[str, float]:
    """Every metric of ``spec.TARGETS`` for one traced run of ``w``.

    ``cycles`` alternate untraced (even) and traced (odd).  A layer the
    workload never enters reports 0 (``runtime.harness.*`` on the engine
    shape, ``workloads.churn.*`` on the served one).
    """
    m: Dict[str, float] = {}
    sample = replace(
        w, int_rows=min(w.int_rows, SAMPLE_ROWS), str_rows=min(SAMPLE_STR_ROWS, SAMPLE_ROWS // 4)
    )
    data = inp.generate(sample, seed)
    _engine_layers(m, w, data, tmp_root)
    asyncio.run(_wire_layers(m, w, data))

    traced = cycles[1::2]
    for name in spec.TARGETS:
        if ".event_s." in name or name.endswith(".verify_s") or name.startswith(
            ("runtime.harness.", "runtime.node.requests_served.")
        ):
            m.setdefault(name, _cycle_median(traced, name))
    if w.durable:  # the workload's own count beats the replay's single bulk_load
        m["core.durability.checkpoints"] = _cycle_median(cycles, "core.durability.checkpoints")
    m["runtime.rpc.timeouts"] = sum(c.sums.get("rpc_timeouts", 0.0) for c in cycles)
    m["core.local_model.sigma_qv"] = cycles[0].exact["sigma_qv"]
    m["trace_overhead"] = (
        statistics.median(c.sums["body_s"] for c in traced)
        / statistics.median(c.sums["body_s"] for c in cycles[0::2])
    )
    return {name: m[name] for name in spec.TARGETS}
