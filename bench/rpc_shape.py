"""The served shape: a ``ClusterHarness`` cluster on loopback TCP, in-process
mode, driven through its ``ClusterClient`` (``rpc_point`` and ``rpc_elastic``).

One load-generating process, one event loop, at most ``clients`` requests in
flight: with 2 cores, more snode processes or more clients would measure the
scheduler.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

from bench import inputs as inp
from bench import spec
from bench.engine_shape import sum_events
from bench.measure import Cycle, Recorder, quiet_gc
from repro.runtime.harness import ClusterHarness, HarnessError
from repro.runtime.rpc import RpcError, RpcTimeoutError
from repro.workloads.churn import ChurnEvent, ChurnSpec


def cluster_spec(w: spec.Workload) -> ChurnSpec:
    """What ``ClusterHarness`` needs to build ``w``'s twin; it loads no keys itself."""
    return ChurnSpec(
        name=w.name, n_keys=1, n_events=0, n_snodes=w.snodes, vnodes_per_snode=w.vnodes,
        replication_factor=spec.REPLICATION_FACTOR, seed=spec.CLUSTER_SEED,
    )


def trace_events(w: spec.Workload) -> List[ChurnEvent]:
    return [ChurnEvent(kind, snode=snode, vnodes=vnodes) for kind, snode, vnodes in w.trace]


class RpcShape:
    def __init__(self, w: spec.Workload, seed: int, rec: Recorder, _tmp_root: str,
                 inject_fault: bool = False):
        self.w, self.seed, self.rec = w, seed, rec
        self.inject_fault = inject_fault
        self.data = inp.generate(w, seed)

    def cycle(self, last: bool) -> Cycle:
        return asyncio.run(self._cycle(last))

    async def _cycle(self, last: bool) -> Cycle:
        w, c = self.w, Cycle()
        self._written: Dict[int, bytes] = {}
        setup_started = time.perf_counter()
        data = self.data
        with self.rec.span("setup"):
            harness = ClusterHarness(cluster_spec(w), trace=trace_events(w))
        async with harness:
            if w.preload_in_setup:
                await self._run_phase("ingest", c, harness, data)
            c.add("setup_s", time.perf_counter() - setup_started)
            with quiet_gc():
                with self.rec.span("body") as body:
                    for phase in w.phases:
                        await self._run_phase(phase, c, harness, data)
                c.add("body_s", body["s"])
                c.exact["sigma_qv"] = harness.twin.sigma_qv()
                if last:
                    with self.rec.span("read_back"):
                        await self._read_back(c, harness, data)
                if self.rec.enabled:
                    await self._served_requests(c, harness)
        return c

    async def _run_phase(self, phase, c, harness, data) -> None:
        with self.rec.span(phase):
            await getattr(self, f"_{phase}")(c, harness, data)

    def _client_bytes_sent(self, harness: ClusterHarness) -> int:
        return sum(harness.client.rpc_for(sid).bytes_sent for sid in harness.handles)

    # -- phases ----------------------------------------------------------------

    async def _ingest(self, c: Cycle, harness: ClusterHarness, data: inp.Inputs) -> None:
        sent_before = self._client_bytes_sent(harness)
        stored = 0
        for lo, hi in inp.chunk_bounds(len(data.int_keys), self.w.chunks):
            with self.rec.span("client.bulk_load", rows=hi - lo) as call:
                stored += await harness.client.bulk_load(
                    data.int_keys[lo:hi], data.int_values[lo:hi]
                )
            c.add("ingest_s", call["s"])
        harness.expected_total += stored
        c.add("ingest_rows", stored)
        c.add("wire_bytes", self._client_bytes_sent(harness) - sent_before)
        c.attempted += self.w.rows
        if stored != self.w.rows:
            c.fail(f"bulk_load acknowledged {stored} of {self.w.rows} rows", self.w.rows - stored)

    async def _trace(self, c: Cycle, harness: ClusterHarness, data: inp.Inputs) -> None:
        with self.rec.span("harness.run"):
            try:
                report = await harness.run(oracle=False)
            except (HarnessError, RpcError) as exc:
                c.attempted += 1
                c.fail(f"trace replay violated an invariant: {exc}")
                return
        sum_events(c, "runtime.harness", ((e.kind, e.measured_s) for e in report.events))
        c.add("runtime.harness.verify_s",
              report.wall_s - sum(e.measured_s for e in report.events))
        c.add("runtime.harness.coordinator_bytes", report.coordinator_bytes)
        c.add("runtime.harness.peer_bytes", sum(r["peer_bytes"] for r in report.rebalances))
        c.add("runtime.harness.rpc_calls", len(report.rpc_latencies_s))
        if report.rebalances:
            c.exact["max_over_mean_after"] = report.rebalances[-1]["after_max_over_mean"]
        c.attempted += report.conservation_checks + report.replication_checks
        if report.items_lost or report.skipped:
            c.fail(f"trace lost {report.items_lost} rows, skipped {report.skipped} events",
                   report.items_lost + report.skipped)

    async def _read_back(self, c: Cycle, harness, data: inp.Inputs) -> None:
        """Untimed: read a sample of the keys plus every row the point loop
        overwrote, split between the clients, and check every value.  A
        never-written key must return what was loaded, a written one its last
        acknowledged put."""
        written = self._written
        rows = sorted(
            set(inp.sample_rows(len(data.key_list), spec.READ_BACK_ROWS, self.seed))
            | set(written)
        )
        got: Dict[int, object] = {}

        async def reader(mine: List[int]) -> None:
            for row in mine:
                try:
                    got[row] = await harness.client.get(data.key_list[row])
                except (KeyError, RpcError) as exc:
                    got[row] = exc
                    c.add("rpc_timeouts", isinstance(exc, RpcTimeoutError))

        await asyncio.gather(*(reader(rows[n::self.w.clients]) for n in range(self.w.clients)))
        c.attempted += len(rows)
        want = [written.get(r, data.int_values[r]) for r in rows]
        bad = inp.mismatches([got[r] for r in rows], want, corrupt=self.inject_fault)
        if bad:
            c.fail(f"read-back returned {bad} wrong values of {len(rows)}", bad)

    async def _point(self, c: Cycle, harness: ClusterHarness, data: inp.Inputs) -> None:
        plan = inp.PointPlan(data, self.w, self.seed)
        client, keys, rec = harness.client, plan.keys, self.rec
        latencies: Dict[str, List[float]] = {"get": [], "put": []}
        wrong = refused = 0
        clock = time.perf_counter

        async def loop(n: int) -> None:
            nonlocal wrong, refused
            for row, is_put, value in plan.ops(n):
                key = keys[row]
                t0 = clock()
                try:
                    if is_put:
                        await client.put(key, value)
                        dt = clock() - t0
                        plan.written[row] = value
                    else:
                        got = await client.get(key)
                        dt = clock() - t0
                        wrong += got != plan.expected(row)
                except (KeyError, RpcError) as exc:
                    refused += 1
                    c.add("rpc_timeouts", isinstance(exc, RpcTimeoutError))
                    continue
                latencies["put" if is_put else "get"].append(dt)
                if rec.enabled:
                    rec.leaf("client.put" if is_put else "client.get", t0, dt)

        for row in plan.warm_rows():
            await client.put(keys[row], plan.expected(row))
        started = clock()
        await asyncio.gather(*(loop(n) for n in range(self.w.clients)))
        c.add("point_s", clock() - started)
        ops = self.w.point_ops * self.w.clients
        c.add("point_ops", ops - refused)
        for op, values in latencies.items():
            c.latencies.setdefault(op, []).extend(values)
        c.attempted += ops
        self._written = plan.written
        if wrong or refused:
            c.fail(f"{wrong} gets returned a stale or wrong value, {refused} ops were refused",
                   wrong + refused)

    async def _served_requests(self, c: Cycle, harness: ClusterHarness) -> None:
        for payload in (await harness.gather_stats()).values():
            for message, count in payload["requests"].items():
                c.add(f"runtime.node.requests_served.{message}", count)
