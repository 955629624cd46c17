"""End-to-end tests of the networked cluster harness.

Each test boots a real in-process cluster (one asyncio server per snode),
replays an explicit churn trace through the coordinator, and checks the
same invariants the churn engine enforces on the single-process model:
item conservation after every topology event and, with replication on,
primary/replica agreement per partition.  The kill-9 satellite lives here:
a crashed snode at ``replication_factor >= 2`` must lose nothing.
"""

from __future__ import annotations

import asyncio
import subprocess

import numpy as np
import pytest

from repro.cluster.messages import BulkLoadChunk, PeerTransferRequest, RangeCount, RangeDrop
from repro.runtime.harness import ClusterHarness, HarnessError
from repro.runtime.node import SnodeNode
from repro.runtime.rpc import RpcClient, RpcTimeoutError
from repro.workloads.churn import ChurnEvent, ChurnSpec
from repro.workloads.replay import EventOutcome


def _spec(**overrides):
    base = dict(
        name="runtime-test",
        workload="ids",
        n_keys=1200,
        n_events=4,
        approach="local",
        n_snodes=3,
        vnodes_per_snode=2,
        min_snodes=2,
        max_snodes=6,
        load_chunks=1,
        read_multiplier=0.0,
        pmin=8,
        vmin=8,
        seed=11,
    )
    base.update(overrides)
    return ChurnSpec(**base)


def _run(spec, trace, oracle=False, **harness_kwargs):
    async def scenario():
        async with ClusterHarness(spec, trace=trace, **harness_kwargs) as harness:
            return await harness.run(oracle=oracle)

    return asyncio.run(scenario())


class TestHarnessSmoke:
    def test_put_get_and_churn_conserve_items(self):
        spec = _spec()
        trace = [
            ChurnEvent(kind="load", lo=0, hi=1200),
            ChurnEvent(kind="lookup", hi=1200, n_reads=25),
            ChurnEvent(kind="snode_join", snode=3, vnodes=2),
            ChurnEvent(kind="snode_leave", snode=1),
        ]
        report = _run(spec, trace, oracle=True)
        assert report.loaded == 1200
        assert report.lookups == 25
        assert report.applied == 2
        assert report.items_lost == 0
        assert report.conservation_checks == 2
        # The oracle annotated every applied topology event with the
        # lifecycle simulator's cost-model duration for the same trace.
        annotated = [
            record
            for record in report.events
            if record.kind not in ("load", "lookup") and record.applied
        ]
        assert annotated and all(
            record.simulated_s is not None and record.simulated_s > 0
            for record in annotated
        )
        percentiles = report.latency_percentiles()
        assert percentiles["p50_us"] > 0
        assert percentiles["p99_us"] >= percentiles["p50_us"]

    def test_report_as_dict_is_json_shaped(self):
        spec = _spec(n_keys=400)
        trace = [
            ChurnEvent(kind="load", lo=0, hi=400),
            ChurnEvent(kind="snode_join", snode=3, vnodes=2),
        ]
        report = _run(spec, trace)
        out = report.as_dict(include_events=True)
        assert out["loaded"] == 400
        assert out["applied"] == 1
        assert len(out["events"]) == 2
        assert out["rpc_calls"] > 0
        assert "p99_us" in out["rpc_latency"]

    def test_oracle_pairs_outcomes_with_profiles_by_kind_or_refuses(self):
        spec = _spec(n_keys=400)
        trace = [
            ChurnEvent(kind="load", lo=0, hi=400),
            ChurnEvent(kind="snode_join", snode=3, vnodes=2),
            ChurnEvent(kind="snode_leave", snode=1),
        ]
        harness = ClusterHarness(spec, trace=trace)  # the oracle needs no nodes

        def outcomes(*kinds):
            return [EventOutcome(kind, kind, 0.0) for kind in kinds]

        for bad in (
            outcomes("load", "snode_join"),  # one profile left over
            outcomes("load", "snode_leave", "snode_join"),  # kinds out of step
            outcomes("load", "snode_join", "snode_leave", "rebalance"),
        ):
            with pytest.raises(HarnessError, match="oracle cannot pair"):
                harness._annotate_with_oracle(bad)
        good = outcomes("load", "snode_join", "snode_leave")
        harness._annotate_with_oracle(good)
        assert [o.simulated_s is not None for o in good] == [False, True, True]


class TestHarnessFaults:
    def test_kill9_crash_at_factor_two_loses_nothing(self):
        """The kill-9 satellite: crash a served node, replicas cover it."""
        spec = _spec(replication_factor=2)
        trace = [
            ChurnEvent(kind="load", lo=0, hi=1200),
            ChurnEvent(kind="snode_crash", snode=2),
            ChurnEvent(kind="lookup", hi=1200, n_reads=20),
        ]
        report = _run(spec, trace)
        assert report.applied == 1
        assert report.items_lost == 0
        assert report.lookups == 20
        assert report.replication_checks > 0
        assert ("crash", 2) in report.faults

    def test_factor_one_crash_loss_is_accounted(self):
        """Unreplicated crash loses the victim's rows — counted, not hidden."""
        spec = _spec(replication_factor=1)
        trace = [
            ChurnEvent(kind="load", lo=0, hi=1200),
            ChurnEvent(kind="snode_crash", snode=1),
        ]
        report = _run(spec, trace)
        assert report.applied == 1
        assert report.items_lost > 0

    def test_durable_restart_replays_every_acknowledged_write(self, tmp_path):
        """kill -9 + reboot with a WAL: zero loss even at factor 1."""
        spec = _spec(replication_factor=1, data_dir=str(tmp_path / "data"))
        trace = [
            ChurnEvent(kind="load", lo=0, hi=1200),
            ChurnEvent(kind="snode_restart", snode=0),
            ChurnEvent(kind="lookup", hi=1200, n_reads=20),
        ]
        report = _run(spec, trace)
        assert report.applied == 1
        assert report.items_lost == 0
        assert ("kill", 0) in report.faults and ("reboot", 0) in report.faults

    def test_timed_out_transfer_is_never_sent_twice(self):
        """A transfer whose target hangs fails with the timeout instead of
        being re-sent: after the target wakes up, the range is held once —
        by the source, which never got the adoption ack — not adopted again
        by every attempt that was still in flight."""
        spec = _spec()
        trace = [ChurnEvent(kind="load", lo=0, hi=1200)]

        async def scenario():
            async with ClusterHarness(spec, trace=trace, rpc_timeout=0.3) as harness:
                await harness.run(oracle=False)
                bh = harness.bh
                partition, src = next(iter(harness.twin.topology.iter_ownership()))
                start, end = partition.start(bh), partition.end(bh)
                dst = next(
                    ref
                    for sid, refs in sorted(harness._snapshot().hosted.items())
                    if sid != src.snode.value
                    for ref in sorted(refs)
                )

                async def held(ref):
                    reply = await harness._call_ref(
                        ref, RangeCount, ranges=((start, end - 1),)
                    )
                    return reply.payload[0]

                rows = await held(src)
                assert rows > 0 and await held(dst) == 0
                target = harness.handles[dst.snode.value]
                source = harness.handles[src.snode.value].node
                source._peer(target.address).timeout = 0.4

                harness.faults.pause(target)
                with pytest.raises(RpcTimeoutError):
                    await harness._transfer(src, dst, [(start, end)], pop=True)
                harness.faults.resume(target)
                # Long enough for a second and third attempt, had there
                # been any, to reach the woken target.
                await asyncio.sleep(0.8)
                assert (await held(src), await held(dst)) == (rows, 0)
                await harness.check_conservation(allow_loss=False)

        asyncio.run(scenario())


def _rf2_spec(**overrides):
    return _spec(
        workload="zipf", n_keys=3000, n_snodes=4, min_snodes=2, max_snodes=8,
        replication_factor=2, seed=9, **overrides,
    )


JOIN = ChurnEvent(kind="snode_join", snode=4, vnodes=2)
LEAVE = ChurnEvent(kind="snode_leave", snode=1)
CRASH = ChurnEvent(kind="snode_crash", snode=2)


class TestOneMover:
    """Every topology event hands rows over with the same snode-to-snode push."""

    @pytest.mark.parametrize(
        "event, flavour",
        [
            pytest.param(JOIN, ("primary", "primary", True), id="join"),
            pytest.param(LEAVE, ("primary", "primary", True), id="leave"),
            pytest.param(CRASH, ("replica", "primary", False), id="crash-rebuild"),
            pytest.param(JOIN, ("primary", "replica", False), id="replica-refill"),
        ],
    )
    def test_every_event_kind_adopts_before_it_drops(self, event, flavour):
        """With ``after_adopt`` armed, the range of each transfer is counted
        on *both* ends at that instant; once the transfer is over, on the
        target only for a move, on source and target for a copy."""
        trace = [ChurnEvent(kind="load", lo=0, hi=3000)]

        async def scenario():
            probes = {}
            seen = []

            async def count(address, ref, tier, ranges):
                probe = probes.get(address)
                if probe is None:
                    probe = probes[address] = RpcClient(address)
                reply = await probe.call(
                    RangeCount(src=-1, dst=-1, ref=ref, tier=tier, ranges=ranges)
                )
                return sum(reply.payload)

            def watch(handle):
                node, serve = handle.node, handle.node.dispatch

                async def dispatch(order):
                    async def both_ends():
                        return (
                            await count(handle.address, order.ref, order.tier, order.ranges),
                            await count(
                                order.target_address, order.target_ref,
                                order.target_tier, order.ranges,
                            ),
                        )

                    window = []

                    async def after_adopt():
                        window.append(await both_ends())

                    node.transfer_hooks["after_adopt"] = after_adopt
                    ack = await serve(order)
                    del node.transfer_hooks["after_adopt"]
                    seen.append(
                        (order.tier, order.target_tier, order.pop, ack.error,
                         ack.payload, window, await both_ends())
                    )
                    return ack

                node.dispatch = dispatch

            async with ClusterHarness(_rf2_spec(), trace=trace) as harness:
                await harness.run(oracle=False)
                for handle in harness.handles.values():
                    watch(handle)
                try:
                    done = await harness.apply(event)
                    assert done.applied
                    await harness.check_conservation(allow_loss=False)
                    assert await harness.verify_replication() > 0
                finally:
                    for probe in probes.values():
                        await probe.close()
            return seen

        seen = asyncio.run(scenario())
        moved = 0
        for tier, target_tier, pop, error, payload, window, after in seen:
            assert error is None
            rows = payload["rows"]
            assert window == [(rows, rows)]
            assert after == ((0 if pop else rows), rows)
            if (tier, target_tier, pop) == flavour:
                moved += rows
        assert moved > 0, f"no {flavour} transfer with rows was observed"


def _record_requests(monkeypatch):
    """Every request any served node dispatches from now on, in order."""
    seen = []
    inline, awaited = SnodeNode.dispatch_inline, SnodeNode.dispatch

    def dispatch_inline(node, message):
        seen.append(message)
        return inline(node, message)

    async def dispatch(node, message):
        if isinstance(message, PeerTransferRequest):
            seen.append(message)
        return await awaited(node, message)

    monkeypatch.setattr(SnodeNode, "dispatch_inline", dispatch_inline)
    monkeypatch.setattr(SnodeNode, "dispatch", dispatch)
    return seen


def _loaded_rf2(check):
    """Run ``await check(harness)`` on a loaded rf=2 cluster."""

    async def scenario():
        trace = [ChurnEvent(kind="load", lo=0, hi=3000)]
        async with ClusterHarness(_rf2_spec(), trace=trace) as harness:
            await harness.run(oracle=False)
            return await check(harness)

    return asyncio.run(scenario())


class TestOneRequestPerStorePair:
    """Outside rebalance rounds, the harness sends one request per store pair."""

    @pytest.mark.parametrize(
        "event, grouped",
        [
            pytest.param(JOIN, ("primary", "replica", False), id="join"),
            pytest.param(CRASH, ("replica", "primary", False), id="crash"),
        ],
    )
    def test_one_transfer_per_store_pair_and_no_range_drop(
        self, event, grouped, monkeypatch
    ):
        """Each (source store, target store, tier, target tier, pop) gets
        exactly one order, and replica maintenance clears stale ranges with
        its ``RangeRetain`` instead of one ``RangeDrop`` per range."""

        async def check(harness):
            seen = _record_requests(monkeypatch)
            assert (await harness.apply(event)).applied
            await harness.check_conservation(allow_loss=False)
            assert await harness.verify_replication() > 0
            return seen

        seen = _loaded_rf2(check)
        orders = [
            (m.ref, m.target_ref, m.tier, m.target_tier, m.pop)
            for m in seen
            if isinstance(m, PeerTransferRequest)
        ]
        assert len(orders) == len(set(orders))
        assert any(order[2:] == grouped for order in orders), grouped
        assert not any(isinstance(m, RangeDrop) for m in seen)

    def test_verify_replication_sends_one_count_per_store_and_tier(
        self, monkeypatch
    ):
        async def check(harness):
            partitions = harness._snapshot().partitions
            seen = _record_requests(monkeypatch)
            checked = await harness.verify_replication()
            counts = [(m.ref, m.tier) for m in seen if isinstance(m, RangeCount)]
            stores = {(primary.canonical_name, "primary") for _, _, primary, _ in partitions}
            stores |= {
                (ref.canonical_name, "replica")
                for _, _, _, replicas in partitions
                for ref in replicas
            }
            assert sorted(counts) == sorted(stores)
            assert checked == sum(len(replicas) for *_, replicas in partitions)

            # A replica missing its rows is still caught, on its own partition.
            for start, end, primary, replicas in partitions:
                reply = await harness._call_ref(
                    primary, RangeCount, ranges=((start, end - 1),)
                )
                if reply.payload[0]:
                    break
            await harness._call_ref(
                replicas[0], RangeDrop, tier="replica", ranges=((start, end - 1),)
            )
            with pytest.raises(HarnessError, match=f"divergence on \\[{start}, {end}\\)"):
                await harness.verify_replication()

        _loaded_rf2(check)


def _on_empty_rf2(check):
    """Run ``await check(harness)`` on an rf=2 cluster holding no rows."""

    async def scenario():
        async with ClusterHarness(_rf2_spec(), trace=[]) as harness:
            return await check(harness)

    return asyncio.run(scenario())


class TestClientBulkLoad:
    def test_one_chunk_per_vnode_and_tier_with_rows_in_input_order(self, monkeypatch):
        keys = np.arange(3000, dtype=np.uint64)[::-1].copy()
        keys[-1] = keys[0]  # repeated key: the later value must win

        async def check(harness):
            seen = _record_requests(monkeypatch)
            loaded = await harness.client.bulk_load(keys, np.arange(3000))
            stats = await harness.gather_stats()
            return seen, loaded, stats, await harness.client.get(int(keys[0]))

        seen, loaded, stats, first_value = _on_empty_rf2(check)
        chunks = [m for m in seen if isinstance(m, BulkLoadChunk)]
        stores = [(m.ref, m.tier) for m in chunks]
        assert len(stores) == len(set(stores))
        assert {tier for _, tier in stores} == {"primary", "replica"}
        assert loaded == sum(len(m.keys) for m in chunks if m.tier == "primary") == 3000
        assert sum(s["replica"] for s in stats.values()) == 3000
        # A value is its row number: every chunk keeps the input order.
        assert all(np.all(np.diff(chunk.values) > 0) for chunk in chunks)
        assert first_value == 2999

    def test_served_cluster_returns_what_the_engine_returns(self):
        """Mixed int/str keys keep their types (not ``"1"`` for ``1``), and
        equal-length tuple values stay tuples (not a 2-D array the nodes
        refuse) — the same rows the in-process engine stores."""
        keys = [1, "1", "a", b"a", 2**40, 7, 1]
        values = [(i, -i) for i in range(len(keys))]

        async def check(harness):
            await harness.client.bulk_load(keys, values)
            return {key: await harness.client.get(key) for key in keys}

        served = _on_empty_rf2(check)
        engine = _rf2_spec().build_dht(data_dir=None, workers=0)
        engine.bulk_load(keys, values)
        assert served == {key: engine.get(key) for key in keys}
        assert served[1] == (6, -6) and served["1"] == (1, -1)


@pytest.mark.slow
class TestHarnessRandomizedChurn:
    def test_random_trace_with_crashes_and_restarts(self, tmp_path):
        """A generated trace (joins/leaves/crashes/restarts) stays clean."""
        spec = _spec(
            n_keys=3000,
            n_events=10,
            load_chunks=2,
            read_multiplier=0.02,
            replication_factor=2,
            data_dir=str(tmp_path / "data"),
            join_weight=0.3,
            leave_weight=0.2,
            enroll_weight=0.1,
            crash_weight=0.2,
            restart_weight=0.2,
            seed=3,
        )
        report = _run(spec, None, oracle=True)
        assert report.loaded == 3000
        assert report.items_lost == 0
        assert report.applied >= 1
        assert report.conservation_checks == report.applied + report.skipped


@pytest.mark.slow
class TestHarnessProcessMode:
    def test_real_processes_survive_sigkill_restart_and_crash(self, tmp_path, monkeypatch):
        """Each snode a real ``repro serve`` process on a unix socket: a
        SIGKILL + reboot and a crash at factor 2 lose nothing, and no child
        outlives the harness."""
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        spec = _spec(n_keys=3000, replication_factor=2)
        trace = [
            ChurnEvent(kind="load", lo=0, hi=3000),
            ChurnEvent(kind="snode_restart", snode=0),
            ChurnEvent(kind="snode_crash", snode=2),
            ChurnEvent(kind="lookup", hi=3000, n_reads=20),
        ]
        report = _run(spec, trace, processes=True, base_dir=str(tmp_path))
        assert report.processes
        assert report.loaded == 3000
        assert report.applied == 2
        assert report.items_lost == 0
        assert report.lookups == 20
        assert ("kill", 0) in report.faults and ("reboot", 0) in report.faults
        assert ("crash", 2) in report.faults
        # Three boots plus the reboot of snode 0, every one of them reaped.
        assert len(spawned) == 4
        assert all(process.poll() is not None for process in spawned)
