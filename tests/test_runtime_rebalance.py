"""Runtime rebalance tests: NodeStats-driven planning, p2p row transfers.

Covers the decoupled measurement/movement contract end to end:

- the provider/executor protocols extracted from the in-process engine,
  including a transport-free executor (proof the planner loop is not tied
  to ``BaseDHT``);
- decision equivalence — a snapshot built from externally measured
  per-partition counts (``snapshot_from_counts``, the runtime's path) must
  make ``plan_load_round`` produce *identical* plans to the storage-walking
  ``measure_loads``, on the same loads (hypothesis-swept over skew);
- the served cluster's rebalance event: rows flow snode-to-snode while the
  coordinator link carries metadata only, replicas are restored, nothing
  is lost;
- the kill -9 satellite: a transfer source SIGKILLed mid-peer-push (either
  side of the target's adoption ack) loses nothing at factor >= 2.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine.interfaces import LoadPlanExecutor, LoadProvider
from repro.core.rebalance import (
    StorageLoadProvider,
    drive_load_rebalance,
    measure_loads,
    plan_load_round,
    snapshot_from_counts,
)
from repro.runtime.harness import ClusterHarness, RuntimeLoadProvider
from repro.runtime.rpc import RpcError
from repro.utils.coro import run_sync
from repro.workloads.churn import ChurnEvent, ChurnSpec
from repro.workloads.driver import build_cluster
from repro.workloads.keys import zipf_id_keys

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PLAN_KNOBS = dict(tolerance=1.15, allow_splits=True)


def _loaded_cluster(seed: int, exponent: float = 1.2, n_keys: int = 4000):
    dht = build_cluster("local", 6, 2, pmin=4, vmin=4,
                        replication_factor=2, seed=seed)
    keys = zipf_id_keys(n_keys, bh=dht.config.bh, exponent=exponent,
                        n_ranges=64, rng=seed)
    dht.bulk_load(keys)
    return dht


def _external_counts(dht):
    """Per-partition primary counts measured the way a served node does it
    (``primary_range_counts`` over the partition's hash range), keyed like
    the NodeStats reply: ``{ref name: {(level, index): rows}}``."""
    bh = dht.config.bh
    counts = {}
    for ref, vnode in dht.vnodes.items():
        per = {}
        for partition in vnode.partitions:
            hash_range = (partition.start(bh), partition.end(bh) - 1)
            per[(partition.level, partition.index)] = int(
                dht.storage.primary_range_counts(ref, [hash_range])[0]
            )
        counts[ref.canonical_name] = per
    return counts


class TestProviderProtocols:
    def test_engine_objects_satisfy_the_protocols(self):
        dht = build_cluster("local", 3, 2, pmin=4, vmin=4, seed=0)
        assert isinstance(StorageLoadProvider(dht), LoadProvider)
        assert isinstance(dht, LoadPlanExecutor)

    def test_driver_accepts_a_transport_free_executor(self):
        """The planning loop must not require a DHT on the execution side."""

        class _RecordingExecutor:
            def __init__(self):
                self.plans = []

            def execute_load_round(self, plan):
                self.plans.append(plan)
                return (0, 0)

        dht = _loaded_cluster(seed=3)
        executor = _RecordingExecutor()
        assert isinstance(executor, LoadPlanExecutor)
        report = run_sync(drive_load_rebalance(
            StorageLoadProvider(dht), executor,
            pmin=dht.config.pmin, pmax=dht.config.pmax, bh=dht.config.bh,
            max_rounds=3,
        ))
        # Nothing was executed, so the same plan keeps firing: the driver
        # must charge every round and stop at the budget, not spin.
        assert report.rounds == 3
        assert len(executor.plans) == 3
        assert report.rows_moved == 0
        # The storage itself was never touched.
        assert dht.storage.fast_primary_count() == report.total_rows


class TestDecisionEquivalence:
    """Same loads, different measurement paths -> byte-identical decisions."""

    def test_external_counts_build_an_identical_snapshot(self):
        dht = _loaded_cluster(seed=7)
        measured = measure_loads(dht)
        external = snapshot_from_counts(dht, _external_counts(dht))
        assert external.partitions == measured.partitions
        assert external.counts == measured.counts
        assert external.scope_levels == measured.scope_levels
        assert external.scope_members == measured.scope_members

    def test_missing_refs_default_to_zero_rows(self):
        dht = _loaded_cluster(seed=7)
        snapshot = snapshot_from_counts(dht, {})
        assert snapshot.total_rows == 0
        # The shape survives: every partition present, just with zero rows.
        assert snapshot.counts == measure_loads(dht).counts
        assert all(pl.rows == 0 for pl in snapshot.partitions)

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        exponent=st.floats(min_value=0.8, max_value=1.6),
    )
    def test_plans_are_identical_across_providers(self, seed, exponent):
        """The differential the harness relies on: a NodeStats-style count
        feed drives ``plan_load_round`` to the exact same actions as the
        in-process storage walk, over a sweep of skews."""
        dht = _loaded_cluster(seed=seed, exponent=exponent, n_keys=3000)
        measured = measure_loads(dht)
        external = snapshot_from_counts(dht, _external_counts(dht))
        knobs = dict(pmin=dht.config.pmin, pmax=dht.config.pmax,
                     bh=dht.config.bh, **PLAN_KNOBS)
        plan_a = plan_load_round(measured, **knobs)
        plan_b = plan_load_round(external, **knobs)
        assert plan_a.actions == plan_b.actions


def _spec(**overrides):
    base = dict(
        name="runtime-rebalance-test",
        workload="zipf",
        n_keys=3000,
        n_events=4,
        approach="local",
        n_snodes=4,
        vnodes_per_snode=2,
        min_snodes=2,
        max_snodes=8,
        load_chunks=1,
        read_multiplier=0.0,
        replication_factor=2,
        pmin=8,
        vmin=8,
        seed=9,
    )
    base.update(overrides)
    return ChurnSpec(**base)


class TestRuntimeRebalance:
    def test_rebalance_event_moves_rows_peer_to_peer(self):
        spec = _spec()
        trace = [
            ChurnEvent(kind="load", lo=0, hi=3000),
            ChurnEvent(kind="rebalance"),
            ChurnEvent(kind="lookup", hi=3000, n_reads=20),
        ]

        async def scenario():
            async with ClusterHarness(spec, trace=trace) as harness:
                return await harness.run(oracle=True)

        report = asyncio.run(scenario())
        assert report.items_lost == 0
        assert report.applied == 1
        assert report.replication_checks > 0
        assert len(report.rebalances) == 1
        record = report.rebalances[0]
        assert record["aborted"] is False
        assert record["transfers"] > 0 and record["rows_moved"] > 0
        assert record["after_max_over_mean"] <= record["before_max_over_mean"]
        # The decoupling headline: row payloads rode the snode-to-snode
        # connections; the coordinator spent metadata-sized frames per
        # transfer (orders of magnitude below the payload).
        assert record["peer_bytes"] > 0
        assert 0 < record["coordinator_transfer_bytes"] < record["peer_bytes"]
        assert record["coordinator_transfer_bytes"] < 512 * record["transfers"]
        out = report.as_dict()
        assert out["rebalances"][0]["peer_bytes"] == record["peer_bytes"]
        assert out["coordinator_bytes"] > 0

    def test_every_topology_event_moves_rows_peer_to_peer(self):
        """The sibling for the other event kinds: a join, a crash and a
        leave at factor 2 each put more bytes on the snode-to-snode links
        than on the coordinator's, which carries orders, acks, topology
        pushes and counts but no rows."""
        spec = _spec(n_keys=12_000)
        trace = [ChurnEvent(kind="load", lo=0, hi=12_000)]
        events = [
            ChurnEvent(kind="snode_join", snode=4, vnodes=2),
            ChurnEvent(kind="snode_crash", snode=2),
            ChurnEvent(kind="snode_leave", snode=1),
        ]

        async def scenario():
            grown = []
            async with ClusterHarness(spec, trace=trace) as harness:
                await harness.run(oracle=False)
                for event in events:
                    coordinator, peers = harness._coordinator_bytes(), harness.peer_bytes
                    assert (await harness.apply(event)).applied
                    grown.append(
                        (
                            event.kind,
                            harness._coordinator_bytes() - coordinator,
                            harness.peer_bytes - peers,
                        )
                    )
                    await harness.check_conservation(allow_loss=False)
                    assert await harness.verify_replication() > 0
            return grown

        for kind, coordinator, peers in asyncio.run(scenario()):
            assert 0 < coordinator < peers, (kind, coordinator, peers)

    def test_served_cluster_cuts_skewed_load_at_least_in_half(self):
        """The in-process headline (``test_skewed_load_is_actually_cut``)
        measured over the wire: NodeStats-planned peer transfers cut the
        served cluster's per-snode max/mean by at least 2x, losing nothing."""
        spec = _spec(n_keys=30_000, n_snodes=16, max_snodes=16, seed=0)
        trace = [
            ChurnEvent(kind="load", lo=0, hi=30_000),
            ChurnEvent(kind="rebalance"),
        ]

        async def scenario():
            async with ClusterHarness(spec, trace=trace) as harness:
                return await harness.run(oracle=False)

        report = asyncio.run(scenario())
        assert report.items_lost == 0
        record = report.rebalances[0]
        assert record["before_max_over_mean"] > 2.0
        assert record["reduction"] >= 2.0

    def test_runtime_provider_measures_the_served_rows(self):
        """The NodeStats aggregate walks the *twin's* topology (same scopes,
        same partition iteration order as ``measure_loads``) but fills in
        the rows the served cluster actually holds — the metadata twin
        itself stores nothing."""
        spec = _spec()
        trace = [ChurnEvent(kind="load", lo=0, hi=3000)]

        async def scenario():
            async with ClusterHarness(spec, trace=trace) as harness:
                await harness.run(oracle=False)
                runtime = await RuntimeLoadProvider(harness).measure()
                twin = measure_loads(harness.twin)
                structure = [
                    (pl.partition, pl.vnode, pl.scope) for pl in runtime.partitions
                ]
                assert structure == [
                    (pl.partition, pl.vnode, pl.scope) for pl in twin.partitions
                ]
                assert runtime.counts == twin.counts
                assert runtime.scope_levels == twin.scope_levels
                assert runtime.scope_members == twin.scope_members
                assert runtime.total_rows == harness.expected_total == 3000
                assert twin.total_rows == 0

        asyncio.run(scenario())

    def test_gather_stats_times_out_per_request_when_a_node_hangs(self):
        spec = _spec(workload="ids", n_keys=600)
        trace = [ChurnEvent(kind="load", lo=0, hi=600)]

        async def scenario():
            async with ClusterHarness(spec, trace=trace) as harness:
                await harness.run(oracle=False)
                victim = harness.handles[0]
                harness.faults.pause(victim)
                with pytest.raises(RpcError):
                    await harness.gather_stats(timeout=0.1)
                harness.faults.resume(victim)
                stats = await harness.gather_stats(partitions=True)
                assert sorted(stats) == sorted(harness.handles)
                for payload in stats.values():
                    per_partition = payload["partitions"]
                    assert sum(
                        sum(counts.values()) for counts in per_partition.values()
                    ) == payload["primary"]

        asyncio.run(scenario())


class TestTransferSourceKill:
    """The fault satellite: SIGKILL the transfer source mid-peer-push."""

    def _run_with_kill(self, hook_point):
        spec = _spec(seed=9)
        trace = [ChurnEvent(kind="load", lo=0, hi=3000)]

        async def scenario():
            async with ClusterHarness(spec, trace=trace) as harness:
                await harness.run(oracle=False)
                killed = []

                def arm(snode_id, handle):
                    async def hook():
                        if killed:
                            return
                        killed.append(snode_id)
                        # Kill from a separate task: SIGKILL tears down the
                        # very connection this handler is serving, so the
                        # handler task dies by cancellation mid-hook — the
                        # faithful in-process analogue of the OS yanking the
                        # process between two instructions.
                        asyncio.ensure_future(harness.faults.kill(handle))
                        await asyncio.sleep(0.2)

                    handle.node.transfer_hooks[hook_point] = hook

                for snode_id, handle in harness.handles.items():
                    arm(snode_id, handle)
                done = await harness.apply(ChurnEvent(kind="rebalance"))
                for handle in harness.handles.values():
                    if handle.node is not None:
                        handle.node.transfer_hooks.clear()
                assert done.applied
                assert killed, "no transfer happened; the fault never fired"
                record = harness.rebalance_records[-1]
                assert record["aborted"] is True
                assert not harness._rebalance_loss
                assert ("kill", killed[0]) in harness.faults.log
                assert ("reboot", killed[0]) in harness.faults.log
                # Zero loss: every row is back on a primary, replicas agree.
                await harness.check_conservation(allow_loss=False)
                assert await harness.verify_replication() > 0
                return done.note

        note = asyncio.run(scenario())
        assert "died mid-transfer; recovered" in note

    def test_source_killed_after_target_adopted(self):
        """Death in the both-copies window: the target adopted, the source
        never dropped.  Recovery must deduplicate, not double-count."""
        self._run_with_kill("after_adopt")

    def test_source_killed_before_target_adopted(self):
        """Death before the push: the rows were only in the source's memory.
        Replica rebuild must restore them at factor >= 2."""
        self._run_with_kill("before_adopt")
