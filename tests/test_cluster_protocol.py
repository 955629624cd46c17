"""Tests for the creation- and lifecycle-protocol simulations."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    CreationProtocolSimulator,
    EventProfile,
    LifecycleProtocolSimulator,
    NetworkModel,
    ProtocolCosts,
    compare_lifecycle_protocols,
    lifecycle_event_cost,
    staggered_arrival_times,
)
from repro.core import DHTConfig
from repro.core.errors import ProtocolError
from repro.workloads import ArrivalEvent, ChurnSchedule, ConsecutiveCreations, StaggeredBatches
from repro.workloads.churn import TOPOLOGY_KINDS, ChurnEvent, ChurnSpec, make_churn_trace


def make_sim(approach="local", n_snodes=8, creations=32, vmin=4, **kwargs):
    config = (
        DHTConfig.for_global(pmin=8)
        if approach == "global"
        else DHTConfig.for_local(pmin=8, vmin=vmin)
    )
    schedule = StaggeredBatches(1, creations, gap=0.0, n_snodes=n_snodes)
    return CreationProtocolSimulator(
        config, n_snodes=n_snodes, arrivals=schedule, approach=approach, rng=0, **kwargs
    )


def lifecycle_spec(**overrides):
    """A small but group-rich churn spec exercising every event kind."""
    params = dict(
        n_keys=5000,
        n_events=24,
        n_snodes=10,
        vnodes_per_snode=3,
        min_snodes=4,
        max_snodes=24,
        pmin=8,
        vmin=4,
        replication_factor=2,
        crash_weight=0.25,
        rebalance_weight=0.15,
        restart_weight=0.15,
        seed=5,
    )
    params.update(overrides)
    return ChurnSpec(**params)


class TestValidation:
    def test_bad_parameters_rejected(self):
        config = DHTConfig.for_local(pmin=8, vmin=4)
        with pytest.raises(ValueError):
            CreationProtocolSimulator(config, n_snodes=0, arrivals=[0.0])
        with pytest.raises(ValueError):
            CreationProtocolSimulator(config, n_snodes=1, arrivals=[0.0], approach="other")
        with pytest.raises(ValueError):
            CreationProtocolSimulator(config, n_snodes=1, arrivals=[])

    def test_remove_events_rejected(self):
        # The count-level balance simulators model creations only; removals
        # are churn-trace events for the lifecycle simulator.
        config = DHTConfig.for_local(pmin=8, vmin=4)
        schedule = ChurnSchedule(initial=12, churn_events=10, n_snodes=4, rng=3)
        with pytest.raises(ProtocolError, match="'remove'"):
            CreationProtocolSimulator(
                config, n_snodes=4, arrivals=schedule, approach="local", rng=0
            )

    def test_unknown_arrival_kind_rejected(self):
        config = DHTConfig.for_local(pmin=8, vmin=4)

        class Fake(ArrivalEvent):
            pass

        bad = Fake.__new__(Fake)
        object.__setattr__(bad, "time", 0.0)
        object.__setattr__(bad, "snode", 0)
        object.__setattr__(bad, "kind", "explode")
        with pytest.raises(ProtocolError):
            CreationProtocolSimulator(config, n_snodes=1, arrivals=[bad])

    def test_plain_times_accepted(self):
        config = DHTConfig.for_local(pmin=8, vmin=4)
        sim = CreationProtocolSimulator(config, n_snodes=4, arrivals=[0.0, 0.1, 0.2])
        stats = sim.run()
        assert stats.n_creations == 3

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            ProtocolCosts(record_entry_processing_s=-1)
        with pytest.raises(ValueError):
            ProtocolCosts(partition_payload_bytes=-1)


class TestBehaviour:
    def test_stats_are_populated(self):
        stats = make_sim("local").run()
        assert stats.n_creations == 32
        assert stats.makespan > 0
        assert stats.mean_latency > 0
        assert stats.p95_latency >= stats.mean_latency * 0.5
        assert stats.total_messages > 0
        assert stats.total_bytes > 0
        assert stats.throughput > 0
        assert set(stats.as_dict()) >= {"approach", "makespan_s", "messages"}

    def test_global_serializes_local_overlaps(self):
        global_stats = make_sim("global").run()
        local_stats = make_sim("local").run()
        assert local_stats.makespan < global_stats.makespan
        assert local_stats.lock_waits < global_stats.lock_waits
        # In the global approach the burst is fully serialized: every creation
        # except the first has to wait.
        assert global_stats.lock_waits == global_stats.n_creations - 1

    def test_advantage_grows_with_cluster_size(self):
        speedups = []
        for n_snodes in (8, 32):
            g = make_sim("global", n_snodes=n_snodes, creations=2 * n_snodes).run()
            l = make_sim("local", n_snodes=n_snodes, creations=2 * n_snodes).run()
            speedups.append(g.makespan / l.makespan)
        assert speedups[1] > speedups[0]

    def test_serial_arrivals_have_low_queueing(self):
        config = DHTConfig.for_local(pmin=8, vmin=4)
        # Requests spaced far apart never contend for a lock.
        schedule = ConsecutiveCreations(16, n_snodes=4, interval=10.0)
        stats = CreationProtocolSimulator(
            config, n_snodes=4, arrivals=schedule, approach="local", rng=0
        ).run()
        assert stats.lock_waits == 0
        assert stats.mean_latency < 1.0

    def test_slower_network_increases_latency(self):
        fast = make_sim("local", costs=ProtocolCosts(network=NetworkModel(latency_s=50e-6))).run()
        slow = make_sim("local", costs=ProtocolCosts(network=NetworkModel(latency_s=5e-3))).run()
        assert slow.mean_latency > fast.mean_latency

    def test_deterministic_given_seed(self):
        a = make_sim("local").run()
        b = make_sim("local").run()
        assert np.allclose(a.latencies, b.latencies)
        assert a.makespan == pytest.approx(b.makespan)

    def test_global_approach_ignores_vmin(self):
        # A grouped config run globally is one group that never splits.
        schedule = StaggeredBatches(1, 32, gap=0.0, n_snodes=8)
        grouped = CreationProtocolSimulator(
            DHTConfig.for_local(pmin=8, vmin=4), n_snodes=8, arrivals=schedule,
            approach="global", rng=0,
        ).run()
        assert grouped.as_dict() == make_sim("global").run().as_dict()


class TestCreationGolden:
    """Pin the creation-path numbers so lifecycle work cannot drift them."""

    # Captured from the pre-lifecycle HEAD (StaggeredBatches(3, 16, gap=1ms,
    # 8 snodes), rng=7): the creation simulator must stay bit-identical.
    GOLDEN = {
        "local": (0.044557728, 1166, 31108728.0, 33),
        "global": (0.337367616, 1518, 33723456.0, 47),
    }

    @pytest.mark.parametrize("approach", ["local", "global"])
    def test_creation_stats_bit_identical(self, approach):
        makespan, messages, nbytes, waits = self.GOLDEN[approach]
        config = (
            DHTConfig.for_global(pmin=8)
            if approach == "global"
            else DHTConfig.for_local(pmin=8, vmin=4)
        )
        schedule = StaggeredBatches(3, 16, gap=0.001, n_snodes=8)
        stats = CreationProtocolSimulator(
            config, n_snodes=8, arrivals=schedule, approach=approach, rng=7
        ).run()
        assert stats.makespan == makespan
        assert stats.total_messages == messages
        assert stats.total_bytes == nbytes
        assert stats.lock_waits == waits
        # Creation runs carry no per-kind breakdown, and their summary dict
        # exposes exactly the historical keys.
        assert stats.per_kind == {}
        assert "per_kind" not in stats.as_dict()

    def test_grants_equal_completions(self):
        # Every creation completes, so every lock acquisition was granted.
        for approach in ("local", "global"):
            stats = make_sim(approach).run()
            assert stats.lock_grants == stats.n_creations


class TestLifecycleGolden:
    """Pin the lifecycle-path numbers: the summary and every profile field.

    ``tests/goldens/lifecycle_protocol.json`` was captured before the two
    simulators were folded onto one queue and the profiles onto the one
    trace replayer; both must stay bit-identical.
    """

    GOLDEN_PATH = Path(__file__).parent / "goldens" / "lifecycle_protocol.json"

    @pytest.mark.parametrize("approach", ["local", "global"])
    def test_lifecycle_stats_and_profiles_bit_identical(self, approach):
        golden = json.loads(self.GOLDEN_PATH.read_text())[approach]
        sim = LifecycleProtocolSimulator(
            dataclasses.replace(lifecycle_spec(), approach=approach)
        )
        rows = [dataclasses.astuple(p) for p in sim.profiles()]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == golden["profiles_sha256"]
        assert sim.run().as_dict() == golden["stats"]


class TestLifecycle:
    def test_all_kinds_replay_end_to_end(self):
        spec = lifecycle_spec()
        trace = make_churn_trace(spec)
        assert set(TOPOLOGY_KINDS) <= {e.kind for e in trace}
        for approach in ("local", "global"):
            stats = LifecycleProtocolSimulator(
                dataclasses.replace(spec, approach=approach), trace=trace
            ).run()
            assert set(stats.per_kind) == set(TOPOLOGY_KINDS)
            assert stats.n_events == sum(ks.count for ks in stats.per_kind.values())
            assert stats.makespan > 0
            assert stats.total_messages > 0
            assert stats.total_bytes > 0
            for kind in TOPOLOGY_KINDS:
                ks = stats.per_kind[kind]
                assert ks.count >= 1
                assert ks.mean_latency_s > 0
                assert ks.max_latency_s >= ks.mean_latency_s
                assert ks.throughput(stats.makespan) > 0
            assert stats.total_messages == sum(
                ks.messages for ks in stats.per_kind.values()
            )
            assert stats.total_bytes == sum(ks.bytes for ks in stats.per_kind.values())

    def test_grants_equal_completions(self):
        spec = lifecycle_spec()
        sim = LifecycleProtocolSimulator(spec)
        stats = sim.run()
        expected = sum(len(p.lock_keys) for p in sim.profiles())
        assert stats.lock_grants == expected

    def test_local_beats_global_on_concurrent_churn(self):
        # A group-rich cluster under batched concurrent churn: the per-group
        # locks overlap events the DHT-wide barrier serializes.  (The margin
        # grows with cluster size.)
        spec = lifecycle_spec(n_snodes=12, vnodes_per_snode=4, n_events=32, seed=2)
        comparison = compare_lifecycle_protocols(spec, batch_size=8, gap=0.02)
        assert comparison.n_topology_events == spec.n_events
        assert comparison.makespan_speedup > 1.0
        # Both approaches replayed the exact same trace and arrival times.
        local, global_ = comparison.results["local"], comparison.results["global"]
        assert local.makespan < global_.makespan
        assert local.n_events == global_.n_events == spec.n_events

    def test_deterministic_bit_identical(self):
        spec = lifecycle_spec()
        trace = make_churn_trace(spec)
        times = staggered_arrival_times(spec.n_events, batch_size=6, gap=0.05)
        a = LifecycleProtocolSimulator(spec, trace=trace, arrival_times=times).run()
        b = LifecycleProtocolSimulator(spec, trace=trace, arrival_times=times).run()
        assert a.latencies.tobytes() == b.latencies.tobytes()
        assert a.as_dict() == b.as_dict()
        assert a.lock_grants == b.lock_grants

    def test_profiles_cached_and_deterministic(self):
        sim = LifecycleProtocolSimulator(lifecycle_spec())
        assert sim.profiles() is sim.profiles()
        other = LifecycleProtocolSimulator(lifecycle_spec())
        assert sim.profiles() == other.profiles()

    def test_crash_events_priced_from_surviving_replicas(self):
        spec = lifecycle_spec()
        sim = LifecycleProtocolSimulator(spec)
        crash_profiles = [p for p in sim.profiles() if p.kind == "snode_crash"]
        assert crash_profiles
        # With replication on, a crash promotes surviving replica rows.
        assert any(p.rows_restored > 0 for p in crash_profiles)

    def test_restart_events_priced_from_wal_replay(self, tmp_path):
        # With the durable tier on, a restarted snode replays its own
        # WAL/segments; the profile carries the replay volume.
        spec = lifecycle_spec(data_dir=str(tmp_path))
        sim = LifecycleProtocolSimulator(spec)
        restart_profiles = [p for p in sim.profiles() if p.kind == "snode_restart"]
        assert restart_profiles
        assert any(p.wal_records_replayed > 0 for p in restart_profiles)
        assert any(p.rows_replayed > 0 for p in restart_profiles)

    def test_ram_only_restarts_replay_nothing(self):
        sim = LifecycleProtocolSimulator(lifecycle_spec())
        restart_profiles = [p for p in sim.profiles() if p.kind == "snode_restart"]
        assert restart_profiles
        assert all(p.wal_records_replayed == 0 for p in restart_profiles)
        assert all(p.rows_replayed == 0 for p in restart_profiles)
        # RAM-only restarts rebuild from surviving replicas instead.
        assert any(p.rows_restored > 0 for p in restart_profiles)

    def test_arrival_times_validation(self):
        spec = lifecycle_spec()
        with pytest.raises(ValueError):
            LifecycleProtocolSimulator(spec, arrival_times=[0.0])  # wrong length
        n = spec.n_events
        bad = [0.0] * n
        bad[-1] = -1.0
        with pytest.raises(ValueError):
            LifecycleProtocolSimulator(spec, arrival_times=bad)
        decreasing = [float(n - i) for i in range(n)]
        with pytest.raises(ValueError):
            LifecycleProtocolSimulator(spec, arrival_times=decreasing)

    def test_constructor_mode_validation(self):
        with pytest.raises(TypeError):
            LifecycleProtocolSimulator()  # a churn spec is required
        with pytest.raises(ValueError, match="no topology events"):
            LifecycleProtocolSimulator(
                lifecycle_spec(), trace=[ChurnEvent("load", lo=0, hi=100)]
            )

    def test_profiles_fail_when_an_event_silently_drops_rows(self, monkeypatch):
        # Profiling replays the trace through the one replayer, so a topology
        # event that loses primary rows fails conservation, naming the event.
        from repro.core.base import BaseDHT
        from repro.core.errors import ReproError

        spec = lifecycle_spec()
        trace = make_churn_trace(spec)
        leave = next(e for e in trace if e.kind == "snode_leave")
        doomed = int(spec.make_keys()[0])  # loaded by the first chunk
        original = BaseDHT.remove_snode

        def leaky_remove_snode(dht, snode):
            original(dht, snode)
            if dht.contains(doomed):
                dht.delete(doomed)

        monkeypatch.setattr(BaseDHT, "remove_snode", leaky_remove_snode)
        sim = LifecycleProtocolSimulator(spec, trace=trace)
        with pytest.raises(ReproError, match=f"conservation violated by '{leave.describe()}'"):
            sim.profiles()


class TestLifecycleCostModel:
    def test_crash_cost_monotone_in_surviving_replica_rows(self):
        costs = ProtocolCosts()
        previous = -1.0
        for rows in (0, 100, 10_000, 1_000_000):
            profile = EventProfile(
                kind="snode_crash",
                time=0.0,
                involved_snodes=8,
                record_entries=32,
                recovery_transfers=4,
                rows_restored=rows,
                sync_ranks=1,
            )
            duration, messages, nbytes = lifecycle_event_cost(costs, profile)
            assert duration > previous
            previous = duration
        assert messages > 0 and nbytes > 0

    def test_migration_cost_scales_with_rows(self):
        costs = ProtocolCosts()
        small = EventProfile(
            kind="snode_leave", time=0.0, vnodes_removed=2, involved_snodes=4,
            record_entries=16, partitions_moved=8, rows_moved=100,
        )
        large = dataclasses.replace(small, rows_moved=100_000)
        assert lifecycle_event_cost(costs, large)[0] > lifecycle_event_cost(costs, small)[0]

    def test_restart_cost_scales_with_wal_records_not_messages(self):
        costs = ProtocolCosts()
        base = EventProfile(
            kind="snode_restart", time=0.0, involved_snodes=8, record_entries=32,
        )
        big = dataclasses.replace(base, wal_records_replayed=1_000_000)
        d0, m0, b0 = lifecycle_event_cost(costs, base)
        d1, m1, b1 = lifecycle_event_cost(costs, big)
        assert d1 - d0 == pytest.approx(costs.wal_replay_record_s * 1_000_000)
        # WAL replay is local disk work: it adds no messages and no bytes.
        assert (m1, b1) == (m0, b0)

    def test_skipped_event_priced_as_rejected_request(self):
        from repro.cluster import RemoveVnodeRequest

        costs = ProtocolCosts()
        skipped = EventProfile(kind="snode_leave", time=0.0, applied=False)
        duration, messages, nbytes = lifecycle_event_cost(costs, skipped)
        assert messages == 2
        request_bytes = RemoveVnodeRequest(src=0, dst=0).size_bytes()
        assert duration == pytest.approx(costs.network.rpc_time(request_bytes))
        assert nbytes == request_bytes + 64

    def test_replica_sync_fanout_priced_per_rank(self):
        costs = ProtocolCosts()
        one_rank = EventProfile(
            kind="snode_join", time=0.0, vnodes_created=1, involved_snodes=4,
            record_entries=8, sync_ranks=1, rows_refilled=1000,
        )
        three_ranks = dataclasses.replace(one_rank, sync_ranks=3)
        assert (
            lifecycle_event_cost(costs, three_ranks)[1]
            > lifecycle_event_cost(costs, one_rank)[1]
        )

    def test_rebalance_handover_priced_peer_to_peer(self):
        """Rebalance moves cost three metadata frames on the coordinator and
        ship the rows once on the peer link — unlike relayed migrations."""
        from repro.cluster.messages import RebalanceTransfer

        costs = ProtocolCosts()
        net = costs.network
        base = EventProfile(kind="rebalance", time=0.0)
        moved = dataclasses.replace(base, partitions_moved=10, rows_moved=5000)
        d0, m0, b0 = lifecycle_event_cost(costs, base)
        d1, m1, b1 = lifecycle_event_cost(costs, moved)
        meta = 10 * costs.peer_transfer_metadata_bytes
        payload = (
            10 * RebalanceTransfer.BASE_SIZE_BYTES
            + 5000 * costs.row_payload_bytes
        )
        # Order + peer push + done-ack per handover.
        assert m1 - m0 == 3 * 10
        assert b1 - b0 == pytest.approx(meta + payload)
        assert d1 - d0 == pytest.approx(
            10 * 2 * net.latency_s + (meta + payload) / net.bandwidth_bytes_per_s
        )
        # The coordinator's share is metadata-sized, dwarfed by the rows.
        assert meta < 0.01 * payload

    def test_relayed_migration_still_priced_through_the_coordinator(self):
        costs = ProtocolCosts()
        base = EventProfile(kind="snode_leave", time=0.0)
        moved = dataclasses.replace(base, partitions_moved=10, rows_moved=5000)
        _, m0, _ = lifecycle_event_cost(costs, base)
        _, m1, _ = lifecycle_event_cost(costs, moved)
        # One relayed PartitionTransfer per handover, no p2p handshake.
        assert m1 - m0 == 10

    def test_peer_transfer_metadata_bytes_validated(self):
        with pytest.raises(ValueError):
            ProtocolCosts(peer_transfer_metadata_bytes=-1.0)

    def test_staggered_arrival_times(self):
        assert staggered_arrival_times(5, batch_size=2, gap=0.5) == [0.0, 0.0, 0.5, 0.5, 1.0]
        assert staggered_arrival_times(0, batch_size=4, gap=1.0) == []
        with pytest.raises(ValueError):
            staggered_arrival_times(4, batch_size=0, gap=1.0)
        with pytest.raises(ValueError):
            staggered_arrival_times(4, batch_size=1, gap=-1.0)
        with pytest.raises(ValueError):
            staggered_arrival_times(-1, batch_size=1, gap=0.0)

    def test_as_dict_value_types(self):
        # The summary dict is JSON-serializable: str/int/float leaves only.
        import json

        stats = LifecycleProtocolSimulator(lifecycle_spec()).run()
        json.dumps(stats.as_dict())
