"""Tests for the churn engine and the vectorized (segment-aware) migration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DHTConfig, DHTStorage, GlobalDHT, HashSpace, LocalDHT, Partition
from repro.core.errors import InvariantViolation, ReproError
from repro.core.ids import SnodeId, VnodeRef
from repro.workloads.churn import (
    TOPOLOGY_KINDS,
    ChurnEngine,
    ChurnSpec,
    make_churn_trace,
    run_churn,
)
from repro.workloads.driver import build_cluster
from repro.workloads.keys import id_keys, zipf_id_keys
from tests.conftest import MigrationOracle, key_at


def vref(v: int) -> VnodeRef:
    return VnodeRef(SnodeId(0), v)


def make_storage(bh: int = 16, vnodes: int = 3) -> DHTStorage:
    storage = DHTStorage(HashSpace(bh))
    for v in range(vnodes):
        storage.register_vnode(vref(v))
    return storage


def mixed_tier_rows(bh: int, n: int = 64) -> dict:
    """The rows :func:`fill_mixed_tiers` stores, as ``key -> (index, value)``:
    ``n`` indexes spread evenly over a ``2**bh`` space, each under a key
    that hashes there."""
    rows = {}
    for i in range(n):
        index = (i << bh) // n
        rows[key_at(index, bh)] = (index, f"{'seg' if i % 2 else 'hash'}-{i}")
    return rows


def fill_mixed_tiers(storage: DHTStorage, owner: VnodeRef, n: int = 64) -> None:
    """Half the items via per-key puts (hash tier), half via put_batch (segments)."""
    rows = mixed_tier_rows(storage.hash_space.bh, n)
    for key in (k for k, item in rows.items() if item[1].startswith("hash")):
        storage.put(owner, key, *rows[key])
    keys = [k for k, item in rows.items() if item[1].startswith("seg")]
    storage.put_batch(
        owner, keys, [rows[k][0] for k in keys], [rows[k][1] for k in keys]
    )


class TestVectorizedMigration:
    """The segment-aware range-pop must match a brute-force dict filter bit
    for bit (:class:`tests.conftest.MigrationOracle`)."""

    def test_matches_merged_path_bit_for_bit(self):
        partition = Partition(2, 1)  # covers [0x4000, 0x8000) of a 16-bit space
        storage = make_storage()
        fill_mixed_tiers(storage, vref(0))
        oracle = MigrationOracle(mixed_tier_rows(storage.hash_space.bh))
        moving = oracle.rows_in([(0x4000, 0x8000)])
        moved = storage.migrate_partition(partition, vref(0), vref(1))
        assert moved == len(moving) > 0
        assert dict(storage._store(vref(1)).items()) == moving
        assert dict(storage._store(vref(0)).items()) == {
            k: item for k, item in oracle.rows.items() if k not in moving
        }
        assert storage.stats.partitions_moved == 1
        assert storage.stats.items_moved == moved

    def test_segments_stay_pending_on_both_sides(self):
        storage = make_storage()
        fill_mixed_tiers(storage, vref(0))
        src = storage._store(vref(0))
        dst = storage._store(vref(1))
        assert src.pending_item_count() > 0
        storage.migrate_partition(Partition(1, 1), vref(0), vref(1))
        # Neither store merged: the source kept its unmoved rows columnar and
        # the target adopted the moved rows as segments.
        assert src.pending_item_count() > 0
        assert dst.pending_item_count() > 0
        # Point reads still see every item (merge happens lazily, later).
        assert storage.get(vref(1), key_at((63 << 16) // 64)) == "seg-63"

    def test_migrate_partitions_matches_per_partition_calls(self):
        moves = [
            (Partition(2, 0), vref(1)),
            (Partition(2, 1), vref(2)),
            (Partition(2, 2), vref(1)),
        ]
        bulk = make_storage()
        fill_mixed_tiers(bulk, vref(0))
        single = make_storage()
        fill_mixed_tiers(single, vref(0))

        total_bulk = bulk.migrate_partitions(vref(0), moves)
        total_single = sum(
            single.migrate_partition(p, vref(0), t) for p, t in moves
        )
        assert total_bulk == total_single
        for v in range(3):
            assert dict(bulk._store(vref(v)).items()) == dict(
                single._store(vref(v)).items()
            )
        assert bulk.stats.partitions_moved == single.stats.partitions_moved
        assert bulk.stats.items_moved == single.stats.items_moved

    def test_migrate_partitions_skips_self_moves(self):
        storage = make_storage()
        fill_mixed_tiers(storage, vref(0))
        before = storage.fast_item_count(vref(0))
        moved = storage.migrate_partitions(
            vref(0), [(Partition(1, 0), vref(0)), (Partition(1, 1), vref(0))]
        )
        assert moved == 0
        assert storage.stats.partitions_moved == 0
        assert storage.fast_item_count(vref(0)) == before

    def test_migrate_all_moves_segments_without_merging(self):
        storage = make_storage()
        fill_mixed_tiers(storage, vref(0))
        pending = storage._store(vref(0)).pending_item_count()
        assert pending > 0
        moved = storage.migrate_all(vref(0), vref(1))
        assert moved == 64
        assert storage.item_count(vref(0)) == 0
        assert storage._store(vref(1)).pending_item_count() == pending
        assert storage.item_count(vref(1)) == 64  # merged count, exact
        assert storage.get(vref(1), key_at(0)) == "hash-0"

    def test_fast_item_count_exact_with_distinct_keys(self):
        storage = make_storage()
        fill_mixed_tiers(storage, vref(0))
        assert storage.fast_item_count() == 64
        assert storage.fast_item_count(vref(0)) == 64
        # The fast count did not merge anything.
        assert storage._store(vref(0)).pending_item_count() > 0
        # And the merged count agrees.
        assert storage.total_items() == 64

    def test_fast_item_count_upper_bound_with_duplicates(self):
        storage = make_storage()
        storage.put(vref(0), key_at(10), 10, "old")
        storage.put_batch(vref(0), [key_at(10)], [10], ["new"])
        assert storage.fast_item_count() == 2  # upper bound
        assert storage.total_items() == 1  # merged truth
        assert storage.get(vref(0), key_at(10)) == "new"

    def test_wide_hash_space_migration(self):
        storage = DHTStorage(HashSpace(80))
        storage.register_vnode(vref(0))
        storage.register_vnode(vref(1))
        half = 1 << 79
        hashed = {f"k{i}": storage.hash_space.hash_key(f"k{i}") for i in range(16)}
        low = next(k for k, index in hashed.items() if index < half)
        high, shigh = [k for k, index in hashed.items() if index >= half][:2]
        for key, value in ((low, "a"), (high, "b")):
            storage.put(vref(0), key, hashed[key], value)
        storage.put_batch(vref(0), [shigh], [hashed[shigh]], ["c"])
        moved = storage.migrate_partition(Partition(1, 1), vref(0), vref(1))
        assert moved == 2
        assert storage.get(vref(1), high) == "b"
        assert storage.get(vref(1), shigh) == "c"
        assert storage.get(vref(0), low) == "a"

    def test_churn_burst_matches_per_item_path(self):
        """A join, a full snode drain, an enrollment grow and a shrink over
        pending segments: every handover moves exactly the rows a per-item
        dict filter says it should, and the burst ends in that placement."""
        dht = build_cluster("local", 4, 8, pmin=8, vmin=8, seed=0)
        keys = id_keys(20_000, rng=0)
        dht.bulk_load(keys)
        indexes = dht.hash_space.hash_keys(keys).tolist()
        oracle = MigrationOracle(
            {k: (i, None) for k, i in zip(keys.tolist(), indexes)}
        ).watch(dht.storage)
        stats = dht.storage.stats
        partitions_before = stats.partitions_moved  # build_cluster's own handovers
        dht.set_enrollment(dht.add_snode(), 8)
        dht.remove_snode(SnodeId(0))
        dht.set_enrollment(SnodeId(1), 12)
        dht.set_enrollment(SnodeId(1), 6)
        dht.check_invariants()
        assert stats.items_moved == oracle.rows_moved > 0
        assert stats.partitions_moved - partitions_before == oracle.partitions_moved
        assert stats.partitions_moved == stats.migrations
        bh = dht.hash_space.bh
        for ref, vnode in dht.vnodes.items():
            ranges = [(p.start(bh), p.end(bh)) for p in vnode.partitions]
            assert dict(dht.storage.primary_store(ref).items()) == oracle.rows_in(ranges)
        assert dht.storage.total_items() == 20_000


class TestChurnTrace:
    def test_deterministic_for_a_seed(self):
        spec = ChurnSpec(n_keys=1000, n_events=32, seed=9)
        assert make_churn_trace(spec) == make_churn_trace(spec)
        other = ChurnSpec(n_keys=1000, n_events=32, seed=10)
        assert make_churn_trace(spec) != make_churn_trace(other)

    def test_counts_and_key_coverage(self):
        spec = ChurnSpec(n_keys=1000, n_events=20, load_chunks=4, seed=2)
        trace = make_churn_trace(spec)
        topology = [e for e in trace if e.kind in TOPOLOGY_KINDS]
        loads = [e for e in trace if e.kind == "load"]
        assert len(topology) == 20
        assert sum(e.hi - e.lo for e in loads) == 1000
        # Load chunks partition the key range in order.
        bounds = [(e.lo, e.hi) for e in loads]
        assert bounds[0][0] == 0 and bounds[-1][1] == 1000
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_respects_cluster_size_bounds(self):
        spec = ChurnSpec(
            n_keys=100, n_events=60, n_snodes=3, min_snodes=2, max_snodes=5, seed=4
        )
        alive = set(range(spec.n_snodes))
        for event in make_churn_trace(spec):
            if event.kind == "snode_join":
                alive.add(event.snode)
                assert len(alive) <= spec.max_snodes
            elif event.kind == "snode_leave":
                alive.remove(event.snode)
                assert len(alive) >= spec.min_snodes
            elif event.kind == "enrollment_change":
                assert event.snode in alive
                assert event.vnodes >= 1


class TestRebalanceEvents:
    def test_zero_weight_keeps_traces_bit_identical(self):
        """The default spec must generate exactly the pre-rebalancing traces
        (golden regression suites replay pinned traces by seed)."""
        base = ChurnSpec(n_keys=1000, n_events=32, seed=9)
        weighted = ChurnSpec(n_keys=1000, n_events=32, seed=9, crash_weight=0.0,
                             rebalance_weight=0.0)
        assert make_churn_trace(base) == make_churn_trace(weighted)
        assert all(e.kind != "rebalance" for e in make_churn_trace(base))

    def test_rebalance_events_enter_the_mix(self):
        spec = ChurnSpec(n_keys=1000, n_events=40, rebalance_weight=0.5, seed=3)
        trace = make_churn_trace(spec)
        rebalances = [e for e in trace if e.kind == "rebalance"]
        assert rebalances
        assert all(e.snode == -1 for e in rebalances)
        assert "rebalance" in TOPOLOGY_KINDS

    def test_run_conserves_and_verifies_under_rebalance_and_crash(self):
        """Conservation + verify_replication hold after every event, with
        load-aware rebalances interleaved with crashes at factor 2."""
        spec = ChurnSpec(n_keys=4000, n_events=20, rebalance_weight=0.3,
                         crash_weight=0.2, replication_factor=2, seed=11)
        report = run_churn(spec)
        assert report.rebalances > 0
        assert report.final_items == 4000
        assert report.items_lost == 0
        assert report.conservation_checks == 20
        d = report.as_dict()
        assert d["rebalances"] == report.rebalances
        assert d["max_mean_items_snode"] >= 1.0
        assert any("rebalance" in row[1] for row in report.as_rows()
                   if row[0] == "event mix")

    @pytest.mark.xfail(
        strict=True,
        raises=InvariantViolation,
        reason="known defect (ROADMAP item 5): a group split after a "
               "load-aware rebalance left its vnodes with unequal partition "
               "counts hands the halves 129 and 127 partitions, breaking G2'",
    )
    def test_group_split_after_rebalance_keeps_power_of_two_groups(self):
        class SkewedKeys(ChurnEngine):
            def make_keys(self):
                return zipf_id_keys(50_000, exponent=1.1, n_ranges=256, rng=1)

        spec = ChurnSpec(
            workload="zipf", n_keys=50_000, n_events=32, n_snodes=8,
            vnodes_per_snode=4, load_chunks=4, replication_factor=2,
            read_multiplier=0.5, join_weight=0.2, leave_weight=0.15,
            enroll_weight=0.1, crash_weight=0.15, restart_weight=0.2,
            rebalance_weight=0.2, seed=2,
        )
        SkewedKeys(spec).run()

    def test_item_load_metrics_surface_in_report(self):
        report = run_churn(ChurnSpec(n_keys=2000, n_events=6, seed=1))
        assert report.sigma_items_vnode >= 0.0
        assert report.sigma_items_snode >= 0.0
        assert report.max_mean_items_snode >= 1.0
        keys = report.as_dict()
        for name in ("sigma_items_vnode", "sigma_items_snode",
                     "max_mean_items_snode"):
            assert name in keys


class TestChurnEngine:
    def test_small_run_conserves_and_reports(self):
        spec = ChurnSpec(n_keys=5000, n_events=16, seed=7)
        report = run_churn(spec)
        assert report.keys_loaded == 5000
        assert report.final_items == 5000
        assert report.n_events == 16
        assert report.conservation_checks == 16
        assert report.events_applied + report.events_skipped == 16
        assert report.partitions_moved >= report.migrations >= 0
        assert report.items_moved >= report.max_event_items_moved >= 0
        assert 0 <= report.sigma_qv
        d = report.as_dict(include_events=True)
        assert d["final_items"] == 5000
        assert len(d["events"]) == len(report.outcomes)

    def test_global_approach_run(self):
        spec = ChurnSpec(approach="global", n_keys=3000, n_events=12, seed=5)
        report = run_churn(spec)
        assert report.final_items == 3000
        assert report.approach == "global"

    def test_uniform_workload_run(self):
        spec = ChurnSpec(workload="uniform", n_keys=2000, n_events=8, seed=6)
        report = run_churn(spec)
        assert report.final_items == 2000

    @pytest.mark.parametrize("seed", range(5))
    def test_property_random_churn_conserves_items_and_invariants(self, seed):
        """Randomized churn on a loaded DHT: items conserved, invariants green.

        ``ChurnEngine.run(deep_verify=True)`` ends with ``check_invariants()``
        (which includes ``verify_storage_consistency``) and an exact merged
        recount, so a passing run certifies all three properties.
        """
        spec = ChurnSpec(
            n_keys=4000,
            n_events=24,
            n_snodes=4,
            vnodes_per_snode=3,
            min_snodes=2,
            max_snodes=8,
            seed=seed,
        )
        report = run_churn(spec)
        assert report.final_items == 4000
        assert report.conservation_checks == 24

    @pytest.mark.parametrize("dht_cls,config", [
        (LocalDHT, DHTConfig.for_local(pmin=4, vmin=4)),
        (GlobalDHT, DHTConfig.for_global(pmin=4)),
    ])
    def test_property_direct_churn_ops_on_loaded_dht(self, dht_cls, config):
        """Hand-rolled join/leave/enrollment sequence (no engine) conserves data."""
        dht = dht_cls(config, rng=11)
        snodes = dht.add_snodes(3)
        for snode in snodes:
            dht.set_enrollment(snode, 3)
        keys = [f"key-{i}" for i in range(2000)]
        dht.bulk_load(keys, [f"v-{i}" for i in range(2000)])
        rng = np.random.default_rng(11)

        for step in range(15):
            op = int(rng.integers(0, 3))
            alive = list(dht.snodes.values())
            try:
                if op == 0 or len(alive) <= 2:
                    joined = dht.add_snode()
                    dht.set_enrollment(joined, 2)
                elif op == 1:
                    dht.remove_snode(alive[int(rng.integers(0, len(alive)))])
                else:
                    pick = alive[int(rng.integers(0, len(alive)))]
                    dht.set_enrollment(pick, 1 + int(rng.integers(0, 5)))
            except ReproError:
                pass  # model-rejected event (e.g. last vnode of a group)
            assert dht.storage.total_items() == 2000, f"lost items at step {step}"
            dht.verify_storage_consistency()
            dht.check_invariants()

        assert dht.get("key-0") == "v-0"
        assert dht.get("key-1999") == "v-1999"

    def test_preloaded_dht_keeps_its_items(self):
        """A caller-supplied DHT with pre-existing data is not 'lost data'."""
        spec = ChurnSpec(n_keys=1000, n_events=6, seed=8)
        engine = ChurnEngine(spec)
        dht = engine.build_dht()
        dht.put("pre-existing", 42)
        report = engine.run(dht)
        assert report.keys_loaded == 1000
        assert report.final_items == 1001
        assert dht.get("pre-existing") == 42

    def test_conservation_failure_raises(self):
        """A broken event must abort the run with a precise ReproError."""
        spec = ChurnSpec(n_keys=500, n_events=4, seed=3)
        engine = ChurnEngine(spec)
        dht = engine.build_dht()

        original = engine._apply_topology

        def leaky(dht_, event):
            original(dht_, event)
            # Simulate a migration bug: drop an item behind the DHT's back.
            ref = next(iter(dht_.vnodes))
            store = dht_.storage._store(ref)
            for key, item in store.items():
                store.delete(key, item.index)
                break

        engine._apply_topology = leaky
        with pytest.raises(ReproError, match="conservation"):
            engine.run(dht)
