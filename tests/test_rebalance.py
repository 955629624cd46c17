"""Tests for the unified rebalancing engine (repro.core.rebalance).

Covers the shared action vocabulary, the equivalence of the unified
creation/removal policies with the historical planners, the skewed-load
key generator, and the load-aware policy's contract: plans preserve the
invariants (G3'/G4/G5 — transfer-only plans keep even the strict
balanced-state checks), conserve items exactly (merge-free
``fast_primary_count``), stay replication-safe, and actually cut the
max/mean per-snode item load on skewed data.
"""

from __future__ import annotations

import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    PartitionDistributionRecord,
    DHTConfig,
    GlobalDHT,
    LocalDHT,
    SnodeId,
    VnodeRef,
)
from repro.core.hashspace import HashSpace, Partition, _splitmix64_vec, splitmix64_inverse
from repro.core.rebalance import (
    Action,
    LoadSplitAction,
    SplitAllAction,
    TransferAction,
    greedy_fill,
    measure_loads,
    plan_load_round,
    plan_vnode_creation,
    plan_vnode_removal,
)
from repro.core.storage import VnodeStore
from repro.metrics.balance import item_load_stats
from repro.workloads.driver import build_cluster
from repro.workloads.keys import zipf_id_keys
from tests.conftest import MigrationOracle

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

pmin_strategy = st.sampled_from([2, 4, 8])
seed_strategy = st.integers(min_value=0, max_value=2**31 - 1)


def vref(i: int, snode: int = 0) -> VnodeRef:
    return VnodeRef(SnodeId(snode), i)


class TestActionVocabulary:
    def test_action_is_a_real_union_alias(self):
        """The old ``balancer.Action`` was an accidental string literal; the
        unified vocabulary must expose a usable ``typing.Union`` alias."""
        members = set(typing.get_args(Action))
        assert members == {SplitAllAction, TransferAction, LoadSplitAction}

    def test_transfer_partition_defaults_to_unset(self):
        action = TransferAction(victim=vref(0), recipient=vref(1))
        assert action.partition is None
        explicit = TransferAction(
            victim=vref(0), recipient=vref(1), partition=Partition(2, 1)
        )
        assert explicit.partition == Partition(2, 1)


def _reference_creation_plan(counts, new_vnode, pmin):
    """Literal re-implementation of the seed repo's creation greedy.

    Kept as an independent anchor: the unified creation policy must
    reproduce this action sequence exactly, forever.
    """
    record = dict(counts)
    record[new_vnode] = 0
    actions = []
    if len(record) == 1:
        return actions
    while True:
        victim = sorted(record.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        if victim == new_vnode:
            break
        if record[victim] - record[new_vnode] < 2:
            break
        if record[victim] <= pmin:
            record = {ref: 2 * c for ref, c in record.items()}
            actions.append(("split_all",))
            continue
        record[victim] -= 1
        record[new_vnode] += 1
        actions.append(("transfer", victim, new_vnode))
    return actions


class TestCreationPolicyEquivalence:
    @SETTINGS
    @given(
        counts=st.lists(st.integers(min_value=2, max_value=64), min_size=0, max_size=24),
        pmin=pmin_strategy,
    )
    def test_exact_action_sequence_on_randomized_records(self, counts, pmin):
        """The unified creation policy reproduces the historical planner's
        exact action sequence (not just the final multiset)."""
        counts = [max(c, pmin) for c in counts]
        new = vref(len(counts))
        record = PartitionDistributionRecord({vref(i): c for i, c in enumerate(counts)})
        plan = plan_vnode_creation(record, new, pmin=pmin)

        expected = _reference_creation_plan(
            {vref(i): c for i, c in enumerate(counts)}, new, pmin
        )
        got = [
            ("split_all",) if isinstance(a, SplitAllAction)
            else ("transfer", a.victim, a.recipient)
            for a in plan.actions
        ]
        assert got == expected

    @SETTINGS
    @given(
        counts=st.lists(st.integers(min_value=2, max_value=64), min_size=1, max_size=24),
        pmin=pmin_strategy,
    )
    def test_bucket_fast_path_matches_count_multiset(self, counts, pmin):
        """The engine's count-bucket fast path (consumed by the simulators)
        still produces the identical count multiset."""
        counts = [max(c, pmin) for c in counts]
        record = PartitionDistributionRecord({vref(i): c for i, c in enumerate(counts)})
        plan_vnode_creation(record, vref(len(counts)), pmin=pmin)
        new_counts, new_count, _ = greedy_fill(counts, pmin)
        assert sorted(new_counts + [new_count]) == sorted(record.counts().values())


class TestRemovalPolicy:
    def test_least_loaded_assignment_with_running_counts(self):
        partitions = [Partition(3, i) for i in range(4)]
        recipients = {vref(1): 3, vref(2): 5, vref(3): 3}
        plan = plan_vnode_removal(vref(0), partitions, recipients)
        # Ties break by canonical name; counts track as the plan grows.
        assert [a.recipient for a in plan] == [vref(1), vref(3), vref(1), vref(3)]
        assert [a.partition for a in plan] == partitions
        assert all(a.victim == vref(0) for a in plan)

    def test_requires_recipients(self):
        with pytest.raises(ValueError):
            plan_vnode_removal(vref(0), [Partition(1, 0)], {})

    def test_drain_matches_historical_behavior(self):
        """Vnode removal through the engine must keep the exact historical
        placement (the bench and churn golden numbers depend on it)."""
        dht = build_cluster("local", 4, 4, pmin=8, vmin=8, seed=5)
        dht.bulk_load(np.arange(5000, dtype=np.uint64))
        # Replay the pre-refactor greedy on the current state.
        victim_ref = sorted(dht.snodes[SnodeId(0)].vnodes)[0]
        vnode = dht.get_vnode(victim_ref)
        recipients = [r for r in dht.vnodes if r != victim_ref]
        counts = {r: dht.get_vnode(r).partition_count for r in recipients}
        expected = []
        for partition in sorted(vnode.partitions, key=Partition.ring_sort_key):
            target = min(recipients, key=lambda r: (counts[r], r))
            counts[target] += 1
            expected.append((partition, target))
        before = dht.storage.fast_primary_count()
        dht.remove_vnode(victim_ref)
        for partition, target in expected:
            assert dht.get_vnode(target).owns(partition)
        assert dht.storage.fast_primary_count() == before
        dht.check_invariants()


class TestZipfIdKeys:
    def test_keys_are_distinct_uint64_and_deterministic(self):
        a = zipf_id_keys(5000, bh=32, rng=7)
        b = zipf_id_keys(5000, bh=32, rng=7)
        assert a.dtype == np.uint64
        assert len(np.unique(a)) == 5000
        assert np.array_equal(np.sort(a), np.sort(b))

    def test_hash_load_is_skewed_and_in_range(self):
        bh, n_ranges = 32, 256
        keys = zipf_id_keys(20000, bh=bh, exponent=1.1, n_ranges=n_ranges, rng=0)
        indexes = HashSpace(bh).hash_keys(keys)
        assert int(indexes.max()) < (1 << bh)
        buckets = np.bincount(
            (indexes >> np.uint64(bh - 8)).astype(np.int64), minlength=n_ranges
        )
        uniform_share = 20000 / n_ranges
        # The hottest slice must dwarf the uniform share (zipf 1.1 over 256
        # ranges concentrates ~19% of the mass in the top range).
        assert buckets.max() > 10 * uniform_share

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_id_keys(10, bh=65)
        with pytest.raises(ValueError):
            zipf_id_keys(10, bh=8, n_ranges=3)
        with pytest.raises(ValueError):
            zipf_id_keys(10, bh=4, n_ranges=64)
        with pytest.raises(ValueError):
            zipf_id_keys(10, exponent=0.0)
        assert zipf_id_keys(0).size == 0

    def test_splitmix_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        v = rng.integers(0, 2**63, size=4096, dtype=np.int64).astype(np.uint64)
        assert np.array_equal(_splitmix64_vec(splitmix64_inverse(v)), v)
        assert np.array_equal(splitmix64_inverse(_splitmix64_vec(v)), v)


class TestMeasureLoads:
    def test_counts_match_storage_without_merging(self):
        dht = build_cluster("local", 4, 2, pmin=8, vmin=8, seed=0)
        dht.bulk_load(np.arange(10000, dtype=np.uint64))
        pending_before = {
            ref: dht.storage._store(ref).pending_item_count() for ref in dht.vnodes
        }
        snapshot = measure_loads(dht)
        assert snapshot.total_rows == 10000
        vnode_rows = snapshot.vnode_rows()
        for ref in dht.vnodes:
            assert vnode_rows[ref] == dht.storage.fast_primary_count(ref)
            # Merge-free: the pending columnar segments survived measuring.
            assert dht.storage._store(ref).pending_item_count() == pending_before[ref]
        assert sum(snapshot.snode_rows().values()) == 10000
        assert snapshot.max_over_mean >= 1.0

    def test_scopes_cover_every_vnode_exactly_once(self):
        dht = build_cluster("local", 4, 4, pmin=8, vmin=8, seed=1)
        snapshot = measure_loads(dht)
        members = [r for refs in snapshot.scope_members.values() for r in refs]
        assert sorted(members) == sorted(dht.vnodes)
        for scope, level in snapshot.scope_levels.items():
            assert dht.get_group(scope).splitlevel == level


class TestLoadRebalanceProperties:
    """The ISSUE's contract: plans preserve G3'/G4/G5 and lose zero items."""

    @SETTINGS
    @given(seed=seed_strategy, approach=st.sampled_from(["local", "global"]))
    def test_conservation_and_invariants_on_skewed_loads(self, seed, approach):
        dht = build_cluster(approach, 6, 2, pmin=4, vmin=4,
                            replication_factor=2, seed=seed)
        keys = zipf_id_keys(4000, bh=dht.config.bh, exponent=1.2,
                            n_ranges=64, rng=seed)
        dht.bulk_load(keys)
        before_rows = dht.storage.fast_primary_count()
        before_mm = measure_loads(dht).max_over_mean

        report = dht.rebalance_load(max_splits=4)

        # Zero item loss, merge-free count.
        assert dht.storage.fast_primary_count() == before_rows
        # Monotone: the plan never worsens the imbalance.
        assert report.after_max_over_mean <= before_mm + 1e-9
        # G4 lower bound always; G3'(uniform splitlevel per scope) always.
        for scope, (members, level) in dht.load_scopes().items():
            for ref in members:
                vnode = dht.get_vnode(ref)
                assert vnode.partition_count >= dht.config.pmin
                assert vnode.splitlevels() in (set(), {level})
        # Full invariant suite (G5/Pmax auto-relaxed only if splits fired,
        # mirroring removal semantics).
        dht.check_invariants()
        dht.verify_replication()
        if report.splits == 0:
            assert dht._effective_strict(None) is True

    @SETTINGS
    @given(seed=seed_strategy)
    def test_transfer_only_plans_keep_strict_invariants(self, seed):
        """Without splits, even the strict balanced-state invariants (G4's
        Pmax, G5') survive, on a DHT that never saw a removal."""
        dht = build_cluster("local", 6, 2, pmin=4, vmin=4, seed=seed)
        keys = zipf_id_keys(3000, bh=dht.config.bh, exponent=1.2,
                            n_ranges=64, rng=seed)
        dht.bulk_load(keys)
        report = dht.rebalance_load(allow_splits=False)
        assert report.splits == 0
        for ref, vnode in dht.vnodes.items():
            assert dht.config.pmin <= vnode.partition_count <= dht.config.pmax
        dht.check_invariants(strict=True)
        assert dht.storage.fast_primary_count() == 3000

    def test_skewed_load_is_actually_cut(self):
        """The headline behaviour: a hot-range workload gets its per-snode
        max/mean cut by at least 2x (the acceptance gate at bench scale)."""
        dht = build_cluster("local", 16, 2, pmin=8, vmin=8,
                            replication_factor=2, seed=0)
        keys = zipf_id_keys(30000, bh=dht.config.bh, exponent=1.1,
                            n_ranges=256, rng=0)
        dht.bulk_load(keys)
        report = dht.rebalance_load()
        assert report.before_max_over_mean > 2.0
        assert report.reduction >= 2.0
        assert report.rows_moved > 0
        dht.verify_replication()
        dht.check_invariants()
        # A second pass finds nothing left to do.
        again = dht.rebalance_load()
        assert again.actions_total == 0

    def test_split_sets_extension_flag_and_survives_snapshot(self):
        dht = build_cluster("local", 16, 2, pmin=8, vmin=8, seed=0)
        keys = zipf_id_keys(30000, bh=dht.config.bh, exponent=1.1,
                            n_ranges=256, rng=0)
        dht.bulk_load(keys)
        report = dht.rebalance_load()
        assert report.splits > 0
        assert dht.topology.load_splits_occurred
        assert dht._effective_strict(None) is False
        from repro.core import restore_dht, snapshot_dht

        clone = restore_dht(snapshot_dht(dht))
        assert clone.topology.load_splits_occurred
        clone.check_invariants()

    def test_noop_on_empty_and_balanced(self):
        dht = LocalDHT(DHTConfig.for_local(pmin=4, vmin=4), rng=0)
        assert dht.rebalance_load().actions_total == 0
        snode = dht.add_snode()
        dht.create_vnode(snode)
        assert dht.rebalance_load().actions_total == 0
        dht.bulk_load(np.arange(1000, dtype=np.uint64))
        report = dht.rebalance_load()  # single snode: nothing can move
        assert report.actions_total == 0

    def test_legacy_migration_path_makes_identical_decisions(self):
        """The rebalancer's transfers against the per-item reference (a dict
        filtered by range): every handover moves the rows the filter names,
        and the reported movement and final loads are the filter's."""
        dht = build_cluster("local", 8, 2, pmin=8, vmin=8, seed=2)
        keys = zipf_id_keys(20000, bh=dht.config.bh, exponent=1.2,
                            n_ranges=128, rng=2)
        dht.bulk_load(keys)
        indexes = dht.hash_space.hash_keys(keys).tolist()
        oracle = MigrationOracle(
            {k: (i, None) for k, i in zip(keys.tolist(), indexes)}
        ).watch(dht.storage)
        report = dht.rebalance_load()
        dht.check_invariants()
        assert report.transfers > 0
        assert report.rows_moved == oracle.rows_moved
        bh = dht.config.bh
        for ref, vnode in dht.vnodes.items():
            ranges = [(p.start(bh), p.end(bh)) for p in vnode.partitions]
            assert dict(dht.storage.primary_store(ref).items()) == oracle.rows_in(ranges)

    def test_plan_round_rejects_bad_tolerance(self):
        dht = build_cluster("local", 4, 2, pmin=4, vmin=4, seed=0)
        snapshot = measure_loads(dht)
        with pytest.raises(ValueError):
            plan_load_round(snapshot, pmin=4, pmax=8, bh=32, tolerance=0.5)


class TestItemLoadStats:
    def test_merge_free_stats_reflect_skew(self):
        dht = build_cluster("local", 8, 2, pmin=8, vmin=8, seed=0)
        keys = zipf_id_keys(20000, bh=dht.config.bh, exponent=1.1,
                            n_ranges=128, rng=0)
        dht.bulk_load(keys)
        stats = item_load_stats(dht)
        assert stats.snodes.total == 20000
        assert stats.vnodes.total == 20000
        assert stats.snodes.count == dht.n_snodes
        assert stats.snodes.max_over_mean > 1.5
        assert stats.snodes.sigma > 0.0
        before = stats.snodes.max_over_mean
        dht.rebalance_load()
        after = item_load_stats(dht).snodes.max_over_mean
        assert after < before
        assert set(stats.as_dict()) == {"vnodes", "snodes"}

    def test_empty_axis(self):
        from repro.metrics.balance import load_axis_stats

        empty = load_axis_stats([])
        assert empty.count == 0 and empty.max_over_mean == 0.0


class TestSegmentCompaction:
    def test_fragmented_adoptions_compact_without_changing_content(self):
        source = VnodeStore(vref(0))
        target = VnodeStore(vref(1))
        n = 4 * 74
        keys = np.arange(n, dtype=object)
        indexes = np.arange(n).astype(np.uint64)[::-1].copy()
        values = np.array([f"v{i}" for i in range(n)], dtype=object)
        for i in range(0, n, 4):
            source.put_many(keys[i:i + 4], indexes[i:i + 4], values[i:i + 4])
            # Adopt one fragment at a time, as migration does: each one is
            # folded into the target's index-sorted run.
            target.adopt_parts([], source._segments[-1:])
            assert len(target._segments) == 1 and target._sorted
        assert np.all(np.diff(target._segments[0][1].astype(np.int64)) > 0)
        assert target.fast_len() == n
        assert target.get(5, int(indexes[5])).value == "v5"
        assert len(target) == n

    def test_compaction_handles_valueless_segments(self):
        store = VnodeStore(vref(0))
        rounds = 66
        for i in range(rounds):
            base = 2 * i
            keys = np.array([base, base + 1], dtype=object)
            idx = np.array([base, base + 1], dtype=np.uint64)
            store.adopt_parts([], [(keys, idx, None if i % 2 else keys.copy())])
        total = 2 * rounds
        assert store.fast_len() == total
        assert len(store._segments) == 1
        assert store.get(2, 2).value is None and store.get(4, 4).value == 4
        assert len(store) == total
