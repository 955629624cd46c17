"""Tests for the Consistent Hashing ring (repro.baselines.consistent_hashing).

One ring serves both the lookups (:class:`TestConsistentHashRing`) and the
figure-9 metric measured after every join (:class:`TestJoinTrace`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ConsistentHashRing
from repro.core.errors import EmptyDHTError, UnknownSnodeError
from repro.experiments.runner import ch_join_trace


def joined_ring(k, n_nodes, seed=None, weights=None):
    ring = ConsistentHashRing(k, rng=seed)
    ch_join_trace(ring, n_nodes, weights)
    return ring


class TestConsistentHashRing:
    def test_add_nodes_and_quotas_sum_to_one(self):
        ring = ConsistentHashRing(partitions_per_node=16, rng=0)
        for name in ("a", "b", "c"):
            ring.add_node(name)
        quotas = ring.node_quotas()
        assert list(quotas) == ["a", "b", "c"]  # join order
        assert sum(quotas.values()) == pytest.approx(1.0, abs=1e-9)
        assert ring.n_virtual_servers == 48

    def test_duplicate_node_rejected(self):
        ring = ConsistentHashRing(rng=0)
        ring.add_node("a")
        with pytest.raises(ValueError):
            ring.add_node("a")

    def test_weight_scales_virtual_servers(self):
        ring = ConsistentHashRing(partitions_per_node=10, rng=0)
        ring.add_node("small", weight=0.5)
        assert ring.n_virtual_servers == 5
        ring.add_node("big", weight=2.0)
        assert ring.n_virtual_servers == 25
        with pytest.raises(ValueError):
            ring.add_node("zero", weight=0.0)

    def test_lookup_consistency(self):
        ring = ConsistentHashRing(partitions_per_node=8, rng=1)
        for name in ("a", "b", "c", "d"):
            ring.add_node(name)
        keys = [f"key-{i}" for i in range(200)]
        owners = {k: ring.lookup(k) for k in keys}
        # Lookups are deterministic.
        assert owners == {k: ring.lookup(k) for k in keys}
        # Every node owns at least one key at this scale.
        assert set(owners.values()) == {"a", "b", "c", "d"}

    def test_lookup_does_not_depend_on_the_integer_type(self):
        ring = ConsistentHashRing(partitions_per_node=8, rng=1)
        for name in ("a", "b", "c", "d"):
            ring.add_node(name)
        for i in range(1000):
            assert ring.lookup(i) == ring.lookup(np.int64(i)) == ring.lookup(np.uint64(i))

    def test_lookup_on_empty_ring(self):
        with pytest.raises(EmptyDHTError):
            ConsistentHashRing().lookup("k")

    def test_remove_node_redistributes_to_remaining(self):
        ring = ConsistentHashRing(partitions_per_node=8, rng=2)
        for name in ("a", "b", "c"):
            ring.add_node(name)
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove_node("b")
        assert "b" not in ring
        assert ring.nodes() == ["a", "c"]
        after = {k: ring.lookup(k) for k in keys}
        # Keys not owned by the removed node keep their owner (the CH property).
        for key in keys:
            if before[key] != "b":
                assert after[key] == before[key]
            else:
                assert after[key] in {"a", "c"}
        assert sum(ring.node_quotas().values()) == pytest.approx(1.0, abs=1e-9)

    def test_remove_unknown_node(self):
        ring = ConsistentHashRing(rng=0)
        with pytest.raises(UnknownSnodeError):
            ring.remove_node("ghost")

    def test_sigma_and_describe(self):
        ring = ConsistentHashRing(partitions_per_node=16, rng=3)
        assert ring.sigma_qn() == 0.0
        for i in range(8):
            ring.add_node(f"n{i}")
        info = ring.describe()
        assert info["nodes"] == 8
        assert info["virtual_servers"] == 128
        assert 0.0 < info["sigma_qn"] < 1.0

    def test_hash_key_stable_and_in_unit_interval(self):
        for key in ("a", 7, b"bytes"):
            position = ConsistentHashRing.hash_key(key)
            assert 0.0 <= position < 1.0
            assert position == ConsistentHashRing.hash_key(key)

    def test_wraparound_lookup(self):
        ring = ConsistentHashRing(partitions_per_node=1, rng=4)
        ring.add_node("only")
        # A position beyond the last point wraps to the first one.
        assert ring.lookup_position(0.999999) == "only"
        assert ring.lookup_position(1.7) == "only"

    def test_invalid_partitions_per_node(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(partitions_per_node=0)


class TestJoinTrace:
    def test_quotas_sum_to_one(self):
        ring = joined_ring(8, 50, seed=0)
        assert sum(ring.node_quotas().values()) == pytest.approx(1.0, abs=1e-9)
        assert len(ring.node_quotas()) == 50

    def test_single_node_owns_everything(self):
        ring = joined_ring(4, 1, seed=1)
        assert list(ring.node_quotas().values()) == pytest.approx([1.0])
        assert ring.sigma_qn() == 0.0

    def test_incremental_matches_from_scratch(self):
        """Adding nodes one by one must equal regenerating the ring at once."""
        ring = joined_ring(4, 20, seed=7)
        incremental = list(ring.node_quotas().values())

        # Recompute from the raw ring state directly.
        points, owners = ring._positions, ring._owners
        arcs = np.diff(points, prepend=points[-1] - 1.0)
        scratch = np.bincount(owners, weights=arcs, minlength=ring.n_nodes)
        assert np.allclose(incremental, scratch)

    def test_more_partitions_balance_better(self):
        """The classic CH result: imbalance shrinks as k grows."""
        def final_sigma(k):
            values = [
                ch_join_trace(ConsistentHashRing(k, rng=seed), 128).sigma_qn[-1]
                for seed in range(5)
            ]
            return float(np.mean(values))

        assert final_sigma(64) < final_sigma(8)

    def test_trace_shape_and_percent(self):
        trace = ch_join_trace(ConsistentHashRing(4, rng=3), 10)
        assert len(trace) == 10
        assert trace.n_nodes[-1] == 10
        assert np.allclose(trace.sigma_qn_percent(), trace.sigma_qn * 100.0)

    def test_weighted_nodes_get_proportional_quota(self):
        weights = [1.0, 3.0]
        quotas = [
            list(joined_ring(32, 2, seed=seed, weights=weights).node_quotas().values())
            for seed in range(20)
        ]
        mean_quotas = np.mean(quotas, axis=0)
        # The weight-3 node should own roughly 3x the quota of the weight-1 node.
        assert 2.0 < mean_quotas[1] / mean_quotas[0] < 4.5

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            joined_ring(4, 2, weights=[1.0, 0.0])
        with pytest.raises(IndexError):
            joined_ring(4, 2, weights=[1.0])  # no weight configured for node 1

    def test_run_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ch_join_trace(ConsistentHashRing(4), 0)

    def test_deterministic_given_seed(self):
        a = ch_join_trace(ConsistentHashRing(8, rng=5), 30)
        b = ch_join_trace(ConsistentHashRing(8, rng=5), 30)
        assert np.array_equal(a.sigma_qn, b.sigma_qn)

    def test_empty_state(self):
        ring = ConsistentHashRing(4)
        assert ring.sigma_qn() == 0.0
        assert ring.node_quotas() == {}
