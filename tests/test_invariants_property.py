"""Property-based tests (hypothesis) for the model's invariants.

These are the strongest correctness checks of the suite: for arbitrary
configurations and creation/removal sequences, the paper's invariants must
hold at every step, and the fast count-level simulator must agree exactly
with the full entity model wherever the algorithms are deterministic.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    PartitionDistributionRecord,
    DHTConfig,
    GlobalDHT,
    LocalDHT,
    SnodeId,
    VnodeRef,
    plan_vnode_creation,
)
from repro.sim import LocalBalanceSimulator, greedy_fill

# Small powers of two keep the state space interesting but the runs fast.
pmin_strategy = st.sampled_from([2, 4, 8])
vmin_strategy = st.sampled_from([1, 2, 4])
n_vnodes_strategy = st.integers(min_value=1, max_value=40)
seed_strategy = st.integers(min_value=0, max_value=2**31 - 1)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def vref(i: int) -> VnodeRef:
    return VnodeRef(SnodeId(0), i)


@SETTINGS
@given(
    pmin=pmin_strategy,
    n=n_vnodes_strategy,
    removals=st.lists(st.integers(min_value=0, max_value=39), max_size=4),
    cls=st.sampled_from([GlobalDHT, LocalDHT]),
)
def test_global_model_invariants_hold_for_any_growth(pmin, n, removals, cls):
    """An ungrouped DHT is one group that never splits, and neither creation
    nor removal draws from its rng."""
    dht = cls(DHTConfig.for_global(pmin=pmin), rng=0)
    rng_state = dht.rng.bit_generator.state
    snode = dht.add_snode()
    refs = []
    for _ in range(n):
        refs.append(dht.create_vnode(snode))
        assert dht.rng.bit_generator.state == rng_state
        assert dht.n_groups == 1
    dht.check_invariants()
    assert abs(sum(dht.quotas().values()) - 1.0) < 1e-9
    for choice in removals:
        if len(refs) <= 1:
            break
        dht.remove_vnode(refs.pop(choice % len(refs)))
        assert dht.rng.bit_generator.state == rng_state
        assert dht.n_groups == 1
    dht.check_invariants()
    assert abs(sum(dht.quotas().values()) - 1.0) < 1e-9


@SETTINGS
@given(pmin=pmin_strategy, vmin=vmin_strategy, n=n_vnodes_strategy, seed=seed_strategy)
def test_local_model_invariants_hold_for_any_growth(pmin, vmin, n, seed):
    dht = LocalDHT(DHTConfig.for_local(pmin=pmin, vmin=vmin), rng=seed)
    snode = dht.add_snode()
    for _ in range(n):
        dht.create_vnode(snode)
    dht.check_invariants()
    assert abs(sum(dht.quotas().values()) - 1.0) < 1e-9
    assert abs(sum(dht.group_quotas().values()) - 1.0) < 1e-9


@SETTINGS
@given(
    pmin=pmin_strategy,
    vmin=vmin_strategy,
    n=st.integers(min_value=4, max_value=30),
    removals=st.lists(st.integers(min_value=0, max_value=29), max_size=5),
    seed=seed_strategy,
)
def test_local_model_invariants_hold_after_removals(pmin, vmin, n, removals, seed):
    dht = LocalDHT(DHTConfig.for_local(pmin=pmin, vmin=vmin), rng=seed)
    snode = dht.add_snode()
    refs = [dht.create_vnode(snode) for _ in range(n)]
    alive = list(refs)
    for choice in removals:
        if len(alive) <= 2:
            break
        ref = alive[choice % len(alive)]
        group = dht.group_of(ref)
        if group.n_vnodes <= 1:
            continue  # removal of a group's last vnode is unsupported by design
        dht.remove_vnode(ref)
        alive.remove(ref)
    dht.check_invariants()  # balanced-state invariants auto-relaxed after removals
    assert abs(sum(dht.quotas().values()) - 1.0) < 1e-9


@SETTINGS
@given(
    counts=st.lists(st.integers(min_value=2, max_value=64), min_size=1, max_size=30),
    pmin=pmin_strategy,
)
def test_greedy_fill_matches_record_planner(counts, pmin):
    """The bucket-level greedy of the fast simulator must produce exactly the
    same count multiset as the one-transfer-at-a-time planner of the core
    model, for any starting distribution."""
    counts = [max(c, pmin) for c in counts]  # respect G4' lower bound

    record = PartitionDistributionRecord({vref(i): c for i, c in enumerate(counts)})
    plan_vnode_creation(record, vref(len(counts)), pmin=pmin)
    expected = sorted(record.counts().values())

    new_counts, new_count, _ = greedy_fill(counts, pmin)
    got = sorted(new_counts + [new_count])
    assert got == expected


@SETTINGS
@given(pmin=pmin_strategy, n=st.integers(min_value=1, max_value=64))
def test_fast_global_simulator_matches_entity_model(pmin, n):
    """The global approach is deterministic: the fast simulator and the full
    entity model must produce identical partition-count multisets."""
    dht = GlobalDHT(DHTConfig.for_global(pmin=pmin), rng=0)
    snode = dht.add_snode()
    sim = LocalBalanceSimulator(DHTConfig.for_global(pmin=pmin))
    for _ in range(n):
        dht.create_vnode(snode)
        sim.create_vnode()
    ((_, counts),) = sim.counts_snapshot()
    assert sorted(counts) == sorted(
        v.partition_count for v in dht.vnodes.values()
    )
    assert abs(sim.sigma_qv() - dht.sigma_qv()) < 1e-9


@SETTINGS
@given(pmin=pmin_strategy, vmin=vmin_strategy, n=n_vnodes_strategy, seed=seed_strategy)
def test_fast_local_simulator_preserves_structural_invariants(pmin, vmin, n, seed):
    sim = LocalBalanceSimulator(DHTConfig.for_local(pmin=pmin, vmin=vmin), rng=seed)
    for _ in range(n):
        sim.create_vnode()
        # Quotas always sum to 1 (G1').
        assert abs(sim.vnode_quotas().sum() - 1.0) < 1e-9
        for level, counts in sim.counts_snapshot():
            total = sum(counts)
            # G2': power-of-two partitions per group; L2: bounded group size.
            assert total & (total - 1) == 0
            assert len(counts) <= 2 * vmin
            # G4': bounded partitions per vnode.
            assert all(pmin <= c <= 2 * pmin for c in counts)
