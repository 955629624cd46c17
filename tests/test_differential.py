"""Differential cross-model test suite.

One deterministic trace — bulk loads interleaved with topology churn — is
replayed against the three storage models the repo implements:

* :class:`~repro.core.local_model.GlobalDHT` (paper, global approach),
* :class:`~repro.core.local_model.LocalDHT` (paper, grouped approach),
* the :class:`~repro.baselines.consistent_hashing.ConsistentHashRing`
  baseline wrapped with a reference storage layer.

After every topology event each model must conserve every item, and every
key must exhibit *lookup agreement*: the owner returned by the model's
lookup actually holds the key, and a get returns the loaded value.  The
models place keys differently (that is the point of the paper), so
agreement is judged per model against the trace's ground truth, and
cross-model on the surviving key population.

A second differential compares the two DHT approaches under *crash* churn
with replication, where both must preserve the full population (the CH
baseline keeps single copies, so it is exercised only under graceful
churn).

A third differential covers *kill -9 + restart*: the same trace with hard
restarts interleaved runs against a durable GlobalDHT, a durable LocalDHT
(both ``replication_factor=1`` — the disk is the only copy) and a
RAM+replication reference.  Every restarted vnode's recovered store must
be bit-for-bit identical to its pre-kill in-memory state, and all three
models must conserve and agree on every key after every event.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.baselines.consistent_hashing import ConsistentHashRing
from repro.core import DHTConfig, DurabilityConfig, GlobalDHT, LocalDHT
from repro.core.ids import SnodeId
from repro.workloads.keys import uniform_keys

N_KEYS = 1000
INITIAL_SNODES = 4
VNODES_PER_SNODE = 2

#: The shared deterministic trace.  ``("load", lo, hi)`` bulk-loads a key
#: slice; ``("join", id)`` enrolls a new node; ``("leave", id)`` withdraws
#: one gracefully.  Ids mirror the DHT's sequential snode allocation.
GRACEFUL_TRACE = [
    ("load", 0, 250),
    ("join", 4),
    ("load", 250, 500),
    ("leave", 1),
    ("join", 5),
    ("join", 6),
    ("load", 500, 750),
    ("leave", 0),
    ("load", 750, 1000),
    ("leave", 4),
    ("join", 7),
]


def make_population():
    keys = uniform_keys(N_KEYS, rng=1234)
    values = [f"payload-{i}" for i in range(N_KEYS)]
    return keys, values


class CHStorageModel:
    """The CH ring plus a reference per-node storage layer.

    Keys move exactly as consistent hashing dictates: a join steals arcs
    (and the keys on them) from successors, a leave hands a node's keys to
    the successors of its ring points.
    """

    def __init__(self, partitions_per_node: int = 32, rng: int = 0):
        self.ring = ConsistentHashRing(partitions_per_node=partitions_per_node, rng=rng)
        self.stores: Dict[str, Dict] = {}

    def add_node(self, name: str) -> None:
        self.ring.add_node(name)
        self.stores[name] = {}
        self._rebalance()

    def remove_node(self, name: str) -> None:
        orphans = self.stores.pop(name)
        self.ring.remove_node(name)
        for key, value in orphans.items():
            self.stores[self.ring.lookup(key)][key] = value
        self._rebalance()

    def _rebalance(self) -> None:
        for node in list(self.stores):
            store = self.stores[node]
            moving = [k for k in store if self.ring.lookup(k) != node]
            for key in moving:
                self.stores[self.ring.lookup(key)][key] = store.pop(key)

    def load(self, keys, values) -> None:
        for key, value in zip(keys, values):
            self.stores[self.ring.lookup(key)][key] = value

    def total_items(self) -> int:
        return sum(len(s) for s in self.stores.values())

    def get(self, key):
        return self.stores[self.ring.lookup(key)][key]

    def owner_holds(self, key) -> bool:
        return key in self.stores.get(self.ring.lookup(key), {})


def build_dht(cls, replication_factor: int = 1, data_dir=None):
    if cls is LocalDHT:
        config = DHTConfig.for_local(pmin=4, vmin=4, replication_factor=replication_factor)
    else:
        config = DHTConfig.for_global(pmin=4, replication_factor=replication_factor)
    if data_dir is not None:
        config = config.with_(durability=DurabilityConfig(data_dir=str(data_dir)))
    dht = cls(config, rng=0)
    for snode in dht.add_snodes(INITIAL_SNODES):
        dht.set_enrollment(snode, VNODES_PER_SNODE)
    return dht


def apply_dht_event(dht, event) -> None:
    if event[0] == "join":
        snode = dht.add_snode()
        assert snode.id.value == event[1], "trace id drifted from DHT allocation"
        dht.set_enrollment(snode, VNODES_PER_SNODE)
    elif event[0] == "leave":
        dht.remove_snode(SnodeId(event[1]))
    elif event[0] == "crash":
        dht.crash_snode(SnodeId(event[1]))
    elif event[0] == "restart":
        restart_bit_for_bit(dht, SnodeId(event[1]))
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown event {event!r}")


def restart_bit_for_bit(dht, snode_id) -> None:
    """Kill -9 + restart ``snode_id``, verifying WAL replay exactness.

    For a durable DHT, every vnode of the victim must come back bit-for-bit
    identical to its pre-kill in-memory state (same keys, hash indexes and
    values) — the differential harness's core durability check.
    """
    node = dht.get_snode(snode_id)
    durable = dht.storage.durable is not None
    pre = {
        ref: dict(dht.storage._store(ref).items()) for ref in node.vnodes
    }
    report = dht.restart_snode(snode_id)
    assert report.snode == snode_id.value
    if durable:
        for ref, want in pre.items():
            got = dict(dht.storage._store(ref).items())
            assert got == want, (
                f"vnode {ref} recovered {len(got)} rows != pre-kill {len(want)}"
            )


def assert_dht_agreement(dht, expected: Dict) -> None:
    """Every key present, value correct, and stored where lookup routes it."""
    assert dht.storage.item_count() == len(expected)
    values = dht.get_many(list(expected))
    assert values == list(expected.values())
    for key in expected:
        result = dht.lookup(key)
        assert dht.storage.contains(result.vnode, key), (
            f"key {key!r} routed to {result.vnode} but not stored there"
        )


def assert_ch_agreement(ch: CHStorageModel, expected: Dict) -> None:
    assert ch.total_items() == len(expected)
    for key, value in expected.items():
        assert ch.owner_holds(key)
        assert ch.get(key) == value


class TestThreeModelDifferential:
    def test_graceful_trace_conserves_and_agrees_everywhere(self):
        keys, values = make_population()
        global_dht = build_dht(GlobalDHT)
        local_dht = build_dht(LocalDHT)
        ch = CHStorageModel(rng=0)
        for i in range(INITIAL_SNODES):
            ch.ring.add_node(f"node-{i}")
            ch.stores[f"node-{i}"] = {}

        expected: Dict = {}
        for event in GRACEFUL_TRACE:
            if event[0] == "load":
                lo, hi = event[1], event[2]
                global_dht.bulk_load(keys[lo:hi], values[lo:hi])
                local_dht.bulk_load(keys[lo:hi], values[lo:hi])
                ch.load(keys[lo:hi], values[lo:hi])
                expected.update(zip(keys[lo:hi], values[lo:hi]))
            else:
                apply_dht_event(global_dht, event)
                apply_dht_event(local_dht, event)
                if event[0] == "join":
                    ch.add_node(f"node-{event[1]}")
                else:
                    ch.remove_node(f"node-{event[1]}")
            # Conservation and lookup agreement in all three models, after
            # every single step of the trace.
            assert_dht_agreement(global_dht, expected)
            assert_dht_agreement(local_dht, expected)
            assert_ch_agreement(ch, expected)

        # Cross-model: identical surviving key populations.
        global_keys = {k for ref in global_dht.vnodes
                       for k, _ in global_dht.storage.items_of(ref)}
        local_keys = {k for ref in local_dht.vnodes
                      for k, _ in local_dht.storage.items_of(ref)}
        ch_keys = {k for store in ch.stores.values() for k in store}
        assert global_keys == local_keys == ch_keys == set(expected)

        global_dht.check_invariants()
        local_dht.check_invariants()


CRASH_TRACE = [
    ("load", 0, 400),
    ("join", 4),
    ("crash", 2),
    ("load", 400, 700),
    ("crash", 0),
    ("join", 5),
    ("load", 700, 1000),
    ("crash", 4),
]


class TestCrashDifferential:
    @pytest.mark.parametrize("factor", [2, 3])
    def test_both_approaches_survive_identical_crash_trace(self, factor):
        keys, values = make_population()
        global_dht = build_dht(GlobalDHT, replication_factor=factor)
        local_dht = build_dht(LocalDHT, replication_factor=factor)

        expected: Dict = {}
        for event in CRASH_TRACE:
            if event[0] == "load":
                lo, hi = event[1], event[2]
                global_dht.bulk_load(keys[lo:hi], values[lo:hi])
                local_dht.bulk_load(keys[lo:hi], values[lo:hi])
                expected.update(zip(keys[lo:hi], values[lo:hi]))
            else:
                apply_dht_event(global_dht, event)
                apply_dht_event(local_dht, event)
            assert_dht_agreement(global_dht, expected)
            assert_dht_agreement(local_dht, expected)
            global_dht.verify_replication(deep=True)
            local_dht.verify_replication(deep=True)

        assert global_dht.storage.item_count() == N_KEYS
        assert local_dht.storage.item_count() == N_KEYS
        global_dht.check_invariants()
        local_dht.check_invariants()


#: Kill -9/restart trace: hard restarts interleaved with loads and graceful
#: churn.  A restart loses the snode's memory but keeps its disk, so a
#: durable DHT must conserve everything even at ``replication_factor=1``.
KILL_RESTART_TRACE = [
    ("load", 0, 300),
    ("restart", 1),
    ("load", 300, 600),
    ("join", 4),
    ("restart", 0),
    ("restart", 4),
    ("load", 600, 1000),
    ("leave", 2),
    ("restart", 3),
]


class TestKillRestartDifferential:
    def test_durable_factor_one_matches_ram_replicated_reference(self, tmp_path):
        """Durable Global + Local (factor 1) vs a RAM+replication reference.

        The durable models hold a *single* copy of every item — the disk is
        the only thing standing between a kill -9 and data loss.  The
        reference holds two RAM copies and recovers restarts from replicas.
        All three must conserve and agree on every key after every event,
        and every restarted vnode must replay bit-for-bit
        (:func:`restart_bit_for_bit`).
        """
        keys, values = make_population()
        global_dht = build_dht(GlobalDHT, replication_factor=1,
                               data_dir=tmp_path / "global")
        local_dht = build_dht(LocalDHT, replication_factor=1,
                              data_dir=tmp_path / "local")
        reference = build_dht(LocalDHT, replication_factor=2)
        models = [global_dht, local_dht, reference]

        expected: Dict = {}
        for event in KILL_RESTART_TRACE:
            if event[0] == "load":
                lo, hi = event[1], event[2]
                for dht in models:
                    dht.bulk_load(keys[lo:hi], values[lo:hi])
                expected.update(zip(keys[lo:hi], values[lo:hi]))
            else:
                for dht in models:
                    apply_dht_event(dht, event)
            for dht in models:
                assert_dht_agreement(dht, expected)

        # Cross-model: identical surviving key populations (nothing lost).
        populations = [
            {k for ref in dht.vnodes for k, _ in dht.storage.items_of(ref)}
            for dht in models
        ]
        assert populations[0] == populations[1] == populations[2] == set(expected)
        for dht in models:
            assert not dht.storage.has_pending_replay()
            dht.check_invariants()
        reference.verify_replication(deep=True)

    def test_durable_and_ram_agree_under_mixed_crash_restart(self, tmp_path):
        """Factor-2 durable vs factor-2 RAM under crashes *and* restarts.

        With a surviving replica for every partition, both models must keep
        the full population through machine losses (crashes) and kill -9
        restarts alike — durability must not change the outcome, only the
        recovery source.
        """
        keys, values = make_population()
        durable = build_dht(LocalDHT, replication_factor=2,
                            data_dir=tmp_path / "durable")
        ram = build_dht(LocalDHT, replication_factor=2)

        trace = [
            ("load", 0, 300),
            ("restart", 2),
            ("join", 4),
            ("load", 300, 600),
            ("crash", 1),
            ("restart", 0),
            ("load", 600, 1000),
            ("crash", 4),
            ("restart", 3),
        ]
        expected: Dict = {}
        for event in trace:
            if event[0] == "load":
                lo, hi = event[1], event[2]
                durable.bulk_load(keys[lo:hi], values[lo:hi])
                ram.bulk_load(keys[lo:hi], values[lo:hi])
                expected.update(zip(keys[lo:hi], values[lo:hi]))
            else:
                apply_dht_event(durable, event)
                apply_dht_event(ram, event)
            assert_dht_agreement(durable, expected)
            assert_dht_agreement(ram, expected)
            durable.verify_replication(deep=True)
            ram.verify_replication(deep=True)

        assert durable.storage.item_count() == N_KEYS
        assert ram.storage.item_count() == N_KEYS
        durable.check_invariants()
        ram.check_invariants()
