"""The single trace replayer: one loop, one rule, two backends.

``repro.workloads.replay.replay`` is the only code that walks a churn trace;
``ChurnEngine`` drives it in process through ``run_sync`` and
``ClusterHarness`` awaits it over RPC.  These tests pin what having *one*
loop buys: both backends go through the same events with the same counters
and end on the same ownership map, and the stronger of the two historical
rule sets holds on each side (a ledger of acknowledged rows in process, a
check after rejected events over RPC).
"""

from __future__ import annotations

import asyncio
import warnings

import pytest

from repro.core.errors import ReproError
from repro.runtime.harness import ClusterHarness
from repro.utils.coro import run_sync
from repro.workloads.churn import ChurnEngine, ChurnEvent, ChurnSpec


def _spec(**overrides):
    base = dict(
        name="replay-test",
        workload="zipf",
        n_keys=3000,
        n_events=8,
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


def _served(spec, trace, read_back=()):
    """Replay over a served cluster: ``(report, final twin ownership, values)``,
    where ``values`` are the ``read_back`` keys read through the client."""

    async def scenario():
        async with ClusterHarness(spec, trace=trace) as harness:
            report = await harness.run(oracle=False)
            values = [await harness.client.get(key) for key in read_back]
            return report, list(harness.twin.topology.iter_ownership()), values

    return asyncio.run(scenario())


class TestOneReplayerTwoBackends:
    def test_every_topology_kind_agrees_across_backends(self):
        spec = _spec()
        trace = [
            ChurnEvent("load", lo=0, hi=2000),
            ChurnEvent("lookup", hi=2000, n_reads=30),
            ChurnEvent("snode_join", snode=4, vnodes=2),
            ChurnEvent("enrollment_change", snode=1, vnodes=3),
            ChurnEvent("rebalance"),
            ChurnEvent("load", lo=2000, hi=3000),
            ChurnEvent("snode_crash", snode=2),
            ChurnEvent("snode_restart", snode=0),
            ChurnEvent("snode_leave", snode=3),
            ChurnEvent("lookup", hi=3000, n_reads=30),
        ]
        engine = ChurnEngine(spec, trace)
        dht = engine.build_dht()
        local = engine.run(dht)
        # Every loaded key, so a move of the right number of wrong rows shows.
        keys = spec.make_keys().tolist()
        served, served_ownership, served_values = _served(spec, trace, keys)

        assert [(o.kind, o.applied) for o in local.outcomes] == [
            (o.kind, o.applied) for o in served.events
        ]
        assert local.events_applied == served.applied == 6
        assert (local.keys_loaded, local.lookups_issued) == (served.loaded, served.lookups)
        assert local.items_lost == served.items_lost == 0
        assert local.conservation_checks == served.conservation_checks == 6
        assert list(dht.topology.iter_ownership()) == served_ownership
        assert served_values == dht.get_many(keys)


class TestTheOneRule:
    def test_acknowledged_but_dropped_rows_are_caught_at_the_next_event(self):
        """The ledger counts what ``load`` acknowledged, so a bulk load that
        drops rows is caught by the next topology event's check — not only
        by the deep recount at the end of a ``deep_verify`` run."""
        spec = _spec(workload="ids", n_keys=400, replication_factor=1)
        trace = [
            ChurnEvent("load", lo=0, hi=400),
            ChurnEvent("snode_join", snode=4, vnodes=2),
        ]
        engine = ChurnEngine(spec, trace)
        dht = engine.build_dht()
        stored = dht.bulk_load
        dht.bulk_load = lambda chunk: stored(chunk[:-3]) + 3
        with pytest.raises(ReproError, match="conservation"):
            engine.run(dht, deep_verify=False)

    def test_served_cluster_checks_model_rejected_events_too(self):
        """The local model refuses to remove a group's last vnode — after
        draining the snode's other vnodes.  The served cluster must follow
        the twin through that partial change and still conserve rows and
        agree with its replicas."""
        spec = _spec(
            workload="ids", n_keys=600, vnodes_per_snode=3, pmin=4, vmin=2, seed=3
        )
        trace = [
            ChurnEvent("load", lo=0, hi=600),
            ChurnEvent("snode_join", snode=4, vnodes=3),
            ChurnEvent("snode_leave", snode=0),
            ChurnEvent("snode_leave", snode=4),
            ChurnEvent("lookup", hi=600, n_reads=20),
        ]
        report, _ownership, _values = _served(spec, trace)
        assert [e.applied for e in report.events] == [True, True, True, False, True]
        assert (report.applied, report.skipped) == (2, 1)
        assert report.conservation_checks == 3
        assert report.items_lost == 0
        assert report.lookups == 20
        assert report.events[3].note.startswith("skipped: cannot remove vnode")


class TestRunSync:
    def test_returns_the_value(self):
        async def answer():
            return 42

        assert run_sync(answer()) == 42

    def test_propagates_exceptions(self):
        async def boom():
            raise KeyError("nope")

        with pytest.raises(KeyError, match="nope"):
            run_sync(boom())

    def test_works_inside_a_running_loop(self):
        async def inner():
            return "inline"

        async def outer():
            return run_sync(inner())

        assert asyncio.run(outer()) == "inline"

    def test_a_coroutine_that_suspends_is_closed_and_rejected(self):
        closed = []

        async def suspends():
            try:
                await asyncio.sleep(0)
            finally:
                closed.append(True)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "coroutine ... was never awaited"
            with pytest.raises(RuntimeError, match="suspended"):
                run_sync(suspends())
        assert closed == [True]
