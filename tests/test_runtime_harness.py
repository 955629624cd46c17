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

import pytest

from repro.runtime.harness import ClusterHarness
from repro.workloads.churn import ChurnEvent, ChurnSpec


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
