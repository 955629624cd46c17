"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import load_result


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert experiment_id in out


class TestRun:
    def test_run_small_experiment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_VNODES", "64")
        assert main(["run", "fig4", "--runs", "1", "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "(Pmin,Vmin)=(8,8)" in out

    def test_run_writes_output_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_VNODES", "64")
        output = tmp_path / "fig4.json"
        assert main(["run", "fig4", "--runs", "1", "--no-chart", "--output", str(output)]) == 0
        result = load_result(output)
        assert result.experiment_id == "fig4"

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_experiment_without_runs_kwarg(self, capsys):
        # ablation_parallelism does not accept 'runs'; the CLI retries without it.
        assert main(["run", "ablation_parallelism", "--runs", "2", "--no-chart"]) == 0
        assert "makespan" in capsys.readouterr().out


class TestDemo:
    def test_demo_local(self, capsys):
        assert main(["demo", "--vnodes", "16", "--snodes", "2", "--pmin", "4",
                     "--vmin", "4", "--items", "50"]) == 0
        out = capsys.readouterr().out
        assert "sigma_qv" in out
        assert "quota %" in out

    def test_demo_global(self, capsys):
        assert main(["demo", "--approach", "global", "--vnodes", "8", "--pmin", "4",
                     "--items", "10"]) == 0
        out = capsys.readouterr().out
        assert "global" in out


class TestChurnBench:
    def test_small_run_reports_conservation(self, capsys):
        assert main(["churn-bench", "--keys", "3000", "--events", "10"]) == 0
        out = capsys.readouterr().out
        assert "conservation checks" in out
        assert "10 passed" in out
        assert "3,000" in out

    def test_writes_json_report(self, capsys, tmp_path):
        path = tmp_path / "churn.json"
        assert main(
            ["churn-bench", "--keys", "2000", "--events", "8", "--approach", "global",
             "--output", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["final_items"] == 2000
        assert report["keys_loaded"] == 2000
        assert report["conservation_checks"] == 8
        assert report["approach"] == "global"
        assert len(report["events"]) >= 8

    def test_invalid_spec_fails_cleanly(self, capsys):
        assert main(["churn-bench", "--keys", "0"]) == 2
        assert "churn-bench" in capsys.readouterr().err

    def test_parser_defaults_meet_acceptance_scale(self):
        args = build_parser().parse_args(["churn-bench"])
        assert args.keys >= 100_000
        assert args.events >= 64

    def test_rebalance_rate_mixes_rebalance_events(self, capsys, tmp_path):
        path = tmp_path / "churn.json"
        assert main(
            ["churn-bench", "--keys", "2000", "--events", "12",
             "--rebalance-rate", "0.4", "--output", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["rebalances"] > 0
        assert report["final_items"] == 2000
        assert "sigma_items_snode" in report

    def test_bad_rebalance_rate_fails_cleanly(self, capsys):
        assert main(["churn-bench", "--rebalance-rate", "1.5"]) == 2
        assert "rebalance-rate" in capsys.readouterr().err
        assert main(["churn-bench", "--crash-rate", "0.6",
                     "--rebalance-rate", "0.5"]) == 2


    def test_durable_crash_restart_run_loses_nothing(self, capsys, tmp_path):
        path = tmp_path / "durable.json"
        assert main(
            ["churn-bench", "--keys", "3000", "--events", "16", "--durable",
             "--replication", "2", "--crash-rate", "0.25", "--restart-rate", "0.25",
             "--output", str(path)]
        ) == 0
        report = json.loads(path.read_text())
        assert report["restarts"] > 0 and report["crashes"] > 0
        assert report["items_lost"] == 0
        assert report["final_items"] == 3000
        assert any("replayed" in event["note"] for event in report["events"])


class TestClusterBench:
    def test_zipf_churn_over_rpc_conserves_items(self, capsys, tmp_path):
        path = tmp_path / "cluster.json"
        assert main(
            ["cluster-bench", "--keys", "3000", "--events", "8", "--snodes", "4",
             "--replication", "2", "--workload", "zipf", "--crash-rate", "0.2",
             "--rebalance-rate", "0.3", "--seed", "3", "--output", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "in-process" in out
        assert "items lost" in out
        report = json.loads(path.read_text())
        assert report["items_lost"] == 0
        assert report["loaded"] == 3000
        assert report["rebalances"]
        assert report["conservation_checks"] > 0

    def test_invalid_rates_fail_cleanly(self, capsys):
        assert main(["cluster-bench", "--restart-rate", "1.5"]) == 2
        assert "cluster-bench" in capsys.readouterr().err


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.approach == "local"
        assert args.vnodes == 32

    # The three *-bench commands share one flag block with per-command
    # defaults: each keeps exactly its own flags (protocol-bench has no
    # --restart-rate), defaults and choices.
    BENCH_DEFAULTS = {
        "churn-bench": dict(
            keys=100_000, events=64, approach="local", workload="ids", snodes=8,
            vnodes_per_snode=4, pmin=8, vmin=8, replication=1, crash_rate=0.0,
            rebalance_rate=0.0, restart_rate=0.0, durable=False, seed=0, output=None,
        ),
        "protocol-bench": dict(
            keys=5_000, events=32, approach="both", workload="ids", snodes=12,
            vnodes_per_snode=4, min_snodes=4, max_snodes=32, pmin=8, vmin=4,
            replication=2, crash_rate=0.2, rebalance_rate=0.1, batch_size=8,
            gap=0.02, seed=0, output=None,
        ),
        "cluster-bench": dict(
            keys=10_000, events=12, approach="local", workload="ids",
            zipf_exponent=1.1, snodes=3, vnodes_per_snode=2, pmin=8, vmin=8,
            replication=2, crash_rate=0.0, restart_rate=0.0, rebalance_rate=0.0,
            read_multiplier=0.1, processes=False, durable=False, no_oracle=False,
            seed=0, output=None,
        ),
    }
    BENCH_CHOICES = {
        "churn-bench": (("local", "global"), ("ids", "uniform")),
        "protocol-bench": (("both", "local", "global"), ("ids", "uniform")),
        "cluster-bench": (("local", "global"), ("ids", "uniform", "zipf")),
    }

    @pytest.mark.parametrize("command", sorted(BENCH_DEFAULTS))
    def test_bench_flags_and_defaults(self, command):
        args = vars(build_parser().parse_args([command]))
        assert args.pop("command") == command
        assert args == self.BENCH_DEFAULTS[command]
        approaches, workloads = self.BENCH_CHOICES[command]
        for approach in ("both", "local", "global"):
            argv = [command, "--approach", approach]
            if approach in approaches:
                assert build_parser().parse_args(argv).approach == approach
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)
        for workload in ("ids", "uniform", "zipf"):
            argv = [command, "--workload", workload]
            if workload in workloads:
                assert build_parser().parse_args(argv).workload == workload
            else:
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)


class TestProtocolBench:
    def test_protocol_bench_both_approaches(self, capsys, tmp_path):
        path = tmp_path / "protocol.json"
        assert main(
            ["protocol-bench", "--keys", "1500", "--events", "12", "--snodes", "6",
             "--batch-size", "4", "--seed", "2", "--output", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "local finishes the churn burst" in out
        assert "snode_join" in out
        payload = json.loads(path.read_text())
        assert set(payload["results"]) == {"local", "global"}
        assert payload["makespan_speedup_local_over_global"] > 0
        for stats in payload["results"].values():
            assert stats["per_kind"]
            assert stats["makespan_s"] > 0

    def test_protocol_bench_single_approach(self, capsys):
        assert main(
            ["protocol-bench", "--keys", "1000", "--events", "8", "--snodes", "5",
             "--approach", "global", "--replication", "1", "--crash-rate", "0",
             "--rebalance-rate", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "global" in out
        assert "faster than global" not in out

    def test_protocol_bench_rejects_bad_rates(self, capsys):
        assert main(["protocol-bench", "--crash-rate", "1.5"]) == 2
        assert "protocol-bench" in capsys.readouterr().err
        assert main(["protocol-bench", "--batch-size", "0"]) == 2
        assert main(["protocol-bench", "--gap", "-1"]) == 2
        assert main(["protocol-bench", "--crash-rate", "0.7",
                     "--rebalance-rate", "0.5"]) == 2
