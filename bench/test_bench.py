"""Self-test of the benchmark (``python -m pytest bench -q``; not tier-1).

Runs every workload at ``--scale smoke`` with and without tracing, checks the
result schema and the declarations, that a corrupted read-back fails the
command, that a run writes only under ``.bench_tmp/`` in the checkout and
leaves nothing behind, and that a checkout without ``src/`` exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import compare, spec

RUN = os.path.join(spec.ROOT, "bench", "run.py")
IGNORED_DIRS = {"__pycache__", ".pytest_cache", ".hypothesis", ".git"}


def _tree() -> set:
    found = set()
    for directory, dirs, names in os.walk(spec.ROOT):
        dirs[:] = [d for d in dirs if d not in IGNORED_DIRS]
        found.update(os.path.join(directory, name) for name in names)
    return found


def _run(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=spec.ROOT, capture_output=True, text=True,
        timeout=300, env=env,
    )


def _owned(name: str) -> set:
    return {metric for metric, owners in spec.OWNERS.items() if name in owners}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run per (workload, trace), plus the tree before any of them."""
    before = _tree()
    out_dir = tmp_path_factory.mktemp("bench-out")
    runs = {}
    for name in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            out = str(out_dir / f"{name}.{trace}.json")
            done = _run("--workload", name, "--scale", "smoke", "--seconds", "1",
                        "--seed", "3", "--trace", str(trace), "--out", out)
            runs[name, trace] = (done, out)
    return before, runs


def test_benchmark_json_meets_the_contract():
    doc = spec.declared().document
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["command"] == ["python3", "bench/run.py"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(spec.NAME_RE.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert os.path.getsize(spec.BENCHMARK_JSON) <= 64 * 1024


def test_the_fifteen_end_to_end_metrics_are_declared_with_owners():
    assert len(spec.declared().e2e) == 15
    for metric in spec.declared().e2e.values():
        assert metric.bound is not None and metric.better in ("lower", "higher")
        assert set(spec.OWNERS[metric.name]) <= set(spec.WORKLOAD_NAMES)
    assert all(_owned(name) for name in spec.WORKLOAD_NAMES)


def test_every_per_layer_metric_names_a_declared_target():
    for name, (target, where, _how) in spec.TARGETS.items():
        assert name in spec.declared().per_layer, name
        assert target in spec.declared().e2e, name
        assert where in spec.OWNERS[target], name


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_smoke_run_schema(smoke, name, trace):
    _before, runs = smoke
    done, out = runs[name, trace]
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = (
        {m.name: m.unit for m in spec.declared().per_layer.values()}
        if trace
        else {n: spec.declared().e2e[n].unit for n in spec.declared().driver_e2e}
    )
    assert {n: e["unit"] for n, e in line["metrics"].items()} == declared
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())

    with open(out, "r", encoding="utf-8") as fh:
        (doc,) = json.load(fh)["runs"]
    assert doc["schema"] == "dhtbench/2" and doc["correct"] and not doc["failures"]
    provenance = doc["provenance"]
    assert provenance["workload"] == name and provenance["seed"] == 3
    for key in ("scale", "git_commit", "python", "numpy", "nproc", "host", "fsync", "loop",
                "clients", "traced"):
        assert key in provenance
    assert {"cycles", "get_latencies", "put_latencies"} <= set(doc["samples"])
    assert doc["samples"]["cycles"] >= (1 if trace else 4)  # untraced cycles
    if trace:
        assert not doc["end_to_end"] and not doc["reference"]
        assert os.path.getsize(out + ".spans.jsonl") > 0
        with open(out + ".spans.jsonl", "r", encoding="utf-8") as fh:
            span = json.loads(fh.readline())
        assert {"name", "start", "end", "parent", "cycle"} <= set(span)
    else:
        # A workload reports the metrics it owns; the rest of the driver's
        # list is filled from the owning workload and kept apart.
        assert set(doc["end_to_end"]) == _owned(name)
        assert set(doc["reference"]) == set(spec.declared().driver_e2e) - _owned(name)
        assert all(entry["from"] != name for entry in doc["reference"].values())
        assert doc["end_to_end"]["failed_share"]["value"] == 0
        nonzero = _owned(name) - {"failed_share"}
        assert all(doc["end_to_end"][metric]["value"] > 0 for metric in nonzero)


def test_corrupted_read_back_fails_the_command(smoke):
    done = _run("--workload", spec.RPC_POINT, "--scale", "smoke", "--seconds", "1",
                "--inject-fault")
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
    assert "FAILED CHECK" in done.stdout
    done = _run("--workload", spec.ENGINE_BATCH, "--scale", "smoke", "--seconds", "1",
                "--inject-fault")
    assert done.returncode != 0


def test_undeclared_or_missing_metric_is_an_error():
    from bench import run

    owned = _owned(spec.RPC_POINT)
    doc = {"provenance": {"traced": False, "workload": spec.RPC_POINT},
           "end_to_end": {name: {"value": 1.0} for name in owned},
           "reference": {name: {"value": 1.0} for name in set(spec.declared().driver_e2e) - owned},
           "per_layer": {}}
    run.validate(doc)
    doc["end_to_end"]["made_up_metric"] = {"value": 1.0}
    with pytest.raises(ValueError):
        run.validate(doc)
    del doc["end_to_end"]["made_up_metric"], doc["end_to_end"]["setup_s"]
    with pytest.raises(ValueError):
        run.validate(doc)
    doc["end_to_end"]["setup_s"] = {"value": None}
    with pytest.raises(ValueError):
        run.validate(doc)


def _result_file(path, runs, correct=True):
    docs = [
        {"provenance": {"workload": spec.RPC_POINT, "traced": False}, "correct": correct,
         "end_to_end": {name: {"value": v, "unit": "x"} for name, v in run.items()}}
        for run in runs
    ]
    path.write_text(json.dumps({"schema": "dhtbench/2", "runs": docs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", [
        {"get_us_p50": 100.0, "ops_per_s": 1000.0, "put_us_p50": 300.0, "failed_share": 0.0},
        {"get_us_p50": 102.0, "ops_per_s": 1010.0, "put_us_p50": 200.0, "failed_share": 0.0},
    ])
    change = _result_file(tmp_path / "b.json", [
        {"get_us_p50": 140.0, "ops_per_s": 1300.0, "put_us_p50": 250.0, "failed_share": 0.0},
    ])
    assert compare.main([base, change]) == 1
    text = capsys.readouterr().out
    rows = {line.split()[1]: line for line in text.splitlines()[1:]}
    assert "worse" in rows["get_us_p50"] and "better" in rows["ops_per_s"]
    assert "unresolved" in rows["put_us_p50"] and "same" in rows["failed_share"]
    assert compare.main(["--base", base, "--change", base]) == 0
    failing = _result_file(tmp_path / "c.json", [{"failed_share": 0.01}])
    assert compare.main([base, failing]) == 1


def test_compare_fails_on_a_missing_pair_or_an_incorrect_run(tmp_path, capsys):
    steady = {"get_us_p50": 100.0, "ops_per_s": 1000.0, "failed_share": 0.0}
    base = _result_file(tmp_path / "a.json", [steady])
    dropped = _result_file(tmp_path / "b.json", [{"get_us_p50": 100.0, "failed_share": 0.0}])
    assert compare.main([base, dropped]) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "missing" in rows["ops_per_s"] and "worse" in rows["ops_per_s"]
    assert "same" in rows["get_us_p50"]
    crashed = tmp_path / "c.json"  # the workload wrote no result at all
    crashed.write_text(json.dumps({"schema": "dhtbench/2", "runs": []}))
    assert compare.main([base, str(crashed)]) == 1
    incorrect = _result_file(tmp_path / "d.json", [steady], correct=False)
    assert compare.main([base, incorrect]) == 1
    assert "checks failed" in capsys.readouterr().out


def test_checkout_without_the_system_exits_non_zero(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(spec.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", spec.ENGINE_BATCH, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_no_process_outlives_a_run():
    """The ``parallel`` replay of a traced engine_batch run starts worker
    processes and multiprocessing's resource tracker; none may be left,
    not even as a zombie, once the command has returned."""
    done = subprocess.Popen(
        [sys.executable, RUN, "--workload", spec.ENGINE_BATCH, "--scale", "smoke",
         "--seconds", "1", "--trace", "1"],
        cwd=spec.ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert done.wait(timeout=300) == 0
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == done.pid:  # session id: the run led its own session
            left.append((pid, fields[0]))
    assert left == []


def test_nothing_left_in_the_repository_tree(smoke):
    before, _runs = smoke
    assert _tree() - before == set()


def test_a_run_writes_only_under_bench_tmp_in_the_checkout(tmp_path):
    """The driver allows writes nowhere but inside the checkout: a durable run
    must leave the system temp dir alone, and sweep what a killed run left."""
    from bench import run

    system_tmp = tmp_path / "system-tmp"
    system_tmp.mkdir()
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    stale = os.path.join(run.TMP_ROOT, f"{spec.ENGINE_CHURN}.{dead.pid}")
    os.makedirs(os.path.join(stale, "engine-left-behind"))
    done = _run("--workload", spec.ENGINE_CHURN, "--scale", "smoke", "--seconds", "1",
                env=dict(os.environ, TMPDIR=str(system_tmp)))
    assert done.returncode == 0, done.stderr[-2000:]
    assert os.listdir(system_tmp) == []
    assert not os.path.exists(run.TMP_ROOT)
