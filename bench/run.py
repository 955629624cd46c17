#!/usr/bin/env python3
"""One command for the whole benchmark.

    python3 bench/run.py --workload rpc_point --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 [--trace] [--scale smoke] [--out FILE]
    python3 bench/run.py --print-budget

A single-workload run prints every metric by name with its unit, checks the
outputs, and ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``); it exits non-zero when any check failed.  ``--all`` runs each
workload in a fresh Python process.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List

_STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

try:
    import numpy  # noqa: F401  (import cost belongs to setup_s)
    import repro  # noqa: F401
    from bench import spec
    from bench.engine_shape import EngineShape
    from bench.measure import (
        Recorder, aggregate, exact_repeat_failures, peak_rss_mb, provenance,
    )
    from bench.rpc_shape import RpcShape
except ImportError as exc:  # a checkout without src/: nothing to measure
    print(f"bench: cannot import the system under test: {exc}", file=sys.stderr)
    sys.exit(2)
if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    print(f"bench: 'repro' resolves to {repro.__file__}, not to this checkout", file=sys.stderr)
    sys.exit(2)
_IMPORT_S = time.perf_counter() - _STARTED

SCHEMA = "dhtbench/2"
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
MIN_TIMED_CYCLES = 4
MAX_TIMED_CYCLES = 12
SETUP_REPEATS = 3
REFERENCE_CYCLES = 3


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


@contextmanager
def _scratch_dir(label: str) -> Iterator[str]:
    """``.bench_tmp/<label>.<pid>`` in the checkout, gone when the run ends.

    The driver lets a run write nowhere but inside its checkout, so durable
    data dirs cannot go to the system temp dir.  Directories a killed run
    left behind are swept by the next run.
    """
    os.makedirs(TMP_ROOT, exist_ok=True)
    for name in os.listdir(TMP_ROOT):
        pid = name.rpartition(".")[2]
        if pid.isdigit() and not _alive(int(pid)):
            shutil.rmtree(os.path.join(TMP_ROOT, name), ignore_errors=True)
    path = os.path.join(TMP_ROOT, f"{label}.{os.getpid()}")
    os.mkdir(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run is using it


def make_shape(w: spec.Workload, seed: int, rec: Recorder, tmp_root: str,
               inject_fault: bool = False):
    shape_cls = EngineShape if w.shape == "engine" else RpcShape
    return shape_cls(w, seed, rec, tmp_root, inject_fault=inject_fault)


def cycle_count(seconds: float, first_s: float, traced: bool) -> int:
    """How many timed cycles (the first included) fit in ``seconds``."""
    first_s = max(first_s, 1e-3)
    if traced:
        # Untraced and traced cycles alternate so trace_overhead compares like
        # with like; the rest of the budget goes to the layer replay.
        return 2 * max(1, min(MAX_TIMED_CYCLES // 2, int(seconds * 0.55 / (2 * first_s))))
    return max(MIN_TIMED_CYCLES, min(MAX_TIMED_CYCLES, int(seconds / first_s)))


def reference_values(needed: List[str], seed: int, rec: Recorder, tmp_root: str) -> dict:
    """The driver's line must carry every bounded metric on every workload.

    A metric this workload does not own is taken from the workload that does
    (the first one in ``spec.OWNERS``): the same cycles, at smoke scale, run
    after this workload's own cycles and memory reading so they cannot touch
    them.  These values go to the driver's line and to the ``reference``
    section of the result; no tool of the benchmark compares them.
    """
    values, cycles = {}, []
    for owner in spec.WORKLOAD_NAMES:
        names = [n for n in needed if spec.OWNERS[n][0] == owner]
        if not names:
            continue
        shape = make_shape(spec.workload(owner, "smoke"), seed, rec, tmp_root)
        mine = [shape.cycle(last=False) for _ in range(REFERENCE_CYCLES)]
        measured = aggregate(mine)["values"]
        values.update({
            n: {"value": measured[n], "unit": spec.declared().e2e[n].unit, "from": owner}
            for n in names
        })
        cycles.extend(mine)
    return {"values": values, "cycles": cycles}


def run_workload(args: argparse.Namespace) -> dict:
    """Warm-up, timed cycles on fresh state, aggregation, checks."""
    w = spec.workload(args.workload, args.scale)
    traced = bool(args.trace)
    rec = Recorder(enabled=False)
    owned = [name for name, owners in spec.OWNERS.items() if w.name in owners]
    with _scratch_dir(w.name) as tmp_root:
        # Input generation is the larger part of set-up and happens once per
        # run; generate it a few times so setup_s carries a median, not a sample.
        generate_s = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            shape = make_shape(w, args.seed, rec, tmp_root, inject_fault=args.inject_fault)
            generate_s.append(time.perf_counter() - started)
        once_s = _IMPORT_S + statistics.median(generate_s)
        # Discarded warm-up: one cycle of the same phases at smoke scale takes
        # the first-call paths (lazy imports, numpy dispatch, socket set-up)
        # out of the first timed cycle at a twentieth of a full cycle's cost.
        # Of a topology trace it replays the first three events only: replay
        # cost is per partition, not per row, so a whole trace costs 5 s even
        # at smoke scale, and the later events re-enter the same code.
        wall = {"setup": time.perf_counter() - _STARTED}
        started = time.perf_counter()
        small = spec.workload(w.name, "smoke")
        small = replace(small, trace=small.trace[:3])
        make_shape(small, args.seed, rec, tmp_root).cycle(last=False)
        wall["warm_up"] = time.perf_counter() - started
        cycles: list = []
        n = 2
        while len(cycles) < n:
            i = len(cycles)
            rec.enabled, rec.cycle = traced and i % 2 == 1, i
            started = time.perf_counter()
            cycles.append(shape.cycle(last=(i == n - 1)))
            if i == 0:
                n = cycle_count(args.seconds, time.perf_counter() - started, traced)
        rec.enabled = False
        wall["cycles"] = time.perf_counter() - _STARTED - wall["setup"] - wall["warm_up"]
        # End-to-end numbers only ever come from untraced cycles.
        untraced = cycles[0::2] if traced else cycles
        result = aggregate(untraced)
        values = result["values"]
        values["setup_s"] += once_s
        values["peak_rss_mb"] = peak_rss_mb()
        drifted = exact_repeat_failures(cycles)
        reference: dict = {"values": {}, "cycles": []}
        per_layer: dict = {}
        if traced:
            # Imported here so an untraced run's setup_s does not pay for it.
            from bench.replay import per_layer_metrics

            per_layer = per_layer_metrics(w, args.seed, tmp_root, cycles)
        else:
            del shape  # the reference cycles run in a process that holds no full-scale inputs
            reference = reference_values(
                [n for n in spec.declared().driver_e2e if n not in owned], args.seed, rec, tmp_root
            )
        wall["replay_or_reference"] = time.perf_counter() - _STARTED - sum(wall.values())
    checked = cycles + reference["cycles"]
    failures = [f for c in checked for f in c.failures] + drifted
    failed = sum(c.failed for c in checked) + len(drifted)
    attempted = max(1, sum(c.attempted for c in checked))
    values["failed_share"] = failed / attempted
    if traced:
        # The end-to-end metrics the driver's own list cannot carry ride in
        # its per-layer list; a workload that does not own one reports 0.
        per_layer.update({
            name: (values[name] or 0.0) if name in owned else 0.0 for name in spec.TOOL_BOUNDS
        })
    doc = {
        "schema": SCHEMA,
        "provenance": provenance(w, args.seed, args.scale, args.seconds, traced),
        "samples": dict(result["samples"], wall_s={k: round(v, 3) for k, v in wall.items()}),
        "attempted": attempted,
        "failed": failed,
        "correct": not failures and failed == 0,
        "failures": failures,
        "end_to_end": {} if traced else {
            name: {"value": values[name], "unit": spec.declared().e2e[name].unit} for name in owned
        },
        "reference": reference["values"],
        "per_layer": {
            name: {"value": value, "unit": spec.declared().per_layer[name].unit}
            for name, value in per_layer.items()
        },
        "exact": cycles[0].exact,
        "spans": rec.spans,
    }
    validate(doc)
    return doc


def validate(doc: dict) -> None:
    """Every name is declared, and every declared name of this mode is present."""
    name = doc["provenance"]["workload"]
    if doc["provenance"]["traced"]:
        problems = set(doc["per_layer"]) ^ set(spec.declared().per_layer)
    else:
        owned = {n for n, owners in spec.OWNERS.items() if name in owners}
        problems = (set(doc["end_to_end"]) ^ owned) | (
            set(doc["reference"]) ^ (set(spec.declared().driver_e2e) - owned)
        )
    if problems:
        raise ValueError(f"undeclared or missing metric names: {sorted(problems)}")
    for section in ("end_to_end", "reference", "per_layer"):
        for metric, entry in doc[section].items():
            if not isinstance(entry["value"], (int, float)):
                raise ValueError(f"{metric} was not measured")


def contract_line(doc: dict) -> str:
    """The driver's last line: bounded end-to-end metrics, or per-layer when traced."""
    if doc["provenance"]["traced"]:
        metrics = doc["per_layer"]
    else:
        measured = {**doc["reference"], **doc["end_to_end"]}
        metrics = {
            name: {"value": measured[name]["value"], "unit": measured[name]["unit"]}
            for name in spec.declared().driver_e2e
        }
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    })


def print_doc(doc: dict) -> None:
    p = doc["provenance"]
    print(f"# {p['workload']}  seed={p['seed']} scale={p['scale']} cycles={doc['samples']['cycles']} "
          f"traced={p['traced']} commit={p['git_commit'][:12]} python={p['python']} "
          f"numpy={p['numpy']} nproc={p['nproc']} fsync={p['fsync']} clients={p['clients']}")
    print(f"# samples: {doc['samples']}")
    for section in ("end_to_end", "per_layer"):
        for name, entry in doc[section].items():
            print(f"{name:52s} {entry['value']:>18.6f} {entry['unit']}")
    for name, entry in doc["reference"].items():
        print(f"{name:52s} {entry['value']:>18.6f} {entry['unit']}"
              f"  (reference: {entry['from']} at smoke scale)")
    for failure in doc["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(f"# attempted={doc['attempted']} failed={doc['failed']} correct={doc['correct']}")


def write_runs(path: str, runs: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "runs": runs}, fh, indent=1)
        fh.write("\n")


def write_out(path: str, doc: dict) -> None:
    """The result document, and the spans (if any) as JSONL beside it."""
    write_runs(path, [{k: v for k, v in doc.items() if k != "spans"}])
    if doc["spans"]:
        workload = doc["provenance"]["workload"]
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in doc["spans"]:
                fh.write(json.dumps(dict(span, workload=workload)) + "\n")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter; exit non-zero if any run failed."""
    status, docs = 0, []
    if args.out and os.path.exists(args.out + ".spans.jsonl"):
        os.remove(args.out + ".spans.jsonl")
    with _scratch_dir("all") as tmp:
        for name in spec.WORKLOAD_NAMES:
            out = os.path.join(tmp, f"{name}.json")
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scale", args.scale, "--trace", str(args.trace), "--out", out,
            ] + (["--inject-fault"] if args.inject_fault else [])
            child = subprocess.run(command)
            status = status or child.returncode
            if os.path.exists(out):
                with open(out, "r", encoding="utf-8") as fh:
                    docs.extend(json.load(fh)["runs"])
                spans = out + ".spans.jsonl"
                if os.path.exists(spans) and args.out:
                    with open(spans) as src, open(args.out + ".spans.jsonl", "a") as dst:
                        shutil.copyfileobj(src, dst)
    if args.out:
        write_runs(args.out, docs)
    return status


def print_budget(path: str) -> None:
    """Render the per-layer budget table of a result file (default: the baseline)."""
    with open(path, "r", encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    by_workload: dict = {}
    for run in runs:
        layers = {n: e for n, e in run["per_layer"].items() if n in spec.TARGETS}
        by_workload.setdefault(run["provenance"]["workload"], {}).update(
            {**run["end_to_end"], **layers}
        )
    names = list(by_workload)
    print(f"baseline {path}: commit {runs[0]['provenance']['git_commit'][:12]}, "
          f"{runs[0]['provenance']['host']}, nproc {runs[0]['provenance']['nproc']}\n")
    header = f"| {'metric':46s} | {'unit':7s} | " + " | ".join(f"{n:>20s}" for n in names)
    rule = "|" + "-" * 48 + "|" + "-" * 9 + "|" + "|".join("-" * 22 for _ in names) + "|"

    def row(name: str, unit: str, starred: str = "") -> str:
        cells = []
        for n in names:
            entry = by_workload[n].get(name)
            text = "" if entry is None else f"{entry['value']:.6g}"
            cells.append(f"{text + ('*' if n == starred and text else ''):>20s}")
        return f"| {name:46s} | {unit:7s} | " + " | ".join(cells)

    print("End to end (a workload reports the metrics it owns)\n")
    print(header + " |\n" + rule)
    for m in spec.declared().e2e.values():
        print(row(m.name, m.unit) + " |")
    print("\nPer layer (* = the workload on which the layer's target metric should move)\n")
    print(header + " | moves | how it is measured\n" + rule)
    for m in spec.declared().per_layer.values():
        if m.name in spec.TARGETS:
            target, where, how = spec.TARGETS[m.name]
            print(row(m.name, m.unit, where) + f" | {target} | {how}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, default=1, help="shapes the generated inputs only")
    parser.add_argument("--seconds", type=float, default=spec.declared().run_seconds,
                        help="time budget of the timed cycles")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: record spans and report the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="write the result document (and FILE.spans.jsonl) here")
    parser.add_argument("--print-budget", nargs="?", const=os.path.join(ROOT, "bench", "baseline.json"),
                        metavar="FILE", help="render the budget table of a result file")
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: corrupt one read-back value; the run must fail")
    args = parser.parse_args(argv)

    if args.print_budget:
        print_budget(args.print_budget)
        return 0
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("one of --workload, --all, --print-budget is required")
    doc = run_workload(args)
    print_doc(doc)
    if args.out:
        write_out(args.out, doc)
    print(contract_line(doc))
    return 0 if doc["correct"] else 1


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The pools and servers of a run are closed where they are used.  What would
    outlive the run is multiprocessing's resource tracker, which the shared
    memory of the ``parallel`` replay starts: it ends only when its pipe closes,
    that is as this process dies, and nobody is left to wait for it.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # the tracker's main() returns on EOF
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
