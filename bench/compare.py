#!/usr/bin/env python3
"""Compare two sets of benchmark result files, one row per (metric, workload).

    python3 bench/compare.py BASE.json CHANGE.json
    python3 bench/compare.py --base B1.json B2.json --change C1.json C2.json

Each row gives both medians, the ratio with its base, the metric's bound and
a verdict: ``better`` / ``same`` / ``worse``, or ``unresolved`` when the runs
of one side differ among themselves by more than the bound.  A pair the base
measured and the change did not (a crashed workload, a dropped metric) is
``worse``, and so is every pair of a workload with a run whose checks failed.
The tool alternates nothing itself: run parent and change in alternation, then
pass each side's files.  Exits non-zero on any ``worse`` or on a larger
``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Set, Tuple

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import spec  # noqa: E402

Key = Tuple[str, str]  # (workload, metric)


def load(paths: List[str]) -> Tuple[Dict[Key, List[float]], Set[str]]:
    """End-to-end values of every untraced run in ``paths``, and the workloads
    with a run whose correctness checks failed."""
    values: Dict[Key, List[float]] = {}
    incorrect: Set[str] = set()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for run in json.load(fh)["runs"]:
                workload = run["provenance"]["workload"]
                if run["provenance"]["traced"]:
                    continue
                if not run["correct"]:
                    incorrect.add(workload)
                for name, entry in run["end_to_end"].items():
                    if name not in spec.OWNERS:
                        raise ValueError(f"{path}: undeclared metric {name!r}")
                    values.setdefault((workload, name), []).append(entry["value"])
    return values, incorrect


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median (0 for a single run)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def verdict(metric: spec.Metric, base: List[float], change: List[float]) -> str:
    b, c = statistics.median(base), statistics.median(change)
    if metric.name == "failed_share":
        return "worse" if c > b else "same"
    if b == 0:
        return "same" if c == 0 else "unresolved"
    # Worsening as a share of the base median; > 0 is worse.
    worsening = (c - b) / b if metric.better == "lower" else (b - c) / b
    if max(spread(base), spread(change)) > metric.bound:
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    if worsening < -metric.bound:
        return "better"
    return "same"


def compare(base: Dict[Key, List[float]], change: Dict[Key, List[float]],
            incorrect: Set[str] = frozenset()) -> Tuple[List[str], bool]:
    """The table, and whether any row is ``worse``.  ``incorrect`` names the
    workloads whose change-side checks failed."""
    lines = [
        f"{'workload':22s} {'metric':20s} {'base':>14s} {'change':>14s} "
        f"{'change/base':>11s} {'bound':>6s} {'spread b/c':>13s}  verdict"
    ]
    bad = False
    for w in spec.WORKLOAD_NAMES:
        for metric in spec.declared().e2e.values():
            key = (w, metric.name)
            if key not in base:
                continue
            if key not in change:
                bad = True
                lines.append(f"{w:22s} {metric.name:20s} {statistics.median(base[key]):14.6g} "
                             f"{'missing':>14s} {'-':>11s} {metric.bound:6.2f} {'':13s}  worse")
                continue
            b, c = statistics.median(base[key]), statistics.median(change[key])
            word = verdict(metric, base[key], change[key])
            if w in incorrect:
                word = "worse (a run's checks failed)"
            bad = bad or word.startswith("worse")
            ratio = f"{c / b:11.4f}" if b else f"{'-':>11s}"
            lines.append(
                f"{w:22s} {metric.name:20s} {b:14.6g} {c:14.6g} {ratio} "
                f"{metric.bound:6.2f} {spread(base[key]):6.3f}/{spread(change[key]):6.3f}  "
                f"{word}  ({metric.unit}, {metric.better} is better, "
                f"n={len(base[key])}/{len(change[key])})"
            )
    return lines, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="BASE.json CHANGE.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.change:
            parser.error("give two files, or --base FILES --change FILES")
        args.base, args.change = args.files[:1], args.files[1:]
    if not args.base or not args.change:
        parser.error("both sides need at least one file")
    base, _base_incorrect = load(args.base)
    change, incorrect = load(args.change)
    lines, bad = compare(base, change, incorrect)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
