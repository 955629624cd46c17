"""Measuring machinery shared by the workloads: spans, cycles, aggregation.

The benchmark times its own calls into the repository's public functions;
nothing here reaches inside ``src/``.  A :class:`Recorder` keeps spans in
memory (name, start, end, parent, cycle) and is a no-op unless tracing is
on; a :class:`Cycle` collects what one cycle measured; :func:`aggregate`
turns the timed cycles into the named end-to-end metrics.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from bench import spec


class Recorder:
    """In-memory span log; written out as JSONL when the run ends."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.cycle = -1
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time a block; the yielded dict gains ``"s"`` (seconds) on exit.

        The duration is always measured — end-to-end numbers come from the
        same timers — but the span is only *kept* when tracing is enabled.
        """
        out: Dict[str, Any] = {}
        if self.enabled:
            record = {
                "name": name, "cycle": self.cycle,
                "parent": self._stack[-1] if self._stack else None, **attrs,
            }
            self._stack.append(len(self.spans))
            self.spans.append(record)
        start = time.perf_counter()
        try:
            yield out
        finally:
            end = time.perf_counter()
            out["s"] = end - start
            if self.enabled:
                self._stack.pop()
                record["start"], record["end"] = start, end

    def leaf(self, name: str, start: float, seconds: float) -> None:
        """Record an already-timed call (the per-op path of the point loops)."""
        self.spans.append({
            "name": name, "cycle": self.cycle, "start": start, "end": start + seconds,
            "parent": self._stack[-1] if self._stack else None,
        })


@dataclass
class Cycle:
    """What one cycle measured.  ``sums`` are additive within the cycle."""

    sums: Dict[str, float] = field(default_factory=dict)
    #: Per-op latencies in seconds, by op kind.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Values that must repeat exactly from cycle to cycle.
    exact: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)


@contextmanager
def quiet_gc() -> Iterator[None]:
    """Collect, then freeze the set-up's objects out of the collector's sight.

    The inputs a cycle holds in memory (millions of key and value objects)
    are the benchmark's, not the system's; left tracked, every full
    collection inside a timed phase re-walks them and the phase time then
    depends on when collections happen to fall.  The collector stays on for
    everything the system itself allocates.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _rate(cycles: List[Cycle], count_key: str, seconds_key: str) -> Optional[float]:
    rates = [
        c.sums[count_key] / c.sums[seconds_key]
        for c in cycles
        if count_key in c.sums and c.sums.get(seconds_key, 0.0) > 0.0
    ]
    return statistics.median(rates) if rates else None


def _median(cycles: List[Cycle], key: str) -> Optional[float]:
    values = [c.sums[key] for c in cycles if key in c.sums]
    return statistics.median(values) if values else None


def aggregate(cycles: List[Cycle]) -> Dict[str, Any]:
    """What the timed cycles measured, by end-to-end metric name.

    Throughputs and times are the median over the cycles; latency percentiles
    are pooled over them.  A metric whose phase the workload does not run is
    ``None``.  ``setup_s`` here is the per-cycle part only (build, boot,
    preload); the caller adds what happens once per process, the memory
    reading and the failed share.
    """
    values: Dict[str, Optional[float]] = {
        "setup_s": _median(cycles, "setup_s"),
        "ingest_rows_per_s": _rate(cycles, "ingest_rows", "ingest_s"),
        "lookup_rows_per_s": _rate(cycles, "lookup_rows", "lookup_s"),
        "read_rows_per_s": _rate(cycles, "read_rows", "read_s"),
        "ops_per_s": _rate(cycles, "point_ops", "point_s"),
        "elastic_s": _median(cycles, "elastic_s"),
        "recover_s": _median(cycles, "recover_s"),
        "disk_bytes_per_row": _rate(cycles, "disk_bytes", "disk_rows"),
        "wire_bytes_per_row": _rate(cycles, "wire_bytes", "ingest_rows"),
    }
    samples: Dict[str, int] = {}
    for op in ("get", "put"):
        pooled = [s for c in cycles for s in c.latencies.get(op, ())]
        samples[op] = len(pooled)
        for q in (50, 99):
            values[f"{op}_us_p{q}"] = percentile(pooled, q) * 1e6 if pooled else None
    return {
        "values": values,
        "samples": {
            "cycles": len(cycles),
            "cycle_body_s": [round(c.sums.get("body_s", 0.0), 4) for c in cycles],
            "get_latencies": samples["get"],
            "put_latencies": samples["put"],
        },
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exact_repeat_failures(cycles: List[Cycle]) -> List[str]:
    """Exact-count values (sigma_qv, disk bytes, ...) that changed between cycles."""
    failures = []
    for key in sorted({k for c in cycles for k in c.exact}):
        seen = {c.exact[key] for c in cycles if key in c.exact}
        if len(seen) > 1:
            failures.append(f"{key} did not repeat exactly across cycles: {sorted(seen)}")
    return failures


def provenance(workload: spec.Workload, seed: int, scale: str, seconds: float,
               traced: bool) -> Dict[str, Any]:
    """Where, on what and how a result was measured."""
    commit = "unknown"
    if os.path.exists(os.path.join(spec.ROOT, ".git")):  # never search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    uname = platform.uname()
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "traced": traced,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "host": f"{uname.system}-{uname.release}-{uname.machine}",
        "fsync": False,
        "loop": "asyncio" if workload.shape == "rpc" else "none (synchronous calls)",
        "clients": workload.clients,
        "cluster_seed": spec.CLUSTER_SEED,
        "argv": sys.argv[1:],
    }
