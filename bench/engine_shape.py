"""The in-process shape: one ``BaseDHT`` driven through its public batch and
topology API (``engine_batch`` and ``engine_churn_durable``)."""

from __future__ import annotations

import os
import tempfile
from contextlib import ExitStack
from typing import Optional

import numpy as np

from bench import inputs as inp
from bench import spec
from bench.measure import Cycle, Recorder, quiet_gc
from repro.core.base import BaseDHT
from repro.core.errors import ReproError
from repro.workloads.churn import ChurnEngine, ChurnSpec, make_churn_trace
from repro.workloads.driver import build_cluster


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _dirs, names in os.walk(root)
        for name in names
    )


def churn_spec(w: spec.Workload, data_dir: Optional[str]) -> ChurnSpec:
    """The issue's churn mix.  ``--seed`` never reaches it: the events are fixed."""
    return ChurnSpec(
        name=w.name, workload=w.key_family, n_keys=w.int_rows, n_events=w.churn_events,
        n_snodes=w.snodes, vnodes_per_snode=w.vnodes, load_chunks=w.chunks,
        replication_factor=spec.REPLICATION_FACTOR, read_multiplier=0.5,
        join_weight=0.2, leave_weight=0.15, enroll_weight=0.1, crash_weight=0.15,
        restart_weight=0.2, rebalance_weight=0.2,
        data_dir=data_dir, seed=spec.CLUSTER_SEED,
    )


def build(w: spec.Workload, **kwargs) -> BaseDHT:
    """The workload's in-process cluster (``data_dir=`` makes it durable)."""
    return build_cluster(
        "local", w.snodes, w.vnodes, pmin=8, vmin=8,
        replication_factor=spec.REPLICATION_FACTOR, seed=spec.CLUSTER_SEED, **kwargs,
    )


class SeededChurn(ChurnEngine):
    """The churn replay over keys the benchmark generated (fixed Zipf layout)."""

    def __init__(self, churn: ChurnSpec, trace, keys: np.ndarray):
        super().__init__(churn, trace=trace)
        self._keys = keys

    def make_keys(self) -> np.ndarray:
        return self._keys


def sum_events(cycle: Cycle, prefix: str, events) -> None:
    """Fold ``(kind, seconds)`` pairs into elastic/recover sums and per-kind totals."""
    for kind, seconds in events:
        if kind in spec.GRACEFUL_KINDS:
            cycle.add("elastic_s", seconds)
        elif kind in spec.FAULT_KINDS:
            cycle.add("recover_s", seconds)
        else:
            continue
        cycle.add(f"{prefix}.event_s.{kind}", seconds)
        cycle.attempted += 1


class EngineShape:
    def __init__(self, w: spec.Workload, seed: int, rec: Recorder, tmp_root: str,
                 inject_fault: bool = False):
        self.w, self.seed, self.rec = w, seed, rec
        self.tmp_root = tmp_root
        self.inject_fault = inject_fault
        self.data = inp.generate(w, seed)

    # -- one cycle -------------------------------------------------------------

    def cycle(self, last: bool) -> Cycle:
        w, c = self.w, Cycle()
        with ExitStack() as stack:
            with self.rec.span("setup") as setup:
                data_dir = None
                if w.durable:
                    data_dir = stack.enter_context(
                        tempfile.TemporaryDirectory(prefix="engine-", dir=self.tmp_root)
                    )
                data = self.data
                engine = None
                if w.churn_events:
                    churn = churn_spec(w, data_dir)
                    engine = SeededChurn(churn, make_churn_trace(churn), data.int_keys)
                dht = build(w, data_dir=data_dir)
                stack.callback(dht.close)
            c.add("setup_s", setup["s"])
            with quiet_gc():
                with self.rec.span("body") as body:
                    for phase in w.phases:
                        with self.rec.span(phase):
                            getattr(self, f"_{phase}")(c, dht, data, engine)
                c.add("body_s", body["s"])
                c.exact["sigma_qv"] = dht.sigma_qv()
                if last:
                    self._final_checks(c, dht)
        return c

    # -- phases ----------------------------------------------------------------

    def _ingest(self, c: Cycle, dht: BaseDHT, data: inp.Inputs, _engine) -> None:
        batches = [
            (data.int_keys[lo:hi], data.int_values[lo:hi])
            for lo, hi in inp.chunk_bounds(len(data.int_keys), self.w.chunks)
        ]
        if data.str_keys:
            batches.append((data.str_keys, data.str_values))
        stored = 0
        for keys, values in batches:
            with self.rec.span("dht.bulk_load", rows=len(keys)) as call:
                stored += dht.bulk_load(keys, values)
            c.add("ingest_s", call["s"])
        c.add("ingest_rows", stored)
        c.attempted += self.w.rows
        if stored != self.w.rows:
            c.fail(f"bulk_load stored {stored} of {self.w.rows} rows", self.w.rows - stored)

    def _churn(self, c: Cycle, dht: BaseDHT, data: inp.Inputs, engine: ChurnEngine) -> None:
        with self.rec.span("ChurnEngine.run") as run:
            try:
                report = engine.run(dht, deep_verify=False)
            except ReproError as exc:
                c.attempted += 1
                c.fail(f"churn replay violated an invariant: {exc}")
                return
        c.attempted += report.keys_loaded + report.lookups_issued
        sum_events(c, "workloads.churn", ((o.kind, o.seconds) for o in report.outcomes))
        c.add("workloads.churn.verify_s", run["s"] - sum(o.seconds for o in report.outcomes))
        c.exact["rows_moved"] = report.items_moved
        if report.items_lost or report.keys_loaded != self.w.int_rows:
            c.fail(
                f"churn lost {report.items_lost} rows, loaded {report.keys_loaded}",
                report.items_lost + self.w.int_rows - report.keys_loaded,
            )
        disk = tree_bytes(engine.spec.data_dir)
        c.add("disk_bytes", disk)
        c.add("disk_rows", report.keys_loaded)
        c.add("core.durability.checkpoints", dht.storage.durability.checkpoints)
        c.exact["disk_bytes"] = disk

    def _lookup(self, c: Cycle, dht: BaseDHT, data: inp.Inputs, _engine) -> None:
        for _ in range(spec.LOOKUP_PASSES):
            with self.rec.span("dht.lookup_many", rows=len(data.int_keys)) as call:
                routed = dht.lookup_many(data.int_keys)
            c.add("lookup_s", call["s"])
            c.add("lookup_rows", len(routed))
            c.attempted += len(data.int_keys)
            if len(routed) != len(data.int_keys):
                c.fail("lookup_many dropped keys", len(data.int_keys) - len(routed))

    def _read(self, c: Cycle, dht: BaseDHT, data: inp.Inputs, _engine) -> None:
        """The first full ``get_many`` pass (it pays the lazy merge of the pending
        segments ingest left), value-checked on a sample; then a warm pass."""
        columns = [(data.int_keys, data.int_values)]
        if data.str_keys:
            columns.append((data.str_keys, data.str_values))
        for n, (keys, values) in enumerate(columns):
            with self.rec.span("dht.get_many", rows=len(keys)) as call:
                got = dht.get_many(keys)
            c.add("read_s", call["s"])
            c.add("read_rows", len(got))
            c.attempted += len(keys)
            rows = inp.sample_rows(len(keys), spec.READ_BACK_ROWS, self.seed)
            want = [None if values is None else values[r] for r in rows]
            bad = inp.mismatches(
                [got[r] for r in rows] if len(got) == len(keys) else got,
                want, corrupt=self.inject_fault and n == 0,
            )
            if bad:
                c.fail(f"get_many returned {bad} wrong values in a {len(rows)}-row sample", bad)
        for keys, _values in columns:
            with self.rec.span("dht.get_many.warm", rows=len(keys)) as call:
                dht.get_many(keys)
            c.add("warm_read_s", call["s"])

    def _final_checks(self, c: Cycle, dht: BaseDHT) -> None:
        """Untimed: replica/primary agreement (row contents when durable), and
        the full invariant suite where no churn replay has already checked it."""
        c.attempted += 1
        with self.rec.span("final_checks"):
            try:
                dht.verify_replication(deep=self.w.durable)
                if not self.w.churn_events:
                    dht.check_invariants()
            except ReproError as exc:
                c.fail(f"final verification failed: {exc}")
