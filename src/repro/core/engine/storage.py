"""The data plane: replica-fanout reads/writes and sync orchestration.

:class:`StorageEngine` wraps the columnar :class:`~repro.core.storage.DHTStorage`
(hash tier + segments + durable log) with everything the former ``BaseDHT``
layered on top of it:

* scalar reads/writes that fan out to (or fall back on) the partition's
  replicas, given a routing decision made by the placement plane;
* the batch-first bulk pipelines (:meth:`bulk_load`, :meth:`get_many`) —
  one hash pass, one ``locate_batch`` pass, one stable counting sort, one
  ``put_batch``/``get_batch`` per touched vnode;
* replica-sync orchestration: the ``sync_paused`` flag and
  :meth:`deferred_sync` batch several topology mutations into a single
  trailing :func:`~repro.core.replication.sync_replicas` pass.

The engine never inspects the topology registries; its only upstream
dependency is the :class:`~repro.core.engine.placement.PlacementService`
facade (and the hash space for key hashing).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.engine.placement import PlacementService
from repro.core.hashspace import HashSpace, Partition
from repro.core.ids import VnodeRef
from repro.core.lookup import BatchLookupResult
from repro.core.replication import SyncReport, sync_replicas
from repro.core.storage import DHTStorage
from repro.utils.arrays import as_object_column
from repro.utils.gcscope import deferred_gc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.parallel.executor import ParallelExecutor


def _position_runs(positions: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Group a batch by routing-table position into contiguous runs.

    Returns ``(order, runs)``: a stable argsort of ``positions`` (each
    position's items form one contiguous run while keeping input order
    inside the run, so duplicate keys stay last-write-wins) and, per
    position present in the batch, a ``(position, lo, hi)`` slice of that
    sorted order.  The grouping step of :meth:`StorageEngine.bulk_load`.
    """
    order = np.argsort(positions, kind="stable")
    counts = np.bincount(positions)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    runs = [
        (pos, int(bounds[pos]), int(bounds[pos + 1]))
        for pos in np.flatnonzero(counts).tolist()
    ]
    return order, runs


@dataclass
class BulkLoadReport:
    """Instrumented outcome of one :meth:`StorageEngine.bulk_load` call.

    Stage timings cover the four phases of the pipeline — hash, locate,
    group (sort/fan-out) and ingest — plus the replica fan-out broken down
    *per rank* (``rows_by_rank[0]`` / ``seconds_by_rank[0]`` are the
    primary ingest; rank ``r`` covers the ``r``-th replica copy).  In
    ``parallel`` mode the hash/locate/sort phases run fused inside the
    worker processes and their combined wall time is reported under
    :attr:`group_seconds` (with :attr:`hash_seconds` and
    :attr:`locate_seconds` zero); ``parallel-hash`` means only the hash
    phase was parallelized (str/bytes keys) and every stage is reported
    individually.
    """

    n_keys: int = 0
    stored: int = 0
    #: End-to-end wall time.
    seconds: float = 0.0
    hash_seconds: float = 0.0
    locate_seconds: float = 0.0
    group_seconds: float = 0.0
    #: Primary-ingest wall time (``seconds_by_rank[0]``).
    ingest_seconds: float = 0.0
    #: Total replica fan-out wall time (``sum(seconds_by_rank[1:])``).
    replica_seconds: float = 0.0
    #: Rows written per rank: ``[primary, rank 1, rank 2, ...]``.
    rows_by_rank: List[int] = field(default_factory=list)
    #: Ingest wall time per rank, same layout as :attr:`rows_by_rank`.
    seconds_by_rank: List[float] = field(default_factory=list)
    #: Worker processes used (0 = serial).
    workers: int = 0
    #: ``"serial"`` | ``"parallel"`` | ``"parallel-hash"``.
    mode: str = "serial"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (benchmarks and the CLI emit it)."""
        return {
            "n_keys": self.n_keys,
            "stored": self.stored,
            "seconds": self.seconds,
            "hash_seconds": self.hash_seconds,
            "locate_seconds": self.locate_seconds,
            "group_seconds": self.group_seconds,
            "ingest_seconds": self.ingest_seconds,
            "replica_seconds": self.replica_seconds,
            "rows_by_rank": list(self.rows_by_rank),
            "seconds_by_rank": list(self.seconds_by_rank),
            "workers": self.workers,
            "mode": self.mode,
        }


class StorageEngine:
    """Replica-aware data plane over one :class:`DHTStorage` instance."""

    def __init__(
        self,
        store: DHTStorage,
        placement: PlacementService,
        hash_space: HashSpace,
        replica_ranks: int,
        parallel: "Optional[ParallelExecutor]" = None,
    ) -> None:
        self.store = store
        self._placement = placement
        self._hash_space = hash_space
        self._replica_ranks = replica_ranks
        #: Multicore executor, or ``None`` for the pure serial engine.  Every
        #: use is an *optional acceleration*: the executor declines (returns
        #: ``None``) whenever a batch is ineligible and the serial code runs
        #: instead, so behaviour never depends on this being set.
        self.parallel = parallel
        #: While True, topology mutations skip their trailing replica sync
        #: (one batched pass runs when the pause lifts; see
        #: :meth:`deferred_sync`).
        self.sync_paused = False

    # --------------------------------------------------------------- registration

    def register_vnode(self, ref: VnodeRef) -> None:
        """Create the primary/replica stores backing a new vnode."""
        self.store.register_vnode(ref)

    def unregister_vnode(self, ref: VnodeRef) -> None:
        """Drop the (empty) stores of a removed vnode."""
        self.store.unregister_vnode(ref)

    # ----------------------------------------------------------------- data plane

    def write(
        self, owner: VnodeRef, partition: Partition, key: Hashable, index: int, value: Any
    ) -> None:
        """Store one item at its owner and fan it out to the replicas."""
        self.store.put(owner, key, index, value, routed=True)
        for ref in self._placement.replicas_of(partition):
            self.store.put_replica(ref, key, index, value, routed=True)

    def read(
        self, owner: VnodeRef, partition: Partition, key: Hashable, index: Optional[int] = None
    ) -> Any:
        """Fetch one item, falling back to the partition's replicas when the
        primary misses — e.g. a primary store that lost rows in place and
        has not been healed by the next recovery / sync pass yet.  ``index``
        is the key's routed hash index (the stores search their runs there)."""
        try:
            return self.store.get(owner, key, index)
        except KeyError:
            for ref in self._placement.replicas_of(partition):
                try:
                    return self.store.get_replica(ref, key, index)
                except KeyError:
                    continue
            raise

    def discard(
        self, owner: VnodeRef, partition: Partition, key: Hashable, index: Optional[int] = None
    ) -> Any:
        """Delete one item from its owner and every replica (``index`` as in
        :meth:`read`).

        Mirrors :meth:`read`'s fallback: when the primary misses but a
        replica still holds the key (an in-place damaged primary awaiting
        the next recovery pass), the replica copies are deleted and the
        value returned — anything :meth:`holds` reports as present can be
        deleted, and no removed key is later resurrected by recovery.
        """
        replicas = self._placement.replicas_of(partition)
        found = True
        try:
            value = self.store.delete(owner, key, index)
        except KeyError:
            found = False
            value = None
        for ref in replicas:
            if not found and self.store.contains_replica(ref, key, index):
                value = self.store.get_replica(ref, key, index)
                found = True
            self.store.delete_replica(ref, key, index)
        if not found:
            raise KeyError(key)
        return value

    def holds(
        self, owner: VnodeRef, partition: Partition, key: Hashable, index: Optional[int] = None
    ) -> bool:
        """True if any copy of ``key`` (primary or replica) is stored
        (``index`` as in :meth:`read`)."""
        if self.store.contains(owner, key, index):
            return True
        return any(
            self.store.contains_replica(ref, key, index)
            for ref in self._placement.replicas_of(partition)
        )

    # ------------------------------------------------------------------- bulk API

    def bulk_load(
        self,
        keys: Union[Sequence[Hashable], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]] = None,
    ) -> int:
        """Store a whole batch of items in one vectorized pass.

        Equivalent to ``for k, v in zip(keys, values): dht.put(k, v)`` —
        same owners, same stored indices, later duplicates win — but the
        pipeline is batch-first and columnar end to end: one
        :meth:`HashSpace.hash_keys` call, one
        :meth:`~repro.core.lookup.PartitionRouter.locate_batch` call, one
        stable counting sort grouping the items by owning vnode, and one
        :meth:`DHTStorage.put_batch` per touched vnode handing over array
        slices (the storage layer merges them into its hash tier lazily;
        see :mod:`repro.core.storage`).

        ``values`` may be omitted to store ``None`` for every key (routing /
        placement studies that don't care about payloads).  Returns the
        number of items ingested.
        """
        return self.bulk_load_report(keys, values).stored

    def bulk_load_report(
        self,
        keys: Union[Sequence[Hashable], np.ndarray],
        values: Optional[Union[Sequence[Any], np.ndarray]] = None,
    ) -> BulkLoadReport:
        """:meth:`bulk_load` with per-stage and per-replica-rank accounting.

        Same semantics, same stored state; additionally returns a
        :class:`BulkLoadReport` with wall time per pipeline stage and rows
        / seconds per replica rank.  When a parallel executor is attached
        and the batch is eligible, the hash → locate → sort fan-out runs
        fused across worker processes on shared-memory columns and the
        sorted slices are copied into the stores; ineligible batches (or
        ``workers=0``) take the bit-identical serial path.
        """
        n = len(keys)
        if values is not None and len(values) != n:
            raise ValueError(f"bulk_load: {n} keys but {len(values)} values")
        ranks = 1 + self._replica_ranks
        report = BulkLoadReport(
            n_keys=n,
            rows_by_rank=[0] * ranks,
            seconds_by_rank=[0.0] * ranks,
        )
        if n == 0:
            return report
        wall_start = time.perf_counter()
        with deferred_gc():
            if self.parallel is None or not self._bulk_load_parallel(
                keys, values, report
            ):
                self._bulk_load_serial(keys, values, report)
        report.seconds = time.perf_counter() - wall_start
        report.ingest_seconds = report.seconds_by_rank[0]
        report.replica_seconds = sum(report.seconds_by_rank[1:])
        return report

    def _bulk_load_serial(self, keys, values, report: BulkLoadReport) -> None:
        """The reference pipeline: hash → locate → sort → per-run ingest.

        When a parallel executor is attached the *hash* stage may still be
        farmed out (str/bytes batches, or int batches that fell back here);
        everything downstream stays serial and the stored state is
        bit-identical either way.
        """
        hash_dispatches = (
            self.parallel.dispatches.get("hash_keys", 0) if self.parallel else 0
        )
        stage_start = time.perf_counter()
        indices = self._hash_space.hash_keys(keys, parallel=self.parallel)
        report.hash_seconds = time.perf_counter() - stage_start
        if (
            self.parallel is not None
            and self.parallel.dispatches.get("hash_keys", 0) > hash_dispatches
        ):
            report.mode = "parallel-hash"
            report.workers = self.parallel.workers
        router = self._placement.router()
        stage_start = time.perf_counter()
        positions = router.locate_batch(indices)
        report.locate_seconds = time.perf_counter() - stage_start
        stage_start = time.perf_counter()
        order, runs = _position_runs(positions)
        keys_sorted = as_object_column(keys)[order]
        indices_sorted = indices[order]
        values_sorted = None if values is None else as_object_column(values)[order]
        report.group_seconds = time.perf_counter() - stage_start

        placement = self._placement.placement() if self._replica_ranks else None
        rows, secs = report.rows_by_rank, report.seconds_by_rank
        for pos, lo, hi in runs:
            owner = router.entry_at(pos)[1]
            vals = None if values_sorted is None else values_sorted[lo:hi]
            stage_start = time.perf_counter()
            report.stored += self.store.put_batch(
                owner, keys_sorted[lo:hi], indices_sorted[lo:hi], vals, routed=True
            )
            secs[0] += time.perf_counter() - stage_start
            rows[0] += hi - lo
            if placement is not None:
                # Replica fan-out rides the same position runs: the one
                # locate_batch pass above serves every replica rank.
                for rank, ref in enumerate(placement.replicas_at(pos), start=1):
                    stage_start = time.perf_counter()
                    self.store.put_replica_batch(
                        ref, keys_sorted[lo:hi], indices_sorted[lo:hi], vals, routed=True
                    )
                    secs[rank] += time.perf_counter() - stage_start
                    rows[rank] += hi - lo

    def _bulk_load_parallel(self, keys, values, report: BulkLoadReport) -> bool:
        """Worker-process pipeline for integer-array batches.

        Hash + locate + stable position sort run fused in the workers
        (:meth:`~repro.parallel.executor.ParallelExecutor.route_batch`);
        the parent copies the sorted shared-memory column slices into the
        stores (:meth:`DHTStorage.put_batch`), iterating positions ascending
        and chunks ascending so every store receives its rows in exactly the
        serial write order.  Returns False
        when the batch is ineligible (the caller then runs the serial
        path).
        """
        router = self._placement.router()
        stage_start = time.perf_counter()
        routed = self.parallel.route_batch(router, keys, want_order=values is not None)
        if routed is None:
            return False
        # Hash, locate and sort ran fused in the workers; their combined
        # wall time lands on the group (fan-out) stage — see BulkLoadReport.
        report.group_seconds = time.perf_counter() - stage_start
        report.mode = "parallel"
        report.workers = self.parallel.workers

        key_views = [
            kv.view(np.int64) if routed.signed else kv for kv in routed.sorted_keys
        ]
        chunk_values: Optional[List[np.ndarray]] = None
        if values is not None:
            values_col = as_object_column(values)
            chunk_values = [
                values_col[lo:hi][routed.orders[c]]
                for c, (lo, hi) in enumerate(routed.bounds)
            ]
        placement = self._placement.placement() if self._replica_ranks else None
        rows, secs = report.rows_by_rank, report.seconds_by_rank
        n_chunks = len(routed.bounds)
        for pos in routed.present.tolist():
            owner = router.entry_at(pos)[1]
            replicas = placement.replicas_at(pos) if placement is not None else ()
            for c in range(n_chunks):
                offsets = routed.run_offsets[c]
                lo, hi = int(offsets[pos]), int(offsets[pos + 1])
                if hi == lo:
                    continue
                key_col = key_views[c][lo:hi]
                index_col = routed.sorted_indices[c][lo:hi]
                value_col = None if chunk_values is None else chunk_values[c][lo:hi]
                stage_start = time.perf_counter()
                report.stored += self.store.put_batch(
                    owner, key_col, index_col, value_col, routed=True
                )
                secs[0] += time.perf_counter() - stage_start
                rows[0] += hi - lo
                for rank, ref in enumerate(replicas, start=1):
                    stage_start = time.perf_counter()
                    self.store.put_replica_batch(
                        ref, key_col, index_col, value_col, routed=True
                    )
                    secs[rank] += time.perf_counter() - stage_start
                    rows[rank] += hi - lo
        return True

    def get_many(
        self, batch: BatchLookupResult, keys: Union[Sequence[Hashable], np.ndarray]
    ) -> List[Any]:
        """Fetch the values for an already-routed batch, in input order.

        ``batch`` is the :class:`BatchLookupResult` routing ``keys`` (one
        position per key).  Equivalent to ``[dht.get(k) for k in keys]``
        (including raising :class:`KeyError` for absent keys) but with one
        :meth:`DHTStorage.get_batch` per owning vnode.

        The batch is ordered by one argsort of its hash indexes.  Router
        positions are monotone in the index, so each position's keys stay
        contiguous and reach its store as sorted needles for the run search.
        A read leaves no state behind, so the sort need not be stable (an
        unstable one is ~4× cheaper on ``uint64``).
        """
        n = len(keys)
        if n == 0:
            return []
        with deferred_gc():
            order = np.argsort(batch.indices)
            keys_sorted = as_object_column(keys)[order]
            indices_sorted = batch.indices[order]
            positions = batch.positions[order]
            bounds = [0, *(np.flatnonzero(positions[1:] != positions[:-1]) + 1).tolist(), n]
            out = np.empty(n, dtype=object)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                partition, owner = batch.route_table[int(positions[lo])][:2]
                keys_run, indices_run = keys_sorted[lo:hi], indices_sorted[lo:hi]
                try:
                    out[order[lo:hi]] = self.store.get_batch(owner, keys_run, indices_run)
                except KeyError:
                    if self._replica_ranks == 0:
                        raise  # no replicas to consult: keep the fast-fail path
                    # Primary miss (e.g. mid-crash): retry per key through the
                    # replica-fallback scalar path; absent keys still raise.
                    out[order[lo:hi]] = [
                        self.read(owner, partition, k, i)
                        for k, i in zip(keys_run.tolist(), indices_run.tolist())
                    ]
            return out.tolist()

    # ---------------------------------------------------------------- replica sync

    def sync_replicas(self) -> SyncReport:
        """Reconcile every replica store with the current placement.

        Runs automatically after every topology change (vnode creation and
        removal, enrollment changes, snode joins/leaves/crashes); exposed
        for callers that mutate topology through lower-level entry points.
        """
        if self._replica_ranks == 0:
            return SyncReport()
        return sync_replicas(self.store, self._placement.placement())

    def sync_after_topology_change(self) -> None:
        """Post-mutation hook: re-sync replicas unless paused or disabled."""
        if self._replica_ranks == 0 or self.sync_paused:
            return
        sync_replicas(self.store, self._placement.placement())

    @contextmanager
    def deferred_sync(self) -> Iterator[None]:
        """Batch several topology mutations into one trailing sync pass."""
        if self.sync_paused:
            yield
            return
        self.sync_paused = True
        try:
            yield
        finally:
            self.sync_paused = False
            self.sync_after_topology_change()


__all__ = ["BulkLoadReport", "StorageEngine", "_position_runs"]
