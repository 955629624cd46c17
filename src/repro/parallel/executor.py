"""Parent-side orchestration of the multicore bulk pipeline.

:class:`ParallelExecutor` owns one :class:`~repro.parallel.pool.WorkerPool`
and one :class:`~repro.parallel.shm.ShmArena` and exposes the three hot
pipelines as *optional* accelerations: every method returns ``None`` when
the batch is ineligible (too small to amortize dispatch, wide hash space,
unsupported key kind), and the caller falls back to the serial engine.
The serial path is therefore always the semantic reference — the executor
only ever reproduces it faster.

Eligibility gates (``None`` → serial):

* ``config.workers == 0`` or batch size below ``config.min_batch``;
* hash space wider than 64 bits (object-array indices cannot live in shm);
* key kinds outside the vectorizable set (int numpy arrays; homogeneous
  str/bytes sequences for the hashing/lookup kernels).

Data movement per call: inputs are copied once into recycled *scratch*
blocks, workers write outputs into scratch or — for the sorted bulk-load
columns that become ``VnodeStore`` segments — into *pinned* blocks whose
slices the storage layer adopts zero-copy (:meth:`owns_array` is how it
recognizes them later, see ``materialize`` in the storage layer).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ParallelConfig
from repro.core.hashspace import HashSpace
from repro.core.lookup import PartitionRouter
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import ArrayRef, ShmArena


def _slice_ref(ref: ArrayRef, lo: int, hi: int, itemsize: int) -> ArrayRef:
    """Descriptor for the ``[lo, hi)`` element sub-range of ``ref``."""
    return ArrayRef(ref.name, ref.offset + lo * itemsize, hi - lo, ref.dtype)


def _chunk_bounds(n: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[0, n)`` into up to ``parts`` contiguous non-empty chunks."""
    bounds = []
    for i in range(parts):
        lo, hi = i * n // parts, (i + 1) * n // parts
        if hi > lo:
            bounds.append((lo, hi))
    return bounds


def _as_u64_bits(keys: np.ndarray) -> Optional[Tuple[np.ndarray, bool]]:
    """Reinterpret an integer key array as uint64 bit patterns.

    Returns ``(bits, signed)`` or ``None`` for non-integer arrays.  The
    two's-complement view of signed keys equals ``value mod 2**64`` —
    exactly what the scalar ``hash_key`` computes — and is reversible
    (``bits.view(int64)``), so sorted key columns can be reinterpreted back
    to signed without copying.
    """
    if not isinstance(keys, np.ndarray):
        return None
    if keys.dtype.kind == "u":
        return keys.astype(np.uint64, copy=False), False
    if keys.dtype.kind == "i":
        return keys.astype(np.int64, copy=False).view(np.uint64), True
    return None


def _is_blob_batch(keys: Union[Sequence, np.ndarray]) -> bool:
    """Cheap probe for a str/bytes key batch (first element only, like the
    serial fast path — a mixed batch fails over to serial via TypeError)."""
    if isinstance(keys, np.ndarray):
        return False
    first = keys[0]
    return isinstance(first, (str, bytes)) and not isinstance(first, bool)


class RoutedBatch(NamedTuple):
    """Output of :meth:`ParallelExecutor.route_batch` — per worker chunk,
    the position-sorted key/index columns plus the run geometry."""

    #: ``(lo, hi)`` input range of each chunk.
    bounds: List[Tuple[int, int]]
    #: Per chunk: sorted keys as uint64 bit patterns (pinned shm views).
    sorted_keys: List[np.ndarray]
    #: Per chunk: sorted hash indices (pinned shm views).
    sorted_indices: List[np.ndarray]
    #: Per chunk: the stable argsort permutation (``None`` without values).
    orders: Optional[List[np.ndarray]]
    #: Per chunk: exclusive cumulative row counts per table position
    #: (length ``npos + 1``); run ``pos`` of chunk ``c`` is
    #: ``[run_offsets[c][pos], run_offsets[c][pos + 1])``.
    run_offsets: List[np.ndarray]
    #: Sorted union of occupied table positions.
    present: np.ndarray
    #: True when the input keys were a signed integer array (adopted key
    #: columns must be re-viewed as int64).
    signed: bool


class ParallelExecutor:
    """Fan the hot bulk pipelines out over a worker-process pool."""

    def __init__(self, config: ParallelConfig, hash_space: HashSpace):
        self.config = config
        self.hash_space = hash_space
        self.arena = ShmArena()
        self._pool: Optional[WorkerPool] = None
        self._route_cache: Optional[Tuple[int, ArrayRef, ArrayRef, int]] = None
        self._closed = False
        #: Dispatch counters per pipeline (profiling / tests).
        self.dispatches: Dict[str, int] = {}

    # -------------------------------------------------------------- plumbing

    @property
    def workers(self) -> int:
        return self.config.workers

    def _eligible(self, n: int) -> bool:
        return (
            not self._closed
            and self.config.workers > 0
            and n >= self.config.min_batch
            and self.hash_space.bh <= 64
        )

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(self.config.workers, self.config.start_method)
            self._pool.start()
        return self._pool

    def _count(self, pipeline: str) -> None:
        self.dispatches[pipeline] = self.dispatches.get(pipeline, 0) + 1

    def _route_columns(self, router: PartitionRouter) -> Tuple[ArrayRef, ArrayRef, int]:
        """Routing-table columns as shm refs, cached per topology version."""
        version = router.built_version
        cached = self._route_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2], cached[3]
        starts, lasts = router.range_columns()
        if cached is not None:
            self.arena.release(cached[1])
            self.arena.release(cached[2])
        starts_ref, _ = self.arena.store(starts)
        lasts_ref, _ = self.arena.store(lasts)
        self._route_cache = (version, starts_ref, lasts_ref, len(starts))
        return starts_ref, lasts_ref, len(starts)

    @property
    def mask(self) -> int:
        return self.hash_space.size - 1

    def owns_array(self, array: np.ndarray) -> bool:
        """True if the array is a view into this executor's shm arena."""
        return self.arena.owns(array)

    def stats(self) -> Dict[str, object]:
        """Dispatch counters plus cumulative worker busy time (seconds)."""
        pool = self._pool
        return {
            "workers": self.config.workers,
            "dispatches": dict(self.dispatches),
            "tasks": pool.tasks_dispatched if pool else 0,
            "worker_busy_seconds": pool.busy_seconds if pool else 0.0,
            "shm_bytes": self.arena.total_bytes,
        }

    # ------------------------------------------------------------- hash_keys

    def hash_keys(self, keys: Union[Sequence, np.ndarray]) -> Optional[np.ndarray]:
        """Parallel ``HashSpace.hash_keys`` — ``None`` when ineligible."""
        n = len(keys)
        if not self._eligible(n):
            return None
        bits = _as_u64_bits(keys) if isinstance(keys, np.ndarray) else None
        if bits is None and not (n and _is_blob_batch(keys)):
            return None
        pool = self._ensure_pool()
        bounds = _chunk_bounds(n, pool.n_workers)
        out_ref, out_view = self.arena.alloc(n, np.uint64)
        scratch = [out_ref]
        try:
            if bits is not None:
                keys_ref, _ = self.arena.store(bits[0])
                scratch.append(keys_ref)
                tasks = [
                    (
                        "hash_u64",
                        {
                            "keys": _slice_ref(keys_ref, lo, hi, 8),
                            "out": _slice_ref(out_ref, lo, hi, 8),
                            "mask": self.mask,
                        },
                    )
                    for lo, hi in bounds
                ]
            else:
                tasks = [
                    (
                        "hash_blobs",
                        {
                            "keys": list(keys[lo:hi]),
                            "out": _slice_ref(out_ref, lo, hi, 8),
                            "mask": self.mask,
                        },
                    )
                    for lo, hi in bounds
                ]
            try:
                pool.run_tasks(tasks)
            except TypeError:
                # Mixed str/bytes/other batch: the serial generic path
                # handles it (per-key hash_key); we just step aside.
                return None
            self._count("hash_keys")
            return out_view.copy()
        finally:
            for ref in scratch:
                self.arena.release(ref)

    # ----------------------------------------------------------- hash_locate

    def hash_locate(
        self, router: PartitionRouter, keys: Union[Sequence, np.ndarray]
    ) -> Optional[Tuple[np.ndarray, np.ndarray, List[int]]]:
        """Parallel hash + route (the ``lookup_many`` pipeline).

        Returns ``(indices, positions, present)`` — hash indices (uint64)
        and router table positions (int64) in input order plus the sorted
        occupied positions — or ``None`` when ineligible.  Raises exactly
        what serial ``locate_batch`` raises on routing problems.
        """
        n = len(keys)
        if not self._eligible(n) or router.n_partitions == 0:
            return None
        bits = _as_u64_bits(keys) if isinstance(keys, np.ndarray) else None
        if bits is None and not (n and _is_blob_batch(keys)):
            return None
        pool = self._ensure_pool()
        starts_ref, lasts_ref, _ = self._route_columns(router)
        bounds = _chunk_bounds(n, pool.n_workers)
        idx_ref, idx_view = self.arena.alloc(n, np.uint64)
        pos_ref, pos_view = self.arena.alloc(n, np.int64)
        scratch = [idx_ref, pos_ref]
        try:
            if bits is not None:
                keys_ref, _ = self.arena.store(bits[0])
                scratch.append(keys_ref)
                tasks = [
                    (
                        "hash_locate_u64",
                        {
                            "keys": _slice_ref(keys_ref, lo, hi, 8),
                            "idx_out": _slice_ref(idx_ref, lo, hi, 8),
                            "pos_out": _slice_ref(pos_ref, lo, hi, 8),
                            "starts": starts_ref,
                            "lasts": lasts_ref,
                            "mask": self.mask,
                        },
                    )
                    for lo, hi in bounds
                ]
            else:
                tasks = [
                    (
                        "hash_blobs",
                        {
                            "keys": list(keys[lo:hi]),
                            "out": _slice_ref(idx_ref, lo, hi, 8),
                            "pos_out": _slice_ref(pos_ref, lo, hi, 8),
                            "starts": starts_ref,
                            "lasts": lasts_ref,
                            "mask": self.mask,
                        },
                    )
                    for lo, hi in bounds
                ]
            try:
                presents = pool.run_tasks(tasks)
            except TypeError:
                return None
            self._count("hash_locate")
            present = np.unique(np.concatenate(presents)).tolist()
            return idx_view.copy(), pos_view.copy(), present
        finally:
            for ref in scratch:
                self.arena.release(ref)

    # ------------------------------------------------------------ route_batch

    def route_batch(
        self, router: PartitionRouter, keys: np.ndarray, want_order: bool
    ) -> Optional[RoutedBatch]:
        """Parallel hash + route + position-sort (the ``bulk_load`` pipeline).

        Integer-array keys only (str/bytes bulk loads parallelize hashing
        via :meth:`hash_locate` and group serially — the value column is a
        python-object column that cannot cross shm anyway).  The sorted
        key/index columns land in **pinned** shm blocks; the caller adopts
        slices of them zero-copy as store segments.
        """
        n = len(keys)
        if not self._eligible(n):
            return None
        bits = _as_u64_bits(keys)
        if bits is None or router.n_partitions == 0:
            return None
        pool = self._ensure_pool()
        starts_ref, lasts_ref, npos = self._route_columns(router)
        bounds = _chunk_bounds(n, pool.n_workers)
        keys_ref, _ = self.arena.store(bits[0])
        skeys_ref, skeys_view = self.arena.alloc(n, np.uint64, pinned=True)
        sidx_ref, sidx_view = self.arena.alloc(n, np.uint64, pinned=True)
        order_ref = order_view = None
        if want_order:
            order_ref, order_view = self.arena.alloc(n, np.int64)
        try:
            tasks = [
                (
                    "route_u64",
                    {
                        "keys": _slice_ref(keys_ref, lo, hi, 8),
                        "skeys": _slice_ref(skeys_ref, lo, hi, 8),
                        "sidx": _slice_ref(sidx_ref, lo, hi, 8),
                        "order": (
                            _slice_ref(order_ref, lo, hi, 8) if want_order else None
                        ),
                        "starts": starts_ref,
                        "lasts": lasts_ref,
                        "mask": self.mask,
                        "npos": npos,
                    },
                )
                for lo, hi in bounds
            ]
            counts = pool.run_tasks(tasks)
            self._count("route_batch")
            run_offsets, present_mask = [], np.zeros(npos, dtype=bool)
            for chunk_counts in counts:
                offsets = np.zeros(npos + 1, dtype=np.int64)
                np.cumsum(chunk_counts, out=offsets[1:])
                run_offsets.append(offsets)
                present_mask |= chunk_counts > 0
            orders = None
            if want_order:
                # Private copies per chunk: the order column is scratch and
                # recycled, while the caller gathers values lazily.
                orders = [order_view[lo:hi].copy() for lo, hi in bounds]
            return RoutedBatch(
                bounds=bounds,
                sorted_keys=[skeys_view[lo:hi] for lo, hi in bounds],
                sorted_indices=[sidx_view[lo:hi] for lo, hi in bounds],
                orders=orders,
                run_offsets=run_offsets,
                present=np.flatnonzero(present_mask),
                signed=bits[1],
            )
        finally:
            self.arena.release(keys_ref)
            if order_ref is not None:
                self.arena.release(order_ref)

    # ------------------------------------------------------------------ close

    def close(self) -> None:
        """Stop the pool and destroy the arena.  Idempotent.

        Callers holding zero-copy segment views must materialize them
        *before* closing (``BaseDHT.close`` does) — afterwards the shm
        blocks are unlinked and survive only as long as live mappings.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._route_cache = None
        self.arena.close()


__all__ = ["ParallelExecutor", "RoutedBatch"]
