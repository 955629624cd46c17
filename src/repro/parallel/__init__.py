"""Multicore bulk pipeline: process-parallel fan-out over shared memory.

A library extension beyond the paper (whose cost model is single-threaded,
section 4): the vectorized batch engine of the serial model saturates one
core, so 10M-key ``bulk_load``/``lookup_many`` batches are interpreter- and
GIL-bound rather than hardware-bound.  This package shards the columnar
work across OS processes, passing ``(shm_name, offset, length)`` descriptors
instead of pickled rows:

``shm``
    The shared-memory arena: descriptor type and block pooling.
``tasks``
    Worker-side kernels (SplitMix64/BLAKE2b hashing, routing, position
    sort) — numerically identical to the serial engine.
``worker`` / ``pool``
    The persistent worker-process pool and its fail-fast pipe protocol.
``executor``
    Parent-side orchestration; every pipeline returns ``None`` when
    ineligible so callers fall back to the (always-correct) serial path.

Enabled per DHT via ``DHTConfig(parallel=ParallelConfig(workers=N))``;
``workers=0`` — the default — never imports multiprocessing machinery and
keeps every path bit-identical to the serial engine.
"""

from repro.parallel.executor import ParallelExecutor, RoutedBatch
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import ArrayRef, ShmArena

__all__ = [
    "ArrayRef",
    "ParallelExecutor",
    "RoutedBatch",
    "ShmArena",
    "WorkerPool",
]
