"""Worker-side compute kernels of the multicore bulk pipeline.

Every task is a pure function ``fn(payload, attached) -> result`` operating
on numpy views resolved from :class:`~repro.parallel.shm.ArrayRef`
descriptors in ``payload``.  Tasks run inside worker processes (dispatched
by :class:`~repro.parallel.pool.WorkerPool`) but are deliberately
process-agnostic — the test suite calls them in-process to pin their
numerics against the serial engine.

The kernels mirror the serial engine *exactly*:

* hashing is the same vectorized SplitMix64 finalizer the serial
  :meth:`~repro.core.hashspace.HashSpace.hash_keys` uses (imported, not
  re-derived) and the same BLAKE2b low-64 construction for str/bytes keys;
* routing replicates :meth:`~repro.core.lookup.PartitionRouter.locate_batch`
  — ``searchsorted(side="right") - 1`` over partition starts plus the
  post-hoc gap check, raising :class:`~repro.core.errors.KeyLookupError`
  with the identical messages.

Keys reach hash kernels as **uint64 bit patterns**: the caller reinterprets
signed arrays via two's complement (``.view(np.uint64)``), which is exactly
the ``value mod 2**64`` the scalar ``hash_key`` computes.

A worker never mutates an input block; outputs go to dedicated output
refs, so a task that dies midway leaves inputs intact for a retry against
the serial path.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import KeyLookupError
from repro.core.hashspace import _splitmix64_vec
from repro.parallel.shm import ArrayRef, attach_view


def _hash_blob_batch(keys: List) -> np.ndarray:
    """BLAKE2b low-64 digests of a str/bytes key list (uint64 array).

    The same construction as the serial ``HashSpace.hash_keys`` fast path:
    16-byte digests accumulated into one buffer, low 8 bytes of each taken
    big-endian.  Mixed/unsupported entries raise ``TypeError`` — the
    executor only ships homogeneous str/bytes chunks.
    """
    blake2b = hashlib.blake2b
    buf = bytearray()
    extend = buf.extend
    for key in keys:
        if isinstance(key, str):
            data = key.encode("utf-8")
        elif isinstance(key, bytes):
            data = key
        else:
            raise TypeError(f"unsupported key type {type(key).__name__} in blob batch")
        extend(blake2b(data, digest_size=16).digest())
    if not keys:
        return np.empty(0, dtype=np.uint64)
    return np.frombuffer(bytes(buf), dtype=">u8")[1::2].astype(np.uint64)


def _locate(
    indices: np.ndarray, starts: np.ndarray, lasts: np.ndarray
) -> np.ndarray:
    """Table positions of hash indices — ``PartitionRouter.locate_batch``'s
    core, bit for bit (including error messages).

    The caller guarantees the indices are in-range (they come out of the
    hash kernels already masked to the hash space), so only the coverage
    checks remain.
    """
    positions = np.searchsorted(starts, indices, side="right").astype(
        np.int64, copy=False
    ) - 1
    preceding = positions < 0
    safe = np.where(preceding, 0, positions)
    uncovered = preceding | (indices > lasts[safe])
    if uncovered.any():
        at = int(np.argmax(uncovered))
        offender = int(indices[at])
        if bool(preceding[at]):
            raise KeyLookupError(
                f"hash index {offender} precedes every partition; routing table corrupt"
            )
        raise KeyLookupError(
            f"hash index {offender} not covered by any partition; routing table "
            "has a gap (invariant G1 violated)"
        )
    return positions


def task_ping(payload: dict, attached: dict):
    """Liveness probe (also warms the worker's numpy import on spawn)."""
    return "pong"


def task_hash_u64(payload: dict, attached: dict):
    """SplitMix64-hash a uint64 key chunk into ``out``.

    Payload: ``keys`` (uint64 bit patterns), ``out`` (uint64), ``mask``.
    """
    keys = attach_view(payload["keys"], attached)
    out = attach_view(payload["out"], attached)
    out[:] = _splitmix64_vec(keys) & np.uint64(payload["mask"])
    return None


def task_hash_blobs(payload: dict, attached: dict):
    """BLAKE2b-hash a str/bytes key chunk; optionally route it too.

    Payload: ``keys`` (pickled list — object keys cannot live in shm),
    ``out`` (uint64), ``mask``; optionally ``starts``/``lasts``/``pos_out``
    to also locate each index.  Returns the sorted array of occupied table
    positions when routing, else ``None``.
    """
    out = attach_view(payload["out"], attached)
    out[:] = _hash_blob_batch(payload["keys"]) & np.uint64(payload["mask"])
    if "starts" not in payload:
        return None
    starts = attach_view(payload["starts"], attached)
    lasts = attach_view(payload["lasts"], attached)
    pos_out = attach_view(payload["pos_out"], attached)
    pos_out[:] = _locate(out, starts, lasts)
    return np.unique(pos_out)


def task_hash_locate_u64(payload: dict, attached: dict):
    """Hash + route a uint64 key chunk (the ``lookup_many`` kernel).

    Payload: ``keys`` (uint64 bit patterns), ``starts``/``lasts`` (routing
    table columns), ``idx_out`` (uint64), ``pos_out`` (int64), ``mask``.
    Writes hash indices and table positions in input order; returns the
    sorted array of occupied table positions (for the route-table union).
    """
    keys = attach_view(payload["keys"], attached)
    idx_out = attach_view(payload["idx_out"], attached)
    pos_out = attach_view(payload["pos_out"], attached)
    starts = attach_view(payload["starts"], attached)
    lasts = attach_view(payload["lasts"], attached)
    idx_out[:] = _splitmix64_vec(keys) & np.uint64(payload["mask"])
    pos_out[:] = _locate(idx_out, starts, lasts)
    return np.unique(pos_out)


def task_route_u64(payload: dict, attached: dict):
    """Hash, route and position-sort a uint64 key chunk (the ``bulk_load``
    kernel).

    Payload: ``keys`` (uint64 bit patterns), ``starts``/``lasts``,
    ``skeys``/``sidx`` (uint64 outputs: keys and hash indices reordered by
    stable argsort on table position), optional ``order`` (int64 output:
    the argsort permutation itself, needed by the parent to reorder the
    python-object value column), ``mask``, ``npos``.

    Returns the per-position row counts (``int64``, length ``npos``) whose
    cumulative sums delimit the sorted runs — the parallel counterpart of
    the serial engine's ``_position_runs``.  The stable sort keeps rows of
    one position in input order, so adopting runs in (position, chunk)
    order reproduces the serial engine's write order exactly.
    """
    keys = attach_view(payload["keys"], attached)
    skeys = attach_view(payload["skeys"], attached)
    sidx = attach_view(payload["sidx"], attached)
    starts = attach_view(payload["starts"], attached)
    lasts = attach_view(payload["lasts"], attached)
    idx = _splitmix64_vec(keys) & np.uint64(payload["mask"])
    pos = _locate(idx, starts, lasts)
    order = np.argsort(pos, kind="stable")
    skeys[:] = keys[order]
    sidx[:] = idx[order]
    if payload.get("order") is not None:
        attach_view(payload["order"], attached)[:] = order
    return np.bincount(pos, minlength=payload["npos"])


#: Task registry the worker loop dispatches through.
TASKS: Dict[str, Callable[[dict, dict], object]] = {
    "ping": task_ping,
    "hash_u64": task_hash_u64,
    "hash_blobs": task_hash_blobs,
    "hash_locate_u64": task_hash_locate_u64,
    "route_u64": task_route_u64,
}

__all__ = ["TASKS"]
