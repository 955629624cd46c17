"""Shared-memory arena: columnar blocks workers address by descriptor.

The multicore pipeline never pickles rows between processes.  The parent
copies (or allocates) numpy columns inside ``multiprocessing.shared_memory``
blocks and ships workers :class:`ArrayRef` descriptors — ``(shm name,
byte offset, element count, dtype)`` — which the workers resolve back into
zero-copy numpy views (:func:`attach_view`).  A 10M-key batch therefore
crosses the process boundary as a few hundred bytes of descriptors instead
of hundreds of megabytes of pickle.

Two block classes exist:

* **scratch** blocks hold per-call inputs and intermediates.  They are
  recycled between calls through a size-keyed free pool, so a steady-state
  bulk pipeline allocates shm once and reuses it.
* **pinned** blocks hold columns that outlive the call — the sorted
  key/index columns ``bulk_load`` adopts *zero-copy* as ``VnodeStore``
  pending segments.  They are never recycled; :meth:`ShmArena.owns` lets
  the storage layer detect such views (and materialize private copies
  before the arena goes away, see
  :meth:`repro.core.storage.DHTStorage.materialize_shared`).

Lifecycle notes (learned the hard way):

* ``SharedMemory.close()`` raises :class:`BufferError` while any numpy
  view into the block is alive; ``unlink()`` works regardless (the POSIX
  name disappears, the mapping stays valid until unmapped).  Arena close
  therefore always unlinks — no ``/dev/shm`` leak even on sloppy exits —
  and merely best-efforts the ``close()``.
* Workers attaching by name immediately unregister the block from their
  ``resource_tracker`` — the parent owns cleanup; double-tracking would
  produce spurious "leaked shared_memory" warnings (or double unlinks) at
  worker exit.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, NamedTuple, Tuple

import numpy as np


class ArrayRef(NamedTuple):
    """Descriptor of one numpy array living inside a shared-memory block."""

    #: ``SharedMemory`` name the array lives in.
    name: str
    #: Byte offset of the first element inside the block.
    offset: int
    #: Number of elements.
    count: int
    #: Numpy dtype string (e.g. ``"uint64"``, ``"int64"``).
    dtype: str


def mute_worker_tracker() -> None:
    """Stop this process's resource tracker from adopting attached blocks.

    Called once at worker startup, **before** the first attach.  Workers
    only ever attach parent-owned blocks; the parent owns unlink.  Letting
    the attach register anyway is wrong under both start methods, for
    different reasons: with ``spawn`` the worker's own tracker "cleans up"
    (unlinks!) the parent's live blocks at worker exit with a leak warning;
    with ``fork`` the tracker *process* is shared, so a worker-side
    unregister would cancel the parent's registration and the parent's
    later unlink would crash the tracker loop with a ``KeyError``.
    """
    resource_tracker.register = _ignore_resource  # type: ignore[assignment]


def _ignore_resource(name: str, rtype: str) -> None:
    """No-op ``resource_tracker.register`` for worker processes."""


def attach_view(ref: ArrayRef, attached: Dict[str, shared_memory.SharedMemory]) -> np.ndarray:
    """Resolve a descriptor into a numpy view (worker side).

    ``attached`` caches one ``SharedMemory`` handle per block name for the
    life of the worker (see :func:`mute_worker_tracker` for why attaching
    must not register the block).
    """
    shm = attached.get(ref.name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=ref.name)
        attached[ref.name] = shm
    return np.frombuffer(
        shm.buf, dtype=np.dtype(ref.dtype), count=ref.count, offset=ref.offset
    )


def _noop() -> None:
    """Replacement ``close`` for blocks whose unmap must wait for live views."""


def _round_size(nbytes: int) -> int:
    """Round a block size up to a power of two (>= 4 KiB) for pooling."""
    size = 4096
    while size < nbytes:
        size <<= 1
    return size


class _Block:
    """One owned ``SharedMemory`` block plus its parent-side address range."""

    __slots__ = ("shm", "size", "addr", "pinned")

    def __init__(self, shm: shared_memory.SharedMemory, pinned: bool) -> None:
        self.shm = shm
        self.size = shm.size
        # Base address of the mapping in THIS process, for owns() lookups.
        self.addr = np.frombuffer(shm.buf, dtype=np.uint8).ctypes.data
        self.pinned = pinned


class ShmArena:
    """Allocate, pool and destroy the shared-memory blocks of one executor."""

    def __init__(self) -> None:
        self._blocks: Dict[str, _Block] = {}
        #: Recyclable scratch blocks by rounded size (name lists).
        self._free: Dict[int, List[str]] = {}
        self._closed = False

    # ---------------------------------------------------------------- allocate

    def _new_block(self, nbytes: int, pinned: bool) -> _Block:
        if self._closed:
            raise ValueError("shm arena is closed")
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        block = _Block(shm, pinned)
        self._blocks[shm.name] = block
        return block

    def _take_scratch(self, nbytes: int) -> _Block:
        size = _round_size(nbytes)
        names = self._free.get(size)
        if names:
            return self._blocks[names.pop()]
        return self._new_block(size, pinned=False)

    def alloc(self, count: int, dtype, pinned: bool = False) -> Tuple[ArrayRef, np.ndarray]:
        """Allocate an uninitialized array; returns ``(descriptor, view)``."""
        dt = np.dtype(dtype)
        nbytes = count * dt.itemsize
        block = self._new_block(nbytes, True) if pinned else self._take_scratch(nbytes)
        ref = ArrayRef(block.shm.name, 0, count, dt.name)
        return ref, np.frombuffer(block.shm.buf, dtype=dt, count=count)

    def store(self, array: np.ndarray, pinned: bool = False) -> Tuple[ArrayRef, np.ndarray]:
        """Copy an array into the arena; returns ``(descriptor, view)``."""
        ref, view = self.alloc(len(array), array.dtype, pinned=pinned)
        view[:] = array
        return ref, view

    def release(self, ref: ArrayRef) -> None:
        """Return a scratch block to the free pool (no-op for pinned blocks)."""
        block = self._blocks.get(ref.name)
        if block is None or block.pinned:
            return
        self._free.setdefault(block.size, []).append(ref.name)

    # ------------------------------------------------------------------ lookup

    def view(self, ref: ArrayRef) -> np.ndarray:
        """Parent-side view of a descriptor (the block must be arena-owned)."""
        block = self._blocks[ref.name]
        return np.frombuffer(
            block.shm.buf, dtype=np.dtype(ref.dtype), count=ref.count, offset=ref.offset
        )

    def owns(self, array: np.ndarray) -> bool:
        """True if the array's data lives inside one of this arena's blocks.

        Pointer-range check against every owned block — this is how the
        storage layer recognizes zero-copy shm segments it must materialize
        before the arena is destroyed.
        """
        if array.dtype == object or array.nbytes == 0:
            return False
        addr = array.ctypes.data
        end = addr + array.nbytes
        for block in self._blocks.values():
            if block.addr <= addr and end <= block.addr + block.size:
                return True
        return False

    @property
    def block_names(self) -> List[str]:
        """Names of every live block (tests assert none leak after close)."""
        return list(self._blocks)

    @property
    def total_bytes(self) -> int:
        """Bytes currently held across all blocks (pinned + scratch)."""
        return sum(block.size for block in self._blocks.values())

    # ------------------------------------------------------------------- close

    def close(self) -> None:
        """Unlink and close every block.  Safe to call repeatedly.

        Unlink always succeeds (removing the ``/dev/shm`` entry even while
        mappings are alive); ``close()`` is best-effort because numpy views
        still referencing a block legally prevent unmapping — callers that
        adopted zero-copy segments materialize them first (see module
        docstring).
        """
        self._closed = True
        blocks, self._blocks = self._blocks, {}
        self._free = {}
        for block in blocks.values():
            try:
                block.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            try:
                block.shm.close()
            except BufferError:
                # A live view still maps the block; the memory is reclaimed
                # when the last view dies (mmap deallocation unmaps).  The
                # name is already gone.  Disarm the __del__ retry so the
                # interpreter never prints an ignored BufferError.
                block.shm.close = _noop


__all__ = ["ArrayRef", "ShmArena", "attach_view"]
