"""Durable backend for :class:`~repro.core.storage.VnodeStore`.

The paper's model is RAM-only: replication (``replication_factor >= 2``)
protects against crashes only while some process survives, and nothing
survives a full restart.  This module adds the missing persistence tier —
**per-vnode on-disk state** made of

* an **append-only write-ahead log** (WAL) that records every logical
  mutation of the primary store (point puts/deletes, columnar batches,
  migration drops/retains) as length-prefixed, CRC-checksummed pickle
  records, and
* **columnar segment files** written by checkpoints: the store's two tiers
  (hash tier + pending segments) serialized column-wise, with ``uint64``
  index columns stored as raw aligned bytes so recovery can map them back
  with ``numpy.memmap`` instead of copying.

The tier is enabled by ``DHTConfig(durability=DurabilityConfig(...))`` and
completely absent when off — every hook in the storage engine is gated on
``store.durable is not None``, so the RAM-only path stays bit-identical.

**Write path.**  Mutations append one WAL record; once
``flush_threshold`` records accumulate the store checkpoints: the current
in-memory state is written as a fresh *generation* of segment files, a
manifest naming them is atomically installed (``os.replace``), a new empty
WAL for that generation is opened and the previous generation's files are
deleted.  Replaying ``segments + WAL`` of the installed generation always
reproduces the live store, no matter where a kill lands.

**Recovery.**  :meth:`DurableVnodeStore.recover` loads the manifest's
segment files, replays the WAL tail on top and returns columnar segments
ready to extend a store's pending-segment tier.  A *torn tail* — a partial
or corrupt final record from a kill mid-append — is truncated and
discarded, never fatal.  Replay is columnar: the checkpoint segments are
adopted as-is (memory-mapped, zero-copy), WAL batches become additional
pending segments, and a migration ``drop`` / ``retain`` is one column mask
per accumulated segment.  Only a tail holding a point delete falls back to
an exact per-row merge that materializes one segment.

**Recovery choice.**  After a restart
(:meth:`~repro.core.base.BaseDHT.restart_snode`) a vnode's content can
come from its local disk *or* — when replicas survive — from a replica
rebuild over the network.  ``recover_primaries`` prices both
(``replay_records × disk_record_replay_cost`` vs ``replica rows ×
replica_row_fetch_cost``) and picks the cheaper source; the same record
count feeds the lifecycle protocol simulator so restart events get priced
like every other topology event.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import warnings
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import DurabilityError
from repro.utils.arrays import locate_ranges

#: One WAL record: ``<payload length><crc32(payload)>`` then the payload.
_RECORD_HEADER = struct.Struct("<II")
#: Magic prefix of columnar segment files.
_SEGMENT_MAGIC = b"RSEG1\n"
#: Header of a segment file: ``<pickled header length>``.
_SEGMENT_HEADER = struct.Struct("<I")
#: Name of the generation manifest inside a vnode directory.
_MANIFEST_NAME = "MANIFEST"

#: A recovered columnar segment: ``(keys, indexes, values-or-None)``,
#: the same shape as :data:`repro.core.storage._Segment`.
_Columns = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of the durability tier (hashable; lives on ``DHTConfig``)."""

    #: Root directory; each vnode gets ``<data_dir>/<canonical_name>/``.
    data_dir: str
    #: WAL records accumulated before the store checkpoints to segment files.
    flush_threshold: int = 1024
    #: ``fsync`` after every WAL append (slow; the model's default relies on
    #: the OS page cache like most single-box stores in relaxed mode).
    fsync: bool = False
    #: Load ``uint64`` index columns of segment files via ``numpy.memmap``
    #: (zero-copy) instead of reading them into RAM.
    mmap_segments: bool = True
    #: Relative cost of replaying one on-disk record (checkpoint row or WAL
    #: record) during recovery.  Used by ``recover_primaries`` to price
    #: local-disk replay against replica rebuild.
    disk_record_replay_cost: float = 1.0
    #: Relative cost of fetching one row from a surviving replica over the
    #: network.  Disk replay wins whenever
    #: ``replay_records × disk_record_replay_cost <=
    #: replica_rows × replica_row_fetch_cost``.
    replica_row_fetch_cost: float = 4.0

    def __post_init__(self) -> None:
        if not isinstance(self.data_dir, str) or not self.data_dir:
            raise DurabilityError("data_dir must be a non-empty path string")
        if self.flush_threshold < 1:
            raise DurabilityError("flush_threshold must be >= 1")
        if self.disk_record_replay_cost < 0 or self.replica_row_fetch_cost < 0:
            raise DurabilityError("recovery cost weights must be non-negative")

    def as_dict(self) -> Dict[str, Any]:
        """JSON/snapshot-serializable form (restored by ``DurabilityConfig(**d)``)."""
        return {
            "data_dir": self.data_dir,
            "flush_threshold": self.flush_threshold,
            "fsync": self.fsync,
            "mmap_segments": self.mmap_segments,
            "disk_record_replay_cost": self.disk_record_replay_cost,
            "replica_row_fetch_cost": self.replica_row_fetch_cost,
        }


@dataclass
class DurabilityStats:
    """Counters of the durability tier (mirrors ``MigrationStats`` style)."""

    wal_records_written: int = 0
    wal_bytes_written: int = 0
    checkpoints: int = 0
    checkpoint_rows: int = 0
    replays: int = 0
    rows_replayed: int = 0
    wal_records_replayed: int = 0
    torn_records_discarded: int = 0
    #: Corrupt/unreadable MANIFEST files encountered during recovery (each
    #: falls back to WAL-only replay instead of recovering silently empty).
    manifests_corrupt: int = 0
    resets: int = 0
    restarts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "wal_records_written": self.wal_records_written,
            "wal_bytes_written": self.wal_bytes_written,
            "checkpoints": self.checkpoints,
            "checkpoint_rows": self.checkpoint_rows,
            "replays": self.replays,
            "rows_replayed": self.rows_replayed,
            "wal_records_replayed": self.wal_records_replayed,
            "torn_records_discarded": self.torn_records_discarded,
            "manifests_corrupt": self.manifests_corrupt,
            "resets": self.resets,
            "restarts": self.restarts,
        }


@dataclass
class RecoveredState:
    """What one :meth:`DurableVnodeStore.recover` call reconstructed."""

    #: Columnar segments ready to extend a store's pending-segment tier.
    segments: List[_Columns] = field(default_factory=list)
    #: Logical rows across all recovered segments.
    rows: int = 0
    #: WAL records replayed on top of the checkpoint.
    wal_records: int = 0
    #: Torn/corrupt tail records discarded (0 or 1 per recovery).
    torn_records_discarded: int = 0
    #: Whether the zero-copy (mmap adopt) path served the recovery.
    zero_copy: bool = False


# -- columnar segment files ----------------------------------------------------


def _as_pylist(column) -> list:
    """A column as a list of plain Python objects (never numpy scalars).

    Keys and hash indexes become dict keys / python ints again on replay,
    so they must round-trip as the exact types the RAM path stores
    (``ndarray.tolist()`` — the same normalization
    :meth:`~repro.core.storage.VnodeStore._merge_segments` applies).
    """
    if isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


def write_segment_file(
    path: str,
    keys: np.ndarray,
    indexes: np.ndarray,
    values: Optional[np.ndarray],
) -> int:
    """Write one columnar segment to ``path`` atomically; return its row count.

    Layout: magic, a pickled header, the index column (raw little-endian
    bytes 8-byte aligned when ``uint64`` — the region ``numpy.memmap`` maps
    back — pickled otherwise), then the pickled key and value columns.
    """
    n = int(len(keys))
    index_u8 = indexes.dtype == np.dtype(np.uint64)
    header = {"n": n, "index_dtype": "u8" if index_u8 else "object"}
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_SEGMENT_MAGIC)
        fh.write(_SEGMENT_HEADER.pack(len(header_bytes)))
        fh.write(header_bytes)
        if index_u8:
            fh.write(b"\0" * ((-fh.tell()) % 8))
            fh.write(np.ascontiguousarray(indexes).tobytes())
        else:
            fh.write(pickle.dumps(_as_pylist(indexes), protocol=pickle.HIGHEST_PROTOCOL))
        fh.write(pickle.dumps(_as_pylist(keys), protocol=pickle.HIGHEST_PROTOCOL))
        fh.write(
            pickle.dumps(
                None if values is None else _as_pylist(values),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
    os.replace(tmp, path)
    return n


def load_segment_file(path: str, mmap: bool = True) -> _Columns:
    """Load one columnar segment written by :func:`write_segment_file`.

    With ``mmap=True`` a ``uint64`` index column is returned as a read-only
    ``numpy.memmap`` view of the file region (bit-identical to the eager
    load, pinned by ``tests/test_durability.py``).
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_SEGMENT_MAGIC))
        if magic != _SEGMENT_MAGIC:
            raise DurabilityError(f"{path}: bad segment magic {magic!r}")
        (header_len,) = _SEGMENT_HEADER.unpack(fh.read(_SEGMENT_HEADER.size))
        header = pickle.loads(fh.read(header_len))
        n = header["n"]
        if header["index_dtype"] == "u8":
            fh.seek((-fh.tell()) % 8, os.SEEK_CUR)
            offset = fh.tell()
            if mmap:
                indexes: np.ndarray = np.memmap(
                    path, dtype=np.uint64, mode="r", offset=offset, shape=(n,)
                )
            else:
                indexes = np.frombuffer(fh.read(n * 8), dtype=np.uint64).copy()
            fh.seek(offset + n * 8)
        else:
            index_list = pickle.load(fh)
            indexes = np.empty(n, dtype=object)
            indexes[:] = index_list
        key_list = pickle.load(fh)
        value_list = pickle.load(fh)
    keys = np.empty(n, dtype=object)
    keys[:] = key_list
    if value_list is None:
        values: Optional[np.ndarray] = None
    else:
        values = np.empty(n, dtype=object)
        values[:] = value_list
    return keys, indexes, values


# -- WAL replay ----------------------------------------------------------------


def _columns_from_dict(items: Dict[Any, Tuple[Any, Any]]) -> _Columns:
    """One columnar segment from a ``key -> (index, value)`` mapping."""
    n = len(items)
    keys = np.empty(n, dtype=object)
    keys[:] = list(items.keys())
    pairs = list(items.values())
    values = np.empty(n, dtype=object)
    values[:] = [p[1] for p in pairs]
    return keys, _index_column([p[0] for p in pairs]), values


def _merge_columns(target: Dict[Any, Tuple[Any, Any]], segment: _Columns) -> None:
    """Merge one columnar segment into a dict, last write wins (write order)."""
    keys, indexes, values = segment
    key_list = _as_pylist(keys)
    index_list = _as_pylist(indexes)
    if values is None:
        for key, index in zip(key_list, index_list):
            target[key] = (index, None)
    else:
        for key, index, value in zip(key_list, index_list, _as_pylist(values)):
            target[key] = (index, value)


def _index_in_ranges(index: Any, starts: Sequence, lasts: Sequence) -> bool:
    """Whether ``index`` falls in any of the sorted inclusive ranges."""
    pos = bisect_right(starts, index) - 1
    return pos >= 0 and index <= lasts[pos]


def _apply_op(target: Dict[Any, Tuple[Any, Any]], op: Tuple) -> None:
    """Apply one WAL op to the exact-replay dict."""
    kind = op[0]
    if kind == "put":
        target[op[1]] = (op[2], op[3])
    elif kind == "del":
        target.pop(op[1], None)
    elif kind == "batch":
        _merge_columns(target, (op[1], op[2], op[3]))
    elif kind == "pairs":
        target.update(op[1])
    elif kind in ("drop", "retain"):
        starts, lasts = op[1], op[2]
        dropping = kind == "drop"
        doomed = [
            k for k, (i, _) in target.items()
            if _index_in_ranges(i, starts, lasts) == dropping
        ]
        for key in doomed:
            del target[key]
    else:  # pragma: no cover - defensive
        raise DurabilityError(f"unknown WAL op kind {kind!r}")


def _pairs_to_columns(pairs: List[Tuple[Any, Tuple[Any, Any]]]) -> _Columns:
    """Columnar form of a ``pairs`` WAL op (hash-tier adoption)."""
    merged: Dict[Any, Tuple[Any, Any]] = {}
    merged.update(pairs)
    return _columns_from_dict(merged)


def _index_column(indexes: List[Any]) -> np.ndarray:
    """A list of hash indexes (or range bounds) as ``uint64``, or as an
    object column of python ints when the hash space is wider."""
    try:
        return np.fromiter(indexes, dtype=np.uint64, count=len(indexes))
    except (OverflowError, ValueError, TypeError):
        column = np.empty(len(indexes), dtype=object)
        column[:] = indexes
        return column


def _filter_ranges(
    segments: List[_Columns], starts: List[Any], lasts: List[Any], keep_inside: bool
) -> List[_Columns]:
    """Apply a ``retain`` (``keep_inside``) or ``drop`` op as one column mask
    per segment.  Segments the op leaves whole are passed through untouched
    (a memory-mapped checkpoint column stays mapped)."""
    start_col, last_col = _index_column(starts), _index_column(lasts)
    out: List[_Columns] = []
    for segment in segments:
        keys, indexes, values = segment
        keep = locate_ranges(indexes, start_col, last_col)[1]
        if not keep_inside:
            keep = ~keep
        kept = int(np.count_nonzero(keep))
        if kept == len(keys):
            out.append(segment)
        elif kept:
            out.append((keys[keep], indexes[keep], None if values is None else values[keep]))
    return out


def replay_ops(segments: List[_Columns], ops: List[Tuple]) -> Tuple[List[_Columns], bool]:
    """Replay ``ops`` over checkpoint ``segments``; return ``(segments, zero_copy)``.

    The replay stays columnar: every WAL batch becomes a further pending
    segment after the checkpoint's (consecutive point puts coalesce into one
    batch, in order), and a ``drop`` / ``retain`` masks the rows accumulated
    so far — a key always hashes to the same index, so removing a range
    from every earlier batch equals removing its keys.  ``zero_copy`` tells
    that no op removed anything and the checkpoint segments (possibly
    memory-mapped) came through untouched.  Only a point ``del`` forces the
    exact path: everything merges into one dict (write order, last write
    wins) and out comes a single segment.
    """
    if any(op[0] == "del" for op in ops):
        merged: Dict[Any, Tuple[Any, Any]] = {}
        for segment in segments:
            _merge_columns(merged, segment)
        for op in ops:
            _apply_op(merged, op)
        return ([_columns_from_dict(merged)] if merged else []), False

    out = list(segments)
    puts: List[Tuple] = []

    def flush_puts() -> None:
        if not puts:
            return
        keys = np.empty(len(puts), dtype=object)
        keys[:] = [op[1] for op in puts]
        values = np.empty(len(puts), dtype=object)
        values[:] = [op[3] for op in puts]
        out.append((keys, _index_column([op[2] for op in puts]), values))
        puts.clear()

    zero_copy = True
    for op in ops:
        kind = op[0]
        if kind == "put":
            puts.append(op)
            continue
        flush_puts()
        if kind == "batch":
            out.append((op[1], op[2], op[3]))
        elif kind == "pairs":
            if op[1]:
                out.append(_pairs_to_columns(op[1]))
        elif kind in ("drop", "retain"):
            out = _filter_ranges(out, op[1], op[2], keep_inside=kind == "retain")
            zero_copy = False
        else:  # pragma: no cover - defensive
            raise DurabilityError(f"unknown WAL op kind {kind!r}")
    flush_puts()
    return out, zero_copy


# -- per-vnode durable store ---------------------------------------------------


class DurableVnodeStore:
    """WAL + checkpoint segment files of one vnode's primary store.

    One instance per registered vnode, attached to its
    :class:`~repro.core.storage.VnodeStore` as ``store.durable``.  All
    methods are invoked from the storage engine's mutation hooks; nothing
    here is thread-safe (neither is the engine).
    """

    def __init__(self, directory: str, config: DurabilityConfig, stats: DurabilityStats):
        self.directory = directory
        self.config = config
        self.stats = stats
        self.generation = 0
        self.segment_names: List[str] = []
        #: Rows held by the current generation's checkpoint segment files.
        self.checkpoint_rows = 0
        #: Records appended to the current generation's WAL.
        self.wal_records = 0
        #: Set when the owning store lost its memory (restart) and the disk
        #: is ahead of RAM; cleared by :meth:`recover` or :meth:`reset`.
        self.needs_replay = False
        self._fh = None  # type: Optional[Any]

    # -- paths -----------------------------------------------------------------

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, f"wal-{self.generation}.log")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, _MANIFEST_NAME)

    #: Records a recovery would read: checkpoint rows plus WAL records.
    @property
    def replay_records(self) -> int:
        return self.checkpoint_rows + self.wal_records

    def replay_cost(self) -> float:
        """Priced cost of replaying this vnode's disk state."""
        return self.replay_records * self.config.disk_record_replay_cost

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Discard all on-disk state and start a fresh, empty generation."""
        self._close()
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(self.directory, exist_ok=True)
        self.generation = 0
        self.segment_names = []
        self.checkpoint_rows = 0
        self.wal_records = 0
        self.needs_replay = False
        self.stats.resets += 1

    def destroy(self) -> None:
        """Close and remove the vnode's directory (vnode unregistered)."""
        self._close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _wal_handle(self):
        if self._fh is None:
            self._fh = open(self.wal_path, "ab")
        return self._fh

    # -- write path ------------------------------------------------------------

    def append(self, op: Tuple) -> None:
        """Append one mutation record to the WAL."""
        payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
        fh = self._wal_handle()
        fh.write(_RECORD_HEADER.pack(len(payload), zlib.crc32(payload)))
        fh.write(payload)
        fh.flush()
        if self.config.fsync:
            os.fsync(fh.fileno())
        self.wal_records += 1
        self.stats.wal_records_written += 1
        self.stats.wal_bytes_written += _RECORD_HEADER.size + len(payload)

    def should_checkpoint(self) -> bool:
        return self.wal_records >= self.config.flush_threshold

    def checkpoint(
        self,
        items: Dict[Any, Tuple[Any, Any]],
        segments: Sequence[_Columns],
    ) -> int:
        """Flush the store's live state to a new generation of segment files.

        The hash tier becomes one columnar file, each pending segment one
        more — written tier-shape-preserving, no merge.  The manifest swap
        (``os.replace``) is the commit point; the old generation's WAL and
        files are only deleted after it, so a kill anywhere leaves exactly
        one consistent generation to recover.
        """
        new_gen = self.generation + 1
        names: List[str] = []
        total = 0
        parts: List[_Columns] = []
        if items:
            parts.append(_columns_from_dict(items))
        parts.extend(segments)
        for i, (keys, indexes, values) in enumerate(parts):
            name = f"seg-{new_gen}-{i}.seg"
            total += write_segment_file(
                os.path.join(self.directory, name), keys, indexes, values
            )
            names.append(name)
        manifest = {"generation": new_gen, "segments": names}
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, self.manifest_path)
        # Commit point passed: retire the previous generation.
        self._close()
        old_wal = os.path.join(self.directory, f"wal-{self.generation}.log")
        old_segments = [
            os.path.join(self.directory, name) for name in self.segment_names
        ]
        self.generation = new_gen
        self.segment_names = names
        self.checkpoint_rows = total
        self.wal_records = 0
        for path in [old_wal] + old_segments:
            try:
                os.remove(path)
            except OSError:
                pass
        self.stats.checkpoints += 1
        self.stats.checkpoint_rows += total
        return total

    # -- recovery --------------------------------------------------------------

    def _read_manifest(self) -> None:
        """Point this log at the generation installed on disk (if any).

        A *missing* manifest is the legitimate fresh-vnode case (nothing was
        ever checkpointed) and points at generation 0.  A manifest that
        exists but cannot be read — torn by a mid-``os.replace`` kill,
        bit-rotted, or otherwise malformed — is a real fault: it is counted
        in :attr:`DurabilityStats.manifests_corrupt`, reported with a
        :class:`RuntimeWarning`, and recovery falls back to **WAL-only
        replay** of the newest WAL generation on disk.  The checkpoint
        segment files cannot be trusted without the manifest naming the
        committed generation, but the WAL still holds every acknowledged
        write since that checkpoint — strictly better than recovering
        silently empty as if the vnode were fresh.
        """
        self.generation = 0
        self.segment_names = []
        try:
            with open(self.manifest_path, "rb") as fh:
                manifest = pickle.load(fh)
            self.generation = int(manifest["generation"])
            self.segment_names = list(manifest["segments"])
        except FileNotFoundError:
            pass  # fresh vnode: nothing checkpointed yet
        except Exception as exc:
            self.generation = self._newest_wal_generation()
            self.segment_names = []
            self.stats.manifests_corrupt += 1
            warnings.warn(
                f"corrupt manifest in {self.directory} ({exc!r}); checkpoint "
                f"segments are untrusted, falling back to WAL-only replay of "
                f"generation {self.generation}",
                RuntimeWarning,
                stacklevel=3,
            )

    def _newest_wal_generation(self) -> int:
        """Highest generation with a ``wal-<gen>.log`` on disk (0 if none).

        Used by the corrupt-manifest fallback: checkpointing deletes the
        previous generation's WAL only *after* the manifest swap commits, so
        the newest WAL on disk always belongs to the last generation whose
        manifest was (or was being) installed.
        """
        generations = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if name.startswith("wal-") and name.endswith(".log"):
                try:
                    generations.append(int(name[len("wal-") : -len(".log")]))
                except ValueError:
                    continue
        return max(generations, default=0)

    def _read_wal(self) -> Tuple[List[Tuple], int]:
        """All intact WAL records; truncate and count a torn/corrupt tail."""
        try:
            with open(self.wal_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return [], 0
        ops: List[Tuple] = []
        offset = 0
        good = 0
        discarded = 0
        size = len(data)
        while offset + _RECORD_HEADER.size <= size:
            length, crc = _RECORD_HEADER.unpack_from(data, offset)
            start = offset + _RECORD_HEADER.size
            if start + length > size:
                discarded = 1
                break
            payload = data[start : start + length]
            if zlib.crc32(payload) != crc:
                discarded = 1
                break
            try:
                ops.append(pickle.loads(payload))
            except Exception:
                discarded = 1
                break
            offset = start + length
            good = offset
        if good < size and discarded == 0:
            discarded = 1  # trailing partial header
        if good < size:
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(good)
        return ops, discarded

    def recover(self, mmap: Optional[bool] = None) -> RecoveredState:
        """Reconstruct the store's content from disk.

        Missing directory, manifest or WAL all recover to the empty state —
        a vnode that never wrote anything restarts empty, not broken.
        """
        if mmap is None:
            mmap = self.config.mmap_segments
        self._close()
        os.makedirs(self.directory, exist_ok=True)
        self._read_manifest()
        segments: List[_Columns] = []
        checkpoint_rows = 0
        for name in self.segment_names:
            path = os.path.join(self.directory, name)
            try:
                segment = load_segment_file(path, mmap=mmap)
            except FileNotFoundError:
                raise DurabilityError(
                    f"manifest of {self.directory} names missing segment {name}"
                )
            checkpoint_rows += len(segment[0])
            segments.append(segment)
        ops, discarded = self._read_wal()
        out, zero_copy = replay_ops(segments, ops)
        rows = sum(len(seg[0]) for seg in out)
        self.checkpoint_rows = checkpoint_rows
        self.wal_records = len(ops)
        self.needs_replay = False
        self.stats.replays += 1
        self.stats.rows_replayed += rows
        self.stats.wal_records_replayed += len(ops)
        self.stats.torn_records_discarded += discarded
        return RecoveredState(
            segments=out,
            rows=rows,
            wal_records=len(ops),
            torn_records_discarded=discarded,
            zero_copy=zero_copy,
        )


class DurableStoreManager:
    """All durable per-vnode stores of one :class:`~repro.core.storage.DHTStorage`."""

    def __init__(self, config: DurabilityConfig, stats: DurabilityStats):
        self.config = config
        self.stats = stats
        self._logs: Dict[Any, DurableVnodeStore] = {}
        os.makedirs(config.data_dir, exist_ok=True)

    def attach(self, ref, fresh: bool = True) -> DurableVnodeStore:
        """Create the durable store for a newly registered vnode.

        In the single-process model registration is always a *fresh* vnode
        (restart keeps the vnode registered), so any leftover directory from
        a previous life of the name is discarded.  A rebooted server
        *process* re-registering the vnodes it hosted before being killed
        passes ``fresh=False``: the on-disk WAL/segments are kept and the
        store is marked as needing replay (disk is ahead of the empty RAM).
        """
        if ref in self._logs:
            raise DurabilityError(f"durable store for {ref} already attached")
        log = DurableVnodeStore(
            os.path.join(self.config.data_dir, str(ref.canonical_name)),
            self.config,
            self.stats,
        )
        if fresh:
            log.reset()
        else:
            log.needs_replay = True
        self._logs[ref] = log
        return log

    def detach(self, ref) -> None:
        """Destroy the durable store of an unregistered vnode."""
        log = self._logs.pop(ref, None)
        if log is not None:
            log.destroy()

    def close(self) -> None:
        """Close every WAL file handle (each reopens on its next append)."""
        for log in self._logs.values():
            log._close()

    def log_for(self, ref) -> Optional[DurableVnodeStore]:
        return self._logs.get(ref)

    def pending_refs(self) -> List[Any]:
        """Vnodes whose disk state is ahead of memory (awaiting replay)."""
        return [ref for ref, log in self._logs.items() if log.needs_replay]

    def has_pending(self) -> bool:
        return any(log.needs_replay for log in self._logs.values())
