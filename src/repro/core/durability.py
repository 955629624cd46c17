"""Durable backend for :class:`~repro.core.storage.VnodeStore`.

The paper's model is RAM-only: replication (``replication_factor >= 2``)
protects against crashes only while some process survives, and nothing
survives a full restart.  This module adds the missing persistence tier —
**per-vnode on-disk state** made of

* an **append-only write-ahead log** (WAL) that records every logical
  mutation of the primary store (point puts/deletes, columnar batches,
  adopted hash-tier pairs, migration drops/retains) as length-prefixed,
  CRC-checksummed pickle records, and
* **segment files** written by checkpoints: each of the store's tiers (the
  hash tier, then every pending segment) as one row group in the wire's
  column format (:mod:`repro.utils.columns`) behind a CRC, so native key
  and value dtypes survive a restart and a damaged file is refused, never
  loaded.

The tier is enabled by ``DHTConfig(durability=DurabilityConfig(...))`` and
completely absent when off — every hook in the storage engine is gated on
``store.durable is not None``, so the RAM-only path stays bit-identical.

**Write path.**  Mutations append one WAL record; once
``flush_threshold`` records accumulate the store checkpoints: its tiers are
written as a fresh *generation* of segment files, a ``MANIFEST`` naming
them (JSON behind the same CRC) is atomically installed (``os.replace``), a
new empty WAL for that generation is opened and the previous generation's
files are deleted.  A kill anywhere leaves exactly one installed
generation: its segment files plus its WAL.

**Recovery.**  :meth:`DurableVnodeStore.recover` only reads: it loads the
manifest's segment files and decodes the WAL tail, and returns both
(:class:`RecoveredState`).  It does not apply them — the store does
(:meth:`~repro.core.storage.VnodeStore.replay`), putting each checkpoint
tier back where it came from and running every WAL op through the
mutator that logged it, so replay cannot drift from the live write
semantics.  A *torn tail* — a partial or corrupt final record from a kill
mid-append, with no intact record after it — is truncated and discarded,
never fatal; a corrupt record with intact records after it, and a damaged
segment file, raise :class:`~repro.core.errors.DurabilityError`; a damaged
manifest falls back to replaying the newest WAL on disk.

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

import json
import os
import pickle
import shutil
import struct
import warnings
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import DurabilityError
from repro.utils.arrays import as_object_column
from repro.utils.columns import ColumnReader, encode_column, row_group

#: One WAL record: ``<payload length><crc32(payload)>`` then the payload.
_RECORD_HEADER = struct.Struct("<II")
#: Magic prefix of segment files.
_SEGMENT_MAGIC = b"RSEG2\n"
#: Header of a segment file after its magic: ``<row count><crc32(body)>``.
_SEGMENT_HEADER = struct.Struct("<QI")
#: First body byte of a segment file: 1 when the value column is ``object``
#: (a column of equal-length ``bytes`` otherwise decodes to ``V{width}``).
_OBJECT_VALUES = struct.Struct("!B")
#: Magic prefix of the manifest, and its header: ``<crc32(body)>``.
_MANIFEST_MAGIC = b"RMAN2\n"
_MANIFEST_HEADER = struct.Struct("<I")
#: Name of the generation manifest inside a vnode directory.
_MANIFEST_NAME = "MANIFEST"

#: A columnar row group: ``(keys, indexes, values-or-None)``, the same
#: shape as :data:`repro.core.storage._Segment`.
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
        """JSON/snapshot-serializable form (restored by ``DurabilityConfig(**d)``,
        which refuses a key no field has)."""
        return asdict(self)


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
        return asdict(self)


@dataclass
class RecoveredState:
    """What one :meth:`DurableVnodeStore.recover` call read from disk,
    ready for :meth:`~repro.core.storage.VnodeStore.replay`."""

    #: The checkpoint's hash tier as one row group, if it had one.
    hash_tier: Optional[_Columns] = None
    #: The checkpoint's pending segments, in the store's order.
    segments: List[_Columns] = field(default_factory=list)
    #: The WAL records written since the checkpoint, in write order.
    ops: List[Tuple] = field(default_factory=list)
    #: Rows read: the checkpoint's, plus those the WAL records carry.
    #: (:meth:`~repro.core.storage.DHTStorage.replay_vnode` reports the
    #: replayed store's ``fast_len`` instead.)
    rows: int = 0
    #: WAL records read on top of the checkpoint.
    wal_records: int = 0
    #: Torn/corrupt tail records discarded (0 or 1 per recovery).
    torn_records_discarded: int = 0


# -- checksummed files -----------------------------------------------------------


def _write_checked(
    path: str, magic: bytes, header: struct.Struct, fields: tuple, body: bytes
) -> None:
    """Write ``magic``, ``header`` (``fields`` then ``crc32(body)``) and
    ``body`` to ``path`` atomically: a temporary file, then a rename."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(magic + header.pack(*fields, zlib.crc32(body)) + body)
    os.replace(tmp, path)


def _read_checked(path: str, magic: bytes, header: struct.Struct) -> Tuple[tuple, bytes]:
    """The header fields and the body of a file :func:`_write_checked`
    wrote.  The magic, the length and the CRC are checked before the caller
    decodes anything; a mismatch raises :class:`DurabilityError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(magic) + header.size
    if len(data) < start or data[: len(magic)] != magic:
        raise DurabilityError(f"{path}: not a {magic!r} file")
    fields = header.unpack_from(data, len(magic))
    body = data[start:]
    if zlib.crc32(body) != fields[-1]:
        raise DurabilityError(f"{path}: checksum mismatch")
    return fields, body


def write_segment_file(
    path: str,
    keys: np.ndarray,
    indexes: np.ndarray,
    values: Optional[np.ndarray],
) -> int:
    """Write one row group to ``path`` atomically; return its row count.

    Layout: magic, ``<row count><crc32(body)>``, then the body — a flag
    byte (the value column is ``object``) and the three columns in the
    wire's encoding (:func:`~repro.utils.columns.encode_column`).
    """
    object_values = values is not None and values.dtype == object
    body = [_OBJECT_VALUES.pack(object_values)]
    for column in (keys, indexes, values):
        encode_column(body, column)
    _write_checked(path, _SEGMENT_MAGIC, _SEGMENT_HEADER, (len(keys),), b"".join(body))
    return len(keys)


def load_segment_file(path: str) -> _Columns:
    """Load one row group written by :func:`write_segment_file`, in the
    dtypes it was written from.  Any damage raises :class:`DurabilityError`."""
    (n, _), body = _read_checked(path, _SEGMENT_MAGIC, _SEGMENT_HEADER)
    reader = ColumnReader(body)
    try:
        (object_values,) = reader.unpack(_OBJECT_VALUES)
        columns = row_group(
            reader.column(), reader.column(), reader.column(), values_optional=True
        )
        reader.finish()
    except Exception as exc:  # a body that passed its CRC but decodes to nothing sane
        raise DurabilityError(f"{path}: {exc}") from exc
    keys, indexes, values = columns
    if len(keys) != n:
        raise DurabilityError(f"{path}: {len(keys)} rows, header says {n}")
    if object_values and values is not None and values.dtype != object:
        values = as_object_column(values.tolist())
    return keys, indexes, values


def _columns_from_dict(items: Dict[Any, Tuple[Any, Any]]) -> _Columns:
    """The hash tier as one row group of ``object`` columns."""
    pairs = list(items.values())
    return (
        as_object_column(list(items)),
        as_object_column([pair[0] for pair in pairs]),
        as_object_column([pair[1] for pair in pairs]),
    )


def _op_rows(op: Tuple) -> int:
    """Rows a WAL record carries (deletes and range ops carry none)."""
    return 1 if op[0] == "put" else len(op[1]) if op[0] in ("batch", "pairs") else 0


def _record_at(data: bytes, offset: int) -> Optional[bytes]:
    """The payload of the WAL record at ``offset`` if its header fits, its
    length fits and its CRC matches, else ``None``."""
    if offset + _RECORD_HEADER.size > len(data):
        return None
    length, crc = _RECORD_HEADER.unpack_from(data, offset)
    start = offset + _RECORD_HEADER.size
    payload = data[start : start + length]
    return payload if len(payload) == length and zlib.crc32(payload) == crc else None


def _intact_record_after(data: bytes, offset: int) -> bool:
    """Whether a non-empty record (:func:`_record_at`) starts at some byte
    after ``offset`` — what tells a corrupt middle record from a torn tail.
    Every byte is a candidate header; only those whose length fits the file
    are checksummed.  A zero-filled tail holds no candidate (no record is
    empty)."""
    start = offset + 1
    count = len(data) - _RECORD_HEADER.size - start + 1
    if count <= 0:
        return False
    lengths = np.ndarray((count,), dtype="<u4", buffer=data, offset=start, strides=(1,))
    room = len(data) - _RECORD_HEADER.size - np.arange(start, start + count)
    candidates = np.flatnonzero((lengths > 0) & (lengths <= room)) + start
    return any(_record_at(data, int(at)) for at in candidates.tolist())


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
        self.close()
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
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def close(self) -> None:
        """Close the WAL file handle (the next append reopens it)."""
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

        The hash tier becomes one file (named as such in the manifest), each
        pending segment one more — written tier by tier, no merge.  The
        manifest swap (``os.replace``) is the commit point; the old
        generation's WAL and files are only deleted after it, so a kill
        anywhere leaves exactly one consistent generation to recover.
        """
        new_gen = self.generation + 1
        parts: List[_Columns] = [_columns_from_dict(items)] if items else []
        parts.extend(segments)
        names: List[str] = []
        total = 0
        for i, (keys, indexes, values) in enumerate(parts):
            name = f"seg-{new_gen}-{i}.seg"
            total += write_segment_file(
                os.path.join(self.directory, name), keys, indexes, values
            )
            names.append(name)
        manifest = {
            "generation": new_gen,
            "items": names[0] if items else None,
            "segments": names[1:] if items else names,
        }
        body = json.dumps(manifest).encode("utf-8")
        _write_checked(self.manifest_path, _MANIFEST_MAGIC, _MANIFEST_HEADER, (), body)
        # Commit point passed: retire the previous generation.
        self.close()
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

    def _read_manifest(self) -> Optional[str]:
        """Point this log at the generation installed on disk (if any);
        return the name of its hash-tier file (``None`` when it has none).

        A *missing* manifest is the legitimate fresh-vnode case (nothing was
        ever checkpointed) and points at generation 0.  A manifest that
        exists but fails its CRC or its schema — torn by a mid-``os.replace``
        kill, bit-rotted, or otherwise malformed — is a real fault: it is
        counted in :attr:`DurabilityStats.manifests_corrupt`, reported with
        a :class:`RuntimeWarning`, and recovery falls back to **WAL-only
        replay** of the newest WAL generation on disk.  The checkpoint
        segment files cannot be trusted without the manifest naming the
        committed generation, but the WAL still holds every acknowledged
        write since that checkpoint — strictly better than recovering
        silently empty as if the vnode were fresh.  An intact manifest
        with a ``foreign`` field was written by a store that held rows
        under other indexes than their keys' hashes, which no store does
        now: it raises :class:`DurabilityError`.
        """
        try:
            _, body = _read_checked(self.manifest_path, _MANIFEST_MAGIC, _MANIFEST_HEADER)
            manifest = json.loads(body)
            generation, items = manifest["generation"], manifest["items"]
            names = ([] if items is None else [items]) + manifest["segments"]
            if type(generation) is not int or not all(type(n) is str for n in names):
                raise DurabilityError(f"malformed manifest {manifest!r}")
        except FileNotFoundError:  # fresh vnode: nothing checkpointed yet
            generation, names, items, manifest = 0, [], None, {}
        except (DurabilityError, ValueError, KeyError, TypeError) as exc:
            generation, names, items, manifest = self._newest_wal_generation(), [], None, {}
            self.stats.manifests_corrupt += 1
            warnings.warn(
                f"corrupt manifest in {self.directory} ({exc!r}); checkpoint "
                f"segments are untrusted, falling back to WAL-only replay of "
                f"generation {generation}",
                RuntimeWarning,
                stacklevel=3,
            )
        if "foreign" in manifest:
            raise DurabilityError(f"{self.manifest_path}: names a foreign store")
        self.generation, self.segment_names = generation, names
        return items

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
        """All intact WAL records, and the number of torn ones discarded.

        A record that fails its length, CRC or decode check ends the read.
        If an intact record (:func:`_intact_record_after`) follows it, the
        damage is in the middle of the log and later records would be lost:
        :class:`DurabilityError`, the file untouched.  Otherwise it is a torn
        tail — a kill mid-append — truncated at the last intact record and
        counted (0 or 1)."""
        try:
            with open(self.wal_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return [], 0
        ops: List[Tuple] = []
        offset = 0
        size = len(data)
        while offset < size:
            payload = _record_at(data, offset)
            if payload is None:
                break
            try:
                ops.append(pickle.loads(payload))
            except Exception:  # a payload that passed its CRC but decodes to nothing
                break
            offset += _RECORD_HEADER.size + len(payload)
        if offset == size:
            return ops, 0
        if _intact_record_after(data, offset):
            raise DurabilityError(
                f"{self.wal_path}: corrupt record at byte {offset} with intact records after it"
            )
        with open(self.wal_path, "r+b") as fh:
            fh.truncate(offset)
        return ops, 1

    def recover(self) -> RecoveredState:
        """Read the store's content from disk; apply nothing.

        Returns the installed checkpoint's tiers and the decoded WAL tail.
        Missing directory, manifest or WAL all read as the empty state — a
        vnode that never wrote anything restarts empty, not broken.
        """
        self.close()
        os.makedirs(self.directory, exist_ok=True)
        items_name = self._read_manifest()
        state = RecoveredState()
        for name in self.segment_names:
            path = os.path.join(self.directory, name)
            try:
                columns = load_segment_file(path)
            except FileNotFoundError:
                raise DurabilityError(
                    f"manifest of {self.directory} names missing segment {name}"
                ) from None
            state.rows += len(columns[0])
            if name == items_name:
                state.hash_tier = columns
            else:
                state.segments.append(columns)
        self.checkpoint_rows = state.rows
        state.ops, state.torn_records_discarded = self._read_wal()
        state.wal_records = self.wal_records = len(state.ops)
        state.rows += sum(map(_op_rows, state.ops))
        self.needs_replay = False
        self.stats.replays += 1
        self.stats.wal_records_replayed += state.wal_records
        self.stats.torn_records_discarded += state.torn_records_discarded
        return state


#: Vnode directories (real paths) an open :class:`DurableStoreManager` of
#: this process holds: attaching one twice would ``rmtree`` a live WAL.
_HELD: Set[str] = set()


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
        A directory another open manager of this process holds is refused
        with :class:`DurabilityError`, before anything on disk changes.
        """
        if ref in self._logs:
            raise DurabilityError(f"durable store for {ref} already attached")
        directory = os.path.realpath(
            os.path.join(self.config.data_dir, str(ref.canonical_name))
        )
        if directory in _HELD:
            raise DurabilityError(
                f"{directory} is held by another open durable store manager"
            )
        log = DurableVnodeStore(directory, self.config, self.stats)
        if fresh:
            log.reset()
        else:
            log.needs_replay = True
        _HELD.add(directory)
        self._logs[ref] = log
        return log

    def detach(self, ref) -> None:
        """Destroy the durable store of an unregistered vnode."""
        log = self._logs.pop(ref, None)
        if log is not None:
            _HELD.discard(log.directory)
            log.destroy()

    def close(self) -> None:
        """Close every WAL file handle (each reopens on its next append) and
        release the vnode directories to other managers."""
        for log in self._logs.values():
            _HELD.discard(log.directory)
            log.close()

    def log_for(self, ref) -> Optional[DurableVnodeStore]:
        return self._logs.get(ref)

    def pending_refs(self) -> List[Any]:
        """Vnodes whose disk state is ahead of memory (awaiting replay)."""
        return [ref for ref, log in self._logs.items() if log.needs_replay]

    def has_pending(self) -> bool:
        return any(log.needs_replay for log in self._logs.values())
