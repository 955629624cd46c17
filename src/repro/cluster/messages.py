"""Protocol messages: the cost model's vocabulary *and* the wire format.

The message classes started as cost-model artifacts: each lifecycle event —
vnode creation or removal, snode crash recovery, replica sync, load
rebalancing — is a sequence of typed messages whose ``size_bytes`` feed the
network model.  Sizes of those control messages are estimates of a compact
wire encoding and only matter relative to each other.

Since the networked runtime (:mod:`repro.runtime`) the same classes are
also the *actual* protocol: every message knows how to :meth:`~Message.encode`
itself to bytes and the module-level :func:`decode` turns bytes back into
the typed message.  A body is a 2-byte type code — declared by each class
(``class PutRequest(Message, code=12)``), never derived from definition
order, so deleting a class renumbers nothing — followed by the fields.  The
two row-carrying messages, :class:`BulkLoadChunk` and :class:`RangeAdopt`,
write a fixed header (``!qq`` src/dst, length-prefixed UTF-8 ``ref`` and
``tier``) and then raw columns (:mod:`repro.utils.columns`); every other
message pickles the tuple of its field values.  Length-prefix framing on a
stream is the transport's job (:mod:`repro.runtime.codec`).

The data-plane messages (:class:`PutRequest`, :class:`GetRequest`,
:class:`BulkLoadChunk`, :class:`LookupRequest`, the range-transfer family)
report their **actual** encoded length as ``size_bytes`` — real traffic is
measured, not estimated.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.utils.columns import ColumnReader, encode_column, encode_text, row_group

#: Wire prefix of an encoded message body: the subclass' type code.
_TYPE_CODE = struct.Struct("!H")

#: Fixed header of a columnar body after the type code: ``src``, ``dst``.
_ENDPOINTS = struct.Struct("!qq")

#: Segment count of a :class:`RangeAdopt` body.
_SEGMENTS = struct.Struct("!I")

#: ``type code -> message class``, filled by ``Message.__init_subclass__``
#: from the code each class declares.
MESSAGE_TYPES: Dict[int, Type["Message"]] = {}

#: ``message class -> (packed type code, getter of its field values)``, filled
#: on a class's first ``encode()``: ``__init_subclass__`` runs before
#: ``@dataclass`` has made the fields, and ``fields()`` per call is a tenth
#: of what a small RPC costs.
_ENCODERS: Dict[type, Tuple[bytes, Callable[[Any], Tuple[Any, ...]]]] = {}


class WireError(ValueError):
    """An encoded message could not be decoded."""


@dataclass(frozen=True)
class Message:
    """Base class of all protocol messages."""

    src: int
    dst: int

    #: Estimated wire size of the fixed part of any message (headers, ids).
    BASE_SIZE_BYTES = 64

    #: Wire type code of the concrete class (declared in its class statement).
    TYPE_CODE = 0

    #: False on a request that must not be sent twice: applying it a second
    #: time changes the outcome, so a caller whose first attempt may have
    #: reached the handler gets the error instead of a silent re-send.
    RETRY_SAFE = True

    def __init_subclass__(cls, code: Optional[int] = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if code is None:
            raise TypeError(
                f"{cls.__name__} must declare its wire type code: "
                f"class {cls.__name__}(Message, code=N)"
            )
        taken = MESSAGE_TYPES.get(code)
        if taken is not None or not 0 < code < 1 << 16:
            raise TypeError(
                f"{cls.__name__}: wire type code {code} is "
                + (f"taken by {taken.__name__}" if taken else "outside 1..65535")
            )
        cls.TYPE_CODE = code
        MESSAGE_TYPES[code] = cls

    def size_bytes(self) -> float:
        """Wire size of the message."""
        return float(self.BASE_SIZE_BYTES)

    # -- wire encoding --------------------------------------------------------

    def encode(self) -> bytes:
        """Encode to bytes: 2-byte type code + pickled field-value tuple."""
        cls = type(self)
        try:
            prefix, values_of = _ENCODERS[cls]
        except KeyError:
            prefix, values_of = _ENCODERS[cls] = (
                _TYPE_CODE.pack(cls.TYPE_CODE),
                attrgetter(*(f.name for f in fields(cls))),
            )
        return prefix + pickle.dumps(values_of(self), protocol=pickle.HIGHEST_PROTOCOL)


def decode(data: bytes) -> Message:
    """Decode one message encoded by :meth:`Message.encode`."""
    if len(data) < _TYPE_CODE.size:
        raise WireError(f"message body too short ({len(data)} bytes)")
    (code,) = _TYPE_CODE.unpack_from(data)
    try:
        cls = MESSAGE_TYPES[code]
    except KeyError:
        raise WireError(f"unknown message type code {code}") from None
    try:
        read_columns = _COLUMNAR_BODIES.get(cls)
        if read_columns is not None:
            reader = ColumnReader(data, _TYPE_CODE.size)
            message = read_columns(reader)
            reader.finish()
            return message
        values = pickle.loads(data[_TYPE_CODE.size :])
        return cls(*values)
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"cannot decode {cls.__name__} body: {exc!r}") from exc


def _columnar_head(message: Message) -> List[bytes]:
    """Type code, endpoints, ``ref`` and ``tier`` of a columnar body."""
    out = [_TYPE_CODE.pack(message.TYPE_CODE), _ENDPOINTS.pack(message.src, message.dst)]
    encode_text(out, message.ref)
    encode_text(out, message.tier)
    return out


def _read_head(reader: ColumnReader) -> Tuple[int, int, str, str]:
    src, dst = reader.unpack(_ENDPOINTS)
    return src, dst, reader.text(), reader.text()


@dataclass(frozen=True)
class CreateVnodeRequest(Message, code=1):
    """Request asking the destination snode to take part in a vnode creation."""

    vnode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 16)


@dataclass(frozen=True)
class RecordSync(Message, code=2):
    """GPDR/LPDR synchronization message carrying one record replica.

    The record has one entry (canonical name + partition count) per vnode.
    """

    n_entries: int = 0

    #: Estimated size of one record entry (canonical name + count).
    ENTRY_SIZE_BYTES = 24

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.ENTRY_SIZE_BYTES * self.n_entries)


@dataclass(frozen=True)
class PartitionTransfer(Message, code=3):
    """Hand-over of one partition and the items stored under it."""

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class RemoveVnodeRequest(Message, code=4):
    """Request asking the destination snode to take part in a vnode removal.

    Covers both graceful leaves and enrollment shrinks: the victim vnode's
    partitions are drained to the surviving vnodes of its scope before the
    record entry is dropped.
    """

    vnode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 16)


@dataclass(frozen=True)
class CrashNotice(Message, code=5):
    """Failure notification: a snode crashed without a graceful drain.

    Broadcast by the failure detector to every snode involved in the
    recovery so they agree on the new ownership before replica rebuild
    transfers start.
    """

    snode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 8)


@dataclass(frozen=True)
class RestartNotice(Message, code=6):
    """Rejoin notification: a killed snode came back with its disk intact.

    Broadcast when a restarted snode re-announces itself so the cluster
    agrees it kept its vnodes.  The data plane is local: the snode replays
    its own WAL/segments from disk (priced per replayed record, no bulk
    network transfer) unless recovery judges a replica rebuild cheaper.
    """

    snode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 8)


@dataclass(frozen=True)
class ReplicaRebuildTransfer(Message, code=7):
    """Bulk copy of surviving replica rows rebuilding a lost primary.

    The payload is the surviving-replica rows that recovery promotes back
    to primaries after a crash (``rows_restored`` of the recovery pass).
    """

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class ReplicaSyncTransfer(Message, code=8):
    """Replica-sync fan-out: primary rows refilled into replica stores.

    Sent once per replica rank after a topology change so every partition
    regains its full complement of copies (``rows_refilled`` of the sync
    pass).
    """

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class RebalanceTransfer(Message, code=9):
    """Hand-over of one partition decided by the load-aware rebalancing plan."""

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class Ack(Message, code=10):
    """Acknowledgement closing a request/response exchange.

    A bare ``Ack`` (no payload, no error) is the minimal reply and its size
    is exactly :attr:`~Message.BASE_SIZE_BYTES` — the cost model's
    :meth:`~repro.cluster.network.NetworkModel.rpc_time` depends on that.
    The networked runtime reuses the same class as its generic response
    envelope: ``payload`` carries the result value of the request and
    ``error`` carries the exception kind (e.g. ``"KeyError"``) when the
    handler failed, so the client can re-raise a typed error.
    """

    payload: Any = None
    error: Optional[str] = None

    def size_bytes(self) -> float:
        if self.payload is None and self.error is None:
            return float(self.BASE_SIZE_BYTES)
        return float(max(self.BASE_SIZE_BYTES, len(self.encode())))


def _measured_size(message: Message) -> float:
    """Actual encoded length of a data-plane message, floored at the header."""
    return float(max(Message.BASE_SIZE_BYTES, len(message.encode())))


@dataclass(frozen=True)
class PingRequest(Message, code=11):
    """Liveness/readiness probe; the reply is a bare :class:`Ack`."""


@dataclass(frozen=True)
class PutRequest(Message, code=12):
    """Data-plane write of one item into a vnode's primary or replica tier.

    ``ref`` is the canonical vnode name (``"s0.1"``); ``tier`` selects the
    store (``"primary"`` or ``"replica"``).  ``index`` is the precomputed
    hash index so the server does not need to re-hash the key.
    """

    ref: str = ""
    tier: str = "primary"
    key: Any = None
    index: int = 0
    value: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class GetRequest(Message, code=13):
    """Data-plane read of one key from a vnode tier; replies ``Ack(payload=value)``."""

    ref: str = ""
    tier: str = "primary"
    key: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class DeleteRequest(Message, code=14):
    """Data-plane delete of one key from a vnode tier."""

    ref: str = ""
    tier: str = "primary"
    key: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class LookupRequest(Message, code=15):
    """Route a key through the server's local placement view.

    Replies ``Ack(payload=(level, partition_index, ref_name, snode_id))`` —
    enough for the client to address the owning vnode without holding the
    full routing table itself.
    """

    key: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class BulkLoadChunk(Message, code=16):
    """Columnar batch write into one vnode tier.

    ``keys``/``indexes``/``values`` are parallel sequences (typically numpy
    arrays) — the row-transfer unit of the bulk-load path.  On the wire they
    are three raw columns; a sequence that is not an ndarray arrives as an
    ``object`` column.  Unless all three are ``None`` (the defaults) they
    decode as one checked row group (:func:`~repro.utils.columns.row_group`):
    keys and indexes present, all columns of one length.  Applying a chunk twice stores its rows twice,
    hence not retry-safe.
    """

    RETRY_SAFE = False

    ref: str = ""
    tier: str = "primary"
    keys: Any = None
    indexes: Any = None
    values: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)

    def encode(self) -> bytes:
        out = _columnar_head(self)
        for column in (self.keys, self.indexes, self.values):
            encode_column(out, column)
        return b"".join(out)


def _read_bulk_load_chunk(reader: ColumnReader) -> BulkLoadChunk:
    head = _read_head(reader)
    columns = (reader.column(), reader.column(), reader.column())
    if any(column is not None for column in columns):
        columns = row_group(*columns, values_optional=True)
    return BulkLoadChunk(*head, *columns)


@dataclass(frozen=True)
class RangeAdopt(Message, code=17):
    """Adopt rows into a vnode tier — the peer-link half of a range move.

    ``parts`` is a list of the ``(pairs, segments)`` columnar transfer units
    of :mod:`repro.core.storage`, as copied out of the source's buckets.  On
    the wire they travel joined: the hash-tier pairs as one ``(keys,
    indexes, values)`` column group, then three columns per segment — so a
    decoded message holds a single ``(pairs, segments)`` entry.  The target
    trusts the rows to sit under their keys' hash indexes, as they did in
    the source store.  Adopting the same parts twice counts their rows
    twice, hence not retry-safe.
    """

    RETRY_SAFE = False

    ref: str = ""
    tier: str = "primary"
    parts: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)

    def encode(self) -> bytes:
        out = _columnar_head(self)
        if self.parts is None:
            out.append(_SEGMENTS.pack(0))
            encode_column(out, None)
            return b"".join(out)
        pairs = [pair for part_pairs, _ in self.parts for pair in part_pairs]
        segments = [segment for _, part_segments in self.parts for segment in part_segments]
        out.append(_SEGMENTS.pack(len(segments)))
        keys, items = zip(*pairs) if pairs else ((), ())
        indexes, values = zip(*items) if pairs else ((), ())
        for column in (keys, indexes, values, *(c for segment in segments for c in segment)):
            encode_column(out, column)
        return b"".join(out)


def _read_range_adopt(reader: ColumnReader) -> RangeAdopt:
    head = _read_head(reader)
    (n_segments,) = reader.unpack(_SEGMENTS)
    keys = reader.column()
    if keys is None and not n_segments:  # ``parts=None``
        return RangeAdopt(*head)
    keys, indexes, values = row_group(keys, reader.column(), reader.column())
    pairs = list(zip(keys.tolist(), zip(indexes.tolist(), values.tolist())))
    segments = [
        row_group(reader.column(), reader.column(), reader.column(), values_optional=True)
        for _ in range(n_segments)
    ]
    return RangeAdopt(*head, parts=[(pairs, segments)])


@dataclass(frozen=True)
class RangeCount(Message, code=18):
    """Count the rows of a vnode tier inside absolute hash ranges.

    Replies ``Ack(payload=[counts...])``, one count per range — the
    conservation/verification primitive of the cluster harness.
    """

    ref: str = ""
    tier: str = "primary"
    ranges: Tuple[Tuple[int, int], ...] = ()

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class RangeDrop(Message, code=19):
    """Drop every row of a vnode tier *inside* the given absolute ranges.

    Replies ``Ack(payload=n_dropped)``.  Idempotent: it clears a target's
    partial adoption after a failed transfer, so the range is never held
    twice.
    """

    ref: str = ""
    tier: str = "primary"
    ranges: Tuple[Tuple[int, int], ...] = ()

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class RangeRetain(Message, code=20):
    """Drop every row of a vnode tier *outside* the given absolute ranges.

    Replies ``Ack(payload=n_dropped)``.  Used after ownership shrinks so a
    node does not keep serving rows it no longer owns.
    """

    ref: str = ""
    tier: str = "primary"
    ranges: Tuple[Tuple[int, int], ...] = ()

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class VnodeCreate(Message, code=21):
    """Runtime order to host a vnode: register primary + replica stores.

    ``fresh=False`` tells a rebooted server process to re-adopt the vnode's
    existing on-disk WAL/segments (marking them for replay) instead of
    starting from an empty directory.
    """

    ref: str = ""
    fresh: bool = True

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class VnodeDrop(Message, code=22):
    """Runtime order to stop hosting a vnode (stores must already be empty)."""

    ref: str = ""

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class WalReplay(Message, code=23):
    """Order a restarted node to replay one vnode's WAL/segments from disk.

    Replies ``Ack(payload=rows_recovered)``.
    """

    ref: str = ""

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class TopologySnapshot(Message, code=24):
    """Coordinator-pushed routing state: the full ownership table.

    ``entries`` is a tuple of ``(level, partition_index, ref_name)``
    triples.  Each node rebuilds its local router and replica placement
    from the snapshot deterministically, so placement never has to be
    shipped explicitly.
    """

    version: int = 0
    entries: Tuple[Tuple[int, int, str], ...] = ()

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class NodeStatsRequest(Message, code=25):
    """Ask a node for its per-vnode row counts and durability counters.

    Replies ``Ack(payload=stats_dict)``.  With ``partitions=True`` the
    reply additionally carries, per hosted vnode, the primary row count of
    every owned partition (``stats_dict["partitions"][ref_name]`` maps
    ``(level, index)`` partition keys to row counts) — the measurement
    feed of the runtime's load-aware rebalancer.
    """

    partitions: bool = False

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class PeerTransferRequest(Message, code=26):
    """Coordinator order: push owned rows directly to a peer node.

    The only row-moving order there is.  The source node copies ``ranges``
    (inclusive ``(start, last)`` pairs) out of ``ref``'s ``tier``, ships
    them to ``target_address`` as a ``RangeAdopt`` into ``target_ref``'s
    ``target_tier`` (empty: the source tier) over its own outbound
    connection, and only after the peer acknowledges the adoption drops its
    local copy (when ``pop=True``).  Replies
    ``Ack(payload={"rows": n, "peer_bytes": b})``.  The coordinator link
    carries only this order and its ack — row payloads flow peer-to-peer.
    Not retry-safe: a second push would be adopted a second time.
    """

    RETRY_SAFE = False

    ref: str = ""
    target_ref: str = ""
    target_address: Tuple[str, int] = ("", 0)
    tier: str = "primary"
    ranges: Tuple[Tuple[int, int], ...] = ()
    pop: bool = True
    target_tier: str = ""

    def size_bytes(self) -> float:
        return _measured_size(self)


#: ``message class -> body reader`` of the classes whose body is columnar;
#: :func:`decode` unpickles every other class's body.
_COLUMNAR_BODIES: Dict[type, Callable[[ColumnReader], Message]] = {
    BulkLoadChunk: _read_bulk_load_chunk,
    RangeAdopt: _read_range_adopt,
}
