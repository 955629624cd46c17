"""Protocol messages: the cost model's vocabulary *and* the wire format.

The message classes started as cost-model artifacts: each lifecycle event —
vnode creation or removal, snode crash recovery, replica sync, load
rebalancing — is a sequence of typed messages whose ``size_bytes`` feed the
network model.  Sizes of those control messages are estimates of a compact
wire encoding and only matter relative to each other.

Since the networked runtime (:mod:`repro.runtime`) the same classes are
also the *actual* protocol: every message knows how to :meth:`~Message.encode`
itself to bytes and the module-level :func:`decode` turns bytes back into
the typed message.  The body encoding is a 2-byte type code (assigned from
the registration order of the subclasses, identical on every process
running the same code) followed by the pickled tuple of field values;
length-prefix framing on a stream is the transport's job
(:mod:`repro.runtime.codec`).

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
from typing import Any, Callable, Dict, Optional, Tuple, Type

#: Wire prefix of an encoded message body: the subclass' type code.
_TYPE_CODE = struct.Struct("!H")

#: ``type code -> message class``, filled by ``Message.__init_subclass__``
#: in definition order (deterministic across processes running this module).
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

    #: Wire type code of the concrete class (set by ``__init_subclass__``).
    TYPE_CODE = 0

    #: False on a request that must not be sent twice: applying it a second
    #: time changes the outcome, so a caller whose first attempt may have
    #: reached the handler gets the error instead of a silent re-send.
    RETRY_SAFE = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        code = len(MESSAGE_TYPES) + 1
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
        values = pickle.loads(data[_TYPE_CODE.size :])
        return cls(*values)
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"cannot decode {cls.__name__} body: {exc!r}") from exc


@dataclass(frozen=True)
class CreateVnodeRequest(Message):
    """Request asking the destination snode to take part in a vnode creation."""

    vnode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 16)


@dataclass(frozen=True)
class RecordSync(Message):
    """GPDR/LPDR synchronization message carrying one record replica.

    The record has one entry (canonical name + partition count) per vnode.
    """

    n_entries: int = 0

    #: Estimated size of one record entry (canonical name + count).
    ENTRY_SIZE_BYTES = 24

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.ENTRY_SIZE_BYTES * self.n_entries)


@dataclass(frozen=True)
class PartitionTransfer(Message):
    """Hand-over of one partition and the items stored under it."""

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class RemoveVnodeRequest(Message):
    """Request asking the destination snode to take part in a vnode removal.

    Covers both graceful leaves and enrollment shrinks: the victim vnode's
    partitions are drained to the surviving vnodes of its scope before the
    record entry is dropped.
    """

    vnode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 16)


@dataclass(frozen=True)
class CrashNotice(Message):
    """Failure notification: a snode crashed without a graceful drain.

    Broadcast by the failure detector to every snode involved in the
    recovery so they agree on the new ownership before replica rebuild
    transfers start.
    """

    snode: int = 0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + 8)


@dataclass(frozen=True)
class RestartNotice(Message):
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
class ReplicaRebuildTransfer(Message):
    """Bulk copy of surviving replica rows rebuilding a lost primary.

    The payload is the surviving-replica rows that recovery promotes back
    to primaries after a crash (``rows_restored`` of the recovery pass).
    """

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class ReplicaSyncTransfer(Message):
    """Replica-sync fan-out: primary rows refilled into replica stores.

    Sent once per replica rank after a topology change so every partition
    regains its full complement of copies (``rows_refilled`` of the sync
    pass).
    """

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class RebalanceTransfer(Message):
    """Hand-over of one partition decided by the load-aware rebalancing plan."""

    payload_bytes: float = 0.0

    def size_bytes(self) -> float:
        return float(self.BASE_SIZE_BYTES + self.payload_bytes)


@dataclass(frozen=True)
class Ack(Message):
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
class PingRequest(Message):
    """Liveness/readiness probe; the reply is a bare :class:`Ack`."""


@dataclass(frozen=True)
class PutRequest(Message):
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
class GetRequest(Message):
    """Data-plane read of one key from a vnode tier; replies ``Ack(payload=value)``."""

    ref: str = ""
    tier: str = "primary"
    key: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class DeleteRequest(Message):
    """Data-plane delete of one key from a vnode tier."""

    ref: str = ""
    tier: str = "primary"
    key: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class LookupRequest(Message):
    """Route a key through the server's local placement view.

    Replies ``Ack(payload=(level, partition_index, ref_name, snode_id))`` —
    enough for the client to address the owning vnode without holding the
    full routing table itself.
    """

    key: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class BulkLoadChunk(Message):
    """Columnar batch write into one vnode tier.

    ``keys``/``indexes``/``values`` are parallel sequences (typically numpy
    arrays) — the row-transfer unit of the bulk-load path.
    """

    ref: str = ""
    tier: str = "primary"
    keys: Any = None
    indexes: Any = None
    values: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class RangeAdopt(Message):
    """Adopt rows into a vnode tier — the peer-link half of a range move.

    ``parts`` is the ``(pairs, segments)`` columnar transfer unit of
    :mod:`repro.core.storage`, as copied out of the source's buckets.
    Adopting the same parts twice counts their rows twice, hence not
    retry-safe.
    """

    RETRY_SAFE = False

    ref: str = ""
    tier: str = "primary"
    parts: Any = None

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class RangeCount(Message):
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
class RangeDrop(Message):
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
class RangeRetain(Message):
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
class VnodeCreate(Message):
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
class VnodeDrop(Message):
    """Runtime order to stop hosting a vnode (stores must already be empty)."""

    ref: str = ""

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class WalReplay(Message):
    """Order a restarted node to replay one vnode's WAL/segments from disk.

    Replies ``Ack(payload=rows_recovered)``.
    """

    ref: str = ""

    def size_bytes(self) -> float:
        return _measured_size(self)


@dataclass(frozen=True)
class TopologySnapshot(Message):
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
class NodeStatsRequest(Message):
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
class PeerTransferRequest(Message):
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

