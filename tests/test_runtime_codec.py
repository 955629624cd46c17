"""Wire-codec tests for the networked runtime.

Every registered message type must survive ``encode()``/``decode()``
bit-exactly — the runtime's RPC layer, the cost model and the lifecycle
simulator all share these dataclasses, so a codec regression corrupts both
the wire and the books.  Also covers the framing layer
(:mod:`repro.runtime.codec`), the ``Ack`` size invariant the network cost
model anchors on, and the ``rpc_time`` default-reply regression.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.messages import (
    MESSAGE_TYPES,
    Ack,
    BulkLoadChunk,
    GetRequest,
    Message,
    PeerTransferRequest,
    PingRequest,
    PutRequest,
    RangeAdopt,
    RangeCount,
    TopologySnapshot,
    WireError,
    decode,
)
from repro.cluster.network import NetworkModel
from repro.runtime.codec import (
    MAX_FRAME_BYTES,
    FrameProtocol,
    encode_frame,
    parse_frame,
    read_frame,
)
from repro.utils.columns import ColumnReader, encode_column

#: The row messages, whose bodies are columns instead of a pickled tuple.
COLUMNAR = (BulkLoadChunk, RangeAdopt)

#: Every message class and its wire type code.
WIRE_CODES = {
    "CreateVnodeRequest": 1,
    "RecordSync": 2,
    "PartitionTransfer": 3,
    "RemoveVnodeRequest": 4,
    "CrashNotice": 5,
    "RestartNotice": 6,
    "ReplicaRebuildTransfer": 7,
    "ReplicaSyncTransfer": 8,
    "RebalanceTransfer": 9,
    "Ack": 10,
    "PingRequest": 11,
    "PutRequest": 12,
    "GetRequest": 13,
    "DeleteRequest": 14,
    "LookupRequest": 15,
    "BulkLoadChunk": 16,
    "RangeAdopt": 17,
    "RangeCount": 18,
    "RangeDrop": 19,
    "RangeRetain": 20,
    "VnodeCreate": 21,
    "VnodeDrop": 22,
    "WalReplay": 23,
    "TopologySnapshot": 24,
    "NodeStatsRequest": 25,
    "PeerTransferRequest": 26,
}


class TestMessageCodec:
    def test_every_registered_type_round_trips(self):
        """Default-constructed instances of all types survive the codec."""
        assert len(MESSAGE_TYPES) >= 20  # sim messages + the data plane
        for code, cls in sorted(MESSAGE_TYPES.items()):
            msg = cls(src=3, dst=9)
            out = decode(msg.encode())
            assert type(out) is cls, cls.__name__
            assert out == msg, cls.__name__
            assert cls.TYPE_CODE == code

    def test_encode_is_byte_identical_to_the_per_call_fields_walk(self):
        """The cached per-class getter must not change a byte on the wire of
        any pickle-bodied message (all but the two columnar row messages)."""
        pickled = {c: k for c, k in MESSAGE_TYPES.items() if k not in COLUMNAR}
        assert len(pickled) == len(MESSAGE_TYPES) - len(COLUMNAR)
        for code, cls in sorted(pickled.items()):
            msg = cls(src=3, dst=9)
            reference = struct.pack("!H", code) + pickle.dumps(
                tuple(getattr(msg, f.name) for f in fields(msg)),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            assert msg.encode() == reference, cls.__name__
            assert msg.encode() == reference, cls.__name__  # cached path

    def test_type_codes_are_unique_and_stable(self):
        codes = [cls.TYPE_CODE for cls in MESSAGE_TYPES.values()]
        assert len(codes) == len(set(codes))
        assert MESSAGE_TYPES[Ack.TYPE_CODE] is Ack

    def test_every_type_code_is_pinned(self):
        """The codes are the wire contract: a mixed-version conversation
        decodes garbage if any class changes its code, so every one of them
        is declared by its class and pinned here."""
        assert {cls.__name__: code for code, cls in MESSAGE_TYPES.items()} == WIRE_CODES

    def test_a_message_class_must_declare_a_free_code(self):
        before = dict(MESSAGE_TYPES)
        with pytest.raises(TypeError, match="must declare its wire type code"):

            class Undeclared(Message):
                pass

        with pytest.raises(TypeError, match="taken by Ack"):

            class Duplicate(Message, code=Ack.TYPE_CODE):
                pass

        with pytest.raises(TypeError, match="outside"):

            class TooLarge(Message, code=1 << 16):
                pass

        assert MESSAGE_TYPES == before

    def test_populated_payloads_round_trip(self):
        put = PutRequest(src=1, dst=2, ref="0.1", tier="replica", key=7, index=99, value="v")
        assert decode(put.encode()) == put

        snap = TopologySnapshot(
            src=-1, dst=0, version=4, entries=((0, 0, "0.0"), (0, 1, "1.0"))
        )
        assert decode(snap.encode()) == snap

        count = RangeCount(src=-1, dst=1, ref="1.0", ranges=((0, 63), (128, 200)))
        assert decode(count.encode()) == count

    def test_peer_transfer_round_trips_with_and_without_target_tier(self):
        order = PeerTransferRequest(
            src=-1, dst=1, ref="1.0", target_ref="2.0", target_address=("h", 7),
            tier="replica", ranges=((0, 63),), pop=False, target_tier="primary",
        )
        assert decode(order.encode()) == order
        # A body written before the trailing field existed still decodes,
        # to the default (empty: adopt into the source tier).
        values = tuple(getattr(order, f.name) for f in fields(order))
        old_body = struct.pack("!H", PeerTransferRequest.TYPE_CODE) + pickle.dumps(
            values[:-1], protocol=pickle.HIGHEST_PROTOCOL
        )
        old = decode(old_body)
        assert old.target_tier == ""
        assert (old.tier, old.ranges, old.pop) == ("replica", ((0, 63),), False)

    def test_numpy_columns_round_trip(self):
        keys = np.arange(10, dtype=np.uint64)
        indexes = np.arange(10, dtype=np.int64)
        chunk = BulkLoadChunk(src=-1, dst=0, ref="0.0", keys=keys, indexes=indexes)
        out = decode(chunk.encode())
        assert isinstance(out, BulkLoadChunk)
        assert np.array_equal(out.keys, keys)
        assert np.array_equal(out.indexes, indexes)
        assert out.values is None

    def test_decode_rejects_short_body(self):
        with pytest.raises(WireError):
            decode(b"\x00")

    def test_decode_rejects_unknown_type_code(self):
        body = struct.pack("!H", 60000) + pickle.dumps((1, 2))
        with pytest.raises(WireError):
            decode(body)

    def test_decode_rejects_garbage_payload(self):
        body = struct.pack("!H", Ack.TYPE_CODE) + b"not a pickle"
        with pytest.raises(WireError):
            decode(body)


def _object_column(items):
    column = np.empty(len(items), dtype=object)
    column[:] = items
    return column


def _objects(elements):
    return st.lists(elements, max_size=12).map(_object_column)


#: One strategy per column kind of :mod:`repro.utils.columns`, zero rows included.
COLUMN_KINDS = {
    "none": st.none(),
    "native": st.sampled_from([np.uint64, np.int64, np.float64, np.bool_]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(0, 12))
    ),
    "fixed-bytes": st.integers(0, 8).flatmap(
        lambda w: _objects(st.binary(min_size=w, max_size=w).map(lambda b: b + b"\x00"))
    ),
    "variable-bytes": _objects(st.binary(max_size=12)),
    "str": _objects(st.text(max_size=8)),
    "boxed": st.one_of(
        _objects(st.integers(-(2**63), 2**63 - 1)),
        _objects(st.integers(2**63, 2**64 - 1)),
        _objects(st.floats(allow_nan=False)),
        _objects(st.booleans()),
    ),
    "pickled": _objects(
        st.one_of(
            st.integers(),
            st.text(max_size=4),
            st.binary(max_size=4),
            st.none(),
            st.tuples(st.integers(), st.integers()),
        )
    ),
}
COLUMNS = st.one_of(*COLUMN_KINDS.values())

_REFS = st.sampled_from(["0.0", "3.1", "é.2"])
_TIERS = st.sampled_from(["primary", "replica"])
BULK_CHUNKS = st.builds(
    BulkLoadChunk, src=st.integers(-1, 9), dst=st.integers(0, 9), ref=_REFS, tier=_TIERS,
    keys=COLUMNS, indexes=COLUMNS, values=COLUMNS,
)
_PAIRS = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=4)),
        st.tuples(st.integers(0, 2**32), st.binary(max_size=8)),
    ),
    max_size=8,
)
_SEGMENTS = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        hnp.arrays(np.uint64, n),
        hnp.arrays(np.uint64, n),
        st.one_of(st.none(), st.lists(st.binary(max_size=8), min_size=n, max_size=n).map(
            _object_column)),
    )
)
RANGE_ADOPTS = st.builds(
    RangeAdopt, src=st.integers(-1, 9), dst=st.integers(-1, 9), ref=_REFS, tier=_TIERS,
    parts=st.lists(st.tuples(_PAIRS, st.lists(_SEGMENTS, max_size=3)), min_size=1, max_size=3),
)


def _fixed_width(column):
    """The width of an object column of equal-length, non-empty ``bytes``
    (one the codec writes as ``FIXED``), else ``None``."""
    if column.dtype != object:
        return None
    widths = {len(v) if type(v) is bytes else 0 for v in column.tolist()}
    return widths.pop() if len(widths) == 1 and 0 not in widths else None


def assert_same_column(got, want):
    """``got`` is ``want`` decoded: same dtype and elements, except that
    fixed-width ``bytes`` come back as a native ``V{width}`` column whose
    elements are still those ``bytes``."""
    if want is None:
        assert got is None
        return
    assert type(got) is np.ndarray
    width = _fixed_width(want)
    if width is not None:
        assert (got.dtype, got.shape) == (np.dtype(f"V{width}"), want.shape)
        assert got.flags.writeable and got.flags.owndata
        assert [type(v) for v in got.tolist()] == [bytes] * len(want)
        assert got.tolist() == want.tolist()
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if want.dtype == object:
        assert [type(v) for v in got.tolist()] == [type(v) for v in want.tolist()]
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def _decode_from_a_receive_buffer(body):
    """Decode the way ``FrameProtocol`` does — through a view of a bytearray —
    then resize the bytearray, which raises ``BufferError`` while anything
    decoded still exports it."""
    buffer = bytearray(body)
    with memoryview(buffer) as view:
        message = decode(view)
    del buffer[:]
    return message


def _decodes_or_raises_wire_error(body):
    try:
        message = decode(body)
    except WireError:
        return
    assert isinstance(message, Message)


class TestColumnarBodies:
    """``BulkLoadChunk`` and ``RangeAdopt`` travel as raw columns."""

    @pytest.mark.parametrize("kind", sorted(COLUMN_KINDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_column_kind_round_trips(self, kind, data):
        column = data.draw(COLUMN_KINDS[kind], label=kind)
        out = []
        encode_column(out, column)
        buffer = bytearray(b"".join(out))
        with memoryview(buffer) as view:
            reader = ColumnReader(view)
            got = reader.column()
            reader.finish()
            del reader
        del buffer[:]  # BufferError if the column were a view of the buffer
        assert_same_column(got, column)

    def test_each_typed_kind_is_chosen_where_it_applies(self):
        """Equal-width values take the fixed-width path even when they end in
        NUL (an ``S`` dtype would strip it); ragged ones the variable path."""

        def kind(column):
            out = []
            encode_column(out, column)
            return out[0][0]

        assert kind(None) == 0
        assert kind(np.arange(3, dtype=np.uint64)) == 1
        assert kind(_object_column([1, 2**64 - 1])) == 2
        assert kind(_object_column([2**64])) == 6
        assert kind(_object_column([b"a\x00", b"b\x00"])) == 3
        assert kind(_object_column([b"a", b"bc"])) == 4
        assert kind(_object_column(["ä", "bc"])) == 5
        assert kind(_object_column([1, "a"])) == 6
        assert kind(["plain", "list"]) == 5

    @settings(max_examples=60, deadline=None)
    @given(chunk=BULK_CHUNKS)
    def test_bulk_load_chunk_round_trips(self, chunk):
        out = _decode_from_a_receive_buffer(chunk.encode())
        assert (out.src, out.dst, out.ref, out.tier) == (
            chunk.src, chunk.dst, chunk.ref, chunk.tier,
        )
        for name in ("keys", "indexes", "values"):
            assert_same_column(getattr(out, name), getattr(chunk, name))
        assert chunk.size_bytes() == max(Message.BASE_SIZE_BYTES, len(chunk.encode()))

    @settings(max_examples=60, deadline=None)
    @given(adopt=RANGE_ADOPTS)
    def test_range_adopt_round_trips_its_parts_joined(self, adopt):
        out = _decode_from_a_receive_buffer(adopt.encode())
        assert (out.src, out.dst, out.ref, out.tier) == (
            adopt.src, adopt.dst, adopt.ref, adopt.tier,
        )
        ((pairs, segments),) = out.parts
        assert pairs == [pair for part_pairs, _ in adopt.parts for pair in part_pairs]
        want = [segment for _, part_segments in adopt.parts for segment in part_segments]
        assert len(segments) == len(want)
        for got_segment, want_segment in zip(segments, want):
            for got, column in zip(got_segment, want_segment):
                assert_same_column(got, column)

    @settings(max_examples=100, deadline=None)
    @given(message=st.one_of(BULK_CHUNKS, RANGE_ADOPTS), data=st.data())
    def test_truncated_flipped_or_garbage_bodies_raise_wire_error_only(self, message, data):
        body = message.encode()
        for cut in range(len(body)):
            with pytest.raises(WireError):
                decode(body[:cut])
        flipped = bytearray(body)
        for bit in data.draw(st.lists(st.integers(0, 8 * len(body) - 1), min_size=1, max_size=4)):
            flipped[bit // 8] ^= 1 << (bit % 8)
        _decodes_or_raises_wire_error(bytes(flipped))
        _decodes_or_raises_wire_error(body[:2] + data.draw(st.binary(max_size=64)))
        with pytest.raises(WireError):
            decode(body + b"\x00")

    def test_decoded_row_columns_are_owned_and_writable(self):
        """A store may adopt a decoded column as its own and overwrite
        values in it: no column is a view of the receive buffer."""
        n = 5
        keys, indexes = np.arange(n, dtype=np.uint64), np.arange(n, dtype=np.uint64)
        values = _object_column([bytes([i]) * 3 + b"\x00" for i in range(n)])
        chunk = _decode_from_a_receive_buffer(
            BulkLoadChunk(src=-1, dst=0, ref="0.0", keys=keys, indexes=indexes, values=values)
            .encode()
        )
        adopt = _decode_from_a_receive_buffer(
            RangeAdopt(src=1, dst=2, ref="1.0", parts=[([], [(keys, indexes, values)])]).encode()
        )
        assert chunk.values.dtype == adopt.parts[0][1][0][2].dtype == np.dtype("V4")
        for column in (chunk.keys, chunk.indexes, chunk.values, *adopt.parts[0][1][0]):
            assert column.flags.owndata and column.flags.writeable

    def test_range_adopt_carries_the_foreign_flag_in_no_extra_byte(self):
        parts = [([(7, (70, b"seven"))], [(np.arange(3, dtype=np.uint64),) * 2 + (None,)])]
        for message_parts in (parts, None):
            plain = RangeAdopt(src=1, dst=2, ref="1.0", parts=message_parts)
            flagged = RangeAdopt(src=1, dst=2, ref="1.0", parts=message_parts, foreign=True)
            assert len(plain.encode()) == len(flagged.encode())
            assert decode(plain.encode()).foreign is False
            assert decode(flagged.encode()).foreign is True

    def test_int_bytes_and_str_rows_never_pickle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pickle on the row path")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "dumps", refuse)
        n = 6
        indexes = np.arange(n, dtype=np.uint64)
        messages = [
            BulkLoadChunk(
                src=-1, dst=0, ref="0.0", keys=np.arange(n, dtype=np.uint64), indexes=indexes,
                values=_object_column([bytes([i]) * 4 + b"\x00" for i in range(n)]),
            ),
            BulkLoadChunk(
                src=-1, dst=0, ref="0.0", tier="replica", keys=_object_column(list(range(n))),
                indexes=indexes, values=_object_column([b"x" * i for i in range(n)]),
            ),
            BulkLoadChunk(
                src=-1, dst=0, ref="0.0", keys=_object_column([f"ключ-{i}" for i in range(n)]),
                indexes=indexes, values=_object_column(["v"] * n),
            ),
            RangeAdopt(
                src=1, dst=2, ref="1.0",
                parts=[
                    ([(7, (70, b"seven")), (8, (80, b"eight"))],
                     [(np.arange(3, dtype=np.uint64), indexes[:3], None)]),
                    ([(9, (90, b"nine"))], []),
                ],
            ),
        ]
        for message in messages:
            body = message.encode()
            assert _decode_from_a_receive_buffer(body).encode() == body


class TestMessageSizes:
    def test_bare_ack_is_exactly_the_header_size(self):
        """The cost model prices the default RPC reply off this invariant."""
        assert Ack(src=0, dst=0).size_bytes() == float(Message.BASE_SIZE_BYTES) == 64.0

    def test_payload_grows_ack_beyond_the_floor(self):
        big = Ack(src=0, dst=0, payload=list(range(200)))
        assert big.size_bytes() > 64.0
        assert big.size_bytes() == float(len(big.encode()))

    def test_data_plane_sizes_track_encoded_length(self):
        chunk = BulkLoadChunk(
            src=-1,
            dst=0,
            ref="0.0",
            keys=np.arange(1000, dtype=np.uint64),
            indexes=np.arange(1000, dtype=np.int64),
        )
        assert chunk.size_bytes() == float(len(chunk.encode()))
        # Tiny messages never price below the fixed header floor.
        assert GetRequest(src=0, dst=1, ref="0.0", key=1).size_bytes() >= 64.0


class TestRpcTimeRegression:
    def test_default_reply_is_a_bare_ack(self):
        """rpc_time's default reply must be Ack-sized, not a hardcoded 64."""
        net = NetworkModel(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        assert net.rpc_time(100.0) == net.rpc_time(
            100.0, Ack(src=0, dst=0).size_bytes()
        )

    def test_default_reply_tracks_ack_size_changes(self, monkeypatch):
        net = NetworkModel(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        monkeypatch.setattr(Ack, "BASE_SIZE_BYTES", 128)
        assert net.rpc_time(100.0) == net.message_time(100.0) + net.message_time(128.0)


class TestFrameCodec:
    def test_frame_round_trip_requests_and_responses(self):
        async def scenario():
            reader = asyncio.StreamReader()
            request = PutRequest(src=1, dst=2, ref="0.0", key=7, index=9, value="x")
            reply = Ack(src=2, dst=1, payload="ok")
            request_frame = encode_frame(42, request)
            reader.feed_data(request_frame)
            reader.feed_data(encode_frame(42, reply, response=True))
            reader.feed_eof()

            request_id, is_response, out, n_bytes = await read_frame(reader)
            assert (request_id, is_response, out) == (42, False, request)
            assert n_bytes == len(request_frame)
            request_id, is_response, out, _ = await read_frame(reader)
            assert (request_id, is_response) == (42, True)
            assert out.payload == "ok"

        asyncio.run(scenario())

    def test_oversize_frame_is_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"\x00" * 16)
            reader.feed_eof()
            with pytest.raises(WireError):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_short_frame_length_is_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack("!I", 8) + b"\x00" * 8)
            reader.feed_eof()
            with pytest.raises(WireError):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_parse_frame_waits_for_the_whole_frame(self):
        frame = encode_frame(3, GetRequest(src=0, dst=1, ref="0.0", key=5))
        for cut in range(len(frame)):
            assert parse_frame(frame[:cut]) is None
        assert parse_frame(frame + b"tail")[3] == len(frame)
        # A bad length is garbage as soon as the prefix is readable.
        with pytest.raises(WireError):
            parse_frame(struct.pack("!I", 3))
        with pytest.raises(WireError):
            parse_frame(b"pad" + struct.pack("!I", MAX_FRAME_BYTES + 1), 3)


class _Transport:
    """The slice of ``asyncio.Transport`` a :class:`FrameProtocol` touches."""

    def __init__(self):
        self.written = []
        self.aborted = False

    def write(self, data):
        self.written.append(bytes(data))

    def abort(self):
        self.aborted = True


class _Collector(FrameProtocol):
    def __init__(self):
        super().__init__()
        self.frames = []

    def frame_received(self, request_id, is_response, message, n_bytes):
        self.frames.append((request_id, is_response, message, n_bytes))


_MESSAGES = st.one_of(
    st.builds(PingRequest, src=st.integers(-1, 9), dst=st.integers(0, 9)),
    st.builds(
        PutRequest,
        src=st.just(-1),
        dst=st.integers(0, 9),
        ref=st.sampled_from(["0.0", "3.1"]),
        key=st.integers(0, 2**64 - 1),
        index=st.integers(0, 2**32 - 1),
        value=st.binary(max_size=300),
    ),
    st.builds(Ack, src=st.integers(0, 9), dst=st.just(-1), payload=st.text(max_size=40)),
    BULK_CHUNKS,
    RANGE_ADOPTS,
)


def _on_the_wire(frames):
    """Frames with each message as its encoding (row messages hold arrays,
    which ``==`` cannot compare)."""
    return [(rid, is_response, message.encode(), n) for rid, is_response, message, n in frames]


class TestFrameProtocol:
    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.booleans(), _MESSAGES),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_any_cut_of_the_stream_yields_the_same_frames(self, frames, data):
        """``data_received`` and ``read_frame`` agree however the bytes arrive.

        A row message is decoded while its bytes sit in the protocol's
        receive buffer, which is resized right after: any column still
        viewing that buffer would raise ``BufferError`` there."""
        encoded = [
            encode_frame(request_id, message, response=is_response)
            for request_id, is_response, message in frames
        ]
        stream = b"".join(encoded)
        cuts = data.draw(
            st.lists(st.integers(0, len(stream)), max_size=12).map(sorted), label="cuts"
        )
        expected = [
            (request_id, is_response, message, len(frame))
            for (request_id, is_response, message), frame in zip(frames, encoded)
        ]

        async def scenario():
            protocol = _Collector()
            protocol.connection_made(_Transport())
            reader = asyncio.StreamReader()
            for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
                protocol.data_received(stream[lo:hi])
                reader.feed_data(stream[lo:hi])
            reader.feed_eof()
            pulled = [await read_frame(reader) for _ in frames]
            assert reader.at_eof()
            return protocol.frames, pulled

        pushed, pulled = asyncio.run(scenario())
        assert _on_the_wire(pushed) == _on_the_wire(expected)
        assert _on_the_wire(pulled) == _on_the_wire(expected)

    @pytest.mark.parametrize(
        "garbage",
        [
            struct.pack("!I", 3) + b"abc",
            struct.pack("!I", MAX_FRAME_BYTES + 1),
            struct.pack("!IQB", 11, 1, 0) + struct.pack("!H", 60000),
        ],
        ids=["short-length", "oversize-length", "unknown-type-code"],
    )
    def test_garbage_aborts_the_connection_after_the_good_frames(self, garbage):
        async def scenario():
            protocol = _Collector()
            transport = _Transport()
            protocol.connection_made(transport)
            good = encode_frame(1, PingRequest(src=-1, dst=0))
            protocol.data_received(good + garbage + good)
            assert [frame[0] for frame in protocol.frames] == [1]
            assert transport.aborted

        asyncio.run(scenario())

    def test_send_writes_exactly_the_encoded_frame(self):
        async def scenario():
            protocol = _Collector()
            transport = _Transport()
            protocol.connection_made(transport)
            message = GetRequest(src=0, dst=1, ref="0.0", key=5)
            n_written = protocol.send(7, message, response=True)
            assert transport.written == [encode_frame(7, message, response=True)]
            assert n_written == len(transport.written[0])
            protocol.connection_lost(None)
            with pytest.raises(ConnectionError):
                protocol.send(8, message)

        asyncio.run(scenario())

    def test_writable_waits_from_pause_writing_to_resume_writing(self):
        async def scenario():
            protocol = _Collector()
            protocol.connection_made(_Transport())
            await asyncio.wait_for(protocol.writable(), 1.0)  # not paused: no wait
            protocol.pause_writing()
            assert protocol.write_paused
            waiter = asyncio.ensure_future(protocol.writable())
            await asyncio.sleep(0.01)
            assert not waiter.done()
            # A sender cancelled while it waits does not take the others along.
            cancelled = asyncio.ensure_future(protocol.writable())
            await asyncio.sleep(0)
            cancelled.cancel()
            await asyncio.sleep(0)
            protocol.resume_writing()
            await asyncio.wait_for(waiter, 1.0)
            assert cancelled.cancelled()
            assert not protocol.write_paused
            # A lost connection releases the waiters too; send() then raises.
            protocol.pause_writing()
            waiter = asyncio.ensure_future(protocol.writable())
            await asyncio.sleep(0)
            protocol.connection_lost(None)
            await asyncio.wait_for(waiter, 1.0)

        asyncio.run(scenario())
