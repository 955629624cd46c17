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

from repro.cluster.messages import (
    MESSAGE_TYPES,
    Ack,
    BulkLoadChunk,
    GetRequest,
    Message,
    PeerTransferRequest,
    PingRequest,
    PutRequest,
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
        """The cached per-class getter must not change a byte on the wire."""
        for code, cls in sorted(MESSAGE_TYPES.items()):
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
        # Definition order is the wire contract: Ack must keep its slot or
        # every mixed-version conversation decodes garbage.
        assert MESSAGE_TYPES[Ack.TYPE_CODE] is Ack

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
)


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
        """``data_received`` and ``read_frame`` agree however the bytes arrive."""
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
        assert pushed == expected
        assert pulled == expected

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
