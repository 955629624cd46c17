"""RPC-layer tests: a served snode, a client, and injected faults.

Each test boots a real :class:`~repro.runtime.node.SnodeServer` on an
ephemeral loopback port inside ``asyncio.run`` (the suite has no async
plugin) and talks to it with :class:`~repro.runtime.rpc.RpcClient`.  The
timeout/retry tests use the fault injector's *pause* — a server that keeps
reading but never replies, the canonical hung peer.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import struct
import time
import weakref

import numpy as np
import pytest

from repro.cluster.messages import (
    Ack,
    BulkLoadChunk,
    GetRequest,
    PeerTransferRequest,
    PingRequest,
    PutRequest,
    RangeCount,
    RangeDrop,
    VnodeCreate,
)
from repro.runtime.codec import MAX_FRAME_BYTES, encode_frame, read_frame
from repro.runtime.faults import FaultInjector, NodeHandle
from repro.runtime.harness import ClusterHarness
from repro.runtime.node import SnodeNode, SnodeServer
from repro.runtime.rpc import (
    RpcClient,
    RpcConnectionError,
    RpcError,
    RpcRemoteError,
    RpcTimeoutError,
)
from repro.workloads.churn import ChurnEvent, ChurnSpec


async def _served_node(**node_kwargs):
    node = SnodeNode(0, bh=16, **node_kwargs)
    server = SnodeServer(node)
    await server.start()
    return node, server


@contextlib.contextmanager
def _no_loop_errors():
    """Fail if anything reaches the running loop's exception handler.

    That is where asyncio reports what nobody awaited: a task that died of
    an exception (once collected), a callback that raised, a transport that
    failed.  Collect before looking, or the report comes after the test.
    """
    reported = []
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(lambda _loop, context: reported.append(context))
    try:
        yield
        gc.collect()
    finally:
        loop.set_exception_handler(None)
    assert not reported, reported


#: Byte strings that are not a frame: a length below the fixed header, a
#: length above the cap, and a well-framed body with an unassigned type code.
GARBAGE = {
    "short-length": struct.pack("!I", 3) + b"abc",
    "oversize-length": struct.pack("!I", MAX_FRAME_BYTES + 1) + b"\x00" * 16,
    "unknown-type-code": struct.pack("!IQB", 11, 1, 1) + struct.pack("!H", 60000),
}


class TestRpcRoundTrip:
    def test_ping_and_put_get(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address, timeout=5.0)
            try:
                ack = await client.call(PingRequest(src=-1, dst=0))
                assert ack.error is None

                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                await client.call(
                    PutRequest(src=-1, dst=0, ref="0.0", key=7, index=123, value="v7")
                )
                ack = await client.call(GetRequest(src=-1, dst=0, ref="0.0", key=7))
                assert ack.payload == "v7"
                assert len(client.call_durations) == 4
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_missing_key_comes_back_as_keyerror(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                with pytest.raises(KeyError):
                    await client.call(GetRequest(src=-1, dst=0, ref="0.0", key=404))
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_remote_errors_carry_the_exception_kind(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                # No such vnode registered: the engine's error rides the Ack.
                with pytest.raises(RpcRemoteError) as excinfo:
                    await client.call(
                        RangeCount(src=-1, dst=0, ref="5.5", ranges=((0, 10),))
                    )
                assert excinfo.value.kind == "UnknownVnodeError"
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "ranges",
        [
            pytest.param(((500, 599), (100, 199)), id="unsorted"),
            pytest.param(((100, 299), (200, 399)), id="overlapping"),
            pytest.param(((300, 200),), id="start-after-last"),
            pytest.param(((100, 2**16),), id="outside-the-hash-space"),
        ],
    )
    def test_a_bad_range_list_is_refused_and_the_store_untouched(self, ranges):
        """Range ops assume sorted, disjoint ranges inside the hash space; a
        frame that breaks that gets an error reply, not a corrupted store."""

        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            buckets = tuple((start, start + 99) for start in range(0, 1000, 100))
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                await client.call(
                    BulkLoadChunk(
                        src=-1,
                        dst=0,
                        ref="0.0",
                        keys=np.arange(100),
                        indexes=np.arange(0, 1000, 10, dtype=np.uint64),
                    )
                )
                with pytest.raises(RpcRemoteError) as excinfo:
                    await client.call(RangeDrop(src=-1, dst=0, ref="0.0", ranges=ranges))
                assert excinfo.value.kind == "ValueError"
                ack = await client.call(
                    RangeCount(src=-1, dst=0, ref="0.0", ranges=buckets)
                )
                assert ack.payload == [10] * 10
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestRpcFaults:
    def test_paused_server_times_out_then_resumes(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address, timeout=0.2, retries=1)
            handle = NodeHandle(
                snode_id=0, bh=16, replication_factor=1, node=node, server=server, rpc=client
            )
            faults = FaultInjector()
            try:
                ack = await client.call(PingRequest(src=-1, dst=0))
                assert ack.error is None

                faults.pause(handle)
                with pytest.raises(RpcTimeoutError):
                    await client.call(PingRequest(src=-1, dst=0))

                faults.resume(handle)
                ack = await client.call(PingRequest(src=-1, dst=0))
                assert ack.error is None
                assert ("pause", 0) in faults.log and ("resume", 0) in faults.log
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_killed_server_fails_the_call(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address, timeout=0.2, retries=1)
            try:
                await client.call(PingRequest(src=-1, dst=0))
                await server.kill()
                with pytest.raises(RpcError):
                    await client.call(PingRequest(src=-1, dst=0))
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_reboot_after_kill_serves_again(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            handle = NodeHandle(
                snode_id=0, bh=16, replication_factor=1, node=node, server=server, rpc=client
            )
            faults = FaultInjector()
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                await client.call(
                    PutRequest(src=-1, dst=0, ref="0.0", key=1, index=5, value="a")
                )
                await faults.kill(handle)
                await faults.reboot(handle)
                # kill -9 dropped the node's memory; without a durable tier
                # the row is gone but the node itself must serve again.
                ack = await handle.rpc.call(PingRequest(src=-1, dst=0))
                assert ack.error is None
                with pytest.raises(KeyError):
                    await handle.rpc.call(GetRequest(src=-1, dst=0, ref="0.0", key=1))
            finally:
                await handle.rpc.close()
                if handle.server is not None:
                    await handle.server.stop()

        asyncio.run(scenario())

    def test_stopped_server_fails_the_next_call_at_once(self):
        """A peer that hung up must not cost the caller a whole timeout."""

        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address, timeout=2.0, retries=1)
            try:
                await client.call(PingRequest(src=-1, dst=0))
                await server.stop()
                await asyncio.sleep(0.05)  # the hang-up arrives before the call
                started = time.monotonic()
                with pytest.raises(RpcConnectionError):
                    await client.call(PingRequest(src=-1, dst=0))
                assert time.monotonic() - started < 0.5
            finally:
                await client.close()

        asyncio.run(scenario())

    def test_restarted_peer_is_reconnected_without_a_timeout(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address, timeout=2.0, retries=1)
            try:
                await client.call(PingRequest(src=-1, dst=0))
                await server.stop()
                server = SnodeServer(node, port=server.port)
                await server.start()
                started = time.monotonic()
                ack = await client.call(PingRequest(src=-1, dst=0))
                assert ack.error is None
                assert time.monotonic() - started < 0.5
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestNotRetrySafe:
    def test_bulk_chunk_applied_before_a_dropped_reply_is_not_resent(self):
        """The node applies a chunk, then the connection drops before the
        reply: the call fails instead of re-sending, and the rows are held
        once — a re-sent chunk would be appended a second time."""

        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address, timeout=2.0, retries=2)
            serve = node.dispatch_inline
            dropped = []

            def apply_then_drop(message):
                reply = serve(message)
                if isinstance(message, BulkLoadChunk) and not dropped:
                    dropped.append(reply)
                    for connection in list(server.connections):
                        connection.transport.abort()
                return reply

            node.dispatch_inline = apply_then_drop
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                chunk = BulkLoadChunk(
                    src=-1,
                    dst=0,
                    ref="0.0",
                    keys=np.arange(100),
                    indexes=np.arange(0, 1000, 10, dtype=np.uint64),
                )
                with pytest.raises(RpcConnectionError):
                    await client.call(chunk)
                assert dropped and dropped[0].payload == 100
                await asyncio.sleep(0.05)
                ack = await client.call(
                    RangeCount(src=-1, dst=0, ref="0.0", ranges=((0, 2**16 - 1),))
                )
                assert ack.payload == [100]
                assert node.requests_served["BulkLoadChunk"] == 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestGarbageOnTheWire:
    """A frame that does not parse drops the connection — quietly."""

    @pytest.mark.parametrize("garbage", sorted(GARBAGE))
    def test_server_drops_a_peer_that_sends_garbage(self, garbage):
        async def scenario():
            node, server = await _served_node()
            good = RpcClient(server.address)
            try:
                with _no_loop_errors():
                    reader, writer = await asyncio.open_connection(*server.address)
                    writer.write(encode_frame(1, PingRequest(src=-1, dst=0)))
                    writer.write(GARBAGE[garbage])
                    # The frame before the garbage is answered, then EOF.
                    request_id, is_response, reply, _ = await asyncio.wait_for(
                        read_frame(reader), 2.0
                    )
                    assert (request_id, is_response, type(reply)) == (1, True, Ack)
                    assert await asyncio.wait_for(reader.read(), 2.0) == b""
                    writer.close()
                    await writer.wait_closed()
                    # Nobody else is affected.
                    await good.call(PingRequest(src=-1, dst=0))
            finally:
                await good.close()
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("garbage", sorted(GARBAGE))
    def test_client_fails_the_call_when_the_reply_is_garbage(self, garbage):
        async def scenario():
            async def answer_garbage(reader, writer):
                await read_frame(reader)
                writer.write(GARBAGE[garbage])
                await writer.drain()
                await reader.read()  # until the client hangs up
                writer.close()

            peer = await asyncio.start_server(answer_garbage, "127.0.0.1", 0)
            address = peer.sockets[0].getsockname()[:2]
            client = RpcClient(address, timeout=2.0, retries=1)
            try:
                with _no_loop_errors():
                    started = time.monotonic()
                    with pytest.raises(RpcConnectionError):
                        await client.call(PingRequest(src=-1, dst=0))
                    assert time.monotonic() - started < 1.0
            finally:
                await client.close()
                peer.close()
                await peer.wait_closed()

        asyncio.run(scenario())


class TestOneConnection:
    def test_pipelined_requests_resolve_to_their_own_reply(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                for key in range(64):
                    await client.call(
                        PutRequest(src=-1, dst=0, ref="0.0", key=key, index=key, value=key * key)
                    )
                acks = await asyncio.gather(
                    *(client.call(PingRequest(src=-1, dst=0)) for _ in range(64))
                )
                assert all(type(ack) is Ack and ack.error is None for ack in acks)
                assert node.requests_served["PingRequest"] == 64
                gets = await asyncio.gather(
                    *(client.call(GetRequest(src=-1, dst=0, ref="0.0", key=key))
                      for key in range(64))
                )
                assert [ack.payload for ack in gets] == [key * key for key in range(64)]
                assert len(server.connections) == 1
                assert not client._connection.pending
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_concurrent_first_calls_share_one_connect(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                await asyncio.gather(
                    *(client.call(PingRequest(src=-1, dst=0)) for _ in range(8))
                )
                assert len(server.connections) == 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_requests_behind_a_peer_transfer_wait_their_turn(self):
        """Replies leave in arrival order; other connections are not held up."""

        async def scenario():
            source, source_server = await _served_node()
            target = SnodeNode(1, bh=16)
            target_server = SnodeServer(target)
            await target_server.start()
            first = RpcClient(source_server.address)
            second = RpcClient(source_server.address)
            to_target = RpcClient(target_server.address)
            release = asyncio.Event()
            source.transfer_hooks["before_adopt"] = release.wait
            try:
                await first.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                await first.call(
                    PutRequest(src=-1, dst=0, ref="0.0", key=1, index=5, value="a")
                )
                await to_target.call(VnodeCreate(src=-1, dst=1, ref="1.0"))
                done = []
                transfer = asyncio.ensure_future(
                    first.call(
                        PeerTransferRequest(
                            src=-1,
                            dst=0,
                            ref="0.0",
                            target_ref="1.0",
                            target_address=target_server.address,
                            ranges=((0, 2**16 - 1),),
                        )
                    )
                )
                transfer.add_done_callback(lambda _: done.append("transfer"))
                ping = asyncio.ensure_future(first.call(PingRequest(src=-1, dst=0)))
                ping.add_done_callback(lambda _: done.append("ping"))
                # The second connection is served while the first one waits.
                await asyncio.wait_for(second.call(PingRequest(src=-1, dst=0)), 2.0)
                await asyncio.sleep(0.05)
                assert done == []
                release.set()
                ack = await asyncio.wait_for(transfer, 2.0)
                await asyncio.wait_for(ping, 2.0)
                assert ack.payload["rows"] == 1
                assert done == ["transfer", "ping"]
                assert target.storage.fast_primary_count() == 1
            finally:
                await first.close()
                await second.close()
                await to_target.close()
                await source.close_peers()
                await source_server.stop()
                await target_server.stop()

        asyncio.run(scenario())


class TestBackPressure:
    def test_client_does_not_write_between_pause_and_resume_writing(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                await client.call(PingRequest(src=-1, dst=0))
                connection = client._connection
                connection.pause_writing()  # what a full transport buffer does
                sent_before = client.bytes_sent
                call = asyncio.ensure_future(client.call(PingRequest(src=-1, dst=0)))
                await asyncio.sleep(0.05)
                assert not call.done()
                assert client.bytes_sent == sent_before
                assert node.requests_served["PingRequest"] == 1
                connection.resume_writing()
                assert (await asyncio.wait_for(call, 2.0)).error is None
                assert node.requests_served["PingRequest"] == 2
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_server_stops_serving_a_peer_that_does_not_read_its_replies(self):
        """Large replies to a peer that never reads must not pile up in memory:
        the write buffer stays near its high-water mark, the rest of the
        requests wait unread in the socket, and all are answered in order
        once the peer reads."""
        n_requests, value = 48, b"v" * (256 * 1024)

        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                await client.call(
                    PutRequest(src=-1, dst=0, ref="0.0", key=1, index=5, value=value)
                )
                reader, writer = await asyncio.open_connection(*server.address)
                get = GetRequest(src=-1, dst=0, ref="0.0", key=1)
                for request_id in range(n_requests):
                    writer.write(encode_frame(request_id, get))
                await writer.drain()
                await asyncio.sleep(0.2)
                (connection,) = [c for c in server.connections if c.write_paused]
                buffered = connection.transport.get_write_buffer_size()
                assert buffered <= 64 * 1024 + 2 * len(value)
                assert node.requests_served["GetRequest"] < n_requests
                # The stalled connection holds nobody else up.
                await asyncio.wait_for(client.call(PingRequest(src=-1, dst=0)), 2.0)
                for request_id in range(n_requests):
                    got_id, is_response, reply, _ = await asyncio.wait_for(
                        read_frame(reader), 5.0
                    )
                    assert (got_id, is_response) == (request_id, True)
                    assert reply.payload == value
                writer.close()
                await writer.wait_closed()
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


    def test_stalled_peer_that_hangs_up_is_forgotten_quietly(self):
        async def scenario():
            node, server = await _served_node()
            client = RpcClient(server.address)
            try:
                await client.call(VnodeCreate(src=-1, dst=0, ref="0.0"))
                await client.call(
                    PutRequest(src=-1, dst=0, ref="0.0", key=1, index=5, value=b"v" * 2**18)
                )
                with _no_loop_errors():
                    reader, writer = await asyncio.open_connection(*server.address)
                    get = GetRequest(src=-1, dst=0, ref="0.0", key=1)
                    for request_id in range(48):
                        writer.write(encode_frame(request_id, get))
                    await writer.drain()
                    await asyncio.sleep(0.2)
                    assert any(c.write_paused for c in server.connections)
                    writer.transport.abort()
                    for _ in range(100):
                        if len(server.connections) == 1:
                            break
                        await asyncio.sleep(0.01)
                    assert len(server.connections) == 1  # the good client's
                    await client.call(PingRequest(src=-1, dst=0))
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())


class TestTeardown:
    def test_closed_harness_leaves_no_node_alive(self):
        """``close()`` must wait for every ``connection_lost``: a transport
        closed but not yet lost keeps its whole node (and its rows) alive
        into whatever runs next — the benchmark's ``peak_rss_mb`` saw it."""
        spec = ChurnSpec(
            name="teardown", workload="ids", n_keys=400, n_events=0, approach="local",
            n_snodes=3, vnodes_per_snode=2, min_snodes=2, max_snodes=6, load_chunks=1,
            read_multiplier=0.0, pmin=8, vmin=8, replication_factor=2, seed=11,
        )

        async def scenario():
            trace = [ChurnEvent(kind="load", lo=0, hi=400)]
            async with ClusterHarness(spec, trace=trace) as harness:
                await harness.run(oracle=False)
                nodes = [weakref.ref(h.node) for h in harness.handles.values()]
                servers = [weakref.ref(h.server) for h in harness.handles.values()]
            del harness
            return nodes + servers

        refs = asyncio.run(scenario())
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
