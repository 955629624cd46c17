"""The served snode: engine storage + placement behind an RPC dispatcher.

A :class:`SnodeNode` is the state of one runtime snode — a
:class:`~repro.core.storage.DHTStorage` (optionally durable, rooted in the
node's own data directory so canonical vnode names never collide across
nodes), a coordinator-pushed :class:`NodeTopologyView`, and a
:class:`~repro.core.engine.placement.PlacementService` rebuilt lazily from
the view exactly like the single-process engine rebuilds from its
membership plane.  The dispatcher maps each typed request message to the
engine's public API and wraps the result (or the exception kind) in an
:class:`~repro.cluster.messages.Ack`.

:class:`SnodeServer` serves a node over asyncio (TCP or unix socket).  Each
accepted connection is a :class:`~repro.runtime.codec.FrameProtocol`: a
request is dispatched and its reply written inside the ``data_received``
callback that delivered it, responses matched to requests by id and sent in
arrival order.  The server is where faults bite: a *paused* server keeps
reading but stops responding (requests time out, exactly like a hung
process), a *killed* server drops every connection and refuses new ones.
"""

from __future__ import annotations

import asyncio
from collections import deque
from functools import partial
from typing import Any, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.messages import (
    Ack,
    BulkLoadChunk,
    DeleteRequest,
    GetRequest,
    LookupRequest,
    Message,
    NodeStatsRequest,
    PeerTransferRequest,
    PingRequest,
    PutRequest,
    RangeAdopt,
    RangeCount,
    RangeDrop,
    RangeRetain,
    RestartNotice,
    TopologySnapshot,
    VnodeCreate,
    VnodeDrop,
    WalReplay,
)
from repro.core.durability import DurabilityConfig
from repro.core.engine.placement import PlacementService
from repro.core.hashspace import HashSpace, Partition
from repro.core.ids import VnodeRef
from repro.core.storage import DHTStorage, join_parts, parts_size
from repro.runtime.codec import FrameProtocol
from repro.runtime.rpc import RpcClient


class NodeTopologyView:
    """A node's copy of the cluster ownership table, pushed by the coordinator.

    Satisfies the topology protocol the placement plane consumes (``version``
    plus ``iter_ownership``), so a node rebuilds its router and replica
    placement with the exact same deterministic code path as the
    single-process engine — placement never travels over the wire.
    """

    def __init__(self) -> None:
        self.version = 0
        self._entries: List[Tuple[Partition, VnodeRef]] = []

    def update(self, version: int, entries: List[Tuple[Partition, VnodeRef]]) -> None:
        self.version = version
        self._entries = list(entries)

    def iter_ownership(self) -> Iterator[Tuple[Partition, VnodeRef]]:
        return iter(self._entries)


class SnodeNode:
    """State and request dispatcher of one runtime snode."""

    def __init__(
        self,
        snode_id: int,
        *,
        bh: int,
        replication_factor: int = 1,
        data_dir: Optional[str] = None,
    ):
        self.snode_id = snode_id
        self.hash_space = HashSpace(bh)
        durability = DurabilityConfig(data_dir=data_dir) if data_dir else None
        self.storage = DHTStorage(self.hash_space, durability=durability)
        self.view = NodeTopologyView()
        self.placement = PlacementService(
            self.hash_space, self.view, replication_factor, replication_factor - 1
        )
        self.hosted: Set[VnodeRef] = set()
        #: Requests dispatched since boot, by message class name.
        self.requests_served: Dict[str, int] = {}
        #: Outbound connections to peer nodes (peer-to-peer range pushes),
        #: keyed by address.  Lazily opened, closed with the node.
        self._peers: Dict[Any, RpcClient] = {}
        #: Test-only fault points of the peer-transfer handshake: a named
        #: awaitable called at that point of :meth:`_peer_transfer` (e.g.
        #: ``"after_adopt"`` runs between the target's adoption ack and the
        #: local drop — the window a kill -9 must not lose rows in).
        self.transfer_hooks: Dict[str, Any] = {}

    # -- dispatch --------------------------------------------------------------

    async def dispatch(self, message: Message) -> Ack:
        """Handle one request message; never raises — errors ride the Ack."""
        if not isinstance(message, PeerTransferRequest):
            return self.dispatch_inline(message)
        name = type(message).__name__
        self.requests_served[name] = self.requests_served.get(name, 0) + 1
        try:
            payload = await self._peer_transfer(message)
        except Exception as exc:
            return self._error_ack(message, exc)
        return Ack(src=self.snode_id, dst=message.src, payload=payload)

    def dispatch_inline(self, message: Message) -> Ack:
        """:meth:`dispatch` for every request but ``PeerTransferRequest``.

        Those handlers never wait, so the server answers them from the
        callback that parsed the frame instead of through a task.
        """
        name = type(message).__name__
        self.requests_served[name] = self.requests_served.get(name, 0) + 1
        try:
            payload = self._handle(message)
        except Exception as exc:
            return self._error_ack(message, exc)
        return Ack(src=self.snode_id, dst=message.src, payload=payload)

    def _error_ack(self, message: Message, exc: Exception) -> Ack:
        if isinstance(exc, KeyError):
            key = exc.args[0] if exc.args else None
            return Ack(src=self.snode_id, dst=message.src, payload=key, error="KeyError")
        return Ack(
            src=self.snode_id,
            dst=message.src,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _handle(self, msg: Message) -> Any:
        storage = self.storage
        if isinstance(msg, PingRequest):
            return None
        if isinstance(msg, PutRequest):
            ref = VnodeRef.parse(msg.ref)
            if msg.tier == "replica":
                storage.put_replica(ref, msg.key, msg.index, msg.value)
            else:
                storage.put(ref, msg.key, msg.index, msg.value)
            return None
        if isinstance(msg, GetRequest):
            ref = VnodeRef.parse(msg.ref)
            if msg.tier == "replica":
                return storage.get_replica(ref, msg.key)
            return storage.get(ref, msg.key)
        if isinstance(msg, DeleteRequest):
            ref = VnodeRef.parse(msg.ref)
            if msg.tier == "replica":
                return storage.delete_replica(ref, msg.key)
            return storage.delete(ref, msg.key)
        if isinstance(msg, BulkLoadChunk):
            ref = VnodeRef.parse(msg.ref)
            if msg.tier == "replica":
                return storage.put_replica_batch(ref, msg.keys, msg.indexes, msg.values)
            return storage.put_batch(ref, msg.keys, msg.indexes, msg.values)
        if isinstance(msg, LookupRequest):
            index = self.hash_space.hash_key(msg.key)
            partition, ref = self.placement.locate(index)
            return (
                partition.level,
                partition.index,
                ref.canonical_name,
                ref.snode.value,
            )
        if isinstance(msg, RangeAdopt):
            store = self._tier_store(msg.ref, msg.tier)
            store.adopt_parts(*join_parts(msg.parts), foreign=msg.foreign)
            return None
        if isinstance(msg, RangeDrop):
            store, starts, lasts = self._store_ranges(msg)
            return sum(parts_size(parts) for parts in store.pop_buckets(starts, lasts))
        if isinstance(msg, RangeCount):
            store, starts, lasts = self._store_ranges(msg)
            return [int(n) for n in store.count_buckets(starts, lasts)]
        if isinstance(msg, RangeRetain):
            store, starts, lasts = self._store_ranges(msg)
            return store.drop_outside(starts, lasts)
        if isinstance(msg, VnodeCreate):
            ref = VnodeRef.parse(msg.ref)
            storage.register_vnode(ref, fresh=msg.fresh)
            self.hosted.add(ref)
            return None
        if isinstance(msg, VnodeDrop):
            ref = VnodeRef.parse(msg.ref)
            storage.unregister_vnode(ref)
            self.hosted.discard(ref)
            return None
        if isinstance(msg, WalReplay):
            state = storage.replay_vnode(VnodeRef.parse(msg.ref))
            return state.rows
        if isinstance(msg, RestartNotice):
            rows = 0
            if storage.durable is not None:
                for ref in storage.durable.pending_refs():
                    rows += storage.replay_vnode(ref).rows
            return rows
        if isinstance(msg, TopologySnapshot):
            entries = [
                (Partition(level, index), VnodeRef.parse(name))
                for level, index, name in msg.entries
            ]
            self.view.update(msg.version, entries)
            return None
        if isinstance(msg, NodeStatsRequest):
            return self.stats(partitions=msg.partitions)
        raise TypeError(f"snode {self.snode_id} cannot serve {type(msg).__name__}")

    def _tier_store(self, name: str, tier: str):
        ref = VnodeRef.parse(name)
        if tier == "replica":
            return self.storage.replica_store(ref)
        return self.storage.primary_store(ref)

    def _store_ranges(self, msg: Message):
        """``msg``'s tier store and its wire ranges as bucket columns.

        The store's range primitives assume ``[start, last]`` ranges sorted,
        disjoint and inside the hash space: any other list raises
        :class:`ValueError` (an error ``Ack``) before the store is touched.
        """
        store = self._tier_store(msg.ref, msg.tier)
        previous = -1
        for start, last in msg.ranges:
            if not previous < start <= last < self.hash_space.size:
                raise ValueError(f"unsorted, overlapping or out-of-space range {start}..{last}")
            previous = last
        return (store, *self.storage.range_arrays(msg.ranges))

    # -- peer-to-peer transfers ------------------------------------------------

    def _peer(self, address: Any) -> RpcClient:
        """The pooled outbound connection to the peer at ``address``."""
        key = tuple(address) if isinstance(address, (list, tuple)) else address
        client = self._peers.get(key)
        if client is None:
            client = RpcClient(
                tuple(address) if isinstance(address, (list, tuple)) else address
            )
            self._peers[key] = client
        return client

    async def _await_hook(self, point: str) -> None:
        hook = self.transfer_hooks.get(point)
        if hook is not None:
            await hook()

    async def _peer_transfer(self, msg: PeerTransferRequest) -> Dict[str, Any]:
        """Push owned rows directly to a peer; drop locally only after its ack.

        The data half of every coordinator-planned range move, whatever the
        event and whichever tiers it connects: rows are *copied* out,
        adopted on the target over this node's own outbound connection, and
        (for a ``pop`` move) popped from the local store only once the
        target has acknowledged — so a source killed mid-transfer leaves
        either both copies (idempotently reconciled by the coordinator) or
        the rows safely adopted, never neither.  Returns the
        coordinator-ack payload: the row count and the bytes that flowed on
        the peer link.
        """
        store, starts, lasts = self._store_ranges(msg)
        parts = store.copy_buckets(starts, lasts)
        rows = sum(parts_size(part) for part in parts)
        peer = self._peer(msg.target_address)
        sent_before = peer.bytes_sent + peer.bytes_received
        await self._await_hook("before_adopt")
        await peer.call(
            RangeAdopt(
                src=self.snode_id,
                dst=-1,
                ref=msg.target_ref,
                tier=msg.target_tier or msg.tier,
                parts=parts,
                foreign=store.foreign,
            )
        )
        await self._await_hook("after_adopt")
        if msg.pop:
            store.pop_buckets(starts, lasts)
        peer_bytes = peer.bytes_sent + peer.bytes_received - sent_before
        return {"rows": rows, "peer_bytes": peer_bytes}

    async def close_peers(self) -> None:
        """Close every pooled outbound peer connection."""
        peers, self._peers = list(self._peers.values()), {}
        for client in peers:
            await client.close()

    async def close(self) -> None:
        """Release what the node holds open: peer connections, WAL handles."""
        await self.close_peers()
        if self.storage.durable is not None:
            self.storage.durable.close()

    # -- introspection ---------------------------------------------------------

    def stats(self, partitions: bool = False) -> Dict[str, Any]:
        """Per-node row counts and durability counters (the NodeStats reply).

        With ``partitions=True`` the reply adds ``"partitions"`` — per
        hosted vnode, the primary row count of every owned partition keyed
        by ``(level, index)`` (one merge-free ``count_buckets`` pass per
        vnode, the runtime's load-measurement feed).
        """
        storage = self.storage
        out: Dict[str, Any] = {
            "snode": self.snode_id,
            "primary": storage.fast_primary_count(),
            "replica": storage.fast_replica_count(),
            "vnodes": {
                ref.canonical_name: {
                    "primary": storage.fast_primary_count(ref),
                    "replica": storage.fast_replica_count(ref),
                }
                for ref in sorted(self.hosted)
            },
            "requests": dict(self.requests_served),
        }
        if partitions:
            out["partitions"] = self._partition_counts()
        if storage.durable is not None:
            out["durability"] = storage.durability.as_dict()
        return out

    def _partition_counts(self) -> Dict[str, Dict[Tuple[int, int], int]]:
        """Measured primary rows of every owned partition, per hosted vnode."""
        bh = self.hash_space.bh
        owned: Dict[VnodeRef, List[Partition]] = {}
        for partition, ref in self.view.iter_ownership():
            if ref in self.hosted:
                owned.setdefault(ref, []).append(partition)
        out: Dict[str, Dict[Tuple[int, int], int]] = {}
        for ref in sorted(owned):
            ordered = sorted(owned[ref], key=Partition.ring_sort_key)
            ranges = [(p.start(bh), p.end(bh) - 1) for p in ordered]
            rows = self.storage.primary_range_counts(ref, ranges)
            out[ref.canonical_name] = {
                (p.level, p.index): int(r) for p, r in zip(ordered, rows.tolist())
            }
        return out

    # -- fault surface ---------------------------------------------------------

    def lose_memory(self) -> int:
        """Drop every in-memory row (both tiers), keep disk — a kill -9."""
        return sum(self.storage.lose_vnode_memory(ref) for ref in sorted(self.hosted))


class _ServerConnection(FrameProtocol):
    """One accepted connection: serves its requests in arrival order.

    A request is answered inside :meth:`frame_received`.  Two things make
    the connection *blocked* — the one awaitable handler
    (``PeerTransferRequest``) running as a task, and a transport whose write
    buffer is full — and while it is, requests queue in ``_backlog`` and the
    socket is not read, so neither the queue nor the write buffer grows
    with a peer that sends faster than it reads.  Other connections are
    served meanwhile.
    """

    def __init__(self, server: "SnodeServer"):
        super().__init__()
        self.server: Optional[SnodeServer] = server
        self._backlog: Deque[Tuple[int, Message]] = deque()
        self._handler: Optional["asyncio.Task[None]"] = None

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        if self.server.serving:
            self.server.connections.add(self)
        else:
            # Accepted in the very turn the server stopped: refuse it.
            transport.abort()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._backlog.clear()
        server, self.server = self.server, None
        if server is not None:
            server.connections.discard(self)
        super().connection_lost(exc)

    def frame_received(
        self, request_id: int, is_response: bool, message: Message, n_bytes: int
    ) -> None:
        if self._backlog or self._handler is not None or self.write_paused:
            self._backlog.append((request_id, message))
            self.transport.pause_reading()
        else:
            self._serve(request_id, message)

    def _serve(self, request_id: int, message: Message) -> None:
        server = self.server
        if server is None or server.paused or server.killed:
            # A hung process reads from its socket buffer but never replies;
            # the client's timeout machinery takes it from here.
            return
        if isinstance(message, PeerTransferRequest):
            self._handler = asyncio.get_running_loop().create_task(
                self._serve_awaitable(server.node, request_id, message)
            )
        else:
            self.send(request_id, server.node.dispatch_inline(message), response=True)

    async def _serve_awaitable(
        self, node: SnodeNode, request_id: int, message: Message
    ) -> None:
        try:
            response = await node.dispatch(message)
            if self.transport is not None:
                self.send(request_id, response, response=True)
        finally:
            self._handler = None
            self._serve_backlog()

    def resume_writing(self) -> None:
        super().resume_writing()
        self._serve_backlog()

    def _serve_backlog(self) -> None:
        while self._backlog and self._handler is None and not self.write_paused:
            self._serve(*self._backlog.popleft())
        if not self._backlog and self.transport is not None:
            self.transport.resume_reading()

    async def close(self) -> None:
        """Drop the connection; a handler still running dies with it."""
        handler = self._handler
        if handler is not None:
            handler.cancel()
            await asyncio.wait([handler])
        await super().close()


class SnodeServer:
    """Asyncio server around one :class:`SnodeNode`."""

    def __init__(
        self,
        node: SnodeNode,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ):
        self.node = node
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.paused = False
        self.killed = False
        self._listener: Optional[asyncio.AbstractServer] = None
        #: The open connections (each removes itself when it is lost).
        self.connections: Set[_ServerConnection] = set()

    @property
    def address(self):
        """The connectable address (resolved after :meth:`start`)."""
        if self.unix_path is not None:
            return self.unix_path
        return (self.host, self.port)

    @property
    def serving(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._listener is not None

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        accept = partial(_ServerConnection, self)
        # Listen only once ``serving`` is true, or the first connection
        # could be accepted and refused inside this very call.
        if self.unix_path is not None:
            listener = await loop.create_unix_server(
                accept, path=self.unix_path, start_serving=False
            )
        else:
            listener = await loop.create_server(
                accept, host=self.host, port=self.port, start_serving=False
            )
            self.port = listener.sockets[0].getsockname()[1]
        self._listener = listener
        await listener.start_serving()

    async def stop(self) -> None:
        """Shutdown: stop accepting, drop open connections.

        Returns once every connection's ``connection_lost`` has run and none
        of them refers to this server any more — a stopped server (and the
        node behind it) is garbage as soon as its owner lets go.
        """
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        for connection in list(self.connections):
            await connection.close()
        if listener is not None:
            await listener.wait_closed()

    async def kill(self) -> None:
        """Simulated kill -9: connections dropped mid-flight, no goodbyes."""
        self.killed = True
        await self.stop()


__all__ = ["NodeTopologyView", "SnodeNode", "SnodeServer"]
