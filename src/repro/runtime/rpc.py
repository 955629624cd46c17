"""RPC client: persistent connection, per-request timeout, bounded retry.

One :class:`RpcClient` owns one connection to one served snode.  Requests
are written as frames carrying a fresh request id; the connection's
:class:`~repro.runtime.codec.FrameProtocol` resolves the matching future
from ``data_received`` when the response frame arrives, so many requests
can be in flight on the same connection and none of them costs a task.

A request that times out poisons the connection (the response may arrive
later and would desynchronize the id space of a naive retry), so the
client closes it, reconnects, and retries — up to ``retries`` times before
raising :class:`RpcTimeoutError`.  A request that is not
:attr:`~repro.cluster.messages.Message.RETRY_SAFE` is never re-sent: its
first attempt may already have been applied, so the error is raised at
once.  A connection the peer dropped is
forgotten the moment ``connection_lost`` runs: what was in flight fails
with :class:`RpcConnectionError` and the next call reconnects at once.
Error replies (``Ack.error``) are re-raised as typed exceptions:
``KeyError`` comes back as a real ``KeyError`` so replica-fallback reads
can catch it, everything else as :class:`RpcRemoteError`.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Dict, Optional, Tuple, Union

from repro.cluster.messages import Ack, Message
from repro.runtime.codec import FrameProtocol

#: Address of a served snode: ``("host", port)`` for TCP or a unix socket path.
Address = Union[Tuple[str, int], str]


class RpcError(Exception):
    """Base class of RPC-layer failures."""


class RpcTimeoutError(RpcError):
    """The request was retried ``retries`` times and never got a response."""


class RpcConnectionError(RpcError):
    """The peer is unreachable or hung up mid-exchange."""


class RpcRemoteError(RpcError):
    """The remote handler raised; carries the exception kind and message."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def _raise_remote(ack: Ack) -> None:
    kind, _, detail = (ack.error or "").partition(": ")
    if kind == "KeyError":
        raise KeyError(ack.payload if ack.payload is not None else detail)
    raise RpcRemoteError(kind or "RemoteError", detail)


def _expire(future: "asyncio.Future[Message]") -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class _ClientConnection(FrameProtocol):
    """One connection of an :class:`RpcClient` and the requests in flight on it."""

    def __init__(self, client: "RpcClient"):
        super().__init__()
        #: For the byte accounting; dropped with the connection.
        self.client: Optional[RpcClient] = client
        self.pending: Dict[int, "asyncio.Future[Message]"] = {}

    def frame_received(
        self, request_id: int, is_response: bool, message: Message, n_bytes: int
    ) -> None:
        self.client.bytes_received += n_bytes
        future = self.pending.pop(request_id, None)
        if future is not None and is_response and not future.done():
            future.set_result(message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        client, self.client = self.client, None
        pending, self.pending = self.pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    RpcConnectionError(f"connection to {client.address} lost")
                )


class RpcClient:
    """Client end of one snode connection."""

    def __init__(
        self,
        address: Address,
        *,
        timeout: float = 5.0,
        retries: int = 2,
    ):
        self.address = address
        self.timeout = timeout
        self.retries = retries
        self._connection: Optional[_ClientConnection] = None
        #: Pending while one caller is connecting; the others wait on it.
        self._connecting: Optional["asyncio.Future[None]"] = None
        self._next_id = 1
        #: Wall-clock seconds of every completed call, for latency profiles.
        self.call_durations: list = []
        #: On-wire bytes written/read on this connection (frames included) —
        #: the per-connection accounting that proves row payloads flow
        #: peer-to-peer while the coordinator link stays metadata-only.
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- connection lifecycle --------------------------------------------------

    async def _connected(self) -> _ClientConnection:
        """The live connection, opened on first use and after a loss (one
        connect at a time)."""
        while self._connection is None or self._connection.transport is None:
            if self._connecting is not None:
                await asyncio.shield(self._connecting)
                continue
            loop = asyncio.get_running_loop()
            self._connecting = loop.create_future()
            factory = partial(_ClientConnection, self)
            try:
                if isinstance(self.address, str):
                    _, connection = await loop.create_unix_connection(
                        factory, self.address
                    )
                else:
                    host, port = self.address
                    _, connection = await loop.create_connection(factory, host, port)
                self._connection = connection
            finally:
                connecting, self._connecting = self._connecting, None
                connecting.set_result(None)
        return self._connection

    async def close(self) -> None:
        """Close the connection; in-flight requests fail with a connection error.

        Returns once the transport is gone and the connection no longer
        refers to this client, so nothing keeps either alive afterwards.
        """
        connection, self._connection = self._connection, None
        if connection is not None:
            await connection.close()

    # -- calls -----------------------------------------------------------------

    async def call(
        self, message: Message, *, timeout: Optional[float] = None
    ) -> Message:
        """Send ``message`` and return the response message.

        Retries (with a fresh connection) on timeout and on connection
        loss; raises :class:`RpcTimeoutError` / :class:`RpcConnectionError`
        once the retry budget is spent — after the first attempt for a
        message that is not ``RETRY_SAFE``.  Error replies are re-raised as
        typed exceptions (see module docstring).
        """
        loop = asyncio.get_running_loop()
        deadline = timeout if timeout is not None else self.timeout
        last_error: Exception = RpcConnectionError(f"never reached {self.address}")
        attempts = self.retries + 1 if message.RETRY_SAFE else 1
        for _ in range(attempts):
            started = loop.time()
            try:
                response = await self._attempt(loop, message, deadline)
            except asyncio.TimeoutError:
                last_error = RpcTimeoutError(
                    f"{type(message).__name__} to {self.address} timed out "
                    f"after {deadline}s"
                )
                await self.close()
                continue
            except (RpcConnectionError, ConnectionError, OSError) as exc:
                last_error = (
                    exc
                    if isinstance(exc, RpcConnectionError)
                    else RpcConnectionError(str(exc))
                )
                await self.close()
                continue
            self.call_durations.append(loop.time() - started)
            if isinstance(response, Ack) and response.error is not None:
                _raise_remote(response)
            return response
        raise last_error

    async def _attempt(
        self, loop: asyncio.AbstractEventLoop, message: Message, timeout: float
    ) -> Message:
        connection = self._connection
        if connection is None or connection.transport is None:
            connection = await self._connected()
        if connection.write_paused:
            await connection.writable()
        request_id = self._next_id
        self._next_id += 1
        future: "asyncio.Future[Message]" = loop.create_future()
        connection.pending[request_id] = future
        timer = loop.call_later(timeout, _expire, future)
        try:
            self.bytes_sent += connection.send(request_id, message)
            return await future
        finally:
            timer.cancel()
            connection.pending.pop(request_id, None)


__all__ = [
    "Address",
    "RpcClient",
    "RpcConnectionError",
    "RpcError",
    "RpcRemoteError",
    "RpcTimeoutError",
]
