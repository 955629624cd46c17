"""Length-prefixed framing of protocol messages, parsed as the bytes arrive.

A frame is::

    !I  length of the rest of the frame (request id + flags + body)
    !Q  request id (matches a response to its request on one connection)
    !B  flags (bit 0: this frame is a response)
    ..  message body — 2-byte type code + fields: raw columns for the
        row messages, pickled for the rest
        (:meth:`repro.cluster.messages.Message.encode`)

The frame layer is deliberately dumb: request/response correlation and
error signalling live in the message layer (:class:`~repro.cluster.messages.Ack`
carries ``error``), the frame only delimits bytes on the stream.

:func:`parse_frame` is the one place that knows the layout.
:class:`FrameProtocol` runs it over whatever ``data_received`` delivers and
hands every complete frame to :meth:`FrameProtocol.frame_received` in the
same callback — the RPC client resolves a future there, the server answers
there — so a request costs no task switch on either side.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Optional, Tuple

from repro.cluster.messages import Message, WireError, decode

_FRAME_HEADER = struct.Struct("!QB")
_FRAME_LENGTH = struct.Struct("!I")

#: Upper bound on one frame's size; a peer announcing more is protocol
#: garbage (or an attack) and the connection is dropped.  Generous enough
#: for the largest columnar bulk-load chunk the harness ships.
MAX_FRAME_BYTES = 256 * 1024 * 1024

FLAG_RESPONSE = 0x01

#: ``(request_id, is_response, message, n_bytes)``; ``n_bytes`` is the full
#: on-wire size of the frame (length prefix included) — the receive side of
#: the per-connection byte accounting.
Frame = Tuple[int, bool, Message, int]


def encode_frame(request_id: int, message: Message, *, response: bool = False) -> bytes:
    """One wire frame for ``message`` under the given request id."""
    body = message.encode()
    flags = FLAG_RESPONSE if response else 0
    return (
        _FRAME_LENGTH.pack(_FRAME_HEADER.size + len(body))
        + _FRAME_HEADER.pack(request_id, flags)
        + body
    )


def _frame_size(data, offset: int = 0) -> int:
    """On-wire size of the frame whose length prefix sits at ``data[offset]``."""
    (length,) = _FRAME_LENGTH.unpack_from(data, offset)
    if length < _FRAME_HEADER.size or length > MAX_FRAME_BYTES:
        raise WireError(f"invalid frame length {length}")
    return _FRAME_LENGTH.size + length


def parse_frame(data, offset: int = 0) -> Optional[Frame]:
    """The frame starting at ``data[offset]``, or ``None`` until all of it is there.

    ``data`` is any bytes-like object.  Raises
    :class:`~repro.cluster.messages.WireError` as soon as the length prefix
    is readable and out of range, and when the body does not decode.
    """
    available = len(data) - offset
    if available < _FRAME_LENGTH.size:
        return None
    n_bytes = _frame_size(data, offset)
    if available < n_bytes:
        return None
    header = offset + _FRAME_LENGTH.size
    request_id, flags = _FRAME_HEADER.unpack_from(data, header)
    # A view, not a slice: a bulk body is megabytes and decode() slices again.
    with memoryview(data) as view:
        message = decode(view[header + _FRAME_HEADER.size : offset + n_bytes])
    return request_id, bool(flags & FLAG_RESPONSE), message, n_bytes


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read one frame off a stream — :func:`parse_frame` for callers that pull.

    Raises :class:`asyncio.IncompleteReadError` on clean EOF and
    :class:`~repro.cluster.messages.WireError` on garbage.
    """
    prefix = await reader.readexactly(_FRAME_LENGTH.size)
    rest = await reader.readexactly(_frame_size(prefix) - len(prefix))
    frame = parse_frame(prefix + rest)
    assert frame is not None
    return frame


class FrameProtocol(asyncio.Protocol):
    """The frame layer of one connection, driven by the event loop's callbacks.

    Subclasses implement :meth:`frame_received` and may extend
    :meth:`connection_lost`.  Must be created inside a running loop (the
    factory passed to ``create_connection`` / ``create_server`` is).

    A frame that fails to parse aborts the connection: nothing after it on
    the stream can be trusted to be a frame boundary.
    """

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        loop = asyncio.get_running_loop()
        self._lost: "asyncio.Future[None]" = loop.create_future()
        #: Pending while the transport's write buffer is above its high-water
        #: mark (``pause_writing`` .. ``resume_writing``), else ``None``.
        self._resumed: Optional["asyncio.Future[None]"] = None

    # -- receiving -------------------------------------------------------------

    def frame_received(
        self, request_id: int, is_response: bool, message: Message, n_bytes: int
    ) -> None:
        raise NotImplementedError

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        offset, end = 0, len(data)
        try:
            while offset < end:
                frame = parse_frame(data, offset)
                if frame is None:
                    break
                offset += frame[3]
                self.frame_received(*frame)
        except WireError:
            self._buffer = bytearray()
            if self.transport is not None:
                self.transport.abort()
            return
        if data is buffer:
            del buffer[:offset]
        elif offset < end:
            buffer += data[offset:] if offset else data

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.transport = None
        self._buffer = bytearray()
        self._wake_writers()  # their send() raises: nothing to write to
        self._lost.set_result(None)

    # -- sending ---------------------------------------------------------------

    def send(self, request_id: int, message: Message, *, response: bool = False) -> int:
        """Queue one frame on the transport; returns its on-wire size."""
        if self.transport is None:
            raise ConnectionResetError("connection lost")
        frame = encode_frame(request_id, message, response=response)
        self.transport.write(frame)
        return len(frame)

    @property
    def write_paused(self) -> bool:
        return self._resumed is not None

    def pause_writing(self) -> None:
        if self._resumed is None:
            self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        self._wake_writers()

    def _wake_writers(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.set_result(None)

    async def writable(self) -> None:
        """Wait out write back-pressure (what ``drain()`` is to a stream).

        A sender awaits this *before* :meth:`send` whenever
        :attr:`write_paused`, so the transport buffer never grows by more
        than one frame past its high-water mark.
        """
        while self._resumed is not None:
            # Shielded: a cancelled sender must not cancel the others' future.
            await asyncio.shield(self._resumed)

    # -- teardown --------------------------------------------------------------

    async def close(self) -> None:
        """Drop the connection and wait until ``connection_lost`` has run.

        Unsent bytes are discarded (a caller closes a connection it has
        given up on), so this cannot block on a peer that stopped reading.
        """
        if self.transport is not None:
            self.transport.abort()
        await asyncio.shield(self._lost)


__all__ = [
    "FLAG_RESPONSE",
    "MAX_FRAME_BYTES",
    "FrameProtocol",
    "encode_frame",
    "parse_frame",
    "read_frame",
]
