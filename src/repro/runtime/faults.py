"""Fault injection against served snodes: pause, kill -9, crash, reboot.

The injector operates on :class:`NodeHandle` objects — one per served
snode, covering both hosting modes:

- **in-process** (``handle.process is None``): the node lives in the
  harness's event loop.  kill -9 is simulated faithfully by dropping every
  connection without a goodbye and losing the node's in-memory rows while
  the on-disk WAL/segments survive; a *crash* additionally destroys the
  data directory (the machine is gone, not just the process).
- **process mode**: the node is a real OS process and kill -9 is a real
  ``SIGKILL``.  Reboot re-spawns the process through the harness-supplied
  spawner callback.

A *paused* server keeps accepting and reading but never replies — the
canonical hung peer that exercises the RPC client's timeout/retry path.
"""

from __future__ import annotations

import asyncio
import shutil
import signal
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, List, Optional

from repro.runtime.node import SnodeNode, SnodeServer
from repro.runtime.rpc import RpcClient


@dataclass
class NodeHandle:
    """Everything the coordinator knows about one served snode."""

    snode_id: int
    bh: int
    replication_factor: int
    data_dir: Optional[str] = None
    node: Optional[SnodeNode] = None
    server: Optional[SnodeServer] = None
    rpc: Optional[RpcClient] = None
    process: Any = None
    address: Any = None
    #: True when the snode runs as a real OS process.  A stable mode flag —
    #: ``process`` itself goes ``None`` while the victim of a kill -9 is
    #: down, which must not change how it is rebooted.
    process_mode: bool = False

    @property
    def in_process(self) -> bool:
        return not self.process_mode

    async def close(self) -> None:
        """Graceful teardown: close the client, stop the server/process."""
        if self.rpc is not None:
            await self.rpc.close()
        if self.node is not None:
            await self.node.close()
        if self.server is not None:
            await self.server.stop()
        if self.process is not None:
            self.process.terminate()
            self.process.wait()
            self.process = None


#: Re-spawns a process-mode node after a reboot (harness-supplied).
Spawner = Callable[[NodeHandle], Awaitable[None]]


class FaultInjector:
    """Inject pause / kill -9 / crash faults and reboot their victims."""

    def __init__(self, spawner: Optional[Spawner] = None):
        self._spawner = spawner
        #: ``(fault, snode_id)`` in injection order.
        self.log: List[tuple] = []

    # -- hangs -----------------------------------------------------------------

    def pause(self, handle: NodeHandle) -> None:
        """Make the server read but never reply (a hung process)."""
        if handle.server is None:
            raise RuntimeError("pause requires an in-process server")
        handle.server.paused = True
        self.log.append(("pause", handle.snode_id))

    def resume(self, handle: NodeHandle) -> None:
        if handle.server is None:
            raise RuntimeError("resume requires an in-process server")
        handle.server.paused = False
        self.log.append(("resume", handle.snode_id))

    # -- kill -9 and crash -----------------------------------------------------

    async def kill(self, handle: NodeHandle) -> None:
        """kill -9: memory is gone, the data directory survives."""
        self.log.append(("kill", handle.snode_id))
        if handle.rpc is not None:
            await handle.rpc.close()
        if handle.in_process:
            assert handle.server is not None and handle.node is not None
            await handle.server.kill()
            await handle.node.close_peers()
            handle.node.lose_memory()
        elif handle.process is not None:
            handle.process.send_signal(signal.SIGKILL)
            handle.process.wait()
            handle.process = None

    async def crash(self, handle: NodeHandle) -> None:
        """Crash: the host is gone — process killed *and* disk destroyed."""
        self.log.append(("crash", handle.snode_id))
        if handle.rpc is not None:
            await handle.rpc.close()
        if handle.in_process:
            assert handle.server is not None
            await handle.server.kill()
            if handle.node is not None:
                await handle.node.close()
            handle.node = None
        elif handle.process is not None:
            handle.process.send_signal(signal.SIGKILL)
            handle.process.wait()
            handle.process = None
        if handle.data_dir is not None:
            shutil.rmtree(handle.data_dir, ignore_errors=True)

    # -- reboot ----------------------------------------------------------------

    async def reboot(self, handle: NodeHandle) -> None:
        """Bring a killed node back up (same disk, empty memory).

        In process mode the node comes back as a *new* process through the
        spawner; the coordinator then re-creates its vnodes with
        ``fresh=False`` and orders WAL replay.  In-process mode keeps the
        node object (whose memory the kill already dropped) and serves it
        on a fresh ephemeral address.
        """
        self.log.append(("reboot", handle.snode_id))
        if handle.in_process:
            assert handle.node is not None
            server = SnodeServer(handle.node)
            await server.start()
            handle.server = server
            handle.address = server.address
            handle.rpc = RpcClient(server.address)
            # Give the loop one tick so the listening socket is accepting.
            await asyncio.sleep(0)
        else:
            if self._spawner is None:
                raise RuntimeError("process-mode reboot requires a spawner")
            await self._spawner(handle)


__all__ = ["FaultInjector", "NodeHandle", "Spawner"]
