"""Drive a coroutine that never suspends, without an event loop.

The trace replayer and the load-rebalance driver are each written once, as
an ``async def`` over a small backend.  Over RPC the backend's operations
really wait and the caller ``await``s the shared coroutine; in process they
complete inline, so the coroutine runs from its first statement to its
``return`` in a single ``send``.  :func:`run_sync` is that ``send``: the
in-process entry points stay plain synchronous calls that start no event
loop (``asyncio.run`` would refuse to nest inside a running one, and costs
a loop per call) and work the same from sync code and from inside a task.
"""

from __future__ import annotations

from typing import Coroutine, TypeVar

T = TypeVar("T")


def run_sync(coro: Coroutine[object, object, T]) -> T:
    """Run ``coro`` to completion and return its value.

    Exceptions raised by the coroutine propagate unchanged.  A coroutine
    that suspends (awaits something not already complete) has no loop to
    resume it: it is closed and ``RuntimeError`` is raised.
    """
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError(
        f"{coro.__qualname__} suspended; run_sync only drives coroutines "
        f"whose awaits all complete inline"
    )
