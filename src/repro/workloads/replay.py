"""The one churn-trace replayer, shared by every backend.

A churn trace (:func:`repro.workloads.churn.make_churn_trace`) interleaves
bulk ``load`` / ``lookup`` chunks with topology events.  What replaying it
*means* — which keys a chunk holds, which reads a lookup draws, what is
timed, what may be lost and when that is checked — does not depend on
whether the snodes are objects in this process or endpoints on a LAN, so
it is written once, here, as a coroutine over a small backend:

==========================  ================================================
``await load(chunk)``       bulk-load keys; rows acknowledged
``await lookup(chunk)``     route/read keys; lookups issued
``await apply(event)``      one topology event -> :class:`Applied`
``await primary_count()``   primary (logical) rows held right now
``await verify_replication()``  raise on replica divergence; checks made
``durable``                 a restarted snode gets its rows back from disk
``expected_total``          the ledger (below); the backend owns it
``error``                   exception class for a violated invariant
==========================  ================================================

The served cluster (:class:`repro.runtime.harness.ClusterHarness`) is one
backend and its caller awaits :func:`replay`; the in-process backend
(:class:`repro.workloads.churn.DHTBackend`) never suspends, so
:meth:`repro.workloads.churn.ChurnEngine.run` drives the same coroutine
with :func:`repro.utils.coro.run_sync`.

**The one rule.**  ``backend.expected_total`` is a ledger: the primary rows
present when the backend was set up plus every acknowledged ``load`` (and
whatever a caller bulk-loads outside the trace and adds itself).  After
*every* topology event, applied or rejected, ``primary_count()`` must equal
it.  A surplus is never legal.  A deficit is legal only for an
``snode_crash``, or an ``snode_restart`` on a non-durable backend, at
``replication_factor == 1`` — or when ``apply`` reports the loss as
sanctioned; it is then counted in ``items_lost`` and the ledger is rebased.
With replication on, ``verify_replication()`` also runs after every
topology event.  Only ``load``, ``lookup`` and ``apply`` are timed; the
checks never are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (churn imports this module)
    from repro.workloads.churn import ChurnEvent


@dataclass
class Applied:
    """What a backend's ``apply`` reports for one topology event."""

    #: False when the model rejected the event (``note`` says why).
    applied: bool = True
    note: str = ""
    items_moved: int = 0
    partitions_moved: int = 0
    #: The backend could not avoid losing rows and accounts for it itself
    #: (a transfer source that died with no replica and no disk).
    loss_sanctioned: bool = False


@dataclass
class EventOutcome:
    """What one replayed event did (timing, migration volume, skip note)."""

    kind: str
    detail: str
    seconds: float
    items_moved: int = 0
    partitions_moved: int = 0
    applied: bool = True
    note: str = ""
    #: Cost-model duration of the same event (set by the runtime's oracle).
    simulated_s: Optional[float] = None

    @property
    def describe(self) -> str:
        """The runtime report's name for :attr:`detail`."""
        return self.detail

    @property
    def measured_s(self) -> float:
        """The runtime report's name for :attr:`seconds`."""
        return self.seconds


@dataclass
class ReplayResult:
    """Counters and per-event outcomes of one :func:`replay`."""

    outcomes: List[EventOutcome] = field(default_factory=list)
    loaded: int = 0
    lookups: int = 0
    applied: int = 0
    skipped: int = 0
    items_lost: int = 0
    conservation_checks: int = 0
    replication_checks: int = 0
    wall_s: float = 0.0

    def seconds(self, *kinds: str) -> float:
        """Summed event time of the given kinds."""
        return sum(o.seconds for o in self.outcomes if o.kind in kinds)


async def check_conservation(backend: Any, allow_loss: bool, after: str = "") -> int:
    """Hold the backend to its ledger; return the rows lost (0 unless sanctioned).

    A sanctioned deficit rebases ``backend.expected_total``; anything else
    that differs raises ``backend.error``.
    """
    measured = await backend.primary_count()
    deficit = backend.expected_total - measured
    if deficit > 0 and allow_loss:
        backend.expected_total = measured
        return deficit
    if deficit:
        raise backend.error(
            f"conservation violated{after}: expected {backend.expected_total} "
            f"primary rows, measured {measured}"
        )
    return 0


async def replay(
    trace: Sequence["ChurnEvent"],
    keys: Any,
    backend: Any,
    *,
    seed: int,
    replication_factor: int,
) -> ReplayResult:
    """Replay ``trace`` over ``keys`` against ``backend``, checking every event.

    ``load`` events slice ``keys``; ``lookup`` events draw their picks from
    ``default_rng(seed + 1)`` over the keys loaded so far.  See the module
    docstring for the conservation rule applied after each topology event.
    """
    key_column = keys if isinstance(keys, np.ndarray) else np.asarray(keys, dtype=object)
    read_rng = np.random.default_rng(seed + 1)
    result = ReplayResult()
    started = time.perf_counter()

    for event in trace:
        if event.kind == "load":
            chunk = keys[event.lo : event.hi]
            t0 = time.perf_counter()
            acknowledged = await backend.load(chunk)
            dt = time.perf_counter() - t0
            backend.expected_total += acknowledged
            result.loaded += acknowledged
            outcome = EventOutcome("load", event.describe(), dt)
        elif event.kind == "lookup":
            chunk = key_column[read_rng.integers(0, event.hi, size=event.n_reads)]
            t0 = time.perf_counter()
            result.lookups += await backend.lookup(chunk)
            dt = time.perf_counter() - t0
            outcome = EventOutcome("lookup", event.describe(), dt)
        else:
            t0 = time.perf_counter()
            done = await backend.apply(event)
            dt = time.perf_counter() - t0
            allow_loss = done.loss_sanctioned or (
                replication_factor == 1
                and (
                    event.kind == "snode_crash"
                    or (event.kind == "snode_restart" and not backend.durable)
                )
            )
            result.items_lost += await check_conservation(
                backend, allow_loss, f" by '{event.describe()}'"
            )
            result.conservation_checks += 1
            if replication_factor > 1:
                result.replication_checks += await backend.verify_replication()
            if done.applied:
                result.applied += 1
            else:
                result.skipped += 1
            outcome = EventOutcome(
                event.kind,
                event.describe(),
                dt,
                items_moved=done.items_moved,
                partitions_moved=done.partitions_moved,
                applied=done.applied,
                note=done.note,
            )
        result.outcomes.append(outcome)

    result.wall_s = time.perf_counter() - started
    return result


__all__ = ["Applied", "EventOutcome", "ReplayResult", "check_conservation", "replay"]
