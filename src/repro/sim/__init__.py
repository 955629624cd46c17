"""Fast, count-level simulator of the balancing dynamics.

The paper's evaluation (section 4) creates 1024 vnodes consecutively,
measures the balance metric after every creation and averages 100 runs per
configuration.  Doing that with the full entity model of :mod:`repro.core`
(which tracks every partition object, routing table and stored item) is
possible but needlessly slow; the balance metrics depend only on the
*partition counts per vnode* and the *splitlevel per group*.

:class:`~repro.sim.local.LocalBalanceSimulator` therefore tracks exactly
that reduced state, for both approaches (the global one is a single group
that never splits).  It implements the same algorithms (victim selection,
improvement test, split-all cascade, group split with random membership,
quota-proportional victim-group selection) and is cross-validated against
the entity model by the test suite, both algebraically (identical
greedy-fill outcomes on the same count multisets) and statistically
(matching metric curves).  The Consistent Hashing comparison runs on the
one ring, :class:`~repro.baselines.consistent_hashing.ConsistentHashRing`;
its per-join trace is :class:`~repro.sim.trace.CHTrace`.
"""

from repro.sim.trace import BalanceTrace, CHTrace
from repro.sim.local import CreationRecord, LocalBalanceSimulator, greedy_fill

__all__ = [
    "BalanceTrace",
    "CHTrace",
    "CreationRecord",
    "greedy_fill",
    "LocalBalanceSimulator",
]
