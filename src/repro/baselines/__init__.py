"""Reference models the paper compares against.

The only baseline used in the paper's evaluation is Consistent Hashing
(Karger et al., STOC 1997), with its virtual-server extension for
heterogeneous nodes (Dabek et al., SOSP 2001 — CFS).  Both the object model
(:class:`~repro.baselines.consistent_hashing.ConsistentHashRing`, a usable
hash ring with lookups) and a fast metric-only simulator
(:class:`repro.sim.ConsistentHashingSimulator`) are provided.
"""

from repro.baselines.consistent_hashing import ConsistentHashRing

__all__ = ["ConsistentHashRing"]
