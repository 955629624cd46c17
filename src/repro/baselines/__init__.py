"""Reference models the paper compares against.

The only baseline used in the paper's evaluation is Consistent Hashing
(Karger et al., STOC 1997), with its virtual-server extension for
heterogeneous nodes (Dabek et al., SOSP 2001 — CFS).  One implementation,
:class:`~repro.baselines.consistent_hashing.ConsistentHashRing`, serves
both as a usable hash ring with lookups and as the figure-9 metric model
(:func:`repro.experiments.runner.ch_join_trace` measures it after every
join).
"""

from repro.baselines.consistent_hashing import ConsistentHashRing

__all__ = ["ConsistentHashRing"]
