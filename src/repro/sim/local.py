"""Count-level simulator of the balance model, local and global approach.

The simulator keeps, per group, the partition count of each member vnode and
the group's common splitlevel — nothing else.  The global approach is the
degenerate case of one group that never splits (section 2.4: every
partition shares one splitlevel, so ``sigma-bar(Qv)`` equals
``sigma-bar(Pv)``).  This is sufficient to reproduce every metric of the
paper's evaluation:

* the quota of a vnode with ``c`` partitions in a group at splitlevel ``l``
  is exactly ``c / 2**l``;
* the quota of a group is ``P_g / 2**l``;
* the victim group of a new vnode is chosen with probability equal to its
  quota (section 3.6 selects it by looking up a uniformly random hash
  index);
* a full group splits into two random halves (section 3.7), each inheriting
  half of its quota (exact because a full group is perfectly balanced).

The per-creation balancing consumes the unified rebalancing engine's
count-bucket fast path (:func:`repro.core.rebalance.greedy_fill`, re-exported
here): the same creation policy as
:func:`repro.core.rebalance.plan_vnode_creation` but processing whole "count
buckets" at a time, so a creation costs ``O(distinct count values)`` instead
of ``O(partitions transferred)`` — the test suite checks the two produce
identical count multisets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import DHTConfig
from repro.core.local_model import ideal_group_count
from repro.core.rebalance import greedy_fill
from repro.sim.trace import BalanceTrace
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["CreationRecord", "LocalBalanceSimulator", "greedy_fill"]


class _SimGroup:
    """Reduced state of one group: member partition counts and splitlevel.

    ``members`` holds the global creation index of each member vnode, aligned
    with ``counts``; the cluster-protocol simulator uses it to know which
    snodes host vnodes of a group.
    """

    __slots__ = ("level", "counts", "members", "gid")

    def __init__(
        self,
        level: int,
        counts: List[int],
        members: Optional[List[int]] = None,
        gid: int = 0,
    ):
        self.level = level
        self.counts = counts
        self.members = members if members is not None else list(range(len(counts)))
        self.gid = gid

    @property
    def n_vnodes(self) -> int:
        return len(self.counts)

    @property
    def total_partitions(self) -> int:
        return sum(self.counts)

    @property
    def quota(self) -> float:
        """Fraction of the hash space held by the group (``P_g / 2**l_g``)."""
        return self.total_partitions / (1 << self.level)

    def quota_sumsq(self) -> float:
        """Sum over member vnodes of the squared quota (for sigma updates)."""
        scale = 1.0 / (1 << self.level)
        return sum((c * scale) ** 2 for c in self.counts)


@dataclass
class CreationRecord:
    """What happened during one vnode creation (consumed by the protocol simulator).

    Attributes
    ----------
    vnode:
        Global creation index of the new vnode (0-based).
    group_members:
        Creation indices of the vnodes of the group that received the new
        vnode, *excluding* the new vnode itself.
    group_size:
        Number of vnodes in the receiving group after the creation.
    n_transfers:
        Partitions handed over to the new vnode.
    split_all:
        Whether a split-all cascade fired (every partition of the group split).
    group_split:
        Whether the victim group was full and had to split first.
    """

    vnode: int
    group_members: List[int]
    group_size: int
    n_transfers: int
    split_all: bool
    group_split: bool
    #: Persistent identifier of the group that received the vnode (simulator
    #: scoped; the two halves of a split get fresh identifiers).
    group_id: int = 0


class LocalBalanceSimulator:
    """Fast simulator of consecutive vnode creations.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.DHTConfig`.  A grouped configuration
        runs the local approach; ``vmin=None`` runs the global approach —
        one group that never splits, with ``G_ideal = 1`` and
        ``sigma-bar(Qg) = 0``, and no random draw at all.  ``bh`` is
        irrelevant at this level (only quota fractions matter).
    rng:
        Seed or generator driving the random victim-group selection and the
        random half selection after a group split.

    Examples
    --------
    >>> from repro.core import DHTConfig
    >>> from repro.sim import LocalBalanceSimulator
    >>> sim = LocalBalanceSimulator(DHTConfig.for_local(pmin=8, vmin=8), rng=3)
    >>> trace = sim.run(256)
    >>> float(trace.sigma_qv[7])  # V = 8 <= Vmax: still one group, perfectly balanced
    0.0
    >>> sim.n_groups >= 2
    True
    >>> trace = LocalBalanceSimulator(DHTConfig.for_global(pmin=16)).run(64)
    >>> float(trace.sigma_qv[63])   # V = 64 is a power of two: perfect balance (G5)
    0.0
    """

    def __init__(self, config: Optional[DHTConfig] = None, rng: RngLike = None):
        self.config = config if config is not None else DHTConfig.paper_default()
        self.rng = ensure_rng(rng)
        self.groups: List[_SimGroup] = []
        self.n_vnodes = 0
        self.group_splits = 0
        self._next_gid = 0

    # ------------------------------------------------------------------ state

    @property
    def n_groups(self) -> int:
        """Current number of groups (``G_real``)."""
        return len(self.groups)

    def vnode_quotas(self) -> np.ndarray:
        """Quota of every vnode, concatenated across groups (vectorized)."""
        if not self.groups:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(
            [
                np.asarray(group.counts, dtype=np.float64) * (1.0 / (1 << group.level))
                for group in self.groups
            ]
        )

    def group_quotas(self) -> np.ndarray:
        """Quota of every group."""
        return np.asarray([g.quota for g in self.groups], dtype=np.float64)

    def sigma_qv(self) -> float:
        """Relative standard deviation of vnode quotas (fraction, not %)."""
        if self.n_vnodes == 0:
            return 0.0
        sum_q2 = sum(g.quota_sumsq() for g in self.groups)
        # Vnode quotas always sum to exactly 1, so the mean is 1/V and
        # sigma/mean reduces to sqrt(V * sum(q^2) - 1).
        value = self.n_vnodes * sum_q2 - 1.0
        return math.sqrt(max(value, 0.0))

    def sigma_qg(self) -> float:
        """Relative standard deviation of group quotas (fraction, not %)."""
        if not self.groups:
            return 0.0
        sum_q2 = sum(g.quota**2 for g in self.groups)
        value = len(self.groups) * sum_q2 - 1.0
        return math.sqrt(max(value, 0.0))

    def ideal_group_count(self) -> int:
        """``G_ideal`` for the current number of vnodes."""
        if self.config.vmin is None:
            return 1
        return ideal_group_count(self.n_vnodes, self.config.vmin)

    def counts_snapshot(self) -> List[Tuple[int, List[int]]]:
        """``(splitlevel, counts)`` of every group — used by validation tests."""
        return [(g.level, list(g.counts)) for g in self.groups]

    # ------------------------------------------------------------------ dynamics

    def create_vnode(self) -> CreationRecord:
        """Create one vnode following the local algorithm (section 3.6/3.7).

        Returns a :class:`CreationRecord` describing what the creation did,
        which the cluster-protocol simulator uses to derive message counts
        and lock scopes.
        """
        cfg = self.config
        if not self.groups:
            self.groups.append(
                _SimGroup(cfg.initial_splitlevel, [cfg.pmin], members=[0], gid=self._new_gid())
            )
            self.n_vnodes = 1
            return CreationRecord(
                vnode=0,
                group_members=[],
                group_size=1,
                n_transfers=0,
                split_all=False,
                group_split=False,
                group_id=self.groups[0].gid,
            )

        new_id = self.n_vnodes
        target = self._select_victim_group()

        group_split = False
        if cfg.vmax is not None and target.n_vnodes >= cfg.vmax:
            target = self._split_group(target)
            group_split = True

        previous_members = list(target.members)
        new_counts, new_count, level_increase = greedy_fill(target.counts, cfg.pmin)
        target.counts = new_counts + [new_count]
        target.members.append(new_id)
        target.level += level_increase
        self.n_vnodes += 1
        return CreationRecord(
            vnode=new_id,
            group_members=previous_members,
            group_size=target.n_vnodes,
            n_transfers=new_count,
            split_all=level_increase > 0,
            group_split=group_split,
            group_id=target.gid,
        )

    def _new_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def _select_victim_group(self) -> _SimGroup:
        """Pick the victim group with probability equal to its quota.

        Equivalent to the paper's procedure of looking up a uniformly random
        hash index: the probability that the index falls inside a group's
        partitions is exactly the group's quota.  The global approach has
        one group and draws nothing.
        """
        if self.config.vmin is None:
            return self.groups[0]
        r = float(self.rng.random())
        cumulative = 0.0
        for group in self.groups:
            cumulative += group.quota
            if r < cumulative:
                return group
        return self.groups[-1]  # guard against floating-point round-off

    def _split_group(self, group: _SimGroup) -> _SimGroup:
        """Split a full group into two halves and return the half that will grow.

        A full group is perfectly balanced (every vnode at ``Pmin``), so the
        random membership selection of section 3.7 does not influence the
        count multisets: each half simply gets ``Vmin`` vnodes at ``Pmin``.
        The random draws are still consumed so runs remain comparable with
        the entity model's behaviour.
        """
        vmin = self.config.vmin
        permutation = [int(i) for i in self.rng.permutation(group.n_vnodes)]
        counts = [group.counts[i] for i in permutation]
        members = [group.members[i] for i in permutation]
        half_a = _SimGroup(group.level, counts[:vmin], members=members[:vmin], gid=self._new_gid())
        half_b = _SimGroup(group.level, counts[vmin:], members=members[vmin:], gid=self._new_gid())
        index = self.groups.index(group)
        self.groups[index] = half_a
        self.groups.append(half_b)
        self.group_splits += 1
        return half_a if int(self.rng.integers(0, 2)) == 0 else half_b

    # ------------------------------------------------------------------ running

    def run(self, n_vnodes: int, record_group_metrics: bool = True) -> BalanceTrace:
        """Create ``n_vnodes`` vnodes, measuring the metrics after each creation."""
        if n_vnodes < 1:
            raise ValueError("n_vnodes must be >= 1")
        sigma_qv = np.empty(n_vnodes, dtype=np.float64)
        n_groups = np.empty(n_vnodes, dtype=np.int64)
        g_ideal = np.empty(n_vnodes, dtype=np.int64)
        sigma_qg = np.zeros(n_vnodes, dtype=np.float64)
        for i in range(n_vnodes):
            self.create_vnode()
            sigma_qv[i] = self.sigma_qv()
            n_groups[i] = self.n_groups
            g_ideal[i] = self.ideal_group_count()
            if record_group_metrics:
                sigma_qg[i] = self.sigma_qg()
        return BalanceTrace(
            n_vnodes=np.arange(1, n_vnodes + 1, dtype=np.int64),
            sigma_qv=sigma_qv,
            n_groups=n_groups,
            g_ideal=g_ideal,
            sigma_qg=sigma_qg,
        )
