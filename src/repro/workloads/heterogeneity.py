"""Heterogeneous cluster profiles and enrollment-level derivation.

The whole motivation of the paper's model (section 1) is that cluster nodes
may be heterogeneous — machines from different generations coexist, some
nodes are specialized — and that the share of the DHT handled by each node
should follow the computational resources it enrolls.  This module captures
node capacities and converts them into enrollment levels (vnode counts),
which is how the model expresses heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class NodeSpec:
    """Capacity description of one cluster node.

    The *capacity score* is a single scalar combining the resources relevant
    to DHT hosting; the default weights emphasise storage and memory (a DHT
    is primarily a storage service) with CPU as a tie-breaker.
    """

    name: str
    cpu_cores: int = 4
    memory_gb: float = 8.0
    storage_gb: float = 200.0
    relative_performance: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_cores < 1:
            raise ValueError("cpu_cores must be >= 1")
        if self.memory_gb <= 0 or self.storage_gb <= 0:
            raise ValueError("memory_gb and storage_gb must be positive")
        if self.relative_performance <= 0:
            raise ValueError("relative_performance must be positive")

    def capacity_score(self) -> float:
        """Scalar capacity used to derive the node's enrollment level."""
        return (
            0.25 * self.cpu_cores
            + 0.35 * self.memory_gb / 8.0
            + 0.40 * self.storage_gb / 200.0
        ) * self.relative_performance


@dataclass
class CapacityProfile:
    """A set of cluster nodes with their capacities."""

    nodes: List[NodeSpec] = field(default_factory=list)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def homogeneous(cls, n: int, **spec_kwargs) -> "CapacityProfile":
        """``n`` identical nodes (the configuration of the paper's figure 9)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls([NodeSpec(name=f"node-{i:03d}", **spec_kwargs) for i in range(n)])

    @classmethod
    def generations(
        cls, n: int, tiers: Optional[Sequence[Dict]] = None, rng: RngLike = None
    ) -> "CapacityProfile":
        """Nodes drawn from hardware generations of increasing capacity.

        The default tiers model three procurement rounds: old nodes (2 cores,
        4 GB, 100 GB), current nodes (4 cores, 8 GB, 200 GB) and new nodes
        (8 cores, 32 GB, 800 GB) — the "economical reasons" scenario of the
        paper's introduction.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        gen = ensure_rng(rng)
        if tiers is None:
            tiers = [
                {"cpu_cores": 2, "memory_gb": 4.0, "storage_gb": 100.0},
                {"cpu_cores": 4, "memory_gb": 8.0, "storage_gb": 200.0},
                {"cpu_cores": 8, "memory_gb": 32.0, "storage_gb": 800.0},
            ]
        choices = gen.integers(0, len(tiers), size=n)
        nodes = [
            NodeSpec(name=f"node-{i:03d}", **tiers[int(c)]) for i, c in enumerate(choices)
        ]
        return cls(nodes)

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def names(self) -> List[str]:
        """Node names, in declaration order."""
        return [n.name for n in self.nodes]

    def capacity_scores(self) -> Dict[str, float]:
        """Capacity score per node."""
        return {n.name: n.capacity_score() for n in self.nodes}

    def relative_weights(self) -> Dict[str, float]:
        """Capacity scores normalized so the *average* node has weight 1.

        These weights feed the weighted Consistent Hashing baseline and the
        enrollment derivation below.
        """
        scores = self.capacity_scores()
        mean = float(np.mean(list(scores.values()))) if scores else 0.0
        if mean == 0:
            return {name: 1.0 for name in scores}
        return {name: score / mean for name, score in scores.items()}

    def enrollments(self, base_vnodes: int = 4) -> Dict[str, int]:
        """Vnodes each node should contribute (``base_vnodes`` for an average node)."""
        return {
            name: enrollment_from_capacity(weight, base_vnodes)
            for name, weight in self.relative_weights().items()
        }


def enrollment_from_capacity(relative_weight: float, base_vnodes: int = 4) -> int:
    """Enrollment level (vnode count) for a node of the given relative capacity.

    An average node (weight 1.0) contributes ``base_vnodes`` vnodes; other
    nodes contribute proportionally, with a floor of one vnode so every
    enrolled node participates.
    """
    if relative_weight <= 0:
        raise ValueError("relative_weight must be positive")
    if base_vnodes < 1:
        raise ValueError("base_vnodes must be >= 1")
    return max(1, int(round(relative_weight * base_vnodes)))
