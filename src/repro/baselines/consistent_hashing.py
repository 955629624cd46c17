"""Consistent Hashing reference model (section 4.3 of the paper).

This is a full, usable hash ring — not just a metric simulator:

* physical nodes join with ``k`` virtual servers (ring points) each, or with
  a node-specific count derived from a weight (the CFS-style heterogeneous
  variant the paper cites);
* keys are hashed to the unit ring and routed to the first virtual server
  clockwise from the key (its *successor*);
* nodes can leave, releasing their arcs to the remaining successors;
* per-node quotas ``Q_n`` and the balance metric ``sigma-bar(Qn)`` are
  available for direct comparison with the paper's model.

The implementation keeps the ring as two parallel sorted lists (positions
and owners) and uses :mod:`bisect` for ``O(log M)`` lookups, which is plenty
for the cluster-scale node counts of the paper (up to 1024 nodes).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.errors import EmptyDHTError, UnknownSnodeError
from repro.utils.rng import RngLike, ensure_rng


class ConsistentHashRing:
    """A Consistent Hashing ring with virtual servers and weighted nodes.

    Parameters
    ----------
    partitions_per_node:
        Default number of virtual servers placed per node (``k``).  The
        paper's comparison uses 32 and 64.
    rng:
        Seed or generator for the random virtual-server positions.

    Examples
    --------
    >>> ring = ConsistentHashRing(partitions_per_node=16, rng=1)
    >>> ring.add_node("node-a")
    >>> ring.add_node("node-b", weight=2.0)   # twice the virtual servers
    >>> owner = ring.lookup("some-key")
    >>> owner in {"node-a", "node-b"}
    True
    >>> abs(sum(ring.node_quotas().values()) - 1.0) < 1e-9
    True
    """

    def __init__(self, partitions_per_node: int = 32, rng: RngLike = None):
        if partitions_per_node < 1:
            raise ValueError("partitions_per_node must be >= 1")
        self.k = int(partitions_per_node)
        self.rng = ensure_rng(rng)
        self._positions: List[float] = []
        self._owners: List[str] = []
        self._nodes: Dict[str, int] = {}  # node -> number of virtual servers

    # ------------------------------------------------------------------ nodes

    @property
    def n_nodes(self) -> int:
        """Number of physical nodes currently in the ring."""
        return len(self._nodes)

    @property
    def n_virtual_servers(self) -> int:
        """Total number of virtual servers (ring points)."""
        return len(self._positions)

    def nodes(self) -> List[str]:
        """Names of the nodes currently in the ring."""
        return list(self._nodes)

    def add_node(self, node: str, weight: float = 1.0) -> None:
        """Join a node, placing ``round(k * weight)`` virtual servers."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already in the ring")
        if weight <= 0:
            raise ValueError("weight must be strictly positive")
        n_points = max(1, int(round(self.k * weight)))
        for _ in range(n_points):
            position = float(self.rng.random())
            index = bisect.bisect_left(self._positions, position)
            self._positions.insert(index, position)
            self._owners.insert(index, node)
        self._nodes[node] = n_points

    def remove_node(self, node: str) -> None:
        """Remove a node; its arcs fall to the successors of its points."""
        if node not in self._nodes:
            raise UnknownSnodeError(f"node {node!r} not in the ring")
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._positions = [self._positions[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]
        del self._nodes[node]

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------ lookups

    @staticmethod
    def hash_key(key: Hashable) -> float:
        """Hash an application key to a position on the unit ring."""
        data = repr(key).encode("utf-8")
        digest = hashlib.blake2b(data, digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def lookup_position(self, position: float) -> str:
        """Owner of a ring position: the first virtual server clockwise."""
        if not self._positions:
            raise EmptyDHTError("the ring has no nodes")
        if not (0.0 <= position < 1.0):
            position = position % 1.0
        index = bisect.bisect_left(self._positions, position)
        if index == len(self._positions):
            index = 0  # wrap around
        return self._owners[index]

    def lookup(self, key: Hashable) -> str:
        """Node responsible for an application key."""
        return self.lookup_position(self.hash_key(key))

    # ------------------------------------------------------------------ balance

    def node_quotas(self) -> Dict[str, float]:
        """Fraction of the ring owned by each node (``Q_n``)."""
        quotas: Dict[str, float] = {node: 0.0 for node in self._nodes}
        if not self._positions:
            return quotas
        previous = self._positions[-1] - 1.0
        for position, owner in zip(self._positions, self._owners):
            quotas[owner] += position - previous
            previous = position
        return quotas

    def sigma_qn(self) -> float:
        """Relative standard deviation of node quotas (fraction, not %)."""
        quotas = np.array(list(self.node_quotas().values()), dtype=np.float64)
        if quotas.size == 0:
            return 0.0
        mean = quotas.mean()
        if mean == 0:
            return 0.0
        return float(quotas.std() / mean)

    def describe(self) -> Dict[str, object]:
        """Summary dict (for reports and examples)."""
        return {
            "nodes": self.n_nodes,
            "virtual_servers": self.n_virtual_servers,
            "partitions_per_node": self.k,
            "sigma_qn": self.sigma_qn(),
        }
