"""Consistent Hashing reference model (section 4.3 of the paper).

In Consistent Hashing [Karger et al. 1997] every physical node places ``k``
virtual servers at uniformly random positions of the unit ring; a virtual
server owns the arc between its predecessor point and itself, and the node's
quota ``Q_n`` is the total length of the arcs its virtual servers own.  This
is a full, usable hash ring — the one model behind both the lookups and the
figure-9 metric:

* physical nodes join with ``k`` virtual servers (ring points) each, or with
  a node-specific count derived from a weight (the CFS-style heterogeneous
  variant the paper cites);
* keys are hashed with the engine's :class:`~repro.core.hashspace.HashSpace`
  (hash index ``/ 2**Bh``) and routed to the first virtual server clockwise
  from the key (its *successor*);
* nodes can leave, releasing their arcs to the remaining successors;
* per-node quotas ``Q_n`` and the balance metric ``sigma-bar(Qn)`` are
  available for direct comparison with the paper's model.

The ring is one sorted float64 array of positions plus an aligned array of
owner indices: a join merges the node's points in with one
:func:`numpy.searchsorted` + :func:`numpy.insert`, a leave is a boolean
mask, and the quotas are one :func:`numpy.bincount` over the arc lengths,
keeping a 1024-node run that measures ``sigma-bar(Qn)`` after every join
well under a second.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.config import DEFAULT_BH
from repro.core.errors import EmptyDHTError, UnknownSnodeError
from repro.core.hashspace import HashSpace, KeyLike
from repro.utils.rng import RngLike, ensure_rng

_HASH_SPACE = HashSpace(DEFAULT_BH)


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
        # Sorted ring positions and, aligned with them, the owner's index
        # into ``_nodes`` (the node names in join order).
        self._positions = np.empty(0, dtype=np.float64)
        self._owners = np.empty(0, dtype=np.int64)
        self._nodes: List[str] = []

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
        """Names of the nodes currently in the ring, in join order."""
        return list(self._nodes)

    def add_node(self, node: str, weight: float = 1.0) -> None:
        """Join a node, placing ``round(k * weight)`` virtual servers."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already in the ring")
        if weight <= 0:
            raise ValueError("weight must be strictly positive")
        n_points = max(1, int(round(self.k * weight)))
        points = np.sort(self.rng.random(n_points))
        at = np.searchsorted(self._positions, points)
        self._positions = np.insert(self._positions, at, points)
        self._owners = np.insert(self._owners, at, len(self._nodes))
        self._nodes.append(node)

    def remove_node(self, node: str) -> None:
        """Remove a node; its arcs fall to the successors of its points."""
        if node not in self._nodes:
            raise UnknownSnodeError(f"node {node!r} not in the ring")
        index = self._nodes.index(node)
        keep = self._owners != index
        self._positions = self._positions[keep]
        owners = self._owners[keep]
        self._owners = owners - (owners > index)
        del self._nodes[index]

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------ lookups

    @staticmethod
    def hash_key(key: KeyLike) -> float:
        """Ring position of an application key: its engine hash index ``/ 2**Bh``."""
        return _HASH_SPACE.hash_key(key) / _HASH_SPACE.size

    def lookup_position(self, position: float) -> str:
        """Owner of a ring position: the first virtual server clockwise."""
        if not self._nodes:
            raise EmptyDHTError("the ring has no nodes")
        index = int(np.searchsorted(self._positions, position % 1.0))
        return self._nodes[self._owners[index % len(self._positions)]]

    def lookup(self, key: KeyLike) -> str:
        """Node responsible for an application key."""
        return self.lookup_position(self.hash_key(key))

    # ------------------------------------------------------------------ balance

    def _quotas(self) -> np.ndarray:
        if not self._nodes:
            return np.empty(0, dtype=np.float64)
        # The arc owned by point i spans from point i-1 to point i (the first
        # point also owns the wrap-around arc from the last point).
        arcs = np.diff(self._positions, prepend=self._positions[-1] - 1.0)
        return np.bincount(self._owners, weights=arcs, minlength=len(self._nodes))

    def node_quotas(self) -> Dict[str, float]:
        """Fraction of the ring owned by each node (``Q_n``), in join order."""
        return dict(zip(self._nodes, self._quotas().tolist()))

    def sigma_qn(self) -> float:
        """Relative standard deviation of node quotas (fraction, not %)."""
        quotas = self._quotas()
        return float(quotas.std() / quotas.mean()) if quotas.size else 0.0

    def describe(self) -> Dict[str, object]:
        """Summary dict (for reports and examples)."""
        return {
            "nodes": self.n_nodes,
            "virtual_servers": self.n_virtual_servers,
            "partitions_per_node": self.k,
            "sigma_qn": self.sigma_qn(),
        }
