"""Cluster client: routing plus Dynamo-style replica fan-out over RPC.

The client holds its own :class:`~repro.runtime.node.NodeTopologyView` and
:class:`~repro.core.engine.placement.PlacementService` — the same pushed
snapshot every node gets — so it routes without asking anyone.  Writes go
to the primary owner and fan out to every replica; reads try the primary
first and fall back to the replicas when the primary is unreachable (a
crash the coordinator has not yet healed), which is exactly the
availability story replication pays for.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.messages import (
    BulkLoadChunk,
    DeleteRequest,
    GetRequest,
    PutRequest,
)
from repro.core.engine.placement import PlacementService
from repro.core.hashspace import HashSpace, Partition
from repro.core.ids import VnodeRef
from repro.runtime.node import NodeTopologyView
from repro.runtime.rpc import RpcClient, RpcError
from repro.utils.arrays import as_object_column

#: ``src`` id the coordinator/client stamps on its messages.
COORDINATOR_ID = -1


class ClusterClient:
    """Data-plane client of a served cluster."""

    def __init__(self, *, bh: int, replication_factor: int = 1):
        self.hash_space = HashSpace(bh)
        self.replication_factor = replication_factor
        self.view = NodeTopologyView()
        self.placement = PlacementService(
            self.hash_space, self.view, replication_factor, replication_factor - 1
        )
        self._rpc: Dict[int, RpcClient] = {}

    # -- membership ------------------------------------------------------------

    def connect(self, snode_id: int, rpc: RpcClient) -> None:
        self._rpc[snode_id] = rpc

    def disconnect(self, snode_id: int) -> Optional[RpcClient]:
        return self._rpc.pop(snode_id, None)

    def rpc_for(self, snode_id: int) -> RpcClient:
        return self._rpc[snode_id]

    def update_topology(
        self, version: int, entries: List[Tuple[Partition, VnodeRef]]
    ) -> None:
        self.view.update(version, entries)

    # -- single-key operations -------------------------------------------------

    async def put(self, key: Hashable, value: Any) -> None:
        """Write one item to its primary owner, fanning out to every replica."""
        index = self.hash_space.hash_key(key)
        partition, ref = self.placement.locate(index)
        await self._call_vnode(
            ref,
            PutRequest(
                src=COORDINATOR_ID,
                dst=ref.snode.value,
                ref=ref.canonical_name,
                key=key,
                index=index,
                value=value,
            ),
        )
        for replica in self.placement.replicas_of(partition):
            await self._call_vnode(
                replica,
                PutRequest(
                    src=COORDINATOR_ID,
                    dst=replica.snode.value,
                    ref=replica.canonical_name,
                    tier="replica",
                    key=key,
                    index=index,
                    value=value,
                ),
            )

    async def get(self, key: Hashable) -> Any:
        """Read one item; replicas answer when the primary is unreachable.

        Raises :class:`KeyError` if the key is genuinely absent and an
        :class:`~repro.runtime.rpc.RpcError` when no holder responded.
        """
        index = self.hash_space.hash_key(key)
        partition, ref = self.placement.locate(index)
        try:
            response = await self._call_vnode(
                ref,
                GetRequest(
                    src=COORDINATOR_ID,
                    dst=ref.snode.value,
                    ref=ref.canonical_name,
                    key=key,
                ),
            )
            return response.payload
        except RpcError as primary_error:
            last: Exception = primary_error
            for replica in self.placement.replicas_of(partition):
                try:
                    response = await self._call_vnode(
                        replica,
                        GetRequest(
                            src=COORDINATOR_ID,
                            dst=replica.snode.value,
                            ref=replica.canonical_name,
                            tier="replica",
                            key=key,
                        ),
                    )
                    return response.payload
                except RpcError as exc:
                    last = exc
            raise last

    async def delete(self, key: Hashable) -> Any:
        """Delete one item from its primary and every replica."""
        index = self.hash_space.hash_key(key)
        partition, ref = self.placement.locate(index)
        response = await self._call_vnode(
            ref,
            DeleteRequest(
                src=COORDINATOR_ID,
                dst=ref.snode.value,
                ref=ref.canonical_name,
                key=key,
            ),
        )
        for replica in self.placement.replicas_of(partition):
            await self._call_vnode(
                replica,
                DeleteRequest(
                    src=COORDINATOR_ID,
                    dst=replica.snode.value,
                    ref=replica.canonical_name,
                    tier="replica",
                    key=key,
                ),
            )
        return response.payload

    # -- bulk operations -------------------------------------------------------

    async def bulk_load(
        self,
        keys: Sequence[Hashable],
        values: Optional[Sequence[Any]] = None,
    ) -> int:
        """Columnar bulk load: one chunk RPC per (target vnode, tier), all in flight.

        Keys are hashed and routed client-side, grouped by target vnode with
        one stable argsort per tier, and shipped as
        :class:`~repro.cluster.messages.BulkLoadChunk` messages sent
        concurrently — the networked twin of the engine's ``bulk_load``.  A
        chunk keeps its rows in input order, so the last of a repeated key
        wins as it does in the engine.  Returns the primary rows
        acknowledged; if any chunk fails, the first error is raised once
        every chunk has settled.
        """
        key_column = keys if isinstance(keys, np.ndarray) else as_object_column(keys)
        if len(key_column) == 0:
            return 0
        value_column = None
        if values is not None:
            value_column = values if isinstance(values, np.ndarray) else as_object_column(values)
        indexes = self.hash_space.hash_keys(key_column)
        positions = self.placement.locate_batch(indexes)
        refs, primary, replica_ranks = self._targets_by_position()

        def send(tier: str, targets: np.ndarray, rows: np.ndarray) -> list:
            return [
                self._call_vnode(
                    refs[target],
                    BulkLoadChunk(
                        src=COORDINATOR_ID,
                        dst=refs[target].snode.value,
                        ref=refs[target].canonical_name,
                        tier=tier,
                        keys=key_column[chunk],
                        indexes=indexes[chunk],
                        values=None if value_column is None else value_column[chunk],
                    ),
                )
                for target, chunk in _group_rows(targets, rows)
            ]

        all_rows = np.arange(len(key_column))
        primaries = send("primary", primary[positions], all_rows)
        replicas = []
        if replica_ranks:
            targets = np.concatenate([rank[positions] for rank in replica_ranks])
            rows = np.tile(all_rows, len(replica_ranks))
            placed = targets >= 0
            replicas = send("replica", targets[placed], rows[placed])
        replies = await asyncio.gather(*primaries, *replicas, return_exceptions=True)
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return sum(int(reply.payload) for reply in replies[: len(primaries)])

    def _targets_by_position(self) -> Tuple[List[VnodeRef], np.ndarray, List[np.ndarray]]:
        """Who receives the rows of each router position, as integer target ids.

        Returns ``(refs, primary, replica_ranks)``: ``refs[id]`` is the vnode
        of a target id, ``primary[p]`` the id of position ``p``'s owner and
        ``replica_ranks[r][p]`` that of its rank-``r + 1`` replica (``-1``
        where the position has fewer replicas).
        """
        ids: Dict[VnodeRef, int] = {}
        entries = self.placement.router().entries()
        primary = np.array([ids.setdefault(ref, len(ids)) for _, ref in entries])
        replica_ranks: List[np.ndarray] = []
        if self.replication_factor > 1:
            placement = self.placement.placement()
            replicas = [placement.replicas_at(p) for p in range(len(entries))]
            for rank in range(max(map(len, replicas), default=0)):
                replica_ranks.append(
                    np.array(
                        [
                            ids.setdefault(held[rank], len(ids)) if rank < len(held) else -1
                            for held in replicas
                        ]
                    )
                )
        return list(ids), primary, replica_ranks

    # -- plumbing --------------------------------------------------------------

    async def _call_vnode(self, ref: VnodeRef, message):
        try:
            rpc = self._rpc[ref.snode.value]
        except KeyError:
            raise RpcError(f"no connection to snode {ref.snode.value}") from None
        return await rpc.call(message)


def _group_rows(targets: np.ndarray, rows: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """``(target, its rows)`` per distinct target id, rows in their given order."""
    order = np.argsort(targets, kind="stable")
    ordered = targets[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(order)]):
        if hi > lo:
            yield int(ordered[lo]), rows[order[lo:hi]]


__all__ = ["COORDINATOR_ID", "ClusterClient"]
