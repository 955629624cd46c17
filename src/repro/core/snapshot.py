"""Serialization of DHT state to plain JSON-compatible dictionaries.

A real deployment of the model needs to persist and exchange its metadata:
the GPDR/LPDR replicas, the partition ownership and (optionally) the stored
items.  This module provides that capability for both approaches:

* :func:`snapshot_dht` — capture a :class:`~repro.core.local_model.LocalDHT`
  (either approach) as a nested dict of plain Python types
  (JSON-serializable as long as stored values are);
* :func:`restore_dht` — rebuild an equivalent DHT object from a snapshot.

Round-tripping preserves: the configuration (including the replication
factor), snodes (including their canonical-name counters, so future vnode
names do not collide), vnodes and their partitions, groups/LPDRs (local
approach), the splitlevel of the one group (global approach), the cumulative
:class:`~repro.core.storage.MigrationStats` and
:class:`~repro.core.storage.ReplicationStats` (so churn/crash experiments
survive persistence) and, when ``include_data=True``, every stored item —
primary rows *and* replica rows, the latter validated against the replica
placement on restore.

:func:`restore_dht` *validates* the snapshot structurally instead of
trusting it: the partitions must tile the hash space exactly (no overlaps,
no gaps), every vnode must be hosted by a snode the snapshot declares and
sit in exactly one group whose splitlevel matches its partitions, the
approach must agree with the configuration's ``vmin``, and every item must
be stored at the vnode that actually owns its hash index.  A corrupt
snapshot raises :class:`~repro.core.errors.ReproError` with a message
naming the offending entity rather than producing a silently inconsistent
DHT.

The restored DHT is structurally identical (same quotas, same invariants,
same routing), but it gets a fresh RNG unless a seed is supplied — snapshots
capture *state*, not the random stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import DHTConfig, ParallelConfig
from repro.core.durability import DurabilityConfig
from repro.core.entities import Group, Snode, Vnode
from repro.core.errors import InvariantViolation, KeyLookupError, ReproError
from repro.core.hashspace import Partition, total_fraction
from repro.core.ids import GroupId, SnodeId, VnodeRef
from repro.core.local_model import GlobalDHT, LocalDHT
from repro.utils.rng import RngLike

#: Snapshot format version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


def _partition_to_dict(partition: Partition) -> List[int]:
    return [partition.level, partition.index]


def _vnode_to_dict(vnode: Vnode, grouped: bool) -> Dict[str, Any]:
    return {
        "ref": vnode.ref.canonical_name,
        "group": vnode.group_id.binary_string if grouped else None,
        "partitions": sorted(
            (_partition_to_dict(p) for p in vnode.partitions), key=tuple
        ),
    }


def _canonical_rows(ref: VnodeRef, stored) -> List[Dict[str, Any]]:
    """One vnode's stored rows as snapshot items, sorted by ``(index,
    str(key))``: row order is not behaviour, so the snapshot must not depend
    on how the storage engine happens to lay a store out."""
    return [
        {
            "vnode": ref.canonical_name,
            "key": key,
            "index": item.index,
            "value": item.value,
        }
        for key, item in sorted(stored, key=lambda row: (row[1].index, str(row[0])))
    ]


def snapshot_dht(dht: LocalDHT, include_data: bool = True) -> Dict[str, Any]:
    """Capture the full state of a DHT as a JSON-compatible dictionary."""
    config = {
        "bh": dht.config.bh,
        "pmin": dht.config.pmin,
        "vmin": dht.config.vmin,
        "replication_factor": dht.config.replication_factor,
        # Durable-tier settings round-trip, but the on-disk files do not:
        # restoring over a live data_dir re-initialises every vnode's log
        # from the restored in-memory rows (see DurableStoreManager.attach).
        "durability": (
            dht.config.durability.as_dict()
            if dht.config.durability is not None
            else None
        ),
    }
    # Multicore settings round-trip too (a restored DHT builds a fresh
    # worker pool on its first eligible batch).  The key is only present
    # when configured so parallel-free snapshots stay byte-identical to
    # pre-multicore ones.
    if dht.config.parallel is not None:
        config["parallel"] = dht.config.parallel.as_dict()
    snodes = [
        {
            "id": snode.id.value,
            "cluster_node": snode.cluster_node,
            "next_vnode_index": snode._next_vnode_index,
        }
        for snode in dht.snodes.values()
    ]
    grouped = dht.config.is_grouped
    vnodes = [_vnode_to_dict(vnode, grouped) for vnode in dht.vnodes.values()]

    snapshot: Dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "approach": dht.approach,
        "config": config,
        "next_snode_id": dht.topology.next_snode_id,
        "removals_occurred": dht.topology.removals_occurred,
        "load_splits_occurred": dht.topology.load_splits_occurred,
        "snodes": snodes,
        "vnodes": vnodes,
        "migration_stats": {
            "partitions_moved": dht.storage.stats.partitions_moved,
            "items_moved": dht.storage.stats.items_moved,
            "migrations": dht.storage.stats.migrations,
        },
        "replication_stats": dht.storage.replication.as_dict(),
    }

    if grouped:
        snapshot["groups"] = [
            {
                "id": group.id.binary_string,
                "splitlevel": group.splitlevel,
                "members": [ref.canonical_name for ref in group.vnodes],
            }
            for group in dht.groups.values()
        ]
        snapshot["group_splits"] = dht.group_splits
    else:
        # Ungrouped snapshots keep the global approach's layout: one
        # top-level splitlevel, no group list.
        snapshot["splitlevel"] = next(
            (group.splitlevel for group in dht.groups.values()),
            dht.config.initial_splitlevel,
        )

    if include_data:
        items: List[Dict[str, Any]] = []
        replica_items: List[Dict[str, Any]] = []
        for ref in dht.vnodes:
            items.extend(_canonical_rows(ref, dht.storage.primary_rows(ref)))
            replica_items.extend(_canonical_rows(ref, dht.storage.replica_rows(ref)))
        snapshot["items"] = items
        snapshot["replica_items"] = replica_items
    return snapshot


def _group_id_from_string(binary: str) -> GroupId:
    return GroupId(depth=len(binary), value=int(binary, 2))


def _verify_partition_tiling(dht: LocalDHT) -> None:
    """Raise :class:`ReproError` unless the vnodes' partitions tile ``R_h``.

    Gives precise messages: an overlap names the two offending partitions,
    a gap/excess reports the exact covered fraction.
    """
    partitions = [
        (partition, ref)
        for ref, vnode in dht.vnodes.items()
        for partition in vnode.partitions
    ]
    ordered = sorted(partitions, key=lambda po: Partition.ring_sort_key(po[0]))
    for (a, ref_a), (b, ref_b) in zip(ordered, ordered[1:]):
        if a.overlaps(b):
            raise ReproError(
                f"snapshot corrupt: partitions {a} (vnode {ref_a}) and {b} "
                f"(vnode {ref_b}) overlap"
            )
    covered = total_fraction(p for p, _ in partitions)
    if covered != 1:
        raise ReproError(
            f"snapshot corrupt: partitions cover {covered} of the hash space "
            f"instead of tiling it exactly (invariant G1)"
        )


def _routed_positions(dht: LocalDHT, ref: VnodeRef, triples: List[Tuple[Any, int, Any]]) -> np.ndarray:
    """Route every item's hash index; raise :class:`ReproError` on bad indexes."""
    for key, index, _ in triples:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ReproError(
                f"snapshot corrupt: item {key!r} at vnode {ref} has a "
                f"non-integer hash index {index!r}"
            )
    router = dht.placement.router()
    try:
        if dht.hash_space.bh <= 64:
            indexes = np.array([t[1] for t in triples], dtype=np.uint64)
        else:
            indexes = np.empty(len(triples), dtype=object)
            indexes[:] = [t[1] for t in triples]
        return router.locate_batch(indexes)
    except (KeyLookupError, OverflowError, TypeError) as exc:
        raise ReproError(
            f"snapshot corrupt: item stored at vnode {ref} has an unroutable "
            f"hash index ({exc})"
        ) from exc


def _verify_item_ownership(dht: LocalDHT, ref: VnodeRef, triples: List[Tuple[Any, int, Any]]) -> None:
    """Raise :class:`ReproError` unless every item's index belongs to ``ref``.

    Vectorized: one :meth:`~repro.core.lookup.PartitionRouter.locate_batch`
    pass over the vnode's whole item column, then an owner comparison per
    distinct routing-table position.
    """
    positions = _routed_positions(dht, ref, triples)
    router = dht.placement.router()
    for pos in np.unique(positions).tolist():
        owner = router.entry_at(int(pos))[1]
        if owner != ref:
            offender = int(np.flatnonzero(positions == pos)[0])
            key, index, _ = triples[offender]
            raise ReproError(
                f"snapshot corrupt: item {key!r} (hash index {index}) is stored "
                f"at vnode {ref} but its index is owned by vnode {owner}"
            )


def _verify_replica_ownership(
    dht: LocalDHT, ref: VnodeRef, triples: List[Tuple[Any, int, Any]]
) -> None:
    """Raise :class:`ReproError` unless ``ref`` legitimately replicates every
    item — i.e. the current placement assigns it the item's partition."""
    positions = _routed_positions(dht, ref, triples)
    placement = dht.placement.placement()
    for pos in np.unique(positions).tolist():
        if ref not in placement.replicas_at(int(pos)):
            offender = int(np.flatnonzero(positions == pos)[0])
            key, index, _ = triples[offender]
            raise ReproError(
                f"snapshot corrupt: replica item {key!r} (hash index {index}) is "
                f"stored at vnode {ref}, which is not a replica of partition "
                f"{placement.partitions[int(pos)]}"
            )


def _restore_groups(dht: LocalDHT, entries: List[Dict[str, Any]]) -> None:
    """Rebuild the groups and require every vnode in exactly one consistent group."""
    for entry in entries:
        group = Group(_group_id_from_string(entry["id"]), entry["splitlevel"])
        if group.id in dht.groups:
            raise ReproError(f"snapshot corrupt: duplicate group {entry['id']}")
        for name in entry["members"]:
            ref = VnodeRef.parse(name)
            if ref not in dht.vnodes:
                raise ReproError(
                    f"snapshot corrupt: group {entry['id']} lists member "
                    f"{name!r}, which is not a vnode of the snapshot"
                )
            vnode = dht.get_vnode(ref)
            if vnode.group_id is not None:
                raise ReproError(
                    f"snapshot corrupt: vnode {name!r} is listed in groups "
                    f"{vnode.group_id} and {entry['id']}"
                )
            group.adopt_vnode(vnode)
        try:
            group.verify_consistent()
        except InvariantViolation as exc:
            raise ReproError(f"snapshot corrupt: {exc}") from exc
        dht.groups[group.id] = group
    for ref, vnode in dht.vnodes.items():
        if vnode.group_id is None:
            raise ReproError(f"snapshot corrupt: vnode {ref} belongs to no group")


def restore_dht(
    snapshot: Dict[str, Any], rng: RngLike = None, data_dir: Optional[str] = None
) -> LocalDHT:
    """Rebuild a DHT from a snapshot produced by :func:`snapshot_dht`.

    A durable DHT's vnode logs go under ``data_dir`` when given, else under
    the snapshot's own; a directory a live DHT of this process still holds
    is refused with :class:`~repro.core.errors.DurabilityError`.
    """
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ReproError(
            f"unsupported snapshot version {version!r} (expected {SNAPSHOT_VERSION})"
        )
    durability_dict = snapshot["config"].get("durability")
    if data_dir is not None:
        if not durability_dict:
            raise ReproError("data_dir given for a snapshot without durability")
        durability_dict = {**durability_dict, "data_dir": data_dir}
    parallel_dict = snapshot["config"].get("parallel")
    config = DHTConfig(
        bh=snapshot["config"]["bh"],
        pmin=snapshot["config"]["pmin"],
        vmin=snapshot["config"]["vmin"],
        replication_factor=snapshot["config"].get("replication_factor", 1),
        durability=(
            DurabilityConfig(**durability_dict) if durability_dict else None
        ),
        parallel=(ParallelConfig(**parallel_dict) if parallel_dict else None),
    )
    approach = snapshot.get("approach")
    if approach not in ("local", "global"):
        raise ReproError(f"unknown approach {approach!r} in snapshot")
    if (approach == "local") != config.is_grouped:
        raise ReproError(
            f"snapshot corrupt: approach {approach!r} disagrees with "
            f"vmin={config.vmin!r}"
        )
    dht = (LocalDHT if config.is_grouped else GlobalDHT)(config, rng=rng)

    # Snodes, constructed with their recorded ids (the id sequence may have
    # gaps if snodes were removed before the snapshot).
    for entry in snapshot["snodes"]:
        snode = Snode(SnodeId(entry["id"]), cluster_node=entry["cluster_node"])
        if snode.id in dht.snodes:
            raise ReproError(f"snapshot corrupt: duplicate snode id {entry['id']}")
        dht.snodes[snode.id] = snode
        snode._next_vnode_index = entry["next_vnode_index"]
    next_snode_id = snapshot["next_snode_id"]
    if dht.snodes and next_snode_id <= max(sid.value for sid in dht.snodes):
        raise ReproError(
            f"snapshot corrupt: next_snode_id {next_snode_id} collides with an "
            f"existing snode id (future enrollments would reuse it)"
        )
    dht.topology.next_snode_id = next_snode_id

    # Vnodes and their partitions (hosts and refs validated as we go).
    for entry in snapshot["vnodes"]:
        ref = VnodeRef.parse(entry["ref"])
        if ref.snode not in dht.snodes:
            raise ReproError(
                f"snapshot corrupt: vnode {entry['ref']!r} is hosted by snode "
                f"{ref.snode}, which the snapshot does not declare"
            )
        if ref in dht.vnodes:
            raise ReproError(f"snapshot corrupt: duplicate vnode {entry['ref']!r}")
        host = dht.snodes[ref.snode]
        if ref.vnode_index >= host._next_vnode_index:
            raise ReproError(
                f"snapshot corrupt: vnode {entry['ref']!r} outruns snode "
                f"{ref.snode}'s name counter ({host._next_vnode_index}); future "
                f"vnode names would collide"
            )
        vnode = Vnode(ref)
        for level, index in entry["partitions"]:
            vnode.add_partition(Partition(level, index))
        snode = dht.get_snode(ref.snode)
        snode.attach_vnode(vnode)
        dht.vnodes[ref] = vnode
        dht.storage.register_vnode(ref)

    if dht.vnodes:
        _verify_partition_tiling(dht)

    if config.is_grouped:
        _restore_groups(dht, snapshot["groups"])
        dht.group_splits = snapshot.get("group_splits", 0)
    elif dht.vnodes:
        # The global approach's one root group holds every vnode.
        root = {
            "id": GroupId.root().binary_string,
            "splitlevel": snapshot["splitlevel"],
            "members": [entry["ref"] for entry in snapshot["vnodes"]],
        }
        _restore_groups(dht, [root])

    dht.topology.removals_occurred = snapshot.get("removals_occurred", False)
    dht.topology.load_splits_occurred = snapshot.get("load_splits_occurred", False)
    dht.topology.bump()
    if dht.vnodes:
        dht.verify_coverage()

    # Group the snapshotted items by owning vnode, check that each group is
    # stored where routing says it belongs, and restore it with one bulk
    # put_batch (the storage engine's columnar ingest path).
    by_vnode: Dict[str, List[Tuple[Any, int, Any]]] = {}
    for item in snapshot.get("items", []):
        by_vnode.setdefault(item["vnode"], []).append(
            (item["key"], item["index"], item["value"])
        )
    for name, triples in by_vnode.items():
        ref = VnodeRef.parse(name)
        if ref not in dht.vnodes:
            raise ReproError(
                f"snapshot corrupt: {len(triples)} item(s) stored at vnode "
                f"{name!r}, which is not a vnode of the snapshot"
            )
        _verify_item_ownership(dht, ref, triples)
        keys, indexes, values = zip(*triples)
        dht.storage.put_batch(ref, list(keys), list(indexes), list(values))

    # Replica rows restore the same way, except ownership is judged against
    # the replica placement instead of the primary routing table.
    replica_by_vnode: Dict[str, List[Tuple[Any, int, Any]]] = {}
    for item in snapshot.get("replica_items", []):
        replica_by_vnode.setdefault(item["vnode"], []).append(
            (item["key"], item["index"], item["value"])
        )
    if replica_by_vnode and dht.config.replica_ranks == 0:
        raise ReproError(
            "snapshot corrupt: replica items present but replication_factor is 1"
        )
    for name, triples in replica_by_vnode.items():
        ref = VnodeRef.parse(name)
        if ref not in dht.vnodes:
            raise ReproError(
                f"snapshot corrupt: {len(triples)} replica item(s) stored at "
                f"vnode {name!r}, which is not a vnode of the snapshot"
            )
        _verify_replica_ownership(dht, ref, triples)
        keys, indexes, values = zip(*triples)
        dht.storage.put_replica_batch(ref, list(keys), list(indexes), list(values))

    stats = snapshot.get("migration_stats")
    if stats is not None:
        dht.storage.stats.partitions_moved = int(stats.get("partitions_moved", 0))
        dht.storage.stats.items_moved = int(stats.get("items_moved", 0))
        dht.storage.stats.migrations = int(stats.get("migrations", 0))
    replication_stats = snapshot.get("replication_stats")
    if replication_stats is not None:
        for field_name in dht.storage.replication.as_dict():
            setattr(
                dht.storage.replication,
                field_name,
                int(replication_stats.get(field_name, 0)),
            )

    return dht
