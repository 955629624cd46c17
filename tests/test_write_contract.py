"""The write contract: a row lives only under its key's hash index.

* the key-kind matrix: every write entry point (``put`` / ``put_replica``,
  ``put_batch`` / ``put_replica_batch``, a served ``PutRequest`` and
  ``BulkLoadChunk``, and ``adopt_parts`` through a ``RangeAdopt`` round
  trip) crossed with every key kind (``int64``, ``uint64``, ``str``,
  ``bytes`` of mixed lengths, equal-length ``bytes``, ``V{w}`` and mixed
  objects) must agree with a dict model on every read path (``get``,
  ``get_batch``, ``contains``, ``delete``, ``newest_rows``,
  ``verify_replica_consistency(deep=True)``, and kill + ``replay_vnode``);
* refusal: a row under another index than its key's hash, or under a key
  the hash space does not take, is refused at every write entry point with
  the store, its ``fast_len`` and its WAL untouched, and a served write
  answers with an error ``Ack``.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.messages import BulkLoadChunk, PutRequest, RangeAdopt, VnodeCreate, decode
from repro.core import DHTStorage, HashSpace, Partition, SnodeId, VnodeRef
from repro.core.errors import StorageError
from repro.core.replication import ReplicaPlacement, sync_replicas, verify_replica_consistency
from repro.runtime.node import SnodeNode
from repro.utils.arrays import as_object_column

BH = 16
#: The hash space is split into ``2**LEVEL`` ranges, alternately owned by
#: the two vnodes; each vnode is the replica of the other's ranges.
LEVEL = 2
REFS = (VnodeRef(SnodeId(0), 0), VnodeRef(SnodeId(0), 1))
#: Keys are drawn from this many numbers; the ones never written are the
#: absent keys every read path is also asked for.
UNIVERSE = 24
VOID_WIDTH = 6

KINDS = ("int64", "uint64", "str", "bytes", "equal_bytes", "void", "mixed")
ENTRIES = ("point", "batch", "PutRequest", "BulkLoadChunk", "RangeAdopt")


def key_column(kind: str, numbers) -> np.ndarray:
    """The keys of ``numbers`` as the column a caller of that kind holds."""
    numbers = [int(n) for n in numbers]
    if kind == "int64":
        return np.array([n - UNIVERSE // 2 for n in numbers], dtype=np.int64)
    if kind == "uint64":
        return np.array([2**63 + n for n in numbers], dtype=np.uint64)
    if kind == "void":
        raw = b"".join(n.to_bytes(VOID_WIDTH, "little") for n in numbers)
        return np.frombuffer(raw, f"V{VOID_WIDTH}").copy()
    if kind == "str":
        keys: List[Any] = [f"key-{n}" for n in numbers]
    elif kind == "bytes":
        keys = [b"k%d" % n for n in numbers]  # b"k3", b"k13": mixed lengths
    elif kind == "equal_bytes":
        keys = [n.to_bytes(VOID_WIDTH, "little") for n in numbers]
    else:
        keys = [(n, f"m{n}", b"m%d" % n)[n % 3] for n in numbers]
    return as_object_column(keys)


def python_keys(column: np.ndarray) -> List[Any]:
    """The keys a point caller passes: python ints, strs and bytes."""
    return column.astype(object).tolist() if column.dtype.kind == "V" else column.tolist()


def placement() -> ReplicaPlacement:
    partitions = tuple(Partition(LEVEL, r) for r in range(1 << LEVEL))
    primaries = tuple(REFS[r % 2] for r in range(len(partitions)))
    replicas = tuple((REFS[1 - r % 2],) for r in range(len(partitions)))
    return ReplicaPlacement(
        n_ranks=1, version=0, partitions=partitions, primaries=primaries,
        replicas=replicas, by_partition=dict(zip(partitions, replicas)),
        positions_of={
            ref: tuple(r for r in range(len(partitions)) if replicas[r] == (ref,))
            for ref in REFS
        },
    )


def owners(indexes: np.ndarray) -> np.ndarray:
    """Per row, the position in :data:`REFS` of the vnode owning its index."""
    return (indexes >> np.uint64(BH - LEVEL)).astype(np.int64) % 2


def served_node(data_dir: str) -> SnodeNode:
    node = SnodeNode(0, bh=BH, data_dir=data_dir)
    for ref in REFS:
        assert node.dispatch_inline(VnodeCreate(src=-1, dst=0, ref=ref.canonical_name)).error is None
    return node


def serve(node: SnodeNode, message) -> Any:
    """Dispatch ``message`` as it arrives off the wire; the reply's payload."""
    ack = node.dispatch_inline(decode(message.encode()))
    assert ack.error is None, ack.error
    return ack.payload


def put_batches(storage: DHTStorage, keys, indexes, side, values: List[str]) -> None:
    """``put_batch`` each owner's rows, ``put_replica_batch`` them to the other."""
    for s, ref in enumerate(REFS):
        rows = side == s
        if rows.any():
            columns = (keys[rows], indexes[rows], as_object_column(values)[rows])
            storage.put_batch(ref, *columns)
            storage.put_replica_batch(REFS[1 - s], *columns)


def write(entry: str, node: SnodeNode, keys: np.ndarray, values: List[str]) -> None:
    """Write ``keys -> values`` to their owners' primary tiers and to the
    other vnode's replica tier through entry point ``entry``."""
    storage = node.storage
    indexes = storage.hash_space.hash_keys(keys.astype(object) if keys.dtype.kind == "V" else keys)
    side = owners(indexes)
    if entry == "batch":
        put_batches(storage, keys, indexes, side, values)
    elif entry == "RangeAdopt":  # the rows move in from a peer's stores
        source = DHTStorage(HashSpace(BH))
        for ref in REFS:
            source.register_vnode(ref)
        put_batches(source, keys, indexes, side, values)
        everything = source.range_arrays([(0, (1 << BH) - 1)])
        for ref in REFS:
            for tier, store in (("primary", source.primary_store(ref)),
                                ("replica", source.replica_store(ref))):
                serve(node, RangeAdopt(
                    src=1, dst=0, ref=ref.canonical_name, tier=tier,
                    parts=store.pop_buckets(*everything),
                ))
    elif entry == "BulkLoadChunk":
        for s, ref in enumerate(REFS):
            rows = side == s
            for target, tier in ((ref, "primary"), (REFS[1 - s], "replica")):
                if rows.any():
                    assert serve(node, BulkLoadChunk(
                        src=-1, dst=0, ref=target.canonical_name, tier=tier, keys=keys[rows],
                        indexes=indexes[rows], values=as_object_column(values)[rows],
                    )) == int(rows.sum())
    else:
        for key, index, value, s in zip(python_keys(keys), indexes.tolist(), values, side.tolist()):
            primary, replica = REFS[s], REFS[1 - s]
            if entry == "point":
                storage.put(primary, key, index, value)
                storage.put_replica(replica, key, index, value)
                continue
            for ref, tier in ((primary, "primary"), (replica, "replica")):
                serve(node, PutRequest(
                    src=-1, dst=0, ref=ref.canonical_name, tier=tier, key=key, index=index,
                    value=value,
                ))


def check(storage: DHTStorage, kind: str, model: Dict[Any, str], replicas: bool) -> None:
    """Every read path of both vnodes (and of their replica tiers when
    ``replicas``) against ``model``; nothing else is stored."""
    universe = key_column(kind, range(UNIVERSE))
    keys = python_keys(universe)
    indexes = storage.hash_space.hash_keys(keys if kind == "void" else universe)
    side = owners(indexes).tolist()
    for key, s in zip(keys, side):
        primary, replica = REFS[s], REFS[1 - s]
        if key in model:
            assert storage.get(primary, key) == model[key]
            assert storage.contains(primary, key)
            if replicas:
                assert storage.get_replica(replica, key) == model[key]
                assert storage.contains_replica(replica, key)
        else:
            with pytest.raises(KeyError):
                storage.get(primary, key)
            assert not storage.contains(primary, key)
            assert not storage.contains_replica(replica, key)
    everything = storage.range_arrays([(0, (1 << BH) - 1)])
    for s, ref in enumerate(REFS):
        mine = [i for i, key in enumerate(keys) if key in model and side[i] == s]
        assert storage.get_batch(ref, universe[mine]) == [model[keys[i]] for i in mine]
        absent = [i for i, key in enumerate(keys) if key not in model and side[i] == s][:1]
        if absent:
            with pytest.raises(KeyError):
                storage.get_batch(ref, universe[mine + absent])
        want = {keys[i]: model[keys[i]] for i in mine}
        (rows,) = storage.primary_store(ref).newest_rows(*everything)
        assert dict(zip(rows[0].tolist(), rows[2].tolist() if len(rows[0]) else [])) == want
        assert storage.item_count(ref) == len(want)
    if replicas:
        verify_replica_consistency(storage, placement(), deep=True)


@settings(max_examples=120, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    kind=st.sampled_from(KINDS),
    entry=st.sampled_from(ENTRIES),
    writes=st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=30),
    cut=st.integers(0, 30),
    deletes=st.lists(st.integers(0, UNIVERSE - 1), max_size=4),
)
def test_every_entry_point_and_key_kind_agree_with_a_dict(kind, entry, writes, cut, deletes):
    """Two write generations (so keys are overwritten, in place or by a
    fold), a few point deletes, then every read path; then a kill and a
    replay of each vnode's log, the reads again, and a delete of every key."""
    with tempfile.TemporaryDirectory() as data_dir:
        node = served_node(data_dir)
        storage = node.storage
        model: Dict[Any, str] = {}
        for generation, numbers in enumerate((writes[:cut], writes[cut:])):
            if not numbers:
                continue
            column = key_column(kind, numbers)
            values = [f"v{n}-{generation}" for n in numbers]
            write(entry, node, column, values)
            model.update(zip(python_keys(column), values))
        hashed = HashSpace(BH).hash_key
        for key in python_keys(key_column(kind, deletes)):
            s = owners(np.array([hashed(key)], dtype=np.uint64))[0]
            if key in model:
                assert storage.delete(REFS[s], key) == model.pop(key)
                assert storage.delete_replica(REFS[1 - s], key)
            else:
                with pytest.raises(KeyError):
                    storage.delete(REFS[s], key)
                assert not storage.delete_replica(REFS[1 - s], key)
        check(storage, kind, model, replicas=True)

        for ref in REFS:  # kill -9: memory gone, the logs replay
            storage.lose_vnode_memory(ref)
            storage.replay_vnode(ref)
        check(storage, kind, model, replicas=False)
        sync_replicas(storage, placement())
        check(storage, kind, model, replicas=True)

        for key in python_keys(key_column(kind, range(UNIVERSE))):
            s = owners(np.array([hashed(key)], dtype=np.uint64))[0]
            if key in model:
                assert storage.delete(REFS[s], key) == model.pop(key)
            else:
                with pytest.raises(KeyError):
                    storage.delete(REFS[s], key)
        assert storage.item_count() == 0
        storage.durable.close()


def test_void_keys_are_read_and_deleted_by_key():
    """``V{w}`` keys batch-loaded into a store are found by ``get_batch``
    (with the ``V{w}`` column) and by ``delete`` (with ``bytes``)."""
    storage = DHTStorage(HashSpace(BH))
    storage.register_vnode(REFS[0])
    keys = key_column("void", range(5))
    indexes = storage.hash_space.hash_keys(keys.astype(object))
    storage.put_batch(REFS[0], keys, indexes, ["a", "b", "c", "d", "e"])
    assert storage.get_batch(REFS[0], keys) == ["a", "b", "c", "d", "e"]
    assert storage.delete(REFS[0], python_keys(keys)[2]) == "c"
    assert storage.get_batch(REFS[0], keys[[0, 4]]) == ["a", "e"]


# --------------------------------------------------------------------------- refusal


WRONG_ROWS = {
    "wrong-index": lambda space, key: (key, (space.hash_key(key) + 1) % space.size),
    "outside-the-hash-space": lambda space, key: (key, space.size + space.hash_key(key)),
    "negative-index": lambda space, key: (key, -1),
    "tuple-key": lambda space, key: ((key, 1), space.hash_key(key)),
    "bool-key": lambda space, key: (True, space.hash_key(key)),
    "list-key": lambda space, key: ([key], space.hash_key(key)),
}

WRITERS = {
    "put": lambda node, ref, key, index: node.storage.put(ref, key, index, "x"),
    "put_replica": lambda node, ref, key, index: node.storage.put_replica(ref, key, index, "x"),
    "put_batch": lambda node, ref, key, index: node.storage.put_batch(
        ref, ["fine", key], [node.hash_space.hash_key("fine"), index], ["y", "x"]
    ),
    "put_replica_batch": lambda node, ref, key, index: node.storage.put_replica_batch(
        ref, ["fine", key], [node.hash_space.hash_key("fine"), index], ["y", "x"]
    ),
    "PutRequest": lambda node, ref, key, index: [
        node.dispatch_inline(PutRequest(
            src=-1, dst=0, ref=ref.canonical_name, tier=tier, key=key, index=index, value="x"
        ))
        for tier in ("primary", "replica")
    ],
    "BulkLoadChunk": lambda node, ref, key, index: [
        node.dispatch_inline(BulkLoadChunk(
            src=-1, dst=0, ref=ref.canonical_name, tier=tier,
            keys=as_object_column(["fine", key]),
            indexes=as_object_column([node.hash_space.hash_key("fine"), index]),
            values=as_object_column(["y", "x"]),
        ))
        for tier in ("primary", "replica")
    ],
}


def _state(node: SnodeNode, wal_dir: str):
    """Each store's tiers (by identity and content), ``fast_len`` and the
    bytes of every file of the durable tier.  Each run is sorted first, as
    any read of the store would."""
    stores = [node.storage.primary_store(ref) for ref in REFS]
    stores += [node.storage.replica_store(ref) for ref in REFS]
    for store in stores:
        store._sorted_run()
    tiers = [
        (store.fast_len(), dict(store._items), [tuple(map(id, s)) for s in store._segments])
        for store in stores
    ]
    files = {}
    for root, _, names in os.walk(wal_dir):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                files[os.path.join(root, name)] = fh.read()
    return tiers, files, node.storage.durability.wal_records_written


@pytest.mark.parametrize("writer", sorted(WRITERS))
@pytest.mark.parametrize("wrong", sorted(WRONG_ROWS))
@pytest.mark.parametrize("bulk_loaded", [False, True], ids=["folded", "bulk-loaded"])
def test_a_row_off_its_hash_index_is_refused_before_anything_changes(
    writer, wrong, bulk_loaded, tmp_path
):
    """Refused with ``StorageError`` (a served write: an error ``Ack``) at
    every write entry point, whether the store is folded or holds a run
    the row's key is in; the stores, their row counts and their logs stay
    exactly as they were."""
    node = served_node(str(tmp_path))
    base = key_column("int64", range(8))
    if bulk_loaded:
        write("batch", node, base, [f"v{n}" for n in range(8)])
        node.storage.get(REFS[0], int(base[0]))  # sorts the run
    else:
        write("point", node, base, [f"v{n}" for n in range(8)])
    key = int(base[3])
    ref = REFS[int(owners(np.array([node.hash_space.hash_key(key)], dtype=np.uint64))[0])]
    bad_key, bad_index = WRONG_ROWS[wrong](node.hash_space, key)
    before = _state(node, str(tmp_path))
    if writer in ("PutRequest", "BulkLoadChunk"):
        acks = WRITERS[writer](node, ref, bad_key, bad_index)
        assert all(ack.error and ack.error.startswith("StorageError") for ack in acks), acks
    else:
        with pytest.raises(StorageError):
            WRITERS[writer](node, ref, bad_key, bad_index)
    assert _state(node, str(tmp_path)) == before
    assert node.storage.get(ref, key) == "v3"
    node.storage.durable.close()
