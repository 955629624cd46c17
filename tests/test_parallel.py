"""Tests for the multicore bulk pipeline (:mod:`repro.parallel`).

Three layers, matched to the subsystem's own:

* **mechanism** — shared-memory arena lifecycle (allocation, scratch
  recycling, ``owns``, leak-free close) and worker-pool failure semantics
  (a ``kill -9``'d worker surfaces as a precise
  :class:`~repro.core.errors.ParallelError`, never a hang);
* **equivalence** — every parallel pipeline (hash, fused hash+locate,
  route+sort, end-to-end ``bulk_load``/``lookup_many``, and the serial
  ``sync_replicas`` over stores a parallel load filled) must produce
  *exactly* what the serial code produces,
  across key dtypes, duplicate keys, values, and replication;
* **property** — randomized workloads replayed at workers ∈ {0, 1, 2, 4}
  against a plain-dict reference model.

Worker pools here use ``min_batch=1`` so small test batches actually cross
the process boundary instead of falling back to serial.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DHTConfig, GlobalDHT, LocalDHT, ParallelConfig, ParallelError
from repro.core.errors import ConfigError
from repro.core.hashspace import HashSpace
from repro.core.snapshot import restore_dht, snapshot_dht
from repro.parallel import ParallelExecutor, ShmArena, WorkerPool

# ---------------------------------------------------------------------- config


def test_parallel_config_validation() -> None:
    with pytest.raises(ConfigError):
        ParallelConfig(workers=-1)
    with pytest.raises(ConfigError):
        ParallelConfig(workers=2, min_batch=0)
    with pytest.raises(ConfigError):
        ParallelConfig(workers=2, start_method="threads")
    assert not ParallelConfig(workers=0).enabled
    assert ParallelConfig(workers=2).enabled
    d = ParallelConfig(workers=2, min_batch=64).as_dict()
    assert ParallelConfig(**d) == ParallelConfig(workers=2, min_batch=64)


def test_dht_config_carries_parallel() -> None:
    cfg = DHTConfig.for_global(parallel=ParallelConfig(workers=2))
    assert cfg.parallel.workers == 2
    assert DHTConfig.for_local().parallel is None


# ----------------------------------------------------------------------- arena


def test_arena_alloc_store_and_release() -> None:
    arena = ShmArena()
    try:
        ref, view = arena.alloc(1000, np.uint64)
        view[:] = np.arange(1000, dtype=np.uint64)
        assert np.array_equal(arena.view(ref), view)

        # Blocks are recycled: a same-size realloc reuses the block.
        before = set(arena.block_names)
        arena.release(ref)
        ref2, _ = arena.alloc(1000, np.uint64)
        assert ref2.name in before

        # A block still in use never serves another allocation.
        sref, sview = arena.store(np.arange(64, dtype=np.int64))
        ref3, _ = arena.alloc(64, np.int64)
        assert ref3.name != sref.name
        assert np.array_equal(sview, np.arange(64, dtype=np.int64))
    finally:
        arena.close()
    assert arena.block_names == []


def test_arena_close_unlinks_everything_and_reads_survive() -> None:
    arena = ShmArena()
    ref, view = arena.alloc(512, np.uint64)
    view[:] = 7
    names = set(arena.block_names)
    arena.close()
    arena.close()  # idempotent
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
    # A still-held view stays readable until it dies (unlink != unmap).
    assert int(view.sum()) == 7 * 512


# ------------------------------------------------------------------------ pool


def test_pool_rejects_zero_workers() -> None:
    with pytest.raises(ParallelError):
        WorkerPool(0)


def test_pool_ping_and_close_idempotent() -> None:
    pool = WorkerPool(2)
    pool.ping()
    assert pool.alive
    assert pool.tasks_dispatched == 2
    pool.close()
    pool.close()
    assert not pool.alive


def test_pool_task_exception_keeps_workers_alive() -> None:
    pool = WorkerPool(2)
    try:
        with pytest.raises(KeyError):
            pool.run_tasks([("no-such-task", {})])
        pool.ping()  # both workers still serving
        assert pool.alive
    finally:
        pool.close()


def test_pool_killed_worker_raises_precise_error_without_hang() -> None:
    pool = WorkerPool(2)
    try:
        pool.ping()
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool._procs[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ParallelError, match=r"worker 0 .*died"):
            pool.ping()
        assert not pool.alive
    finally:
        pool.close()


# ----------------------------------------------------------- executor pipelines


def _executor(workers: int = 2, bh: int = 16) -> ParallelExecutor:
    return ParallelExecutor(ParallelConfig(workers=workers, min_batch=1), HashSpace(bh))


@pytest.mark.parametrize(
    "keys",
    [
        np.arange(5000, dtype=np.uint64) * 7919,
        np.arange(5000, dtype=np.int64) - 2500,
        (np.arange(5000) % 1000).astype(np.int32) - 500,
        [f"key-{i}" for i in range(3000)],
        [f"key-{i}".encode() for i in range(1500)],
    ],
    ids=["uint64", "int64", "int32-dups", "str", "bytes"],
)
def test_hash_keys_matches_serial(keys) -> None:
    space = HashSpace(16)
    ex = _executor()
    try:
        got = ex.hash_keys(keys)
        assert got is not None
        assert np.array_equal(got, space.hash_keys(keys))
    finally:
        ex.close()


def test_hash_keys_falls_back_on_mixed_and_small_batches() -> None:
    ex = ParallelExecutor(
        ParallelConfig(workers=2, min_batch=1000), HashSpace(16)
    )
    try:
        assert ex.hash_keys([1, "two", 3.0]) is None  # unsupported mix
        assert ex.hash_keys(np.arange(10, dtype=np.int64)) is None  # < min_batch
    finally:
        ex.close()


def test_hash_space_hash_keys_accepts_executor() -> None:
    space = HashSpace(16)
    ex = _executor()
    try:
        keys = np.arange(4000, dtype=np.int64)
        assert np.array_equal(
            space.hash_keys(keys, parallel=ex), space.hash_keys(keys)
        )
        assert ex.stats()["dispatches"].get("hash_keys", 0) >= 1
    finally:
        ex.close()


# --------------------------------------------------- end-to-end DHT equivalence


def _build_dht(approach: str, workers: int, replication: int = 1, bh: int = 16):
    parallel = (
        ParallelConfig(workers=workers, min_batch=1) if workers else None
    )
    if approach == "global":
        cfg = DHTConfig.for_global(
            bh=bh, replication_factor=replication, parallel=parallel
        )
        dht = GlobalDHT(cfg, rng=11)
    else:
        cfg = DHTConfig.for_local(
            bh=bh, replication_factor=replication, parallel=parallel
        )
        dht = LocalDHT(cfg, rng=11)
    for snode in dht.add_snodes(4):
        dht.create_vnode(snode.id)
    return dht


def _stored_rows(dht) -> dict:
    rows = {}
    for ref in dht.vnodes:
        rows[ref.canonical_name] = {
            "primary": sorted(
                (str(k), int(item[0]), item[1])
                for k, item in dht.storage.primary_rows(ref)
            ),
            "replica": sorted(
                (str(k), int(item[0]), item[1])
                for k, item in dht.storage.replica_rows(ref)
            ),
        }
    return rows


@pytest.mark.parametrize("approach", ["global", "local"])
@pytest.mark.parametrize("workers", [1, 2])
def test_bulk_load_bit_identical_to_serial(approach: str, workers: int) -> None:
    rng = np.random.default_rng(5)
    keys = rng.integers(-(2**40), 2**40, size=20_000, dtype=np.int64)
    values = np.array([f"v{i}" for i in range(len(keys))], dtype=object)

    serial = _build_dht(approach, 0, replication=2)
    par = _build_dht(approach, workers, replication=2)
    try:
        r0 = serial.bulk_load_report(keys, values)
        r1 = par.bulk_load_report(keys, values)
        assert r0.mode == "serial" and r1.mode == "parallel"
        assert r1.workers == workers
        assert r0.stored == r1.stored == len(keys)
        assert r0.rows_by_rank == r1.rows_by_rank
        assert _stored_rows(serial) == _stored_rows(par)
    finally:
        par.close()


def test_duplicate_keys_last_write_wins_matches_serial() -> None:
    keys = np.tile(np.arange(500, dtype=np.int64), 8)  # every key 8 times
    values = np.array([f"v{i}" for i in range(len(keys))], dtype=object)
    serial = _build_dht("global", 0)
    par = _build_dht("global", 2)
    try:
        serial.bulk_load(keys, values)
        par.bulk_load(keys, values)
        probe = np.arange(500, dtype=np.int64)
        assert serial.get_many(probe) == par.get_many(probe)
        assert serial.storage.total_items() == par.storage.total_items() == 500
    finally:
        par.close()


def test_string_keys_use_parallel_hash_and_match_serial() -> None:
    keys = [f"object:{i}" for i in range(6000)]
    serial = _build_dht("local", 0)
    par = _build_dht("local", 2)
    try:
        serial.bulk_load(keys)
        report = par.bulk_load_report(keys)
        assert report.mode == "parallel-hash"  # blob keys: hash fans out,
        assert _stored_rows(serial) == _stored_rows(par)  # fan-out stays serial
        assert serial.get_many(keys[:100]) == par.get_many(keys[:100])
    finally:
        par.close()


def test_lookup_many_parallel_matches_serial() -> None:
    keys = np.arange(30_000, dtype=np.int64) * 13
    serial = _build_dht("global", 0)
    par = _build_dht("global", 2)
    try:
        serial.bulk_load(keys)
        par.bulk_load(keys)
        for probe in (keys[::3], [f"m{i}" for i in range(5000)]):
            a = serial.lookup_many(probe)
            b = par.lookup_many(probe)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.positions, b.positions)
            assert sorted(a.route_table) == sorted(b.route_table)
            assert [a[i] for i in range(0, len(a), 997)] == [
                b[i] for i in range(0, len(b), 997)
            ]
    finally:
        par.close()


def test_topology_churn_with_parallel_sync_matches_serial() -> None:
    """Joins/leaves after a parallel bulk load keep both sides identical."""
    keys = np.arange(12_000, dtype=np.int64)
    serial = _build_dht("global", 0, replication=2)
    par = _build_dht("global", 2, replication=2)
    try:
        serial.bulk_load(keys)
        par.bulk_load(keys)
        for dht in (serial, par):
            snode = dht.add_snode()
            dht.create_vnode(snode.id)
            dht.remove_snode(next(iter(dht.snodes)))
            dht.check_invariants()
            dht.verify_replication()
        assert _stored_rows(serial) == _stored_rows(par)
    finally:
        par.close()


def test_crash_recovery_with_parallel_counts_matches_serial() -> None:
    keys = np.arange(10_000, dtype=np.int64)
    serial = _build_dht("global", 0, replication=2)
    par = _build_dht("global", 2, replication=2)
    try:
        serial.bulk_load(keys)
        par.bulk_load(keys)
        for dht in (serial, par):
            victim = next(iter(dht.snodes))
            dht.crash_snode(victim)
            dht.verify_replication()
        assert serial.storage.fast_primary_count() == len(keys)
        assert _stored_rows(serial) == _stored_rows(par)
    finally:
        par.close()


def test_close_frees_shm_and_bulk_loaded_rows_survive() -> None:
    par = _build_dht("global", 2)
    keys = np.arange(50_000, dtype=np.int64)
    par.bulk_load(keys)
    names = set(par.parallel.arena.block_names)
    assert names, "parallel bulk load should have allocated shm blocks"
    expected = par.get_many(keys[:64].tolist())
    bytes_held = par.parallel.arena.total_bytes
    par.bulk_load(keys)  # reuses the released blocks: no shm outlives a call
    assert par.parallel.arena.total_bytes == bytes_held
    par.close()
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
    # The stores copied every column out of shm, so reads survive close.
    assert par.get_many(keys[:64].tolist()) == expected
    assert par.parallel is None
    report = par.bulk_load_report(keys + len(keys))  # engine fell back to serial
    assert report.mode == "serial"


def test_worker_death_mid_bulk_raises_parallel_error() -> None:
    par = _build_dht("global", 2)
    try:
        par.bulk_load(np.arange(5000, dtype=np.int64))  # spin the pool up
        pool = par.parallel._pool
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while pool._procs[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ParallelError):
            par.bulk_load(np.arange(5000, 10_000, dtype=np.int64))
    finally:
        par.close()


def test_snapshot_roundtrip_preserves_parallel_config() -> None:
    par = _build_dht("global", 2)
    try:
        keys = np.arange(8000, dtype=np.int64)
        par.bulk_load(keys)
        snap = snapshot_dht(par)
        assert snap["config"]["parallel"]["workers"] == 2
        clone = restore_dht(snap)
        try:
            assert clone.config.parallel == par.config.parallel
            assert clone.get_many(keys[:32].tolist()) == par.get_many(
                keys[:32].tolist()
            )
        finally:
            clone.close()
    finally:
        par.close()


def test_serial_snapshot_has_no_parallel_key() -> None:
    dht = _build_dht("global", 0)
    assert "parallel" not in snapshot_dht(dht)["config"]


# -------------------------------------------------------------------- property


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 3000),
    dup=st.booleans(),
)
def test_property_bulk_matches_dict_reference(seed: int, n: int, dup: bool) -> None:
    rng = np.random.default_rng(seed)
    lo, hi = (0, max(2, n // 3)) if dup else (-(2**50), 2**50)
    keys = rng.integers(lo, hi, size=n, dtype=np.int64)
    values = np.array([f"v{i}" for i in range(n)], dtype=object)
    reference = dict(zip(keys.tolist(), values.tolist()))
    probe = list(reference)

    for workers in (0, 1, 2, 4):
        dht = _build_dht("global", workers)
        try:
            assert dht.bulk_load(keys, values) == n
            assert dht.storage.total_items() == len(reference)
            assert dht.get_many(probe) == [reference[k] for k in probe]
        finally:
            dht.close()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_parallel_identical_to_serial(seed: int) -> None:
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**30), 2**30, size=4000, dtype=np.int64)
    serial = _build_dht("local", 0, replication=2)
    par = _build_dht("local", 2, replication=2)
    try:
        serial.bulk_load(keys)
        par.bulk_load(keys)
        assert _stored_rows(serial) == _stored_rows(par)
    finally:
        par.close()
