"""Tests for the on-disk durability tier (WAL + columnar segments).

Covers the layers bottom-up: segment files (mmap vs eager loads must be
bit-for-bit identical), the per-vnode WAL (append/replay round-trip, torn
tails, empty/missing state), checkpointing, and the end-to-end guarantee —
a durable snode killed with ``kill -9`` (memory lost, disk intact) restarts
and serves every acknowledged write even with ``replication_factor=1``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    DHTConfig,
    DHTStorage,
    DurabilityConfig,
    DurabilityError,
    GlobalDHT,
    HashSpace,
    LocalDHT,
    SnodeId,
    VnodeRef,
    restore_dht,
    snapshot_dht,
)
from repro.core.durability import (
    DurabilityStats,
    DurableVnodeStore,
    load_segment_file,
    write_segment_file,
)
from repro.workloads.driver import build_cluster
from repro.workloads.keys import uniform_keys


def make_log(tmp_path, **config_overrides) -> DurableVnodeStore:
    config = DurabilityConfig(data_dir=str(tmp_path), **config_overrides)
    log = DurableVnodeStore(str(tmp_path / "v0"), config, DurabilityStats())
    log.reset()
    return log


def recovered_dict(state) -> dict:
    """Merge a RecoveredState's segments into one ``key -> (index, value)``."""
    out: dict = {}
    for keys, indexes, values in state.segments:
        key_list = keys.tolist()
        index_list = indexes.tolist()
        value_list = [None] * len(key_list) if values is None else values.tolist()
        for key, index, value in zip(key_list, index_list, value_list):
            out[key] = (index, value)
    return out


class TestSegmentFiles:
    def test_mmap_and_eager_loads_bit_identical(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        rng = np.random.default_rng(7)
        n = 500
        keys = np.empty(n, dtype=object)
        keys[:] = [f"key-{i}" for i in range(n)]
        indexes = rng.integers(0, 2**63, size=n).astype(np.uint64)
        values = np.empty(n, dtype=object)
        values[:] = [("payload", i) for i in range(n)]
        assert write_segment_file(path, keys, indexes, values) == n

        k1, i1, v1 = load_segment_file(path, mmap=True)
        k2, i2, v2 = load_segment_file(path, mmap=False)
        assert isinstance(i1, np.memmap)
        assert not isinstance(i2, np.memmap)
        assert i1.tobytes() == i2.tobytes() == indexes.tobytes()
        assert k1.tolist() == k2.tolist() == keys.tolist()
        assert v1.tolist() == v2.tolist() == values.tolist()

    def test_columns_round_trip_as_python_objects(self, tmp_path):
        # Keys/indexes become dict keys again on replay; numpy scalars must
        # not leak through the pickle round-trip.
        path = str(tmp_path / "seg.seg")
        keys = np.empty(3, dtype=object)
        keys[:] = ["a", "b", "c"]
        indexes = np.array([1, 2, 3], dtype=np.uint64)
        values = np.empty(3, dtype=object)
        values[:] = ["x", "y", "z"]
        write_segment_file(path, keys, indexes, values)
        k, i, v = load_segment_file(path, mmap=False)
        assert all(type(key) is str for key in k.tolist())
        assert all(type(index) is int for index in i.tolist())

    def test_values_none_column(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        keys = np.empty(2, dtype=object)
        keys[:] = ["a", "b"]
        indexes = np.array([10, 20], dtype=np.uint64)
        write_segment_file(path, keys, indexes, None)
        _, _, values = load_segment_file(path)
        assert values is None

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.seg")
        with open(path, "wb") as fh:
            fh.write(b"NOTASEGMENT")
        with pytest.raises(DurabilityError):
            load_segment_file(path)


class TestWal:
    def test_append_replay_round_trip(self, tmp_path):
        log = make_log(tmp_path)
        log.append(("put", "a", 1, "va"))
        log.append(("put", "b", 2, "vb"))
        log.append(("put", "a", 1, "va2"))  # overwrite
        log.append(("del", "b"))
        log.append(("put", "c", 3, "vc"))
        state = log.recover()
        assert state.wal_records == 5
        assert state.torn_records_discarded == 0
        assert not state.zero_copy  # the del forces the exact merge path
        assert recovered_dict(state) == {"a": (1, "va2"), "c": (3, "vc")}

    def test_non_destructive_tail_recovers_zero_copy(self, tmp_path):
        log = make_log(tmp_path)
        keys = np.empty(2, dtype=object)
        keys[:] = ["x", "y"]
        indexes = np.array([5, 6], dtype=np.uint64)
        values = np.empty(2, dtype=object)
        values[:] = ["vx", "vy"]
        log.append(("batch", keys, indexes, values))
        log.append(("put", "z", 7, "vz"))
        state = log.recover()
        assert state.zero_copy
        assert state.rows == 3
        assert recovered_dict(state) == {
            "x": (5, "vx"), "y": (6, "vy"), "z": (7, "vz"),
        }

    def test_torn_tail_truncated_not_fatal(self, tmp_path):
        log = make_log(tmp_path)
        log.append(("put", "a", 1, "va"))
        log.append(("put", "b", 2, "vb"))
        log._close()
        with open(log.wal_path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00\x12\x34")  # partial record header+junk
        state = log.recover()
        assert state.torn_records_discarded == 1
        assert recovered_dict(state) == {"a": (1, "va"), "b": (2, "vb")}
        # The torn bytes were truncated away: a second recovery is clean.
        again = log.recover()
        assert again.torn_records_discarded == 0
        assert recovered_dict(again) == recovered_dict(state)

    def test_corrupt_crc_discards_tail(self, tmp_path):
        log = make_log(tmp_path)
        log.append(("put", "a", 1, "va"))
        log.append(("put", "b", 2, "vb"))
        log._close()
        # Flip one payload byte of the final record.
        with open(log.wal_path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        state = log.recover()
        assert state.torn_records_discarded == 1
        assert recovered_dict(state) == {"a": (1, "va")}

    def test_empty_wal_and_missing_directory_recover_empty(self, tmp_path):
        log = make_log(tmp_path)
        state = log.recover()
        assert state.rows == 0 and state.wal_records == 0
        assert state.segments == []
        # A directory that never existed recovers empty too, not broken.
        fresh = DurableVnodeStore(
            str(tmp_path / "never-written"),
            DurabilityConfig(data_dir=str(tmp_path)),
            DurabilityStats(),
        )
        state = fresh.recover()
        assert state.rows == 0 and state.segments == []

    def test_checkpoint_then_wal_tail_replays_exactly(self, tmp_path):
        log = make_log(tmp_path)
        items = {f"k{i}": (i, f"v{i}") for i in range(50)}
        assert log.checkpoint(items, []) == 50
        assert log.generation == 1
        log.append(("put", "k0", 0, "updated"))
        log.append(("del", "k49"))
        state = log.recover()
        expected = dict(items)
        expected["k0"] = (0, "updated")
        del expected["k49"]
        assert recovered_dict(state) == expected
        assert state.wal_records == 2

    def test_checkpoint_retires_previous_generation(self, tmp_path):
        log = make_log(tmp_path)
        log.append(("put", "a", 1, "va"))
        log.checkpoint({"a": (1, "va")}, [])
        first_gen_files = set(os.listdir(log.directory))
        log.append(("put", "b", 2, "vb"))
        log.checkpoint({"a": (1, "va"), "b": (2, "vb")}, [])
        second_gen_files = set(os.listdir(log.directory))
        assert "seg-1-0.seg" in first_gen_files
        assert "seg-1-0.seg" not in second_gen_files
        assert "seg-2-0.seg" in second_gen_files
        assert recovered_dict(log.recover()) == {"a": (1, "va"), "b": (2, "vb")}

    def test_replay_cost_counts_checkpoint_rows_plus_wal_records(self, tmp_path):
        log = make_log(tmp_path, disk_record_replay_cost=2.0)
        log.checkpoint({f"k{i}": (i, None) for i in range(10)}, [])
        log.append(("put", "extra", 99, "v"))
        assert log.replay_records == 11
        assert log.replay_cost() == pytest.approx(22.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DurabilityError):
            DurabilityConfig(data_dir="")
        with pytest.raises(DurabilityError):
            DurabilityConfig(data_dir="/tmp/x", flush_threshold=0)
        with pytest.raises(DurabilityError):
            DurabilityConfig(data_dir="/tmp/x", disk_record_replay_cost=-1.0)

    def test_as_dict_round_trip(self):
        config = DurabilityConfig(
            data_dir="/tmp/x", flush_threshold=7, fsync=True,
            mmap_segments=False, replica_row_fetch_cost=9.0,
        )
        assert DurabilityConfig(**config.as_dict()) == config

    def test_off_by_default_no_disk_hooks(self, tmp_path):
        dht = build_cluster("local", 3, 2, pmin=4, vmin=4, seed=0)
        assert dht.storage.durable is None
        keys = uniform_keys(200, rng=0)
        dht.bulk_load(keys)
        assert dht.storage.durability.wal_records_written == 0
        assert not dht.describe()["durable"]
        # Nothing was written anywhere under tmp_path by the RAM-only path.
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cls", [GlobalDHT, LocalDHT])
class TestRestartEndToEnd:
    def build(self, cls, tmp_path, factor=1, flush_threshold=1024):
        if cls is LocalDHT:
            config = DHTConfig.for_local(pmin=4, vmin=4, replication_factor=factor)
        else:
            config = DHTConfig.for_global(pmin=4, replication_factor=factor)
        config = config.with_(
            durability=DurabilityConfig(
                data_dir=str(tmp_path), flush_threshold=flush_threshold
            )
        )
        dht = cls(config, rng=0)
        for snode in dht.add_snodes(4):
            dht.set_enrollment(snode, 2)
        return dht

    def test_factor_one_restart_serves_every_acknowledged_write(self, cls, tmp_path):
        dht = self.build(cls, tmp_path, factor=1)
        keys = uniform_keys(800, rng=3)
        values = [f"payload-{i}" for i in range(len(keys))]
        dht.bulk_load(keys, values)
        dht.put("late-key", "late-value")
        dht.delete(keys[0])
        expected = dict(zip(keys, values))
        del expected[keys[0]]
        expected["late-key"] = "late-value"

        for sid in sorted(dht.snodes):
            report = dht.restart_snode(sid)
            assert report.rows_lost_in_memory > 0
            assert report.recovery is not None
            assert report.recovery.disk_replays > 0
            # No replicas exist at factor 1: disk replay is the only source.
            assert report.recovery.replica_rebuilds_chosen == 0

        assert dht.get_many(list(expected)) == list(expected.values())
        assert dht.storage.item_count() == len(expected)
        assert not dht.storage.has_pending_replay()
        dht.check_invariants()

    def test_close_releases_every_wal_handle_and_writes_reopen_them(self, cls, tmp_path):
        dht = self.build(cls, tmp_path, factor=1)
        keys = uniform_keys(200, rng=5)
        dht.bulk_load(keys)
        logs = [dht.storage.durable.log_for(ref) for ref in dht.vnodes]
        assert any(log._fh is not None for log in logs)
        dht.close()
        dht.close()
        assert all(log._fh is None for log in logs)

        dht.put("after-close", "still-durable")
        for sid in sorted(dht.snodes):
            dht.restart_snode(sid)
        assert dht.get("after-close") == "still-durable"
        assert dht.storage.item_count() == len(keys) + 1
        dht.close()

    def test_restart_with_checkpoints_and_deletes(self, cls, tmp_path):
        # A tiny flush threshold forces many checkpoint generations; deletes
        # force the exact (merge) replay path.
        dht = self.build(cls, tmp_path, factor=1, flush_threshold=8)
        keys = uniform_keys(600, rng=4)
        dht.bulk_load(keys)
        for key in keys[::7]:
            dht.delete(key)
        survivors = [k for i, k in enumerate(keys) if i % 7]
        assert dht.storage.durability.checkpoints > 0

        for sid in sorted(dht.snodes):
            dht.restart_snode(sid)
        assert dht.storage.item_count() == len(survivors)
        # Deleted keys stay deleted: replay must not resurrect them.
        for key in keys[::7]:
            assert not dht.contains(key)
        for key in survivors[:50]:
            assert dht.contains(key)
        dht.check_invariants()
        dht.verify_storage_consistency()

    def test_factor_two_restart_recovers_and_replicates(self, cls, tmp_path):
        dht = self.build(cls, tmp_path, factor=2)
        keys = uniform_keys(500, rng=5)
        dht.bulk_load(keys)
        for sid in sorted(dht.snodes):
            dht.restart_snode(sid)
        assert dht.storage.item_count() == 500
        dht.verify_replication(deep=True)
        dht.check_invariants()

    def test_crash_destroys_disk_too(self, cls, tmp_path):
        # A crash is machine loss: at factor 1 the items are gone even with
        # durability on, and no stale disk state lingers for the next life.
        dht = self.build(cls, tmp_path, factor=1)
        keys = uniform_keys(300, rng=6)
        dht.bulk_load(keys)
        victim = sorted(dht.snodes)[0]
        dht.crash_snode(victim)
        assert dht.storage.item_count() < 300
        assert not dht.storage.has_pending_replay()
        dht.check_invariants()

    def test_snapshot_round_trips_durability_config(self, cls, tmp_path):
        dht = self.build(cls, tmp_path, factor=1)
        keys = uniform_keys(200, rng=7)
        values = [f"v-{i}" for i in range(len(keys))]
        dht.bulk_load(keys, values)
        restored = restore_dht(snapshot_dht(dht))
        assert restored.config.durability == dht.config.durability
        assert restored.storage.item_count() == 200
        assert restored.get_many(list(keys)) == values
        restored.check_invariants()


class TestCorruptManifest:
    """Regression: a torn/corrupt MANIFEST must fall back to WAL-only replay.

    Checkpointing installs the manifest with an ``os.replace`` — a kill -9
    mid-replace (or later bit rot) can leave an unreadable manifest while a
    perfectly good WAL sits next to it.  Recovery must not treat the vnode
    as fresh (silently empty): it counts the fault, warns, and replays the
    newest WAL generation on disk.
    """

    def test_corrupt_manifest_before_any_checkpoint_recovers_full_wal(self, tmp_path):
        log = make_log(tmp_path)
        for i in range(8):
            log.append(("put", f"k{i}", i, f"v{i}"))
        with open(log.manifest_path, "wb") as fh:
            fh.write(b"\x80garbage, not a pickle")

        stats = DurabilityStats()
        reopened = DurableVnodeStore(log.directory, log.config, stats)
        with pytest.warns(RuntimeWarning, match="corrupt manifest"):
            state = reopened.recover()
        assert stats.manifests_corrupt == 1
        assert recovered_dict(state) == {f"k{i}": (i, f"v{i}") for i in range(8)}

    def test_corrupt_manifest_after_checkpoint_keeps_the_wal_tail(self, tmp_path):
        log = make_log(tmp_path)
        log.checkpoint({f"k{i}": (i, None) for i in range(10)}, [])
        # The WAL tail holds writes acknowledged after the checkpoint.
        for i in range(10, 15):
            log.append(("put", f"k{i}", i, None))
        with open(log.manifest_path, "wb") as fh:
            fh.write(b"torn")

        stats = DurabilityStats()
        reopened = DurableVnodeStore(log.directory, log.config, stats)
        with pytest.warns(RuntimeWarning, match="corrupt manifest"):
            state = reopened.recover()
        # Checkpoint segments are untrusted without the manifest naming
        # them, but every post-checkpoint write survives via the WAL.
        assert stats.manifests_corrupt == 1
        assert reopened.generation == 1  # newest WAL generation on disk
        assert recovered_dict(state) == {f"k{i}": (i, None) for i in range(10, 15)}

    def test_missing_manifest_is_not_a_fault(self, tmp_path):
        log = make_log(tmp_path)
        log.append(("put", "a", 1, None))
        stats = DurabilityStats()
        reopened = DurableVnodeStore(log.directory, log.config, stats)
        state = reopened.recover()
        assert stats.manifests_corrupt == 0
        assert recovered_dict(state) == {"a": (1, None)}


class TestAdoptCheckpointOrder:
    """Regression: ``adopt_parts`` must not checkpoint between logging a part
    and applying it.  A checkpoint snapshots the in-memory tiers and deletes
    the WAL, so a mid-adoption checkpoint loses the rows just logged (logged
    before applied) or doubles them (applied before logged).
    """

    def test_adopted_rows_survive_a_checkpoint_per_record(self, tmp_path):
        storage = DHTStorage(
            HashSpace(16),
            durability=DurabilityConfig(data_dir=str(tmp_path), flush_threshold=1),
        )
        ref = VnodeRef(SnodeId(0), 0)
        storage.register_vnode(ref)
        pairs = [(f"p{i}", (i, f"pv{i}")) for i in range(4)]
        keys = np.array([f"s{i}" for i in range(6)], dtype=object)
        indexes = np.arange(100, 106, dtype=np.uint64)
        values = np.array([f"sv{i}" for i in range(6)], dtype=object)
        expected = sorted(
            [(key, tuple(item)) for key, item in pairs]
            + [(f"s{i}", (100 + i, f"sv{i}")) for i in range(6)]
        )

        storage.primary_store(ref).adopt_parts(pairs, [(keys, indexes, values)])
        assert storage.lose_vnode_memory(ref) == len(expected)
        storage.replay_vnode(ref)

        # The merge-free count sees duplicates; the merged rows are exact.
        assert storage.fast_item_count(ref) == len(expected)
        assert sorted(
            (key, tuple(item)) for key, item in storage.primary_rows(ref)
        ) == expected
