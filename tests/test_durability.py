"""Tests for the on-disk durability tier (WAL + checksummed segment files).

Covers the layers bottom-up: segment files (columns round-trip in their
dtypes; every flipped bit or cut byte is refused as a
:class:`DurabilityError`), the per-vnode WAL (append/replay round-trip,
torn tails, empty/missing state), checkpointing, replay through the store
itself (a restart leaves the same rows, counts and dtypes it found), and the
end-to-end guarantee — a durable snode killed with ``kill -9`` (memory lost,
disk intact) restarts and serves every acknowledged write even with
``replication_factor=1``.
"""

from __future__ import annotations

import os
from dataclasses import replace

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
    StorageError,
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
from repro.core.storage import VnodeStore
from repro.workloads.driver import build_cluster
from repro.workloads.keys import uniform_keys


@pytest.fixture
def opened():
    """Everything a test appends here — DHTs, logs — is closed at teardown,
    so no WAL file handle outlives its test."""
    things: list = []
    yield things
    for thing in things:
        thing.close()


@pytest.fixture
def make_log(tmp_path, opened):
    """``make_log(**config_overrides)``: a fresh log under ``tmp_path``."""

    def make(**config_overrides) -> DurableVnodeStore:
        config = DurabilityConfig(data_dir=str(tmp_path), **config_overrides)
        log = DurableVnodeStore(str(tmp_path / "v0"), config, DurabilityStats())
        log.reset()
        opened.append(log)
        return log

    return make


def _uint64_bounds(bounds) -> np.ndarray:
    return np.array(bounds, dtype=np.uint64)


def replayed(state) -> dict:
    """The ``key -> (index, value)`` content of a store replaying ``state``."""
    store = VnodeStore(VnodeRef(SnodeId(0), 0))
    store.replay(state, _uint64_bounds)
    return dict(store.items())


def _object_column(items) -> np.ndarray:
    column = np.empty(len(items), dtype=object)
    column[:] = items
    return column


class TestSegmentFiles:
    def test_segment_file_round_trips_native_and_object_columns(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        rng = np.random.default_rng(7)
        n = 500
        keys = _object_column([f"key-{i}" for i in range(n)])
        indexes = rng.integers(0, 2**63, size=n).astype(np.uint64)
        values = _object_column([("payload", i) for i in range(n)])
        assert write_segment_file(path, keys, indexes, values) == n

        k, i, v = load_segment_file(path)
        assert i.dtype == np.uint64 and i.tobytes() == indexes.tobytes()
        assert k.dtype == v.dtype == object
        assert k.tolist() == keys.tolist()
        assert v.tolist() == values.tolist()

    def test_columns_round_trip_as_python_objects(self, tmp_path):
        # Keys/indexes become dict keys again on replay; numpy scalars must
        # not leak through the round-trip.
        path = str(tmp_path / "seg.seg")
        keys = _object_column(["a", "b", "c"])
        indexes = np.array([1, 2, 3], dtype=np.uint64)
        values = _object_column(["x", "y", "z"])
        write_segment_file(path, keys, indexes, values)
        k, i, v = load_segment_file(path)
        assert all(type(key) is str for key in k.tolist())
        assert all(type(index) is int for index in i.tolist())

    def test_values_none_column(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        keys = _object_column(["a", "b"])
        indexes = np.array([10, 20], dtype=np.uint64)
        write_segment_file(path, keys, indexes, None)
        _, _, values = load_segment_file(path)
        assert values is None

    def test_native_and_fixed_width_dtypes_survive(self, tmp_path):
        """``int64`` keys and ``V{w}`` values come back as such; an ``object``
        column of equal-length ``bytes`` stays ``object``."""
        path = str(tmp_path / "seg.seg")
        keys = np.arange(4, dtype=np.int64)
        indexes = np.arange(4, dtype=np.uint64)
        void = np.frombuffer(b"".join(bytes([i]) * 64 for i in range(4)), "V64").copy()
        for values in (void, _object_column([bytes([i]) * 8 for i in range(4)])):
            write_segment_file(path, keys, indexes, values)
            k, _, v = load_segment_file(path)
            assert (k.dtype, v.dtype) == (keys.dtype, values.dtype)
            assert k.tolist() == keys.tolist() and v.tolist() == values.tolist()

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.seg")
        with open(path, "wb") as fh:
            fh.write(b"NOTASEGMENT")
        with pytest.raises(DurabilityError):
            load_segment_file(path)

    def test_every_flipped_bit_and_every_cut_raises_durability_error(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        keys = np.array([3, 1, 2], dtype=np.int64)
        indexes = np.array([30, 10, 20], dtype=np.uint64)
        write_segment_file(path, keys, indexes, _object_column(["c", "a", "b"]))
        with open(path, "rb") as fh:
            good = fh.read()
        damaged = [good[:cut] for cut in range(len(good))]
        for bit in range(8 * len(good)):
            flipped = bytearray(good)
            flipped[bit // 8] ^= 1 << (bit % 8)
            damaged.append(bytes(flipped))
        for data in damaged:
            with open(path, "wb") as fh:
                fh.write(data)
            with pytest.raises(DurabilityError):
                load_segment_file(path)


class TestWal:
    def test_append_replay_round_trip(self, make_log):
        log = make_log()
        log.append(("put", "a", 1, "va"))
        log.append(("put", "b", 2, "vb"))
        log.append(("put", "a", 1, "va2"))  # overwrite
        log.append(("del", "b"))
        log.append(("put", "c", 3, "vc"))
        state = log.recover()
        assert state.wal_records == 5
        assert state.torn_records_discarded == 0
        assert replayed(state) == {"a": (1, "va2"), "c": (3, "vc")}

    def test_batch_and_put_tail_replays_through_the_store(self, make_log):
        log = make_log()
        keys = np.empty(2, dtype=object)
        keys[:] = ["x", "y"]
        indexes = np.array([5, 6], dtype=np.uint64)
        values = np.empty(2, dtype=object)
        values[:] = ["vx", "vy"]
        log.append(("batch", keys, indexes, values))
        log.append(("put", "z", 7, "vz"))
        state = log.recover()
        assert state.rows == 3  # the rows the records carry
        assert replayed(state) == {
            "x": (5, "vx"), "y": (6, "vy"), "z": (7, "vz"),
        }

    def test_torn_tail_truncated_not_fatal(self, make_log):
        log = make_log()
        log.append(("put", "a", 1, "va"))
        log.append(("put", "b", 2, "vb"))
        log.close()
        with open(log.wal_path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00\x12\x34")  # partial record header+junk
        state = log.recover()
        assert state.torn_records_discarded == 1
        assert replayed(state) == {"a": (1, "va"), "b": (2, "vb")}
        # The torn bytes were truncated away: a second recovery is clean.
        again = log.recover()
        assert again.torn_records_discarded == 0
        assert replayed(again) == replayed(state)

    def test_corrupt_crc_discards_tail(self, make_log):
        log = make_log()
        log.append(("put", "a", 1, "va"))
        log.append(("put", "b", 2, "vb"))
        log.close()
        # Flip one payload byte of the final record.
        with open(log.wal_path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        state = log.recover()
        assert state.torn_records_discarded == 1
        assert replayed(state) == {"a": (1, "va")}

    def test_every_cut_and_flipped_bit_recovers_a_record_prefix_or_raises(self, make_log):
        """On a 4-record WAL every cut recovers the records before it and
        truncates the rest; a flipped bit in the last record recovers the
        three before it; a flipped bit anywhere inside a middle record
        raises and leaves the file as it found it — truncating there would
        drop the intact records after it."""
        log = make_log()
        records = [("put", "a", 1, "va"), ("put", "b", 2, "vb"), ("del", "a"), ("put", "c", 3, "vc")]
        ends = []
        for op in records:
            log.append(op)
            log.close()
            ends.append(os.path.getsize(log.wal_path))
        with open(log.wal_path, "rb") as fh:
            good = fh.read()

        def recover(data: bytes):
            with open(log.wal_path, "wb") as fh:
                fh.write(data)
            return log.recover()

        for cut in range(len(good)):
            whole = sum(end <= cut for end in ends)
            state = recover(good[:cut])
            assert state.ops == records[:whole]
            assert state.torn_records_discarded == (cut > (ends[whole - 1] if whole else 0))
            assert os.path.getsize(log.wal_path) == (ends[whole - 1] if whole else 0)
        for bit in range(8 * len(good)):
            flipped = bytearray(good)
            flipped[bit // 8] ^= 1 << (bit % 8)
            if bit // 8 >= ends[-2]:
                assert recover(bytes(flipped)).ops == records[:3]
                continue
            with pytest.raises(DurabilityError):
                recover(bytes(flipped))
            with open(log.wal_path, "rb") as fh:
                assert fh.read() == flipped

    def test_empty_wal_and_missing_directory_recover_empty(self, make_log, tmp_path):
        log = make_log()
        state = log.recover()
        assert state.rows == 0 and state.wal_records == 0
        assert state.hash_tier is None and state.segments == [] and state.ops == []
        # A directory that never existed recovers empty too, not broken.
        fresh = DurableVnodeStore(
            str(tmp_path / "never-written"),
            DurabilityConfig(data_dir=str(tmp_path)),
            DurabilityStats(),
        )
        state = fresh.recover()
        assert state.rows == 0 and state.segments == []

    def test_checkpoint_then_wal_tail_replays_exactly(self, make_log):
        log = make_log()
        items = {f"k{i}": (i, f"v{i}") for i in range(50)}
        assert log.checkpoint(items, []) == 50
        assert log.generation == 1
        log.append(("put", "k0", 0, "updated"))
        log.append(("del", "k49"))
        state = log.recover()
        expected = dict(items)
        expected["k0"] = (0, "updated")
        del expected["k49"]
        assert replayed(state) == expected
        assert state.wal_records == 2

    def test_checkpoint_retires_previous_generation(self, make_log):
        log = make_log()
        log.append(("put", "a", 1, "va"))
        log.checkpoint({"a": (1, "va")}, [])
        first_gen_files = set(os.listdir(log.directory))
        log.append(("put", "b", 2, "vb"))
        log.checkpoint({"a": (1, "va"), "b": (2, "vb")}, [])
        second_gen_files = set(os.listdir(log.directory))
        assert "seg-1-0.seg" in first_gen_files
        assert "seg-1-0.seg" not in second_gen_files
        assert "seg-2-0.seg" in second_gen_files
        assert replayed(log.recover()) == {"a": (1, "va"), "b": (2, "vb")}

    def test_replay_cost_counts_checkpoint_rows_plus_wal_records(self, make_log):
        log = make_log(disk_record_replay_cost=2.0)
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
            data_dir="/tmp/x", flush_threshold=7, fsync=True, replica_row_fetch_cost=9.0,
        )
        assert DurabilityConfig(**config.as_dict()) == config

    def test_a_snapshot_naming_the_removed_mmap_field_is_refused(self, tmp_path):
        dht = build_cluster("local", 2, 2, pmin=4, vmin=4, seed=0)
        snapshot = snapshot_dht(dht)
        snapshot["config"]["durability"] = {
            **DurabilityConfig(data_dir=str(tmp_path)).as_dict(), "mmap_segments": True,
        }
        with pytest.raises(TypeError, match="mmap_segments"):
            restore_dht(snapshot)

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
    def build(self, cls, tmp_path, opened, factor=1, flush_threshold=1024):
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
        opened.append(dht)
        for snode in dht.add_snodes(4):
            dht.set_enrollment(snode, 2)
        return dht

    def test_factor_one_restart_serves_every_acknowledged_write(self, cls, tmp_path, opened):
        dht = self.build(cls, tmp_path, opened, factor=1)
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

    def test_close_releases_every_wal_handle_and_writes_reopen_them(self, cls, tmp_path, opened):
        dht = self.build(cls, tmp_path, opened, factor=1)
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

    def test_restart_with_checkpoints_and_deletes(self, cls, tmp_path, opened):
        # A tiny flush threshold forces many checkpoint generations; each
        # delete folds the store, on replay as it did live.
        dht = self.build(cls, tmp_path, opened, factor=1, flush_threshold=8)
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

    def test_factor_two_restart_recovers_and_replicates(self, cls, tmp_path, opened):
        dht = self.build(cls, tmp_path, opened, factor=2)
        keys = uniform_keys(500, rng=5)
        dht.bulk_load(keys)
        for sid in sorted(dht.snodes):
            dht.restart_snode(sid)
        assert dht.storage.item_count() == 500
        dht.verify_replication(deep=True)
        dht.check_invariants()

    def test_crash_destroys_disk_too(self, cls, tmp_path, opened):
        # A crash is machine loss: at factor 1 the items are gone even with
        # durability on, and no stale disk state lingers for the next life.
        dht = self.build(cls, tmp_path, opened, factor=1)
        keys = uniform_keys(300, rng=6)
        dht.bulk_load(keys)
        victim = sorted(dht.snodes)[0]
        dht.crash_snode(victim)
        assert dht.storage.item_count() < 300
        assert not dht.storage.has_pending_replay()
        dht.check_invariants()

    def test_snapshot_round_trips_durability_config(self, cls, tmp_path, opened):
        dht = self.build(cls, tmp_path, opened, factor=1)
        keys = uniform_keys(200, rng=7)
        values = [f"v-{i}" for i in range(len(keys))]
        dht.bulk_load(keys, values)
        snapshot = snapshot_dht(dht)
        restored = restore_dht(snapshot, data_dir=str(tmp_path / "restored"))
        opened.append(restored)
        assert restored.config.durability == replace(
            dht.config.durability, data_dir=str(tmp_path / "restored")
        )
        assert restored.storage.item_count() == 200
        assert restored.get_many(list(keys)) == values
        restored.check_invariants()

    def test_restoring_into_a_live_data_dir_is_refused(self, cls, tmp_path, opened):
        """The live DHT's vnode directories are never deleted under it."""
        dht = self.build(cls, tmp_path, opened, factor=1)
        keys = uniform_keys(200, rng=7)
        values = [f"v-{i}" for i in range(len(keys))]
        dht.bulk_load(keys, values)
        with pytest.raises(DurabilityError, match="held by another open"):
            restore_dht(snapshot_dht(dht))
        for sid in sorted(dht.snodes):
            dht.restart_snode(sid)  # replays every vnode's WAL from disk
        assert dht.get_many(list(keys)) == values


class TestCorruptManifest:
    """Regression: a torn/corrupt MANIFEST must fall back to WAL-only replay.

    Checkpointing installs the manifest with an ``os.replace`` — a kill -9
    mid-replace (or later bit rot) can leave an unreadable manifest while a
    perfectly good WAL sits next to it.  Recovery must not treat the vnode
    as fresh (silently empty): it counts the fault, warns, and replays the
    newest WAL generation on disk.
    """

    def test_corrupt_manifest_before_any_checkpoint_recovers_full_wal(self, make_log):
        log = make_log()
        for i in range(8):
            log.append(("put", f"k{i}", i, f"v{i}"))
        with open(log.manifest_path, "wb") as fh:
            fh.write(b"\x80garbage, not a pickle")

        stats = DurabilityStats()
        reopened = DurableVnodeStore(log.directory, log.config, stats)
        with pytest.warns(RuntimeWarning, match="corrupt manifest"):
            state = reopened.recover()
        assert stats.manifests_corrupt == 1
        assert replayed(state) == {f"k{i}": (i, f"v{i}") for i in range(8)}

    def test_corrupt_manifest_after_checkpoint_keeps_the_wal_tail(self, make_log):
        log = make_log()
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
        assert replayed(state) == {f"k{i}": (i, None) for i in range(10, 15)}

    def test_every_flipped_manifest_bit_is_counted_and_names_no_generation(self, make_log):
        log = make_log()
        log.checkpoint({f"k{i}": (i, None) for i in range(3)}, [])
        log.checkpoint({f"k{i}": (i, None) for i in range(4)}, [])
        log.append(("put", "tail", 9, None))  # generation 2's WAL
        with open(log.manifest_path, "rb") as fh:
            good = fh.read()
        stats = DurabilityStats()
        reopened = DurableVnodeStore(log.directory, log.config, stats)
        for bit in range(8 * len(good)):
            flipped = bytearray(good)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with open(log.manifest_path, "wb") as fh:
                fh.write(flipped)
            with pytest.warns(RuntimeWarning, match="corrupt manifest"):
                state = reopened.recover()
            assert stats.manifests_corrupt == bit + 1
            assert reopened.generation == 2 and reopened.segment_names == []
            assert replayed(state) == {"tail": (9, None)}

    def test_missing_manifest_is_not_a_fault(self, make_log):
        log = make_log()
        log.append(("put", "a", 1, None))
        stats = DurabilityStats()
        reopened = DurableVnodeStore(log.directory, log.config, stats)
        state = reopened.recover()
        assert stats.manifests_corrupt == 0
        assert replayed(state) == {"a": (1, None)}


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


def _restartable(tmp_path, flush_threshold: int):
    storage = DHTStorage(
        HashSpace(16),
        durability=DurabilityConfig(data_dir=str(tmp_path), flush_threshold=flush_threshold),
    )
    ref = VnodeRef(SnodeId(0), 0)
    storage.register_vnode(ref)
    return storage, ref


@pytest.mark.parametrize("flush_threshold", [1024, 1])
class TestRestartLeavesWhatItFound:
    """A restart replays the disk through the store's own mutators, so it
    leaves the rows, counts and tiers the kill found — with every record in
    the WAL, and with a checkpoint after each (``flush_threshold=1``)."""

    def test_an_in_place_overwrite_and_a_folding_put_leave_no_surplus(
        self, tmp_path, flush_threshold
    ):
        storage, ref = _restartable(tmp_path, flush_threshold)
        keys = np.arange(100, dtype=np.int64)
        indexes = storage.hash_space.hash_keys(keys)
        storage.put_batch(ref, keys, indexes, [f"v{k}" for k in range(100)])
        assert storage.primary_store(ref).put_row(5, int(indexes[5]), "overwritten")  # in place
        new_key = 1000
        storage.put(ref, new_key, storage.hash_space.hash_key(new_key), "new")  # folds
        store = storage.primary_store(ref)
        count = storage.fast_primary_count(ref)
        tiers = (len(store._items), store.pending_item_count())  # all folded
        probes = [*keys.tolist(), new_key]
        values = [storage.get(ref, key) for key in probes]
        content = dict(storage.primary_store(ref).items())
        assert count == 101

        storage.lose_vnode_memory(ref)
        assert storage.replay_vnode(ref).rows == count
        assert storage.fast_primary_count(ref) == count
        # Each row is back in its tier, so the next put decides as it would have.
        assert (len(store._items), store.pending_item_count()) == tiers
        assert dict(store.items()) == content
        assert [storage.get(ref, key) for key in probes] == values
        storage.durable.close()

    def test_a_store_flagged_after_an_in_place_overwrite_reboots_with_its_tiers(
        self, tmp_path, flush_threshold
    ):
        """A row under a foreign index is flagged as wrong and refused before
        it reaches the log, so a rebooted process replays the overwrite in
        place, as the live store ran it, and holds no trace of the row."""
        storage, ref = _restartable(tmp_path, flush_threshold)
        keys = np.arange(100, dtype=np.int64)
        indexes = storage.hash_space.hash_keys(keys)
        storage.put_batch(ref, keys, indexes, [f"v{k}" for k in range(100)])
        assert storage.primary_store(ref).put_row(5, int(indexes[5]), "overwritten")  # in place
        wrong = (storage.hash_space.hash_key(1000) + 1) % storage.hash_space.size
        records = storage.durability.wal_records_written
        with pytest.raises(StorageError):
            storage.put_batch(ref, [1000], [wrong], ["foreign"])
        assert storage.durability.wal_records_written == records
        store = storage.primary_store(ref)
        tiers = (len(store._items), store.pending_item_count())
        content = dict(store.items())
        storage.durable.close()

        rebooted = DHTStorage(storage.hash_space, durability=storage.durable.config)
        rebooted.register_vnode(ref, fresh=False)
        rebooted.replay_vnode(ref)
        store = rebooted.primary_store(ref)
        assert (len(store._items), store.pending_item_count()) == tiers
        assert dict(store.items()) == content
        assert not rebooted.contains(ref, 1000)
        rebooted.durable.close()


def test_a_checkpointed_run_keeps_its_native_dtypes(tmp_path):
    storage, ref = _restartable(tmp_path, flush_threshold=1)
    keys = np.arange(50, dtype=np.int64)
    raw = b"".join(i.to_bytes(4, "little") + b"\x00" * 60 for i in range(50))
    values = np.frombuffer(raw, "V64").copy()
    storage.put_batch(ref, keys, storage.hash_space.hash_keys(keys), values)
    store = storage.primary_store(ref)
    store.get_many(keys, storage.hash_space.hash_keys(keys))  # establishes the run
    assert store._segments[0][0].dtype == np.int64
    assert store._segments[0][2].dtype == np.dtype("V64")
    assert storage.durability.checkpoints == 1

    storage.lose_vnode_memory(ref)
    storage.replay_vnode(ref)
    (run_keys, _, run_values), = store._segments
    assert (run_keys.dtype, run_values.dtype) == (np.dtype(np.int64), np.dtype("V64"))
    assert storage.get(ref, 7) == raw[7 * 64 : 8 * 64]
    storage.durable.close()
