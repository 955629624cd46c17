"""Tests for repro.core.records (partition distribution records, LPDR)."""

from __future__ import annotations

import pytest

from repro.core import LPDR, GroupId, PartitionDistributionRecord, SnodeId, VnodeRef
from repro.core.errors import UnknownVnodeError


def ref(s: int, v: int) -> VnodeRef:
    return VnodeRef(SnodeId(s), v)


class TestPartitionDistributionRecord:
    def test_add_and_count(self):
        record = PartitionDistributionRecord()
        record.add_vnode(ref(0, 0), 4)
        record.add_vnode(ref(0, 1))
        assert record.count(ref(0, 0)) == 4
        assert record.count(ref(0, 1)) == 0
        assert len(record) == 2
        assert record.total_partitions() == 4

    def test_duplicate_add_rejected(self):
        record = PartitionDistributionRecord({ref(0, 0): 1})
        with pytest.raises(ValueError):
            record.add_vnode(ref(0, 0))

    def test_unknown_vnode_errors(self):
        record = PartitionDistributionRecord()
        with pytest.raises(UnknownVnodeError):
            record.count(ref(9, 9))
        with pytest.raises(UnknownVnodeError):
            record.remove_vnode(ref(9, 9))
        with pytest.raises(UnknownVnodeError):
            record.set_count(ref(9, 9), 1)

    def test_increment_decrement(self):
        record = PartitionDistributionRecord({ref(0, 0): 2})
        assert record.increment(ref(0, 0)) == 3
        assert record.decrement(ref(0, 0), 2) == 1
        with pytest.raises(ValueError):
            record.decrement(ref(0, 0), 5)

    def test_negative_counts_rejected(self):
        record = PartitionDistributionRecord()
        with pytest.raises(ValueError):
            record.add_vnode(ref(0, 0), -1)

    def test_victim_is_max_with_deterministic_tiebreak(self):
        record = PartitionDistributionRecord({ref(1, 0): 5, ref(0, 0): 5, ref(0, 1): 3})
        # Tie on 5 partitions: the smaller canonical name wins.
        assert record.victim() == ref(0, 0)
        assert record.min_vnode() == ref(0, 1)

    def test_victim_on_empty_record(self):
        with pytest.raises(UnknownVnodeError):
            PartitionDistributionRecord().victim()

    def test_double_all(self):
        record = PartitionDistributionRecord({ref(0, 0): 2, ref(0, 1): 3})
        record.double_all()
        assert record.counts() == {ref(0, 0): 4, ref(0, 1): 6}

    def test_relative_std(self):
        record = PartitionDistributionRecord({ref(0, 0): 4, ref(0, 1): 4})
        assert record.relative_std() == 0.0
        record.set_count(ref(0, 1), 8)
        assert record.relative_std() > 0.0
        assert PartitionDistributionRecord().relative_std() == 0.0

    def test_copy_and_synchronize(self):
        record = PartitionDistributionRecord({ref(0, 0): 4})
        replica = record.copy()
        assert replica == record and replica is not record
        record.increment(ref(0, 0))
        assert replica != record
        replica.synchronize_from(record)
        assert replica == record

    def test_counts_array_order(self):
        record = PartitionDistributionRecord()
        record.add_vnode(ref(0, 0), 1)
        record.add_vnode(ref(0, 1), 2)
        assert record.counts_array().tolist() == [1, 2]


class TestLPDR:
    def test_quota_computations(self):
        lpdr = LPDR(GroupId.root(), splitlevel=3, counts={ref(0, 0): 4, ref(0, 1): 2})
        assert lpdr.partition_fraction() == 1 / 8
        assert lpdr.group_quota() == pytest.approx(6 / 8)
        assert lpdr.vnode_quota(ref(0, 0)) == pytest.approx(0.5)

    def test_double_all_raises_splitlevel(self):
        lpdr = LPDR(GroupId.root(), splitlevel=2, counts={ref(0, 0): 4})
        quota_before = lpdr.group_quota()
        lpdr.double_all()
        assert lpdr.splitlevel == 3
        assert lpdr.count(ref(0, 0)) == 8
        assert lpdr.group_quota() == pytest.approx(quota_before)

    def test_copy_preserves_group_and_level(self):
        lpdr = LPDR(GroupId(2, 1), splitlevel=4, counts={ref(0, 0): 4})
        clone = lpdr.copy()
        assert clone == lpdr
        assert clone.group_id == GroupId(2, 1) and clone.splitlevel == 4

    def test_negative_splitlevel_rejected(self):
        with pytest.raises(ValueError):
            LPDR(GroupId.root(), splitlevel=-1)

    def test_lpdr_not_equal_to_plain_record(self):
        lpdr = LPDR(GroupId.root(), splitlevel=2, counts={ref(0, 0): 4})
        plain = PartitionDistributionRecord({ref(0, 0): 4})
        assert (lpdr == plain) is False or isinstance(lpdr == plain, bool)
