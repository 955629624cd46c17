"""Tests for repro.core.hashspace (partition algebra and hashing)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    HashSpace,
    Partition,
    WHOLE_SPACE,
    PartitionError,
    iter_level_partitions,
    partitions_are_disjoint,
    partitions_cover_space,
    total_fraction,
)


class TestPartition:
    def test_whole_space(self):
        assert WHOLE_SPACE.level == 0 and WHOLE_SPACE.index == 0
        assert WHOLE_SPACE.fraction == 1

    def test_invalid_construction(self):
        with pytest.raises(PartitionError):
            Partition(-1, 0)
        with pytest.raises(PartitionError):
            Partition(2, 4)  # index out of range for level 2

    def test_split_produces_halves(self):
        left, right = Partition(2, 1).split()
        assert left == Partition(3, 2) and right == Partition(3, 3)
        assert left.fraction == right.fraction == Fraction(1, 8)
        assert left.parent == right.parent == Partition(2, 1)
        assert left.sibling == right and right.sibling == left

    def test_whole_space_has_no_parent_or_sibling(self):
        with pytest.raises(PartitionError):
            _ = WHOLE_SPACE.parent
        with pytest.raises(PartitionError):
            _ = WHOLE_SPACE.sibling

    def test_geometry(self):
        p = Partition(3, 5)
        assert p.start(8) == 5 * 32 and p.end(8) == 6 * 32 and p.size(8) == 32
        assert p.contains_index(p.start(8), 8)
        assert p.contains_index(p.end(8) - 1, 8)
        assert not p.contains_index(p.end(8), 8)

    def test_level_finer_than_space_rejected(self):
        with pytest.raises(PartitionError):
            Partition(9, 0).size(8)

    def test_ancestry_and_overlap(self):
        parent = Partition(2, 3)
        child = Partition(4, 13)  # 13 >> 2 == 3
        assert parent.is_ancestor_of(child)
        assert not child.is_ancestor_of(parent)
        assert parent.overlaps(child) and child.overlaps(parent)
        assert not Partition(2, 2).overlaps(Partition(2, 3))
        assert Partition(2, 2).overlaps(Partition(2, 2))

    def test_at_level_decomposition(self):
        parts = Partition(1, 1).at_level(3)
        assert len(parts) == 4
        assert total_fraction(parts) == Fraction(1, 2)
        with pytest.raises(PartitionError):
            Partition(3, 0).at_level(2)

    def test_partitions_are_hashable_and_comparable(self):
        assert len({Partition(1, 0), Partition(1, 0), Partition(1, 1)}) == 2


_PARTITIONS = st.integers(0, 128).flatmap(
    lambda level: st.integers(0, (1 << level) - 1).map(lambda index: Partition(level, index))
)


def _fraction_key(p: Partition):
    """The ring order as exact fractions of the hash space."""
    return (Fraction(p.index, 1 << p.level), p.level)


class TestRingSortKey:
    @given(parts=st.lists(_PARTITIONS, max_size=16), a=_PARTITIONS, b=_PARTITIONS)
    def test_orders_exactly_like_the_fraction_key(self, parts, a, b):
        assert sorted(parts, key=Partition.ring_sort_key) == sorted(parts, key=_fraction_key)
        assert (a.ring_sort_key() < b.ring_sort_key()) == (_fraction_key(a) < _fraction_key(b))
        assert (a.ring_sort_key() == b.ring_sort_key()) == (a == b)

    def test_is_integer_and_refuses_levels_no_hash_space_has(self):
        assert Partition(2, 3).ring_sort_key() == (3 << 126, 2)
        with pytest.raises(PartitionError):
            Partition(129, 0).ring_sort_key()


class TestCoveragePredicates:
    def test_level_partitions_cover_space(self):
        parts = list(iter_level_partitions(4))
        assert len(parts) == 16
        assert partitions_are_disjoint(parts)
        assert partitions_cover_space(parts)

    def test_mixed_levels_can_cover(self):
        left, right = WHOLE_SPACE.split()
        right_a, right_b = right.split()
        assert partitions_cover_space([left, right_a, right_b])

    def test_overlap_detected(self):
        left, right = WHOLE_SPACE.split()
        assert not partitions_are_disjoint([left, right, WHOLE_SPACE])
        assert not partitions_cover_space([left, right, WHOLE_SPACE])

    def test_gap_detected(self):
        left, right = WHOLE_SPACE.split()
        assert not partitions_cover_space([left])
        assert not partitions_cover_space([])


class TestHashSpace:
    def test_size_and_contains(self):
        hs = HashSpace(16)
        assert hs.size == 65536
        assert hs.contains(0) and hs.contains(65535) and not hs.contains(65536)

    def test_invalid_bh(self):
        with pytest.raises(PartitionError):
            HashSpace(0)

    def test_hash_key_is_stable_and_in_range(self):
        hs = HashSpace(32)
        for key in ["alpha", b"beta", 123456, -42]:
            assert hs.hash_key(key) == hs.hash_key(key)
            assert hs.contains(hs.hash_key(key))

    def test_hash_key_rejects_bool_and_unknown(self):
        hs = HashSpace(32)
        with pytest.raises(TypeError):
            hs.hash_key(True)
        with pytest.raises(TypeError):
            hs.hash_key(3.14)

    def test_random_index_in_range_and_deterministic(self):
        hs = HashSpace(20)
        values = [hs.random_index(7) for _ in range(5)]
        assert values == [hs.random_index(7) for _ in range(5)]
        assert all(hs.contains(v) for v in values)

    def test_random_index_wide_space(self):
        hs = HashSpace(96)
        assert hs.contains(hs.random_index(3))

    def test_partition_of_index_roundtrip(self):
        hs = HashSpace(12)
        partition = hs.partition_of_index(1000, 4)
        assert partition.contains_index(1000, 12)
        with pytest.raises(PartitionError):
            hs.partition_of_index(hs.size, 4)
        with pytest.raises(PartitionError):
            hs.partition_of_index(0, 13)

    def test_partition_range(self):
        hs = HashSpace(10)
        start, end = hs.partition_range(Partition(2, 3))
        assert (start, end) == (768, 1024)

    def test_equality_and_hash(self):
        assert HashSpace(8) == HashSpace(8)
        assert HashSpace(8) != HashSpace(9)
        assert len({HashSpace(8), HashSpace(8)}) == 1
