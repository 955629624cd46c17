"""Tests for the creation-time rebalancing planner (repro.core.rebalance)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PartitionDistributionRecord,
    SnodeId,
    VnodeRef,
    plan_vnode_creation,
    transfer_improves_balance,
)
from repro.core.rebalance import SplitAllAction, TransferAction, equalized_counts
from repro.core.errors import InvariantViolation


def ref(v: int) -> VnodeRef:
    return VnodeRef(SnodeId(0), v)


def make_record(counts):
    return PartitionDistributionRecord({ref(i): c for i, c in enumerate(counts)})


class TestImprovementTest:
    def test_closed_form_matches_literal_sigma(self):
        """The x - y >= 2 rule must agree with recomputing sigma explicitly."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            counts = rng.integers(0, 20, size=rng.integers(2, 8)).astype(float)
            x_idx, y_idx = 0, 1
            before = counts.std()
            moved = counts.copy()
            moved[x_idx] -= 1
            moved[y_idx] += 1
            after = moved.std()
            expected = after < before - 1e-12
            got = transfer_improves_balance(int(counts[x_idx]), int(counts[y_idx]))
            assert got == expected, f"counts={counts}"

    @pytest.mark.parametrize("x,y,expected", [(5, 3, True), (5, 4, False), (4, 4, False), (3, 5, False)])
    def test_examples(self, x, y, expected):
        assert transfer_improves_balance(x, y) is expected


class TestPlanVnodeCreation:
    def test_first_vnode_gets_pmin(self):
        record = PartitionDistributionRecord()
        plan = plan_vnode_creation(record, ref(0), pmin=4)
        assert record.count(ref(0)) == 4
        assert plan.n_transfers == 0 and not plan.split_alls

    def test_duplicate_vnode_rejected(self):
        record = make_record([4])
        with pytest.raises(ValueError):
            plan_vnode_creation(record, ref(0), pmin=4)

    def test_bad_pmin_rejected(self):
        with pytest.raises(ValueError):
            plan_vnode_creation(PartitionDistributionRecord(), ref(0), pmin=0)

    def test_second_vnode_triggers_split_all(self):
        record = make_record([4])
        plan = plan_vnode_creation(record, ref(1), pmin=4)
        assert len(plan.split_alls) == 1
        assert record.counts() == {ref(0): 4, ref(1): 4}
        assert plan.n_transfers == 4

    def test_no_split_when_victim_above_pmin(self):
        record = make_record([8, 8, 8, 8, 8])  # every victim is above Pmin
        plan = plan_vnode_creation(record, ref(5), pmin=4)
        assert not plan.split_alls
        counts = sorted(record.counts().values())
        assert sum(counts) == 40
        assert counts == [6, 6, 7, 7, 7, 7]

    def test_resulting_distribution_is_as_equal_as_possible(self):
        record = make_record([8, 8, 8, 8])
        plan_vnode_creation(record, ref(4), pmin=4)
        counts = list(record.counts().values())
        low, high, n_high = equalized_counts(32, 5)
        assert sorted(counts) == sorted([high] * n_high + [low] * (5 - n_high))

    def test_growth_from_one_to_many_respects_bounds(self):
        record = PartitionDistributionRecord()
        pmin = 4
        for i in range(50):
            plan_vnode_creation(record, ref(i), pmin=pmin)
            counts = record.counts().values()
            assert all(pmin <= c <= 2 * pmin for c in counts)
            total = sum(counts)
            assert total & (total - 1) == 0, "total partitions must stay a power of two"

    def test_perfect_balance_at_powers_of_two(self):
        record = PartitionDistributionRecord()
        pmin = 8
        for i in range(32):
            plan_vnode_creation(record, ref(i), pmin=pmin)
            if (i + 1) & i == 0:  # V = i + 1 is a power of two
                assert set(record.counts().values()) == {pmin}

    def test_transfers_all_target_new_vnode(self):
        record = make_record([8, 8, 8, 8])
        plan = plan_vnode_creation(record, ref(4), pmin=4)
        assert all(t.recipient == ref(4) for t in plan.transfers)
        assert all(t.victim != ref(4) for t in plan.transfers)

    def test_corrupted_record_raises_invariant_violation(self):
        # Every vnode below Pmin: the cascade cannot make progress within the
        # safety limit and the planner must fail loudly.
        record = make_record([2, 2, 2])
        with pytest.raises(InvariantViolation):
            plan_vnode_creation(record, ref(3), pmin=4, max_split_alls=0)

    def test_plan_action_order_split_before_transfers(self):
        record = make_record([4, 4])
        plan = plan_vnode_creation(record, ref(2), pmin=4)
        kinds = [type(a) for a in plan.actions]
        assert kinds[0] is SplitAllAction
        assert all(k is TransferAction for k in kinds[1:])


class TestEqualizedCounts:
    def test_exact_division(self):
        assert equalized_counts(32, 4) == (8, 8, 0)

    def test_remainder(self):
        low, high, n_high = equalized_counts(32, 5)
        assert (low, high, n_high) == (6, 7, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            equalized_counts(4, 0)
