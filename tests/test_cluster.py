"""Tests for the cluster substrate (network, messages)."""

from __future__ import annotations

import pytest

from repro.cluster import (
    Ack,
    CreateVnodeRequest,
    Message,
    NetworkModel,
    PartitionTransfer,
    RecordSync,
)


class TestNetworkModel:
    def test_message_time(self):
        net = NetworkModel(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        assert net.message_time(0) == pytest.approx(1e-3)
        assert net.message_time(1e6) == pytest.approx(1.001)
        with pytest.raises(ValueError):
            net.message_time(-1)

    def test_rpc_and_broadcast(self):
        net = NetworkModel(latency_s=1e-3, bandwidth_bytes_per_s=1e6)
        assert net.rpc_time(1000, 1000) == pytest.approx(2e-3 + 2e-3)
        assert net.broadcast_time(1000, 0) == 0.0
        assert net.broadcast_time(1000, 10) == pytest.approx(1e-3 + 10 * 1e-3)
        with pytest.raises(ValueError):
            net.broadcast_time(10, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0)


class TestMessages:
    def test_sizes_scale_with_content(self):
        base = Message(0, 1).size_bytes()
        assert CreateVnodeRequest(0, 1, vnode=3).size_bytes() > base
        assert RecordSync(0, 1, n_entries=10).size_bytes() > RecordSync(0, 1, n_entries=1).size_bytes()
        assert PartitionTransfer(0, 1, payload_bytes=1000).size_bytes() == pytest.approx(1064.0)
        assert Ack(0, 1).size_bytes() == base
