"""Tests for the store-and-forward transfer-time model."""

import pytest

from repro.simnet.topology import Topology
from repro.simnet.transport import serialization_delay
from tests.conftest import path_transfer_time


@pytest.fixture()
def topo() -> Topology:
    return Topology(seed=9, min_latency_s=0.1, max_latency_s=0.1, bandwidth_bps=1000.0)


class TestSerializationDelay:
    def test_basic(self):
        assert serialization_delay(1000, 1000) == 1.0

    def test_zero_size(self):
        assert serialization_delay(0, 1000) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            serialization_delay(-1, 1000)
        with pytest.raises(ValueError):
            serialization_delay(1, 0)


class TestTransferTime:
    def test_latency_plus_serialization(self, topo):
        """One hop costs its propagation delay plus one serialization."""
        assert path_transfer_time(topo, [1, 2], 500) == pytest.approx(0.1 + 0.5)


class TestPathTransfer:
    def test_empty_path_rejected(self, topo):
        with pytest.raises(ValueError):
            path_transfer_time(topo, [], 100)

    def test_single_node_path_free(self, topo):
        assert path_transfer_time(topo, [1], 100) == 0.0

    def test_store_and_forward(self, topo):
        # 3 hops, fixed 0.1s latency: 3*0.1 + 3*(1000/1000)
        t = path_transfer_time(topo, [1, 2, 3, 4], 1000.0)
        assert t == pytest.approx(0.3 + 3.0)

    def test_longer_path_costs_more(self, topo):
        short = path_transfer_time(topo, [1, 2], 1000.0)
        long = path_transfer_time(topo, [1, 2, 3, 4, 5], 1000.0)
        assert long > short
