"""Tests for the hash-derived link latency/bandwidth model."""

import pytest

from repro.simnet.topology import Topology
from tests.conftest import path_latency


class TestUniformLatencyModel:
    def test_symmetric(self):
        topo = Topology(seed=1)
        assert topo.latency(10, 20) == topo.latency(20, 10)

    def test_self_latency_zero(self):
        assert Topology(seed=1).latency(5, 5) == 0.0

    def test_within_bounds(self):
        topo = Topology(seed=1, min_latency_s=0.01, max_latency_s=0.23)
        for a in range(20):
            for b in range(a + 1, 20):
                assert 0.01 <= topo.latency(a, b) <= 0.23

    def test_deterministic_per_seed(self):
        assert Topology(seed=3).latency(1, 2) == Topology(seed=3).latency(1, 2)

    def test_seed_changes_values(self):
        assert Topology(seed=3).latency(1, 2) != Topology(seed=4).latency(1, 2)

    def test_draw_is_pinned(self):
        """The per-pair hash draw feeds every emulated figure; a change
        to it moves their rows, so three draws are pinned."""
        topo = Topology(seed=7)
        assert topo.latency(1, 2) == 0.09069984676973838
        assert topo.latency(2**127 + 5, 3) == 0.18385615079425738
        assert Topology(seed=0).latency(10, 20) == 0.12991300528967223

    def test_distribution_roughly_uniform(self):
        """Mean of many links should sit near the interval midpoint."""
        topo = Topology(seed=5, min_latency_s=0.0, max_latency_s=1.0)
        values = [topo.latency(0, b) for b in range(1, 2001)]
        assert 0.45 < sum(values) / len(values) < 0.55

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Topology(seed=0, min_latency_s=0.5, max_latency_s=0.1)
        with pytest.raises(ValueError):
            Topology(seed=0, min_latency_s=-0.1)


class TestTopology:
    def test_link_spec(self):
        """A link is its hash-drawn latency plus the one bandwidth."""
        topo = Topology(seed=1, bandwidth_bps=1_500_000.0)
        assert topo.bandwidth_bps == 1_500_000.0
        assert topo.min_latency_s <= topo.latency(1, 2) <= topo.max_latency_s

    def test_path_latency_sums_links(self):
        topo = Topology(seed=1)
        path = [1, 2, 3, 4]
        expected = sum(topo.latency(a, b) for a, b in zip(path, path[1:]))
        assert path_latency(topo, path) == pytest.approx(expected)

    def test_path_latency_trivial_paths(self):
        topo = Topology(seed=1)
        assert path_latency(topo, [7]) == 0.0
        assert path_latency(topo, []) == 0.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Topology(seed=1, bandwidth_bps=0)

    def test_paper_defaults(self):
        topo = Topology(seed=0)
        assert topo.min_latency_s == pytest.approx(0.010)
        assert topo.max_latency_s == pytest.approx(0.230)
        assert topo.bandwidth_bps == pytest.approx(1_500_000.0)
