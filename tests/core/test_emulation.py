"""Tests for the event-driven TAP emulation."""

import pytest

from repro.core.emulation import CONTROL_BITS, TapEmulation
from repro.core.system import TapSystem
from repro.simnet.topology import Topology
from tests.conftest import crash_unnoticed, path_transfer_time


@pytest.fixture()
def setup():
    system = TapSystem.bootstrap(num_nodes=200, seed=31)
    alice = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(alice, count=10)
    topo = Topology(seed=5)
    emu = TapEmulation.from_system(system, topology=topo)
    return system, alice, topo, emu


class TestDelivery:
    def test_payload_delivered_with_simulated_time(self, setup):
        system, alice, topo, emu = setup
        tunnel = system.form_tunnel(alice, length=3)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"hello")
        assert trace.finished_at is None  # nothing ran yet
        emu.simulator.run()
        assert trace.delivered
        assert trace.payload == b"hello"
        assert trace.destination == system.network.closest_alive(42)
        assert trace.latency > 0

    def test_latency_matches_analytic_path_model(self, setup):
        """THE cross-validation: event-driven latency == the Figure-6
        store-and-forward formula over the path actually taken."""
        system, alice, topo, emu = setup
        tunnel = system.form_tunnel(alice, length=3)
        size = 2_000_000.0
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x", size_bits=size)
        emu.simulator.run()
        assert trace.delivered
        expected = path_transfer_time(topo, trace.path, size + CONTROL_BITS)
        assert trace.latency == pytest.approx(expected, rel=1e-12)

    def test_on_done_callback(self, setup):
        system, alice, topo, emu = setup
        tunnel = system.form_tunnel(alice, length=2)
        done = []
        emu.send_through_tunnel(alice, tunnel, 42, b"x", on_done=done.append)
        emu.simulator.run()
        assert len(done) == 1 and done[0].delivered

    def test_larger_payload_takes_longer(self, setup):
        system, alice, topo, emu = setup
        t1 = system.form_tunnel(alice, length=2)
        small = emu.send_through_tunnel(alice, t1, 42, b"x", size_bits=1_000)
        emu.simulator.run()
        emu2 = TapEmulation.from_system(system, topology=topo)
        t2 = system.form_tunnel(alice, length=2)
        big = emu2.send_through_tunnel(alice, t2, 42, b"x", size_bits=5_000_000)
        emu2.simulator.run()
        assert big.latency > small.latency

    def test_concurrent_transmissions(self, setup):
        system, alice, topo, emu = setup
        tunnels = [system.form_tunnel(alice, length=2) for _ in range(3)]
        traces = [
            emu.send_through_tunnel(alice, t, 42, f"m{i}".encode())
            for i, t in enumerate(tunnels)
        ]
        emu.simulator.run()
        assert all(t.delivered for t in traces)
        assert {t.payload for t in traces} == {b"m0", b"m1", b"m2"}


class TestFailureTimeouts:
    def test_timeout_discovery_of_a_stale_leaf(self):
        """A dead hop node still in its neighbours' leaf sets (its crash
        not yet noticed) is discovered by a message timeout, charged as
        a round-trip, then rerouted."""
        system = TapSystem.bootstrap(num_nodes=200, seed=33)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=8)
        tunnel = system.form_tunnel(alice, length=3)
        emu = TapEmulation.from_system(system, topology=Topology(seed=6))

        victim = system.network.closest_alive(tunnel.hops[1].hop_id)
        crash_unnoticed(emu, victim)

        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert trace.delivered, trace.failed_reason
        assert trace.timeouts >= 1

    def test_timeout_costs_round_trip(self):
        system = TapSystem.bootstrap(num_nodes=200, seed=34)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=8)
        topo = Topology(seed=7)

        tunnel = system.form_tunnel(alice, length=3)
        emu = TapEmulation.from_system(system, topology=topo)
        baseline = emu.send_through_tunnel(alice, tunnel, 42, b"x", size_bits=1_000)
        emu.simulator.run()

        system2 = TapSystem.bootstrap(num_nodes=200, seed=34)
        alice2 = system2.tap_node(system2.random_node_id("alice"))
        system2.deploy_thas(alice2, count=8)
        tunnel2 = system2.form_tunnel(alice2, length=3)
        emu2 = TapEmulation.from_system(system2, topology=topo)
        victim = system2.network.closest_alive(tunnel2.hops[0].hop_id)
        crash_unnoticed(emu2, victim)
        degraded = emu2.send_through_tunnel(alice2, tunnel2, 42, b"x", size_bits=1_000)
        emu2.simulator.run()

        assert degraded.delivered
        if degraded.timeouts:
            assert degraded.latency > baseline.latency * 0.5  # sanity

    def test_lost_anchor_reported(self):
        system = TapSystem.bootstrap(num_nodes=200, seed=35)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=8)
        tunnel = system.form_tunnel(alice, length=3)
        emu = TapEmulation.from_system(system, topology=Topology(seed=8))
        for holder in list(system.store.holders(tunnel.hops[1].hop_id)):
            system.network.fail(holder)
            emu.net.fail(holder)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert not trace.delivered
        assert "holds no THA replica (anchor lost)" in trace.failed_reason


class TestHints:
    def test_hinted_path_is_direct(self, setup):
        system, alice, topo, emu = setup
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert trace.delivered
        # initiator + 3 hinted hops; only the exit leg may need routing
        roots = [system.network.closest_alive(h.hop_id) for h in tunnel.hops]
        assert trace.path[1:4] == roots

    def test_hinted_faster_than_basic(self, setup):
        system, alice, topo, emu = setup
        basic = system.form_tunnel(alice, length=3)
        hinted = system.form_tunnel(alice, length=3, use_hints=True)
        t_basic = emu.send_through_tunnel(alice, basic, 42, b"x", size_bits=2e6)
        t_hint = emu.send_through_tunnel(alice, hinted, 42, b"x", size_bits=2e6)
        emu.simulator.run()
        assert t_hint.delivered and t_basic.delivered
        assert t_hint.latency <= t_basic.latency

    def test_stale_hint_times_out_then_falls_back(self):
        system = TapSystem.bootstrap(num_nodes=200, seed=36)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=8)
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)
        emu = TapEmulation.from_system(system, topology=Topology(seed=9))
        victim = system.network.closest_alive(tunnel.hops[1].hop_id)
        emu.fail_node(victim)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert trace.delivered, trace.failed_reason
        assert trace.hint_failures >= 1
        assert trace.timeouts >= 1  # the hinted probe timed out


class TestDecodedAnchorCache:
    def test_bit_rotted_replica_fails_after_a_cached_success(self, setup):
        """The hop decodes its anchor by content: a replica that rots
        after a successful (cached) delivery is decoded afresh."""
        from tests.conftest import rot_tha_key

        system, alice, topo, emu = setup
        tunnel = system.form_tunnel(alice, length=3)
        ok = emu.send_through_tunnel(alice, tunnel, 42, b"hello")
        emu.simulator.run()
        assert ok.delivered
        hop_id = tunnel.hops[1].hop_id
        node_id = system.network.closest_alive(hop_id)
        rot_tha_key(system, node_id, hop_id)
        bad = emu.send_through_tunnel(alice, tunnel, 42, b"hello")
        emu.simulator.run()
        assert not bad.delivered
        assert bad.failed_reason == f"layer decryption failed at {node_id:#x}"

    def test_undecodable_replica_fails_the_delivery(self, setup):
        """``corrupt_replica`` flips the value's length prefix: the hop
        reports the anchor lost and the event loop runs on."""
        system, alice, topo, emu = setup
        tunnel = system.form_tunnel(alice, length=3)
        hop_id = tunnel.hops[1].hop_id
        node_id = system.network.closest_alive(hop_id)
        assert system.store.corrupt_replica(node_id, hop_id)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"hello")
        emu.simulator.run()
        assert not trace.delivered
        assert trace.failed_reason == (
            f"node {node_id:#x} holds a THA replica for hop {hop_id:#x} "
            f"that does not decode (anchor lost)")
