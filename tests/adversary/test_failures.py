"""Tests for the object-level tunnel-functionality predicate."""

import random

from repro.adversary.failures import tunnel_functions


class TestTunnelFunctions:
    def test_healthy_tunnel_functions(self, tap_system):
        alice = tap_system.tap_node(tap_system.random_node_id("a"))
        tap_system.deploy_thas(alice, count=6)
        tunnel = tap_system.form_tunnel(alice, length=3)
        assert tunnel_functions(tap_system, tunnel)

    def test_hop_failover_still_functions(self, tap_system):
        alice = tap_system.tap_node(tap_system.random_node_id("a"))
        tap_system.deploy_thas(alice, count=6)
        tunnel = tap_system.form_tunnel(alice, length=3)
        tap_system.fail_node(
            tap_system.network.closest_alive(tunnel.hops[0].hop_id)
        )
        assert tunnel_functions(tap_system, tunnel)

    def test_lost_anchor_breaks_tunnel(self, tap_system):
        alice = tap_system.tap_node(tap_system.random_node_id("a"))
        tap_system.deploy_thas(alice, count=6)
        tunnel = tap_system.form_tunnel(alice, length=3)
        holders = list(tap_system.store.holders(tunnel.hops[2].hop_id))
        tap_system.fail_nodes(holders, repair_after=False)
        assert not tunnel_functions(tap_system, tunnel)

    def test_predicate_agrees_with_forwarder(self, tap_system):
        """The bulk predicate and the cryptographic engine must agree
        on whether a damaged tunnel works."""
        alice = tap_system.tap_node(tap_system.random_node_id("a"))
        tap_system.deploy_thas(alice, count=8)
        tunnel = tap_system.form_tunnel(alice, length=3)
        alive = list(tap_system.network.alive_ids)
        victims = random.Random(3).sample(alive, round(0.3 * len(alive)))
        tap_system.fail_nodes(victims, repair_after=False)
        predicted = tunnel_functions(tap_system, tunnel)
        if tap_system.network.is_alive(alice.node_id):
            trace = tap_system.send(alice, tunnel, 42, b"x")
            assert trace.success == predicted
