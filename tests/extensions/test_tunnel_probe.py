"""Tests for tunnel health probing (§9 corrupted-tunnel detection)."""

import pytest

from repro.extensions.tunnel_probe import TunnelProber


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=12)
    return node


@pytest.fixture()
def prober(system):
    return TunnelProber(system)


class TestProbe:
    def test_healthy_tunnel(self, system, alice, prober):
        tunnel = system.form_tunnel(alice, length=3)
        report = prober.probe(alice, tunnel)
        assert report.functional and report.returned and not report.tampered
        assert report.overlay_hops == 3

    def test_probe_survives_hop_failover(self, system, alice, prober):
        tunnel = system.form_tunnel(alice, length=3)
        system.fail_node(system.network.closest_alive(tunnel.hops[0].hop_id))
        report = prober.probe(alice, tunnel)
        assert report.functional and not report.tampered

    def test_broken_tunnel_detected(self, system, alice, prober):
        tunnel = system.form_tunnel(alice, length=3)
        holders = list(system.store.holders(tunnel.hops[1].hop_id))
        system.fail_nodes(holders, repair_after=False)
        report = prober.probe(alice, tunnel)
        assert not report.functional
        assert report.failure_reason

    def test_tampering_detected(self, system, alice, prober, monkeypatch):
        """A malicious hop that rewrites the probe payload is caught by
        the owner-only authentication."""
        tunnel = system.form_tunnel(alice, length=3)
        original_send = system.forwarder.send

        def tampering_send(initiator, tun, destination_id, payload, deliver=None):
            def corrupt_deliver(nid, data):
                if deliver is not None:
                    deliver(nid, b"\x00" * len(data))

            return original_send(initiator, tun, destination_id, payload,
                                 deliver=corrupt_deliver)

        monkeypatch.setattr(system.forwarder, "send", tampering_send)
        report = prober.probe(alice, tunnel)
        assert report.functional
        assert report.tampered

    def test_sequence_replay_detected(self, system, alice, prober):
        """A replayed probe (wrong sequence number) fails the check."""
        tunnel = system.form_tunnel(alice, length=2)
        key = prober._owner_probe_key(alice)
        stale = key.seal(b"probe" + (99).to_bytes(8, "big") + (0).to_bytes(16, "big"))
        original_send = system.forwarder.send

        def replaying_send(initiator, tun, destination_id, payload, deliver=None):
            return original_send(initiator, tun, destination_id, stale, deliver=deliver)

        system.forwarder.send = replaying_send
        try:
            report = prober.probe(alice, tunnel, sequence=3)
        finally:
            system.forwarder.send = original_send
        assert report.functional and report.tampered

    def test_probe_key_stable_per_owner(self, system, alice, prober):
        assert prober._owner_probe_key(alice) is prober._owner_probe_key(alice)
