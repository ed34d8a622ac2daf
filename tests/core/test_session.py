"""Tests for long-standing anonymous sessions (§1's motivating case)."""

import random

import pytest

from repro.core.session import SessionServer, TapSession


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=16)
    return node


@pytest.fixture()
def server(system):
    node_id = system.random_node_id("server")
    return SessionServer(node_id, handler=lambda req: b"echo:" + req)


@pytest.fixture()
def session(system, alice, server):
    return TapSession(system, alice, server, tunnel_length=3)


class TestRoundTrips:
    def test_request_response(self, session):
        assert session.request(b"ls -la") == b"echo:ls -la"
        assert session.stats.availability == 1.0

    def test_many_requests_same_tunnels(self, session, server):
        for i in range(5):
            assert session.request(f"cmd{i}".encode()) == f"echo:cmd{i}".encode()
        assert server.served == 5
        assert session.stats.tunnel_reforms == 0

    def test_sequence_numbers_monotone(self, session):
        session.request(b"a")
        session.request(b"b")
        assert session._seq == 2

    def test_close_releases_anchors(self, system, alice, server):
        session = TapSession(system, alice, server, tunnel_length=2)
        hop_ids = session.forward.hop_ids + session.reply.hop_ids
        session.close(delete_anchors=True)
        for hid in hop_ids:
            assert not system.store.exists(hid)


class TestPendingReplyOwnership:
    def test_request_leaves_no_pending_reply(self, session, alice):
        assert session.request(b"ls") == b"echo:ls"
        assert alice.pending_replies == {}

    def test_handler_exception_leaves_no_pending_reply(self, system, alice):
        def crash(request: bytes) -> bytes:
            raise RuntimeError("handler crashed")

        server = SessionServer(system.random_node_id("server"), handler=crash)
        session = TapSession(system, alice, server, tunnel_length=3)
        with pytest.raises(RuntimeError, match="handler crashed"):
            session.request(b"ls")
        assert alice.pending_replies == {}


class TestSelfHealing:
    def test_survives_hop_node_failures(self, system, session):
        """The headline: hop nodes die mid-session, requests keep
        succeeding without even needing a reform (replica fail-over)."""
        assert session.request(b"before") == b"echo:before"
        for tha in session.forward.hops:
            system.fail_node(system.network.closest_alive(tha.hop_id))
        system.fail_node(
            system.network.closest_alive(session.reply.hops[0].hop_id)
        )
        assert session.request(b"after") == b"echo:after"
        assert session.stats.availability == 1.0

    def test_reforms_after_anchor_loss(self, system, session):
        """Losing an entire replica set breaks the tunnel; the session
        detects it, reforms, retries, and the request still succeeds."""
        victim_hop = session.forward.hops[1]
        holders = list(system.store.holders(victim_hop.hop_id))
        system.fail_nodes(holders, repair_after=False)

        assert session.request(b"critical") == b"echo:critical"
        assert session.stats.tunnel_reforms >= 1
        assert session.stats.retries >= 1
        assert session.stats.availability == 1.0

    def test_reply_tunnel_loss_reforms_reply(self, system, session):
        victim_hop = session.reply.hops[1]
        old_bid = session.reply.bid
        holders = list(system.store.holders(victim_hop.hop_id))
        system.fail_nodes(holders, repair_after=False)

        assert session.request(b"x") == b"echo:x"
        assert session.reply.bid != old_bid or session.stats.tunnel_reforms >= 1

    def test_gives_up_after_retries(self, system, alice, server):
        """If reforms cannot help (e.g. the server is dead), the
        request fails after max_retries and is counted."""
        session = TapSession(system, alice, server, tunnel_length=2, max_retries=1)
        system.fail_node(server.node_id)
        assert session.request(b"y") is None
        assert session.stats.failures == 1
        assert session.stats.availability == 0.0

    def test_long_session_under_continuous_churn(self, system, alice, server):
        """An extended session with hop nodes failing between requests
        keeps near-perfect availability — the paper's remote-login
        scenario."""
        session = TapSession(system, alice, server, tunnel_length=3)
        rng = random.Random(1009)
        protected = {alice.node_id, server.node_id}
        ok = 0
        for i in range(10):
            # Kill a random current hop node of the session each round.
            tunnel = session.forward if i % 2 == 0 else session.reply
            tha = tunnel.hops[rng.randrange(len(tunnel.hops))]
            victim = system.network.closest_alive(tha.hop_id)
            if victim not in protected:
                system.fail_node(victim)
            if session.request(f"r{i}".encode()) == f"echo:r{i}".encode():
                ok += 1
        assert ok == 10
        assert session.stats.availability == 1.0
