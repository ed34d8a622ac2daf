"""Tests for long-standing anonymous sessions (§1's motivating case)."""

import random
from dataclasses import asdict

import pytest

from repro.core.resilience import ResiliencePolicy
from repro.core.session import SessionServer, SessionStats, TapSession
from repro.faults.injectors import MessageFault, SyncFaultInjector
from repro.util.serialize import pack_fields, pack_int, unpack_fields, unpack_int


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
        request fails after the policy's retries and is counted."""
        session = TapSession(system, alice, server, tunnel_length=2,
                             policy=ResiliencePolicy.reactive(1))
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


# ----------------------------------------------------------------------
# the reactive policy, stated: reform what an attempt broke on, retry
# ----------------------------------------------------------------------
class ScriptedFaults(SyncFaultInjector):
    """Per-attempt verdicts: an attempt scripted ``forward`` / ``reply``
    has that traversal dropped on its first leg."""

    def __init__(self, script):
        super().__init__()
        self.script = script
        self.attempt = -1

    @property
    def outcome(self) -> str:
        return self.script[self.attempt]

    def draw_message(self, kind, legs):
        if kind == "forward":  # each attempt starts with its forward send
            self.attempt += 1
        return MessageFault(drop_at=0) if kind == self.outcome else None


class ScriptedServer(SessionServer):
    """Answers an attempt scripted ``stale`` under the previous ``seq``."""

    def __init__(self, node_id, faults):
        super().__init__(node_id, handler=lambda req: b"echo:" + req)
        self.faults = faults

    def serve(self, payload):
        seq_b, body = unpack_fields(payload, count=2)
        if self.faults.outcome == "stale":
            seq_b = pack_int(unpack_int(seq_b, width=8) - 1, width=8)
        return super().serve(pack_fields(seq_b, body))


SCRIPTS = [
    ("ok",),
    ("forward", "ok"),
    ("reply", "ok"),
    ("stale", "ok"),
    ("forward", "reply", "ok"),
    ("reply", "stale", "forward"),
    ("forward", "forward", "forward"),
    # three mysteries in a row reach the breaker threshold: a breaker
    # whose trip drives nothing is not fed, so none is counted
    ("stale", "stale", "stale"),
]


@pytest.mark.parametrize("retries", [0, 1, 2])
@pytest.mark.parametrize("script", SCRIPTS, ids="-".join)
def test_reactive_policy_reforms_what_broke_and_retries(
    system, alice, retries, script
):
    faults = ScriptedFaults(script)
    server = ScriptedServer(system.random_node_id("server"), faults)
    session = TapSession(system, alice, server, tunnel_length=3,
                         policy=ResiliencePolicy.reactive(retries))
    system.forwarder.faults = faults
    first = {"forward": session.forward, "reply": session.reply}

    reply = session.request_resilient(b"x")

    ran = script[:1 + retries]
    if "ok" in ran:
        ran = ran[:ran.index("ok") + 1]
    answered = ran[-1] == "ok"
    # every failed attempt, the last included, reforms the tunnel it
    # broke on; a stale answer implicates neither
    reforms = tuple(o for o in ran if o in ("forward", "reply"))
    assert reply.value == (b"echo:x" if answered else None)
    assert (reply.ok, reply.degraded) == (answered, False)
    assert reply.attempts == len(ran)
    assert reply.recovered == (answered and len(ran) > 1)
    assert reply.reformed == reforms
    for which, tunnel in first.items():
        assert (getattr(session, which) is tunnel) == (which not in reforms)
    assert asdict(session.stats) == asdict(SessionStats(
        requests=1,
        responses=int(answered),
        failures=int(not answered),
        retries=len(ran) - 1,
        tunnel_reforms=len(reforms),
        recovered_responses=int(answered and len(ran) > 1),
    ))
    assert alice.pending_replies == {}
