"""Tests for the initiator-side resilience layer.

Covers the policy/breaker primitives, the policy-managed session path
(including the reply-tunnel fail-over acceptance scenario: dropped
reply hop -> health probe -> reform -> retry exactly once) and graceful
degradation.
"""

import random

import pytest

from repro.core.resilience import (
    BACKOFF_FACTOR,
    BASE_BACKOFF_S,
    JITTER,
    MAX_BACKOFF_S,
    CircuitBreaker,
    ResiliencePolicy,
    ResilientReply,
    anchors_reachable,
)
from repro.core.session import SessionServer, TapSession
from repro.core.system import TapSystem
from repro.obs import SpanTracer


class _Midpoint:
    """An rng whose draw lands the jitter factor on exactly 1."""

    def random(self) -> float:
        return 0.5


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy.reactive(-1)
        assert ResiliencePolicy.reactive(2) == ResiliencePolicy(2, resilient=False)

    def test_backoff_grows_exponentially(self):
        delays = [ResiliencePolicy().backoff_delay(a, _Midpoint()) for a in (1, 2, 3)]
        assert delays == pytest.approx(
            [BASE_BACKOFF_S * BACKOFF_FACTOR ** n for n in range(3)]
        )
        assert delays[0] < delays[1] < delays[2] < MAX_BACKOFF_S

    def test_backoff_caps(self):
        policy = ResiliencePolicy()
        assert policy.backoff_delay(10, _Midpoint()) == pytest.approx(MAX_BACKOFF_S)

    def test_backoff_pinned(self):
        """The resilient arm draws once per retry, the reactive arm
        never: chaos digests depend on both."""
        rng = random.Random(2004)
        delays = [ResiliencePolicy().backoff_delay(a, rng) for a in range(1, 6)]
        assert delays == [
            0.050613638014562846, 0.11448201820334387, 0.17063142280418872,
            0.37406170532765215, 0.8670783127080907,
        ]
        rng = random.Random(2004)
        state = rng.getstate()
        reactive = ResiliencePolicy.reactive(5)
        assert [reactive.backoff_delay(a, rng) for a in range(1, 6)] == [0.0] * 5
        assert rng.getstate() == state

    def test_jitter_bounded_and_deterministic(self):
        policy = ResiliencePolicy()
        a = [policy.backoff_delay(1, random.Random(7)) for _ in range(3)]
        b = [policy.backoff_delay(1, random.Random(7)) for _ in range(3)]
        assert a == b
        for d in a:
            assert BASE_BACKOFF_S * (1 - JITTER) <= d <= BASE_BACKOFF_S * (1 + JITTER)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        br = CircuitBreaker(threshold=3)
        assert not br.record_failure()
        assert not br.record_failure()
        assert br.record_failure()  # trips now
        assert br.state == "open"
        assert br.trips == 1
        assert not br.record_failure()  # already open: no second trip

    def test_reform_half_opens_and_success_closes(self):
        br = CircuitBreaker(threshold=1)
        br.record_failure()
        br.on_reform()
        assert br.state == "half-open"
        assert br.consecutive_failures == 0
        br.record_success()
        assert br.state == "closed"


class TestResilientReply:
    def test_ok_semantics(self):
        assert ResilientReply(b"x").ok
        assert not ResilientReply(None).ok
        assert not ResilientReply(b"stale", degraded=True).ok


@pytest.fixture()
def tracer():
    return SpanTracer()


@pytest.fixture()
def traced_system(tracer):
    system = TapSystem.bootstrap(num_nodes=150, seed=5)
    system.attach_observability(tracer=tracer)
    return system


@pytest.fixture()
def alice(traced_system):
    node = traced_system.tap_node(traced_system.random_node_id("alice"))
    traced_system.deploy_thas(node, count=16)
    return node


@pytest.fixture()
def server(traced_system):
    node_id = traced_system.random_node_id("server")
    return SessionServer(node_id, handler=lambda req: b"echo:" + req)


class TestAnchorsReachable:
    def test_healthy_tunnel(self, traced_system, alice):
        tunnel = traced_system.form_tunnel(alice, 3)
        assert anchors_reachable(
            traced_system.network, traced_system.store, tunnel.hops
        )

    def test_lost_anchor_detected(self, traced_system, alice):
        tunnel = traced_system.form_tunnel(alice, 3)
        # single-node failure is survived by replica fail-over (the
        # paper's claim) — losing the anchor takes the whole replica set
        for holder in list(traced_system.store.holders(tunnel.hops[0].hop_id)):
            traced_system.fail_node(holder, repair=False)
        assert not anchors_reachable(
            traced_system.network, traced_system.store, tunnel.hops
        )


class TestReplyFailover:
    def test_dropped_reply_hop_reforms_and_retries_exactly_once(
        self, traced_system, tracer, alice, server
    ):
        """The satellite-4 scenario: a reply hop dies mid-session; the
        next request fails once, the hedged probe implicates the reply
        tunnel, exactly one reform + one retry recover the session."""
        policy = ResiliencePolicy(max_retries=3)
        session = TapSession(traced_system, alice, server,
                             tunnel_length=3, policy=policy)
        assert session.request(b"warm") == b"echo:warm"

        # A single hop-node crash is absorbed by replica fail-over (the
        # paper's structural story); to present the initiator with a
        # genuinely dead reply leg, the hop anchor's whole replica set
        # must go down before re-replication runs (repair=False).
        forward_roots = {
            traced_system.network.closest_alive(h.hop_id)
            for h in session.forward.hops
        }
        off_limits = forward_roots | {alice.node_id, server.node_id}
        victims = None
        for tha in session.reply.hops:
            holders = set(traced_system.store.holders(tha.hop_id))
            if not holders & off_limits:
                victims = holders
                break
        assert victims is not None, "no isolatable reply hop (seed drift?)"
        for victim in victims:
            traced_system.fail_node(victim, repair=False)

        reply = session.request_resilient(b"after-crash")
        assert reply.value == b"echo:after-crash"
        assert reply.ok and reply.recovered
        assert reply.attempts == 2
        assert reply.reformed == ("reply",)

        stats = session.stats
        assert stats.retries == 1
        assert stats.tunnel_reforms == 1
        assert stats.recovered_responses == 1
        assert stats.health_probes == 2  # one hedged probe pair
        assert stats.proactive_reforms == 0
        assert stats.effective_availability == pytest.approx(0.5)
        assert stats.availability == pytest.approx(1.0)

        # Span tree: exactly one session.reform (which="reply"), nested
        # in the same trace as the recovering session.request root.
        reforms = [s for s in tracer if s.name == "session.reform"]
        assert len(reforms) == 1
        assert reforms[0].attrs["which"] == "reply"
        probes = [s for s in tracer if s.name == "session.probe"]
        assert len(probes) == 1
        assert probes[0].attrs == {"observer": "initiator",
                                   "initiator": alice.node_id,
                                   "forward": True, "reply": False}
        requests = [s for s in tracer if s.name == "session.request"]
        recovering = requests[-1]
        assert recovering.attrs["success"] is True
        assert recovering.attrs["attempts"] == 2
        assert reforms[0].trace_id == recovering.trace_id
        assert probes[0].trace_id == recovering.trace_id


class TestGracefulDegradation:
    def test_last_known_good_served_when_server_gone(
        self, traced_system, alice, server
    ):
        policy = ResiliencePolicy(max_retries=1)
        session = TapSession(traced_system, alice, server,
                             tunnel_length=3, policy=policy)
        assert session.request_resilient(b"cache-me").value == b"echo:cache-me"

        traced_system.fail_node(server.node_id, repair=False)
        reply = session.request_resilient(b"too-late")
        assert reply.degraded
        assert not reply.ok
        assert reply.value == b"echo:cache-me"  # the stale fallback
        assert session.stats.degraded_responses == 1
        assert session.stats.failures == 1

    def test_hard_failure_without_degraded_ok(
        self, traced_system, alice, server
    ):
        """The reactive arm serves no last-known-good fallback."""
        policy = ResiliencePolicy.reactive(1)
        session = TapSession(traced_system, alice, server,
                             tunnel_length=3, policy=policy)
        session.request_resilient(b"cache-me")
        traced_system.fail_node(server.node_id, repair=False)
        reply = session.request_resilient(b"too-late")
        assert reply.value is None and not reply.degraded
        assert session.stats.degraded_responses == 0

    def test_policy_routes_legacy_request(self, traced_system, alice, server):
        session = TapSession(traced_system, alice, server,
                             tunnel_length=3,
                             policy=ResiliencePolicy(max_retries=1))
        assert session.request(b"hi") == b"echo:hi"
        assert session.stats.responses == 1

