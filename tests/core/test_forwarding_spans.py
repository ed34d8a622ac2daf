"""Span-tree shape tests: the tracer threaded through the engine.

Every substrate (forwarder, Pastry routing, onion peeling, sessions,
retrieval, the emulation) must emit causally-nested spans whose link
attribution agrees with the traces the engine already reports.
"""

import random

import pytest

from repro.core.emulation import TapEmulation
from repro.core.node import PendingReply
from repro.core.session import SessionServer, TapSession
from repro.crypto.onion import build_reply_onion, make_fake_onion
from repro.obs import SpanTracer
from repro.obs.critical_path import build_trees, records_from_tracer
from repro.obs.spans import INITIATOR_KEYS, RESPONDER_KEYS
from repro.simnet.topology import Topology
from tests.core.walk_scenarios import SCENARIOS, observe, pinned


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def tracer(system):
    tr = SpanTracer()
    system.attach_observability(tracer=tr)
    return tr


@pytest.fixture()
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=12)
    return node


def _trees(tracer):
    return build_trees(records_from_tracer(tracer))


def _named(roots, name):
    return [s for r in roots for s in r.walk() if s.name == name]


def _reply_setup(system, alice, length=3):
    reply_tunnel = system.form_reply_tunnel(alice, length=length, use_hints=True)
    fake = make_fake_onion(random.Random(1))
    first_hop, blob = build_reply_onion(
        reply_tunnel.onion_layers(), reply_tunnel.bid, fake
    )
    alice.register_pending(PendingReply(
        bid=reply_tunnel.bid,
    ))
    return reply_tunnel, first_hop, blob


class TestForwardSpans:
    def test_formation_span(self, system, tracer, alice):
        system.form_tunnel(alice, length=3)
        (form,) = _named(_trees(tracer), "tunnel.form")
        assert form.args["observer"] == "initiator"
        assert form.args["initiator"] == alice.node_id
        assert form.args["length"] == 3

    def test_span_tree_shape(self, system, tracer, alice):
        tunnel = system.form_tunnel(alice, length=3)
        tracer.clear()
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success

        roots = _trees(tracer)
        (root,) = [r for r in roots if r.name == "tap.forward"]
        assert root.args["success"] is True
        assert root.args["overlay_hops"] == 3
        hops = [c for c in root.children if c.name == "tap.hop"]
        assert [h.args["hop_index"] for h in hops] == [0, 1, 2]
        for hop in hops:
            child_names = {c.name for c in hop.children}
            assert "dht.route" in child_names  # no hints -> DHT lookup
            assert "onion.peel" in child_names
        assert hops[-1].args.get("is_exit") is True

    def test_hop_links_sum_to_underlying_hops(self, system, tracer, alice):
        tunnel = system.form_tunnel(alice, length=3)
        tracer.clear()
        trace = system.send(alice, tunnel, 42, b"x")

        (root,) = [r for r in _trees(tracer) if r.name == "tap.forward"]
        assert root.args["links"] == trace.underlying_hops
        hops = [c for c in root.children if c.name == "tap.hop"]
        assert sum(h.args["links"] for h in hops) == trace.underlying_hops

    def test_hinted_send_probes(self, system, tracer, alice):
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)
        tracer.clear()
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success and all(r.via_hint for r in trace.records)

        roots = _trees(tracer)
        probes = _named(roots, "hint.probe")
        assert len(probes) == 3
        assert all(p.args["outcome"] == "hit" for p in probes)
        (root,) = [r for r in roots if r.name == "tap.forward"]
        for hop in (c for c in root.children if c.name == "tap.hop"):
            assert hop.args["via_hint"] is True
            assert "hint.probe" in {c.name for c in hop.children}

    def test_failed_send_records_error(self, system, tracer, alice):
        tunnel = system.form_tunnel(alice, length=3)
        holders = list(system.store.holders(tunnel.hops[1].hop_id))
        system.fail_nodes(holders, repair_after=False)
        tracer.clear()
        trace = system.send(alice, tunnel, 42, b"x")
        assert not trace.success

        (root,) = [r for r in _trees(tracer) if r.name == "tap.forward"]
        assert root.args["success"] is False
        assert "no THA replica" in root.args["error"]


class TestReplySpans:
    def test_reply_span_tree(self, system, tracer, alice):
        reply_tunnel, first_hop, blob = _reply_setup(system, alice, length=3)
        responder = system.random_node_id("responder")
        tracer.clear()
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"data")
        assert trace.success

        roots = _trees(tracer)
        (root,) = [r for r in roots if r.name == "tap.reply"]
        assert root.args["observer"] == "exit"
        assert root.args["responder"] == responder
        hops = [c for c in root.children if c.name == "tap.hop"]
        assert len(hops) == len(trace.records)
        last = hops[-1]
        assert last.args.get("delivered") is True
        assert last.args.get("matched_bid") == reply_tunnel.bid
        assert not any(
            h.args.get("delivered") for h in hops[:-1]
        )


class TestSessionSpans:
    def test_request_root(self, system, tracer, alice):
        server = SessionServer(
            system.random_node_id("server"), handler=lambda req: b"ok:" + req
        )
        session = TapSession(system, alice, server, tunnel_length=3)
        tracer.clear()
        assert session.request(b"hi") == b"ok:hi"

        roots = _trees(tracer)
        (root,) = [r for r in roots if r.name == "session.request"]
        assert root.args["success"] is True
        # the forward traversal nests under the session request
        assert _named([root], "tap.forward")

    def test_reform_nested_under_request(self, system, tracer, alice):
        server = SessionServer(
            system.random_node_id("server"), handler=lambda req: b"ok:" + req
        )
        session = TapSession(system, alice, server, tunnel_length=3)
        victim = session.forward.hops[1]
        system.fail_nodes(
            list(system.store.holders(victim.hop_id)), repair_after=False
        )
        tracer.clear()
        assert session.request(b"x") == b"ok:x"
        assert session.stats.tunnel_reforms >= 1

        roots = _trees(tracer)
        (root,) = [r for r in roots if r.name == "session.request"]
        reforms = _named([root], "session.reform")
        assert reforms and reforms[0].args["which"] == "forward"


class TestRetrievalSpans:
    def test_request_span_covers_both_directions(self, system, tracer, alice):
        fid = system.publish(b"file-content " * 50, name=b"paper.pdf")
        fwd = system.form_tunnel(alice, length=3)
        rpl = system.form_reply_tunnel(alice, length=3)
        tracer.clear()
        result = system.retrieve(alice, fid, fwd, rpl)
        assert result.success, result.failure_reason

        roots = _trees(tracer)
        (root,) = [r for r in roots if r.name == "tap.request"]
        assert root.args["success"] is True
        for name in ("tap.forward", "tap.respond", "tap.reply"):
            assert _named([root], name), f"missing {name} under tap.request"

    def test_redacted_export_never_links_endpoints(self, system, tracer, alice):
        """§4 indistinguishability: a redacted export of a full
        round-trip has no record naming both endpoints."""
        fid = system.publish(b"secret " * 20, name=b"s.bin")
        fwd = system.form_tunnel(alice, length=3, use_hints=True)
        rpl = system.form_reply_tunnel(alice, length=3, use_hints=True)
        result = system.retrieve(alice, fid, fwd, rpl)
        assert result.success

        for ev in tracer.chrome_events(redact=True):
            keys = set(ev["args"])
            assert not (keys & INITIATOR_KEYS and keys & RESPONDER_KEYS), ev
            if ev["args"].get("observer") == "hop":
                assert not keys & (INITIATOR_KEYS | RESPONDER_KEYS), ev


class TestEmulationSpans:
    def test_sim_clock_legs_account_for_latency(self, system, tracer, alice):
        emu = TapEmulation.from_system(system, topology=Topology(seed=5))
        tunnel = system.form_tunnel(alice, length=3)
        tracer.clear()
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"hello")
        emu.simulator.run()
        assert trace.delivered

        roots = _trees(tracer)
        (root,) = [r for r in roots if r.name == "emu.request"]
        assert root.args["delivered"] is True
        assert root.dur == pytest.approx(trace.latency, rel=1e-9)
        legs = [
            c for c in root.children
            if c.name in ("dht.route", "hint.direct")
        ]
        assert len(legs) == len(trace.path) - 1
        assert all(leg.args["links"] == 1 for leg in legs)
        # legs partition the transport time; peels are zero-duration,
        # so children can never exceed the end-to-end latency
        assert sum(c.dur for c in root.children) <= root.dur + 1e-9


class TestSpanTreeMatchesTheTwoLoopEngine:
    """Forward and reply traversal were two near-copies of one loop
    before they became ``TunnelForwarder._walk``; what a tracer, the
    event trace and the instruments saw of every scenario is pinned
    from that engine (``walk_scenarios.py`` says how)."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_spans_events_instruments(self, name):
        got, want = observe(name), pinned()[name]
        assert got["spans"] == want["spans"]
        assert got["events"] == want["events"]
        assert got["metrics"] == want["metrics"]

    def test_scenarios_take_the_branches_they_name(self):
        pins = pinned()

        def probes(name):
            return [attrs["outcome"] for span, _, attrs in pins[name]["spans"]
                    if span == "hint.probe"]

        assert probes("hint_hit") == ["hit"] * 5  # no hint for a first reply hop
        assert probes("hint_stale").count("stale") == 2
        assert probes("hint_timeout").count("timeout") == 2
        assert [s for s, _, a in pins["anchor_lost_reply"]["spans"]
                if a.get("outcome") == "anchor_lost"] == ["onion.peel"]
        # a reply nests under the exit hop that delivered the request
        spans = pins["basic"]["spans"]
        reply = next(i for i, (s, _, _) in enumerate(spans) if s == "tap.reply")
        assert spans[spans[reply][1]][2].get("is_exit") is True
