"""Tests for the tunneling engine: traversal, fail-over, hints, replies."""

import random

import pytest

from repro.crypto.onion import build_reply_onion, make_fake_onion
from repro.core.node import PendingReply
from tests.core.walk_scenarios import full_underlying_path


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=12)
    return node


def _destination(system, label="dest"):
    return system.random_node_id(label)


class TestForwardTraversal:
    def test_delivers_payload_to_destination_root(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3)
        dest_key = 123456789
        delivered = []
        trace = system.forwarder.send(
            alice, tunnel, dest_key, b"payload",
            deliver=lambda nid, p: delivered.append((nid, p)),
        )
        assert trace.success
        assert delivered == [(system.network.closest_alive(dest_key), b"payload")]
        assert trace.overlay_hops == 3

    def test_hop_nodes_are_replica_roots(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        for rec, tha in zip(trace.records, tunnel.hops):
            assert rec.hop_id == tha.hop_id
            assert rec.hop_node == system.network.closest_alive(tha.hop_id)
            assert not rec.promoted

    def test_underlying_path_continuous(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3)
        trace = system.send(alice, tunnel, 42, b"x")
        path = full_underlying_path(trace)
        assert path[0] == alice.node_id
        assert path[-1] == system.network.closest_alive(42)
        # consecutive entries differ (no zero-length hops kept)
        assert all(a != b for a, b in zip(path, path[1:]))

    def test_single_hop_tunnel(self, system, alice):
        tunnel = system.form_tunnel(alice, length=1)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success and trace.overlay_hops == 1


class TestFaultTolerance:
    def test_survives_hop_node_failure(self, system, alice):
        """The headline claim: tunnels keep working when tunnel hop
        nodes fail, because routing lands on the promoted candidate."""
        tunnel = system.form_tunnel(alice, length=3)
        for tha in tunnel.hops:
            system.fail_node(system.network.closest_alive(tha.hop_id))
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        assert all(rec.promoted for rec in trace.records)

    def test_survives_repeated_failures_with_repair(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3)
        for _round in range(3):
            for tha in tunnel.hops:
                system.fail_node(system.network.closest_alive(tha.hop_id))
            trace = system.send(alice, tunnel, 42, b"x")
            assert trace.success, trace.failure_reason

    def test_breaks_when_all_replicas_fail_simultaneously(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3)
        victim_hop = tunnel.hops[1]
        holders = list(system.store.holders(victim_hop.hop_id))
        system.fail_nodes(holders, repair_after=False)
        trace = system.send(alice, tunnel, 42, b"x")
        assert not trace.success
        assert "no THA replica" in trace.failure_reason

    def test_current_tunneling_breaks_where_tap_survives(self, system, alice):
        """Head-to-head on the same failure: the fixed-node baseline
        dies, TAP lives."""
        from repro.baselines.fixed_tunnel import form_fixed_tunnel

        rng = random.Random(1)
        tunnel = system.form_tunnel(alice, length=3)
        roots = [system.network.closest_alive(t.hop_id) for t in tunnel.hops]
        fixed = form_fixed_tunnel(roots, 3, rng)

        system.fail_node(roots[1])

        assert not fixed.functions(system.network.is_alive)
        ok, _, payload = fixed.send(42, b"x", system.network.is_alive)
        assert not ok
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success


class TestIpHints:
    def test_hints_used_when_fresh(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        assert all(rec.via_hint for rec in trace.records)
        # each hinted hop is exactly one physical link
        for rec in trace.records:
            assert len(rec.underlying_path) == 2

    def test_hint_shorter_than_basic(self, system, alice):
        hinted = system.form_tunnel(alice, length=3, use_hints=True)
        t1 = system.send(alice, hinted, 42, b"x")
        basic = system.form_tunnel(alice, length=3, use_hints=False)
        t2 = system.send(alice, basic, 42, b"x")
        assert t1.underlying_hops <= t2.underlying_hops

    def test_stale_hint_falls_back_to_dht(self, system, alice):
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)
        victim_root = system.network.closest_alive(tunnel.hops[1].hop_id)
        system.fail_node(victim_root)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        stale = trace.records[1]
        assert stale.hint_failed and not stale.via_hint
        assert stale.promoted

    def test_displaced_root_still_serves_via_hint(self, system, alice):
        """A hinted node that lost root status but kept its replica
        (it is still in the k-closest set) legitimately serves the
        hop — decoupling hop identity from a specific node."""
        tunnel = system.form_tunnel(alice, length=2, use_hints=True)
        hop = tunnel.hops[0]
        old_root = system.network.closest_alive(hop.hop_id)
        new_id = hop.hop_id + 1
        system.join_node(new_id)
        assert system.network.closest_alive(hop.hop_id) == new_id
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        first = trace.records[0]
        assert first.via_hint and first.hop_node == old_root

    def test_alive_but_evicted_hint_routes_onward(self, system, alice):
        """A hinted node that is alive but lost its replica entirely
        (pushed out of the k-closest set by joins) forwards the message
        into the DHT from where it sits (§5 fallback)."""
        tunnel = system.form_tunnel(alice, length=2, use_hints=True)
        hop = tunnel.hops[0]
        old_root = system.network.closest_alive(hop.hop_id)
        # Join k nodes closer to the hopid than the old root: it drops
        # out of the replica set and its copy is handed off.
        for off in range(1, system.store.k + 1):
            system.join_node(hop.hop_id + off)
        assert old_root not in system.store.replica_set(hop.hop_id)
        assert not system.store.storage_of(old_root).contains(hop.hop_id)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        first = trace.records[0]
        assert first.hint_failed and not first.via_hint
        assert first.hop_node == system.network.closest_alive(hop.hop_id)
        # fallback started from the hinted node, not the initiator
        assert first.underlying_path[1] == old_root

    def test_stale_hint_not_double_counted(self, system, alice):
        """Regression: an alive-but-evicted hint's probe link is the
        first edge of ``underlying_path`` and must not be charged a
        second time by ``underlying_hops``."""
        tunnel = system.form_tunnel(alice, length=2, use_hints=True)
        hop = tunnel.hops[0]
        for off in range(1, system.store.k + 1):
            system.join_node(hop.hop_id + off)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        first = trace.records[0]
        assert first.hint_failed and not first.hint_timeout
        link_sum = sum(
            max(0, len(rec.underlying_path) - 1) for rec in trace.records
        ) + max(0, len(trace.exit_path) - 1)
        assert trace.underlying_hops == link_sum

    def test_dead_hint_charged_exactly_one_timeout_link(self, system, alice):
        """A hint probe to a dead node costs one extra physical link
        (probe + timeout) on top of the recorded paths — exactly one."""
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)
        victim_root = system.network.closest_alive(tunnel.hops[1].hop_id)
        system.fail_node(victim_root)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
        stale = trace.records[1]
        assert stale.hint_timeout and stale.hint_failed
        timeouts = sum(1 for rec in trace.records if rec.hint_timeout)
        assert timeouts == 1
        link_sum = sum(
            max(0, len(rec.underlying_path) - 1) for rec in trace.records
        ) + max(0, len(trace.exit_path) - 1)
        assert trace.underlying_hops == link_sum + timeouts


def _reply_setup(system, alice, length=3):
    """Form a hinted reply tunnel and register its pending bid."""
    reply_tunnel = system.form_reply_tunnel(alice, length=length, use_hints=True)
    fake = make_fake_onion(random.Random(1))
    first_hop, blob = build_reply_onion(
        reply_tunnel.onion_layers(), reply_tunnel.bid, fake
    )
    alice.register_pending(PendingReply(
        bid=reply_tunnel.bid,
    ))
    return reply_tunnel, first_hop, blob


def _link_sum(trace):
    return sum(
        max(0, len(rec.underlying_path) - 1) for rec in trace.records
    ) + max(0, len(trace.exit_path) - 1)


class TestReplyPathHints:
    """§5 hint accounting must behave identically on reply traversal.

    The reply construction carries hop *i*'s hint inside hop *i-1*'s
    layer, so the first reply hop is never hinted (the responder gets
    only ``first_hop_id`` in the clear) and the terminating ``bid``
    leg carries no hint either.
    """

    def test_hints_used_when_fresh(self, system, alice):
        _, first_hop, blob = _reply_setup(system, alice, length=3)
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"a")
        assert trace.success
        first = trace.records[0]
        assert not first.via_hint and not first.hint_failed
        # hops 2..l arrive via their hints: exactly one physical link
        for rec in trace.records[1:3]:
            assert rec.via_hint and not rec.hint_failed
            assert not rec.hint_timeout
            assert len(rec.underlying_path) == 2
        assert trace.underlying_hops == _link_sum(trace)

    def test_dead_hint_charged_exactly_one_timeout_link(self, system, alice):
        tunnel, first_hop, blob = _reply_setup(system, alice, length=3)
        victim_root = system.network.closest_alive(tunnel.hops[1].hop_id)
        system.fail_node(victim_root)
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"a")
        assert trace.success
        stale = next(r for r in trace.records if r.hop_id == tunnel.hops[1].hop_id)
        assert stale.hint_timeout and stale.hint_failed and not stale.via_hint
        timeouts = sum(1 for rec in trace.records if rec.hint_timeout)
        assert timeouts == 1
        assert trace.underlying_hops == _link_sum(trace) + timeouts

    def test_displaced_root_still_serves_via_hint(self, system, alice):
        tunnel, first_hop, blob = _reply_setup(system, alice, length=3)
        hop = tunnel.hops[1]
        old_root = system.network.closest_alive(hop.hop_id)
        system.join_node(hop.hop_id + 1)
        assert system.network.closest_alive(hop.hop_id) != old_root
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"a")
        assert trace.success
        rec = next(r for r in trace.records if r.hop_id == hop.hop_id)
        assert rec.via_hint and rec.hop_node == old_root

    def test_alive_but_evicted_hint_not_double_counted(self, system, alice):
        tunnel, first_hop, blob = _reply_setup(system, alice, length=3)
        hop = tunnel.hops[1]
        old_root = system.network.closest_alive(hop.hop_id)
        for off in range(1, system.store.k + 1):
            system.join_node(hop.hop_id + off)
        assert not system.store.storage_of(old_root).contains(hop.hop_id)
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"a")
        assert trace.success
        rec = next(r for r in trace.records if r.hop_id == hop.hop_id)
        assert rec.hint_failed and not rec.hint_timeout and not rec.via_hint
        # fallback started from the hinted node: its probe link is the
        # first edge of underlying_path and is charged exactly once
        assert rec.underlying_path[1] == old_root
        assert trace.underlying_hops == _link_sum(trace)

    def test_promoted_with_expected_roots(self, system, alice):
        """With the initiator's formation metadata supplied, fail-over
        is recorded as ``promoted`` exactly as on the forward path."""
        tunnel, first_hop, blob = _reply_setup(system, alice, length=3)
        expected_roots = {
            h.hop_id: h.meta.get("formed_root") for h in tunnel.hops
        }
        victim_root = system.network.closest_alive(tunnel.hops[1].hop_id)
        system.fail_node(victim_root)
        responder = _destination(system)
        trace = system.forwarder.send_reply(
            responder, first_hop, blob, b"a", expected_roots=expected_roots
        )
        assert trace.success
        rec = next(r for r in trace.records if r.hop_id == tunnel.hops[1].hop_id)
        assert rec.promoted
        others = [r for r in trace.records if r.hop_id != tunnel.hops[1].hop_id]
        assert not any(r.promoted for r in others)

    def test_promoted_stays_false_without_expected_roots(self, system, alice):
        tunnel, first_hop, blob = _reply_setup(system, alice, length=3)
        system.fail_node(system.network.closest_alive(tunnel.hops[1].hop_id))
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"a")
        assert trace.success
        assert not any(r.promoted for r in trace.records)


class TestReplyTraversal:
    def test_reply_reaches_initiator(self, system, alice):
        reply_tunnel = system.form_reply_tunnel(alice, length=3)
        fake = make_fake_onion(random.Random(1))
        first_hop, blob = build_reply_onion(
            reply_tunnel.onion_layers(), reply_tunnel.bid, fake
        )
        got = []
        alice.register_pending(PendingReply(
            bid=reply_tunnel.bid,
            callback=got.append,
        ))
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"answer")
        assert trace.success
        assert trace.destination == alice.node_id
        assert got == [b"answer"]

    def test_reply_survives_hop_failure(self, system, alice):
        reply_tunnel = system.form_reply_tunnel(alice, length=3)
        fake = make_fake_onion(random.Random(1))
        first_hop, blob = build_reply_onion(
            reply_tunnel.onion_layers(), reply_tunnel.bid, fake
        )
        alice.register_pending(PendingReply(
            bid=reply_tunnel.bid,
        ))
        system.fail_node(system.network.closest_alive(reply_tunnel.hops[1].hop_id))
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"answer")
        assert trace.success

    def test_unclaimed_bid_breaks(self, system, alice):
        """Without a pending-reply registration the last leg lands on a
        node with neither a THA nor a pending bid."""
        reply_tunnel = system.form_reply_tunnel(alice, length=2)
        fake = make_fake_onion(random.Random(1))
        first_hop, blob = build_reply_onion(
            reply_tunnel.onion_layers(), reply_tunnel.bid, fake
        )
        responder = _destination(system)
        trace = system.forwarder.send_reply(responder, first_hop, blob, b"answer")
        assert not trace.success


class TestMalformedReplyOnion:
    def test_exit_tagged_layer_ends_the_reply_walk(self, system, alice):
        """``build_reply_onion`` only ever emits RELAY layers (§4: the
        tail must not recognise itself), so an EXIT tag on the reply
        direction is malformed: the walk fails closed at that hop — it
        used to read the tag as one more relay, route on to the ``bid``
        and deliver."""
        from repro.crypto.onion import build_onion

        reply_tunnel = system.form_reply_tunnel(alice, length=3)
        # a *forward* onion over the reply hops: RELAY, RELAY, EXIT(bid)
        blob = build_onion(reply_tunnel.onion_layers(), reply_tunnel.bid, b"fake")
        got = []
        alice.register_pending(PendingReply(
            bid=reply_tunnel.bid,
            callback=got.append,
        ))
        trace = system.forwarder.send_reply(
            _destination(system), reply_tunnel.hops[0].hop_id, blob, b"answer"
        )
        assert not trace.success
        assert "EXIT-tagged layer" in trace.failure_reason
        assert got == [] and trace.delivered_payload is None
        assert not alice.pending_replies[reply_tunnel.bid].completed
        # it ended at the tail: no fourth identifier was ever located
        assert [r.hop_id for r in trace.records] == reply_tunnel.hop_ids


class TestPeelWithDecodedAnchorCache:
    """``_peel_at`` reads the replica first and decodes by content, so
    the anchor cache never outlives what the hop node actually holds."""

    @staticmethod
    def _first_hop(system, alice):
        from repro.crypto.onion import build_onion

        tunnel = system.form_tunnel(alice, length=3)
        hop = tunnel.hops[0]
        node_id = system.network.closest_alive(hop.hop_id)
        blob = build_onion(tunnel.onion_layers(), 42, b"payload")
        return hop, node_id, blob

    def test_repeat_peels_prime_no_key(self, system, alice, key_inits):
        hop, node_id, blob = self._first_hop(system, alice)
        first = system.forwarder._peel_at(node_id, hop.hop_id, blob)
        key_inits.clear()
        for _ in range(3):
            again = system.forwarder._peel_at(node_id, hop.hop_id, blob)
            assert (again.next_id, again.inner) == (first.next_id, first.inner)
        assert key_inits == []

    def test_bit_rotted_replica_is_decoded_afresh(self, system, alice):
        from repro.core.forwarding import TunnelBroken
        from tests.conftest import rot_tha_key

        hop, node_id, blob = self._first_hop(system, alice)
        assert system.forwarder._peel_at(node_id, hop.hop_id, blob) is not None
        healthy = rot_tha_key(system, node_id, hop.hop_id)
        with pytest.raises(TunnelBroken, match="layer decryption failed"):
            system.forwarder._peel_at(node_id, hop.hop_id, blob)
        # healing the replica heals the hop: nothing to invalidate
        system.store.storage_of(node_id).insert(healthy, overwrite=True)
        assert system.forwarder._peel_at(node_id, hop.hop_id, blob) is not None

    def test_undecodable_replica_fails_the_walk(self, system, alice):
        """``corrupt_replica`` flips the value's length prefix, so the
        serving replica no longer decodes: the walk ends in a failed
        trace with the anchor lost, and nothing raises out of ``send``."""
        tunnel = system.form_tunnel(alice, length=3)
        hop_id = tunnel.hops[1].hop_id
        node_id = system.network.closest_alive(hop_id)
        assert system.store.corrupt_replica(node_id, hop_id)
        trace = system.forwarder.send(alice, tunnel, 42, b"payload")
        assert not trace.success and trace.delivered_payload is None
        assert trace.failure_reason == (
            f"node {node_id:#x} holds a THA replica for hop {hop_id:#x} "
            f"that does not decode (anchor lost)")

    def test_deleted_anchor_is_lost_despite_the_cache(self, system, alice):
        from repro.core.forwarding import TunnelBroken

        hop, node_id, blob = self._first_hop(system, alice)
        assert system.forwarder._peel_at(node_id, hop.hop_id, blob) is not None
        assert system.store.delete(hop.hop_id, hop.pw)
        with pytest.raises(TunnelBroken, match="anchor lost"):
            system.forwarder._peel_at(node_id, hop.hop_id, blob)
