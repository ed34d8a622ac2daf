"""Tests for anonymous mail with durable reply paths (§1 email case)."""

import random
from types import SimpleNamespace

import pytest

from repro.extensions import anonmail
from repro.extensions.anonmail import AnonymousMail, FixedReturnPath


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def mail(system):
    return AnonymousMail(system)


@pytest.fixture()
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=12)
    return node


@pytest.fixture()
def bob_id(system):
    return system.random_node_id("bob")


def _send(system, mail, alice, bob_id, body=b"hello bob"):
    fwd = system.form_tunnel(alice, length=3)
    rpl = system.form_reply_tunnel(alice, length=3)
    return mail.send(alice, bob_id, body, fwd, rpl)


class TestDelivery:
    def test_mail_lands_in_inbox(self, system, mail, alice, bob_id):
        sent = _send(system, mail, alice, bob_id)
        assert sent.delivered and sent.trace.success
        inbox = mail.inbox(bob_id)
        assert len(inbox) == 1
        assert inbox[0].body == b"hello bob"

    def test_envelope_does_not_name_sender(self, system, mail, alice, bob_id):
        """Sender anonymity: nothing in the envelope identifies Alice."""
        _send(system, mail, alice, bob_id)
        envelope = mail.inbox(bob_id)[0]
        sender_bytes = alice.node_id.to_bytes(16, "big")
        assert sender_bytes not in envelope.reply_blob
        assert sender_bytes != envelope.reply_first_hop.to_bytes(16, "big")
        # the reply entry hop is a THA id, not the sender
        assert system.network.closest_alive(envelope.reply_first_hop) != alice.node_id

    def test_misrouted_mail_not_delivered(self, system, mail, alice):
        """Destination id resolving to a different node than intended
        (e.g. the recipient died) must not create a phantom inbox."""
        bob_id = system.random_node_id("bob2")
        system.fail_node(bob_id)
        sent = _send(system, mail, alice, bob_id)
        assert not sent.delivered
        assert mail.inbox(bob_id) == []

    def test_undersized_response_key_not_delivered(self, system, mail, alice,
                                                   bob_id, monkeypatch):
        """A 65-bit response key fails at the recipient's decoding, so
        the envelope is dropped as malformed instead of landing in the
        inbox, where a later ``reply`` would raise a bare
        ``ValueError`` from ``encrypt``."""
        tiny = ((1 << 64) | 1).to_bytes(9, "big") + (65537).to_bytes(4, "big")
        stub = SimpleNamespace(public=SimpleNamespace(to_bytes=lambda: tiny))
        monkeypatch.setattr(anonmail, "RsaKeyPair",
                            SimpleNamespace(generate=lambda rng, bits: stub))
        sent = _send(system, mail, alice, bob_id)
        assert sent.trace.success and not sent.delivered
        assert mail.inbox(bob_id) == []


class TestReplies:
    def test_immediate_reply(self, system, mail, alice, bob_id):
        sent = _send(system, mail, alice, bob_id)
        envelope = mail.inbox(bob_id)[0]
        trace = mail.reply(bob_id, envelope, b"hi anonymous friend")
        assert trace.success and envelope.replied
        assert sent.responses == [b"hi anonymous friend"]

    def test_reply_after_hop_churn(self, system, mail, alice, bob_id):
        """THE claim: the reply works even though every hop node of the
        recorded reply tunnel died between send and reply."""
        sent = _send(system, mail, alice, bob_id)
        envelope = mail.inbox(bob_id)[0]
        for tha in sent.reply_tunnel.hops:
            system.fail_node(system.network.closest_alive(tha.hop_id))
        trace = mail.reply(bob_id, envelope, b"late reply")
        assert trace.success, trace.failure_reason
        assert sent.responses == [b"late reply"]

    def test_fixed_return_path_dies_where_tap_survives(self, system, mail,
                                                       alice, bob_id):
        rng = random.Random(4004)
        sent = _send(system, mail, alice, bob_id)
        roots = [
            system.network.closest_alive(t.hop_id)
            for t in sent.reply_tunnel.hops
        ]
        fixed = FixedReturnPath.record(roots, 3, rng)

        system.fail_node(roots[1])

        assert not fixed.reply(alice.node_id, b"x", system.network.is_alive)
        envelope = mail.inbox(bob_id)[0]
        assert mail.reply(bob_id, envelope, b"y").success

    def test_reply_fails_closed_when_anchor_lost(self, system, mail, alice, bob_id):
        sent = _send(system, mail, alice, bob_id)
        envelope = mail.inbox(bob_id)[0]
        holders = list(system.store.holders(sent.reply_tunnel.hops[0].hop_id))
        system.fail_nodes(holders, repair_after=False)
        trace = mail.reply(bob_id, envelope, b"z")
        assert not trace.success
        assert sent.responses == []

    def test_reply_with_short_file_key_is_ignored(self, system, mail, alice,
                                                  bob_id, monkeypatch):
        """A reply wrapping a 4-byte ``K_f`` is dropped like any other
        corrupted response; nothing raises out of ``reply``."""
        from tests.conftest import seal_short_key_answer

        sent = _send(system, mail, alice, bob_id)
        envelope = mail.inbox(bob_id)[0]
        monkeypatch.setattr(anonmail, "seal_answer", seal_short_key_answer)
        trace = mail.reply(bob_id, envelope, b"hi")
        assert trace.success
        assert sent.responses == []

    def test_multiple_conversations_isolated(self, system, mail, alice, bob_id):
        carol = system.tap_node(system.random_node_id("carol"))
        system.deploy_thas(carol, count=8)
        sent_a = _send(system, mail, alice, bob_id, body=b"from alice")
        fwd = system.form_tunnel(carol, length=2)
        rpl = system.form_reply_tunnel(carol, length=2)
        sent_c = mail.send(carol, bob_id, b"from carol", fwd, rpl)

        for envelope in mail.inbox(bob_id):
            mail.reply(bob_id, envelope, b"re:" + envelope.body)
        assert sent_a.responses == [b"re:from alice"]
        assert sent_c.responses == [b"re:from carol"]


class TestReplyRegistrationOwnership:
    """The mail's registration under its reply tunnel's ``bid`` lives
    from ``send`` until the sender releases it: nothing else may take
    the ``bid`` over in between, and nothing is left behind after."""

    def test_awaited_bid_is_refused_not_overwritten(
        self, system, mail, alice, bob_id, monkeypatch
    ):
        sent = _send(system, mail, alice, bob_id)
        bid = sent.reply_tunnel.bid
        awaited = alice.pending_replies[bid]
        fid = system.publish(b"a file")
        fwd = system.form_tunnel(alice, length=3)
        sends = []
        monkeypatch.setattr(system.forwarder, "send",
                            lambda *a, **kw: sends.append(a))

        with pytest.raises(ValueError, match="already awaited"):
            system.retrieve(alice, fid, fwd, sent.reply_tunnel)

        assert sends == []  # refused before anything was sent
        assert alice.pending_replies == {bid: awaited}
        envelope = mail.inbox(bob_id)[0]
        assert mail.reply(bob_id, envelope, b"still me").success
        assert sent.responses == [b"still me"]

    def test_release_ends_the_registration(self, system, mail, alice, bob_id):
        sent = _send(system, mail, alice, bob_id)
        envelope = mail.inbox(bob_id)[0]
        assert mail.reply(bob_id, envelope, b"first").success

        sent.release()

        assert alice.pending_replies == {}
        late = mail.reply(bob_id, envelope, b"late")
        assert not late.success and late.delivered_payload is None
        assert sent.responses == [b"first"]
        # the bid is free again: the reply tunnel can carry an exchange
        fid = system.publish(b"a file")
        result = system.retrieve(
            alice, fid, system.form_tunnel(alice, length=3), sent.reply_tunnel
        )
        assert result.success, result.failure_reason
