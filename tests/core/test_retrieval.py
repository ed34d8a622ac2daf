"""Tests for the §4 anonymous file retrieval application."""

import random
from types import SimpleNamespace

import pytest

from repro.core.retrieval import EnvelopeError, open_answer, seal_answer
from repro.crypto.asymmetric import RsaKeyPair
from repro.util.serialize import pack_fields


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=12)
    return node


@pytest.fixture()
def published(system):
    content = b"file-content " * 100
    fid = system.publish(content, name=b"paper.pdf")
    return fid, content


class TestHappyPath:
    def test_end_to_end(self, system, alice, published):
        fid, content = published
        fwd = system.form_tunnel(alice, length=3)
        rpl = system.form_reply_tunnel(alice, length=3)
        result = system.retrieve(alice, fid, fwd, rpl)
        assert result.success, result.failure_reason
        assert result.content == content

    def test_request_and_reply_use_different_tunnels(self, system, alice, published):
        """§4: the reply tunnel differs from the request tunnel to
        hinder request/reply correlation."""
        fid, _ = published
        fwd = system.form_tunnel(alice, length=3)
        rpl = system.form_reply_tunnel(alice, length=3)
        assert set(fwd.hop_ids).isdisjoint(rpl.hop_ids)
        result = system.retrieve(alice, fid, fwd, rpl)
        fwd_hops = [r.hop_id for r in result.forward_trace.records]
        rpl_hops = [r.hop_id for r in result.reply_trace.records]
        assert set(fwd_hops).isdisjoint(rpl_hops)

    def test_reply_ends_at_initiator_via_bid(self, system, alice, published):
        fid, _ = published
        result = system.retrieve(
            alice, fid,
            system.form_tunnel(alice, length=2),
            system.form_reply_tunnel(alice, length=2),
        )
        assert result.reply_trace.destination == alice.node_id
        # reply walked 2 hops + the bid leg
        assert result.reply_trace.overlay_hops == 3

    def test_pending_state_cleaned_up(self, system, alice, published):
        fid, _ = published
        rpl = system.form_reply_tunnel(alice, length=2)
        system.retrieve(alice, fid, system.form_tunnel(alice, length=2), rpl)
        assert rpl.bid not in alice.pending_replies

    def test_responder_is_fid_root(self, system, alice, published):
        fid, _ = published
        result = system.retrieve(
            alice, fid,
            system.form_tunnel(alice, length=2),
            system.form_reply_tunnel(alice, length=2),
        )
        assert result.forward_trace.exit_path[-1] == system.network.closest_alive(fid)


class TestFailureModes:
    def test_missing_file(self, system, alice):
        bogus_fid = 777777
        result = system.retrieve(
            alice, bogus_fid,
            system.form_tunnel(alice, length=2),
            system.form_reply_tunnel(alice, length=2),
        )
        assert not result.success
        assert "responder" in result.failure_reason
        assert result.broken is None  # neither tunnel is to blame

    def test_forward_tunnel_hop_lost(self, system, alice, published):
        fid, _ = published
        fwd = system.form_tunnel(alice, length=3)
        holders = list(system.store.holders(fwd.hops[0].hop_id))
        system.fail_nodes(holders, repair_after=False)
        result = system.retrieve(
            alice, fid, fwd, system.form_reply_tunnel(alice, length=3)
        )
        assert not result.success
        assert result.failure_reason.startswith("forward")
        assert result.broken == "forward"

    def test_reply_tunnel_hop_lost(self, system, alice, published):
        fid, _ = published
        rpl = system.form_reply_tunnel(alice, length=3)
        holders = list(system.store.holders(rpl.hops[1].hop_id))
        system.fail_nodes(holders, repair_after=False)
        result = system.retrieve(
            alice, fid, system.form_tunnel(alice, length=3), rpl
        )
        assert not result.success
        assert result.failure_reason.startswith("reply")
        assert result.broken == "reply"

    def test_retrieval_survives_hop_node_failures(self, system, alice, published):
        """The paper's motivating scenario: individual tunnel hop
        nodes fail (with repair) and the retrieval still completes."""
        fid, content = published
        fwd = system.form_tunnel(alice, length=3)
        rpl = system.form_reply_tunnel(alice, length=3)
        system.fail_node(system.network.closest_alive(fwd.hops[1].hop_id))
        system.fail_node(system.network.closest_alive(rpl.hops[0].hop_id))
        result = system.retrieve(alice, fid, fwd, rpl)
        assert result.success, result.failure_reason
        assert result.content == content

    def test_undersized_response_key_dropped(self, system, alice, published,
                                             monkeypatch):
        """A 65-bit ``K_I`` fails at the responder's decoding: the
        request is dropped as malformed and nothing raises (before the
        256-bit floor, ``encrypt`` raised a bare ``ValueError`` out of
        ``retrieve``)."""
        fid, _ = published
        tiny = ((1 << 64) | 1).to_bytes(9, "big") + (65537).to_bytes(4, "big")
        key = SimpleNamespace(to_bytes=lambda: tiny)
        encode = system.retrieval._encode_request
        monkeypatch.setattr(system.retrieval, "_encode_request",
                            lambda f, _key, hop, blob: encode(f, key, hop, blob))
        result = system.retrieve(alice, fid, system.form_tunnel(alice, length=3),
                                 system.form_reply_tunnel(alice, length=3))
        assert not result.success and result.broken is None
        assert result.failure_reason == "responder could not serve the request"
        assert alice.pending_replies == {}

    def test_short_file_key_is_a_decryption_failure(self, system, alice, published,
                                                    monkeypatch):
        """An answer wrapping a 4-byte ``K_f`` fails as a decryption,
        not as a bare ``ValueError`` out of ``retrieve``."""
        from repro.core import retrieval
        from tests.conftest import seal_short_key_answer

        monkeypatch.setattr(retrieval, "seal_answer", seal_short_key_answer)
        fid, _ = published
        result = system.retrieve(alice, fid, system.form_tunnel(alice, length=3),
                                 system.form_reply_tunnel(alice, length=3))
        assert not result.success and result.broken is None
        assert result.failure_reason.startswith("decryption:")
        assert alice.pending_replies == {}


class TestPendingReplyOwnership:
    """Every exit of a retrieval — and an exception — leaves no reply
    callback registered under the tunnel's bid, so a late or replayed
    reply walk cannot report success for a request already answered."""

    def _tunnels(self, system, alice):
        return (system.form_tunnel(alice, length=3),
                system.form_reply_tunnel(alice, length=3))

    def test_after_success(self, system, alice, published):
        fwd, rpl = self._tunnels(system, alice)
        assert system.retrieve(alice, published[0], fwd, rpl).success
        assert alice.pending_replies == {}

    def test_after_forward_failure(self, system, alice, published):
        fwd, rpl = self._tunnels(system, alice)
        system.fail_nodes(list(system.store.holders(fwd.hops[0].hop_id)),
                          repair_after=False)
        result = system.retrieve(alice, published[0], fwd, rpl)
        assert result.failure_reason.startswith("forward")
        assert alice.pending_replies == {}

    def test_after_responder_could_not_serve(self, system, alice):
        fwd, rpl = self._tunnels(system, alice)
        result = system.retrieve(alice, 777777, fwd, rpl)
        assert "responder" in result.failure_reason
        assert alice.pending_replies == {}

    def test_after_reply_failure(self, system, alice, published):
        fwd, rpl = self._tunnels(system, alice)
        system.fail_nodes(list(system.store.holders(rpl.hops[1].hop_id)),
                          repair_after=False)
        result = system.retrieve(alice, published[0], fwd, rpl)
        assert result.failure_reason.startswith("reply")
        assert alice.pending_replies == {}

    def test_after_decryption_failure(self, system, alice, published, monkeypatch):
        fwd, rpl = self._tunnels(system, alice)
        send_reply = system.forwarder.send_reply
        monkeypatch.setattr(
            system.forwarder, "send_reply",
            lambda src, hop, blob, payload: send_reply(
                src, hop, blob, pack_fields(b"not sealed", b"not wrapped")),
        )
        result = system.retrieve(alice, published[0], fwd, rpl)
        assert result.failure_reason.startswith("decryption")
        assert alice.pending_replies == {}

    def test_after_exception_inside_deliver(self, system, alice, published, monkeypatch):
        fwd, rpl = self._tunnels(system, alice)

        def boom(responder_id, payload):
            raise RuntimeError("responder crashed")

        monkeypatch.setattr(system.retrieval, "_responder_serve", boom)
        with pytest.raises(RuntimeError, match="responder crashed"):
            system.retrieve(alice, published[0], fwd, rpl)
        assert alice.pending_replies == {}


class TestAccounting:
    def test_underlying_hops_positive(self, system, alice, published):
        fid, _ = published
        result = system.retrieve(
            alice, fid,
            system.form_tunnel(alice, length=2),
            system.form_reply_tunnel(alice, length=2),
        )
        assert result.total_underlying_hops >= result.forward_trace.overlay_hops

    def test_optimised_tunnels_cut_hops(self, system, alice, published):
        fid, _ = published
        basic = system.retrieve(
            alice, fid,
            system.form_tunnel(alice, length=3),
            system.form_reply_tunnel(alice, length=3),
        )
        hinted = system.retrieve(
            alice, fid,
            system.form_tunnel(alice, length=3, use_hints=True),
            system.form_reply_tunnel(alice, length=3),
        )
        assert hinted.forward_trace.underlying_hops <= basic.forward_trace.underlying_hops


class TestAnswerEnvelope:
    """``open_answer`` decodes the envelope as views into the payload
    it is handed: any buffer type opens alike, and every malformed,
    foreign or tampered envelope raises :class:`EnvelopeError` only."""

    @pytest.fixture(scope="class")
    def keys(self):
        rng = random.Random(34)
        return RsaKeyPair.generate(rng, 512), RsaKeyPair.generate(rng, 512)

    @pytest.fixture(scope="class")
    def envelope(self, keys):
        body = bytes(range(256)) * 40
        return body, seal_answer(body, keys[0].public, random.Random(7))

    def test_bytes_and_bytearray_open_alike(self, keys, envelope):
        body, payload = envelope
        for buffer in (payload, bytearray(payload)):
            opened = open_answer(buffer, keys[0])
            assert opened == body and type(opened) is bytes

    def test_truncated_tampered_and_foreign_raise_envelope_error(self, keys, envelope):
        _, payload = envelope
        bad = [payload[:cut] for cut in (0, 3, 4, 50, len(payload) - 1)]
        for at in (0, 3, 4, 20, len(payload) // 2, len(payload) - 70, len(payload) - 1):
            tampered = bytearray(payload)
            tampered[at] ^= 0x01
            bad.append(bytes(tampered))
        for buffer in bad:
            with pytest.raises(EnvelopeError):
                open_answer(buffer, keys[0])
        with pytest.raises(EnvelopeError):
            open_answer(payload, keys[1])  # wrapped for another K_I
