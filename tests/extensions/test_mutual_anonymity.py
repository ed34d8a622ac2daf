"""Tests for hidden services (mutual anonymity extension)."""

from types import SimpleNamespace

import pytest

from repro.core.node import PendingReply
from repro.extensions import mutual_anonymity
from repro.extensions.mutual_anonymity import (
    MutualAnonymity,
    ServiceError,
    ServiceRecord,
    service_id,
)


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def mutual(system):
    return MutualAnonymity(system)


@pytest.fixture()
def provider(system):
    node = system.tap_node(system.random_node_id("provider"))
    system.deploy_thas(node, count=12)
    return node


@pytest.fixture()
def requester(system):
    node = system.tap_node(system.random_node_id("requester"))
    system.deploy_thas(node, count=12)
    return node


@pytest.fixture()
def service(mutual, provider):
    return mutual.publish_service(
        provider, b"hidden-wiki", handler=lambda req: b"served:" + req
    )


class TestServiceRecord:
    def test_roundtrip(self, mutual, service):
        record = mutual.lookup(b"hidden-wiki")
        assert record.entry_hop_id == service.inbound.hop_ids[0]
        assert record.public_key.to_bytes() == service.keypair.public.to_bytes()

    def test_record_does_not_name_provider(self, mutual, service, provider):
        """The anonymity root: the DHT record pins hop ids and a key,
        never the provider's node id or IP."""
        record = mutual.lookup(b"hidden-wiki")
        blob = record.encode()
        assert provider.node_id.to_bytes(16, "big") not in blob
        assert provider.ip.encode() not in blob

    def test_service_id_deterministic(self):
        assert service_id(b"x") == service_id(b"x")
        assert service_id(b"x") != service_id(b"y")

    def test_malformed_record_rejected(self):
        with pytest.raises(ServiceError):
            ServiceRecord.decode(b"garbage")


class TestCalls:
    def test_end_to_end(self, system, mutual, service, requester):
        fwd = system.form_tunnel(requester, length=3)
        rpl = system.form_reply_tunnel(requester, length=3)
        response, trace = mutual.call(
            requester, b"hidden-wiki", b"GET /index", fwd, rpl
        )
        assert trace.success
        assert response == b"served:GET /index"
        assert service.served == 1

    def test_multiple_calls(self, system, mutual, service, requester):
        for i in range(3):
            fwd = system.form_tunnel(requester, length=2)
            rpl = system.form_reply_tunnel(requester, length=2)
            response, _ = mutual.call(
                requester, b"hidden-wiki", f"req{i}".encode(), fwd, rpl
            )
            assert response == f"served:req{i}".encode()
            system.retire_tunnel(requester, fwd)
            system.retire_tunnel(requester, rpl)
        assert service.served == 3

    def test_requester_leg_never_touches_provider(self, system, mutual, service,
                                                  requester, provider):
        """The requester's observable trace ends at the service entry
        hop, not at the provider."""
        fwd = system.form_tunnel(requester, length=3)
        rpl = system.form_reply_tunnel(requester, length=3)
        _, trace = mutual.call(requester, b"hidden-wiki", b"x", fwd, rpl)
        assert trace.destination == service.inbound.hop_ids[0]
        entry_root = system.network.closest_alive(service.inbound.hop_ids[0])
        assert trace.exit_path[-1] == entry_root

    def test_provider_never_sees_requester(self, system, mutual, provider, requester):
        """The handler's entire view is the request body."""
        seen = []
        mutual.publish_service(provider, b"spy-check", handler=lambda b: (seen.append(b) or b""))
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        mutual.call(requester, b"spy-check", b"just-the-body", fwd, rpl)
        assert seen == [b"just-the-body"]

    def test_call_leaves_no_pending_reply(self, system, mutual, service, requester):
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        response, _ = mutual.call(requester, b"hidden-wiki", b"x", fwd, rpl)
        assert response == b"served:x"
        assert requester.pending_replies == {}

    def test_handler_exception_leaves_no_pending_reply(self, system, mutual,
                                                       provider, requester):
        def crash(request: bytes) -> bytes:
            raise RuntimeError("handler crashed")

        mutual.publish_service(provider, b"crashy", handler=crash)
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        with pytest.raises(RuntimeError, match="handler crashed"):
            mutual.call(requester, b"crashy", b"x", fwd, rpl)
        assert requester.pending_replies == {}

    def test_unknown_service(self, system, mutual, requester):
        from repro.past.storage import StorageError

        with pytest.raises(StorageError):
            mutual.lookup(b"no-such-service")


class TestWithdrawal:
    def test_withdrawn_service_stops_answering(self, system, mutual, service,
                                               provider, requester):
        bid = service.inbound.bid
        mutual.withdraw_service(service)

        assert provider.pending_replies == {}
        assert not any(tha.in_use for tha in service.inbound.hops)
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        response, _ = mutual.call(requester, b"hidden-wiki", b"x", fwd, rpl)
        assert response is None and service.served == 0
        assert provider.pending_replies == requester.pending_replies == {}
        # the bid is free again
        provider.register_pending(PendingReply(bid=bid, callback=lambda p: None))


class TestUndersizedResponseKey:
    def test_request_dropped_without_raising(self, system, mutual, service,
                                             requester, monkeypatch):
        """A 65-bit ``K_I`` fails at the provider's decoding and the
        request is dropped as malformed; nothing raises out of ``call``
        (before the 256-bit floor, ``encrypt`` raised a bare
        ``ValueError`` on it)."""
        tiny = ((1 << 64) | 1).to_bytes(9, "big") + (65537).to_bytes(4, "big")
        stub = SimpleNamespace(public=SimpleNamespace(to_bytes=lambda: tiny))
        monkeypatch.setattr(mutual_anonymity, "RsaKeyPair",
                            SimpleNamespace(generate=lambda rng, bits: stub))
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        response, trace = mutual.call(requester, b"hidden-wiki", b"x", fwd, rpl)
        assert trace.success and response is None
        assert service.served == 0
        assert requester.pending_replies == {}


class TestShortFileKey:
    def test_answer_dropped_without_raising(self, system, mutual, service,
                                            requester, monkeypatch):
        """A provider answering with a 4-byte ``K_f`` under ``K_I``:
        the call returns no response instead of raising."""
        from tests.conftest import seal_short_key_answer

        monkeypatch.setattr(mutual_anonymity, "seal_answer", seal_short_key_answer)
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        response, trace = mutual.call(requester, b"hidden-wiki", b"x", fwd, rpl)
        assert trace.success and response is None
        assert service.served == 1
        assert requester.pending_replies == {}


class TestFaultTolerance:
    def test_service_survives_inbound_hop_failure(self, system, mutual, service,
                                                  requester):
        """TAP's replica fail-over extends to the hidden service's
        inbound tunnel: kill its hop nodes, calls keep succeeding."""
        for tha in service.inbound.hops:
            system.fail_node(system.network.closest_alive(tha.hop_id))
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        response, trace = mutual.call(requester, b"hidden-wiki", b"ping", fwd, rpl)
        assert trace.success
        assert response == b"served:ping"

    def test_record_survives_record_holder_failure(self, system, mutual, service,
                                                   requester):
        key = service.record_key
        system.fail_node(system.store.network.closest_alive(key))
        record = mutual.lookup(b"hidden-wiki")
        assert record.entry_hop_id == service.inbound.hop_ids[0]

    def test_broken_inbound_tunnel_fails_closed(self, system, mutual, service,
                                                requester):
        holders = list(system.store.holders(service.inbound.hops[1].hop_id))
        system.fail_nodes(holders, repair_after=False)
        fwd = system.form_tunnel(requester, length=2)
        rpl = system.form_reply_tunnel(requester, length=2)
        response, trace = mutual.call(requester, b"hidden-wiki", b"ping", fwd, rpl)
        assert response is None  # no answer, but no identity leak either
