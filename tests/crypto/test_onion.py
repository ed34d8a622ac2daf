"""Tests for layered onion construction/peeling (§2, §4, §5)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.onion import (
    TAG_EXIT,
    TAG_RELAY,
    OnionLayer,
    PeeledLayer,
    _decode_layer,
    _encode_layer,
    build_onion,
    build_reply_onion,
    make_fake_onion,
    peel_layer,
)
from repro.crypto.symmetric import CipherError, SymmetricKey
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields_view,
    unpack_int,
)


def _layers(n: int, with_hints: bool = False) -> list[OnionLayer]:
    out = []
    for i in range(n):
        key = SymmetricKey(bytes([i + 1]) * 16)
        hint = f"10.0.0.{i + 1}" if with_hints else ""
        out.append(OnionLayer(hop_id=1000 + i, key=key, ip_hint=hint))
    return out


class TestForwardOnion:
    def test_three_hop_structure(self):
        """Mirrors Fig. 1: {h2, {h3, {D, m}K3}K2}K1."""
        layers = _layers(3)
        blob = build_onion(layers, destination_id=77, payload=b"m")

        p1 = peel_layer(layers[0].key, blob)
        assert not p1.is_exit and p1.next_id == layers[1].hop_id

        p2 = peel_layer(layers[1].key, p1.inner)
        assert not p2.is_exit and p2.next_id == layers[2].hop_id

        p3 = peel_layer(layers[2].key, p2.inner)
        assert p3.is_exit and p3.next_id == 77 and p3.inner == b"m"

    def test_single_hop(self):
        layers = _layers(1)
        p = peel_layer(layers[0].key, build_onion(layers, 5, b"x"))
        assert p.is_exit and p.next_id == 5 and p.inner == b"x"

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            build_onion([], 5, b"x")

    def test_hints_ride_in_layers(self):
        layers = _layers(3, with_hints=True)
        blob = build_onion(layers, 77, b"m")
        p1 = peel_layer(layers[0].key, blob)
        # Layer 1 reveals the *next* hop's hint.
        assert p1.ip_hint == layers[1].ip_hint
        p2 = peel_layer(layers[1].key, p1.inner)
        assert p2.ip_hint == layers[2].ip_hint

    def test_wrong_key_cannot_peel(self):
        layers = _layers(2)
        blob = build_onion(layers, 1, b"x")
        with pytest.raises(CipherError):
            peel_layer(layers[1].key, blob)

    def test_intermediate_hop_cannot_see_payload(self):
        layers = _layers(3)
        blob = build_onion(layers, 77, b"super-secret")
        p1 = peel_layer(layers[0].key, blob)
        assert b"super-secret" not in p1.inner

    @given(
        n=st.integers(min_value=1, max_value=6),
        payload=st.binary(max_size=100),
        dest=st.integers(min_value=0, max_value=(1 << 128) - 1),
    )
    @settings(max_examples=50)
    def test_full_peel_recovers_payload(self, n, payload, dest):
        layers = _layers(n)
        blob = build_onion(layers, dest, payload)
        for layer in layers[:-1]:
            p = peel_layer(layer.key, blob)
            assert not p.is_exit
            blob = p.inner
        final = peel_layer(layers[-1].key, blob)
        assert final.is_exit and final.next_id == dest and final.inner == payload


class TestReplyOnion:
    def test_structure_all_relay(self):
        """T_r = {hid1,{hid2,{hid3,{bid, fakeonion}K3}K2}K1}: every
        layer, including the last, peels to a RELAY — the tail cannot
        recognise itself (§4)."""
        layers = _layers(3)
        fake = make_fake_onion(random.Random(0))
        first, blob = build_reply_onion(layers, bid=4242, fake_onion=fake)
        assert first == layers[0].hop_id

        p1 = peel_layer(layers[0].key, blob)
        assert not p1.is_exit and p1.next_id == layers[1].hop_id
        p2 = peel_layer(layers[1].key, p1.inner)
        assert not p2.is_exit and p2.next_id == layers[2].hop_id
        p3 = peel_layer(layers[2].key, p2.inner)
        assert not p3.is_exit  # indistinguishable from one more hop
        assert p3.next_id == 4242
        assert p3.inner == fake

    def test_fake_onion_required(self):
        with pytest.raises(ValueError):
            build_reply_onion(_layers(2), bid=1, fake_onion=b"")

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            build_reply_onion([], bid=1, fake_onion=b"x")

    def test_fake_onion_unpeelable(self):
        """Treating the fakeonion as a real layer fails exactly like a
        layer sealed under an unknown key."""
        layers = _layers(1)
        fake = make_fake_onion(random.Random(0))
        _, blob = build_reply_onion(layers, bid=1, fake_onion=fake)
        p = peel_layer(layers[0].key, blob)
        with pytest.raises(CipherError):
            peel_layer(SymmetricKey(b"z" * 16), p.inner)


class TestFakeOnion:
    def test_sized_like_layers(self):
        small = make_fake_onion(random.Random(0), approx_layers=1)
        big = make_fake_onion(random.Random(0), approx_layers=4)
        assert len(big) > len(small)

    def test_random_content(self):
        a = make_fake_onion(random.Random(1))
        b = make_fake_onion(random.Random(2))
        assert a != b

    def test_deterministic_per_seed(self):
        assert make_fake_onion(random.Random(3)) == make_fake_onion(random.Random(3))


class TestMalformedLayers:
    def test_garbage_plaintext_rejected(self):
        key = SymmetricKey(b"k" * 16)
        sealed = key.seal(b"not a valid layer")
        with pytest.raises(CipherError):
            peel_layer(key, sealed)

    def test_unknown_tag_rejected(self):
        from repro.util.serialize import pack_fields, pack_int

        key = SymmetricKey(b"k" * 16)
        bogus = key.seal(pack_fields(b"X", pack_int(1), b"", b"inner"))
        with pytest.raises(CipherError):
            peel_layer(key, bogus)


# ---------------------------------------------------------------------
# the fixed-layout codec against the definition it replaced
# ---------------------------------------------------------------------
def _oracle_encode(tag: bytes, next_id: int, ip_hint: str, inner: bytes) -> bytes:
    """A layer *is* four length-prefixed fields — the generic framing
    the codec used to go through, kept as the specification."""
    return pack_fields(tag, pack_int(next_id), ip_hint.encode(), inner)


def _oracle_decode(plaintext: bytes) -> PeeledLayer:
    try:
        tag, id_bytes, hint_bytes, inner = unpack_fields_view(plaintext, count=4)
        next_id = unpack_int(id_bytes)
    except SerializationError as exc:
        raise CipherError(f"malformed onion layer: {exc}") from exc
    if tag == TAG_RELAY:
        return PeeledLayer(False, next_id, bytes(hint_bytes).decode(), bytes(inner))
    if tag == TAG_EXIT:
        return PeeledLayer(True, next_id, bytes(hint_bytes).decode(), bytes(inner))
    raise CipherError(f"unknown onion layer tag {bytes(tag)!r}")


def _verdict(decode, plaintext: bytes):
    """What ``decode`` makes of ``plaintext``: the layer, or ``None``
    for any refusal (the oracle also refuses by ``UnicodeDecodeError``)."""
    try:
        return decode(plaintext)
    except (CipherError, UnicodeDecodeError):
        return None


HINTS = ("", "10.0.0.7", "255.255.255.255", "h" * 300, "nœud-α.例", "\x00")
INNER_SIZES = (0, 1, 31, 32, 33, 4096)
tags_st = st.sampled_from([TAG_RELAY, TAG_EXIT])
ids_st = st.integers(min_value=0, max_value=(1 << 128) - 1)
hints_st = st.one_of(st.sampled_from(HINTS), st.text(max_size=40))
inners_st = st.sampled_from(INNER_SIZES).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


def _mutations(layer: bytes, hint_len: int):
    """Damaged variants of one encoded layer, each with a label."""
    for cut in range(len(layer)):
        yield f"truncated to {cut}", layer[:cut]
    framing = 29 + hint_len + 4  # everything but the inner blob
    for at in range(framing):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(layer)
            damaged[at] ^= mask
            yield f"byte {at} ^ {mask:#x}", bytes(damaged)
    for extra in (b"\x00", b"\x00\x00\x00\x00", layer):
        yield f"{len(extra)} trailing bytes", layer + extra
    for name, at in (("tag", 0), ("id", 5), ("hint", 25), ("inner", 29 + hint_len)):
        length = int.from_bytes(layer[at:at + 4], "big")
        for delta in (-1, 1):
            if length + delta >= 0:
                yield f"{name} length {delta:+d}", (
                    layer[:at] + (length + delta).to_bytes(4, "big") + layer[at + 4:]
                )


class TestCodecAgainstOracle:
    @given(tag=tags_st, next_id=ids_st, hint=hints_st, inner=inners_st)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_bytes_same_layer(self, tag, next_id, hint, inner):
        encoded = _encode_layer(tag, next_id, hint, inner)
        assert encoded == _oracle_encode(tag, next_id, hint, inner)
        layer = _decode_layer(encoded)
        assert layer == _oracle_decode(encoded)
        assert layer == PeeledLayer(tag == TAG_EXIT, next_id, hint, inner)

    @pytest.mark.parametrize("next_id", [-1, 1 << 128])
    def test_unencodable_id_is_a_serialization_error(self, next_id):
        for encode in (_encode_layer, _oracle_encode):
            with pytest.raises(SerializationError):
                encode(TAG_RELAY, next_id, "", b"x")

    @pytest.mark.parametrize("hint", ["", "10.0.0.7", "nœud-α.例"])
    @pytest.mark.parametrize("inner_size", [0, 1, 33])
    def test_damaged_layers_same_verdict(self, hint, inner_size):
        key = SymmetricKey(b"k" * 16)
        inner = bytes(range(inner_size))
        layer = _encode_layer(TAG_RELAY, (1 << 127) + 5, hint, inner)
        cases = list(_mutations(layer, len(hint.encode())))
        fields = (pack_int((1 << 127) + 5), hint.encode(), inner)
        cases += [
            ("tag length 0", pack_fields(b"", *fields)),
            ("tag length 2", pack_fields(b"RR", *fields)),
            ("unknown tag", pack_fields(b"X", *fields)),
            ("id length 15", pack_fields(TAG_RELAY, fields[0][1:], *fields[1:])),
            ("id length 17", pack_fields(TAG_RELAY, b"\x00" + fields[0], *fields[1:])),
            ("three fields", pack_fields(TAG_RELAY, *fields[:2])),
            ("five fields", pack_fields(TAG_RELAY, *fields, b"")),
        ]
        accepted = 0
        for label, damaged in cases:
            want = _verdict(_oracle_decode, damaged)
            assert _verdict(_decode_layer, damaged) == want, label
            accepted += want is not None
            # whatever the hop was sent, only CipherError leaves peel_layer
            if want is None:
                with pytest.raises(CipherError):
                    peel_layer(key, key.seal(damaged))
            else:
                assert peel_layer(key, key.seal(damaged)) == want, label
        # damage to the id or the hint text can still be a well-formed layer
        assert 0 < accepted < len(cases)
