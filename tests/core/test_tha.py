"""Tests for tunnel hop anchors (§3.1–§3.2)."""

import random

import pytest

from repro.core.tha import (
    OwnedTha,
    TunnelHopAnchor,
    generate_tha,
    tha_value_decode,
    tha_value_encode,
)
from repro.crypto.hashing import hash_password
from repro.crypto.symmetric import SymmetricKey


def _fields(anchor: TunnelHopAnchor) -> tuple:
    """What an anchor holds, by value: keys compare by identity."""
    return anchor.hop_id, anchor.key.key_bytes, anchor.pw_hash


class TestGeneration:
    def test_owner_holds_secrets(self):
        tha = generate_tha(b"node-a", b"hkey", 1, random.Random(1))
        assert hash_password(tha.pw) == tha.anchor.pw_hash
        assert not tha.deployed
        assert tha.created_at == 1

    def test_hopid_node_specific(self):
        a = generate_tha(b"node-a", b"hkey", 1, random.Random(1))
        b = generate_tha(b"node-b", b"hkey", 1, random.Random(1))
        assert a.hop_id != b.hop_id

    def test_hopid_unlinkable_without_hkey(self):
        """Same node, same time, different hkey -> different hopid: an
        observer who knows node identifiers but not hkeys cannot link
        by recomputation (§3.2)."""
        a = generate_tha(b"node-a", b"hkey1", 1, random.Random(1))
        b = generate_tha(b"node-a", b"hkey2", 1, random.Random(1))
        assert a.hop_id != b.hop_id

    def test_timestamps_give_fresh_hopids(self):
        rng = random.Random(1)
        ids = {generate_tha(b"n", b"h", t, rng).hop_id for t in range(100)}
        assert len(ids) == 100

    def test_key_and_pw_are_random_not_derived(self):
        a = generate_tha(b"n", b"h", 1, random.Random(1))
        b = generate_tha(b"n", b"h", 1, random.Random(2))
        assert a.hop_id == b.hop_id  # deterministic hash
        assert a.anchor.key.key_bytes != b.anchor.key.key_bytes  # random material
        assert a.pw != b.pw

    def test_no_collisions_across_many_nodes(self):
        rng = random.Random(3)
        hopids = {
            generate_tha(f"node-{n}".encode(), b"h", t, rng).hop_id
            for n in range(40)
            for t in range(25)
        }
        assert len(hopids) == 1000


class TestAnchorValidation:
    def test_pw_hash_length_enforced(self):
        with pytest.raises(ValueError):
            TunnelHopAnchor(1, SymmetricKey(b"k" * 16), b"short")

    def test_frozen(self):
        anchor = TunnelHopAnchor(1, SymmetricKey(b"k" * 16), hash_password(b"x"))
        with pytest.raises(AttributeError):
            anchor.hop_id = 2  # type: ignore[misc]


class TestValueEncoding:
    def test_roundtrip(self):
        tha = generate_tha(b"n", b"h", 1, random.Random(1))
        blob = tha_value_encode(tha.anchor)
        decoded = tha_value_decode(tha.hop_id, blob)
        assert _fields(decoded) == _fields(tha.anchor)

    def test_value_contains_key_and_pw_hash_only(self):
        """The stored 'file content' is K + H(PW) (§3.1): the PW itself
        must never be serialised."""
        tha = generate_tha(b"n", b"h", 1, random.Random(1))
        blob = tha_value_encode(tha.anchor)
        assert tha.anchor.key.key_bytes in blob
        assert tha.anchor.pw_hash in blob
        assert tha.pw not in blob

    def test_owned_accessors(self):
        tha = generate_tha(b"n", b"h", 7, random.Random(1))
        assert tha.hop_id == tha.anchor.hop_id


def _blob(index: int) -> bytes:
    """A distinct well-formed stored value."""
    key = index.to_bytes(16, "big")
    return tha_value_encode(TunnelHopAnchor(0, SymmetricKey(key), hash_password(key)))


class TestDecodeCache:
    """``tha_value_decode`` is memoised by content (one bounded LRU)."""

    def test_repeat_decode_is_the_same_anchor_and_primes_no_key(self, key_inits):
        blob = _blob(1 << 100)
        key_inits.clear()
        first = tha_value_decode(7, blob)
        assert len(key_inits) == 1
        for _ in range(5):
            assert tha_value_decode(7, bytes(bytearray(blob))) is first
        assert len(key_inits) == 1

    def test_keyed_by_hop_id_and_content(self):
        blob = _blob(1 << 101)
        rotten = blob[:4] + bytes([blob[4] ^ 1]) + blob[5:]  # first key byte
        a = tha_value_decode(7, blob)
        b = tha_value_decode(8, blob)
        c = tha_value_decode(7, rotten)
        assert (a.hop_id, b.hop_id) == (7, 8)
        assert a.key.key_bytes == b.key.key_bytes and a is not b
        assert c is not a and c.key.key_bytes != a.key.key_bytes and c.pw_hash == a.pw_hash

    @pytest.mark.parametrize("wrap", [bytearray, memoryview],
                             ids=["bytearray", "memoryview"])
    def test_any_bytes_like_value_is_normalised(self, wrap):
        blob = _blob(1 << 102)
        assert tha_value_decode(7, wrap(blob)) is tha_value_decode(7, blob)

    def test_malformed_value_raises_every_time(self):
        from repro.core.tha import _decode_anchor
        from repro.util.serialize import SerializationError

        truncated = _blob(1 << 103)[:-1]
        before = _decode_anchor.cache_info().currsize
        for _ in range(3):
            with pytest.raises(SerializationError):
                tha_value_decode(7, truncated)
        assert _decode_anchor.cache_info().currsize == before

    @pytest.mark.parametrize("key, pw_hash", [
        (b"k" * 7, hash_password(b"x")),      # key under 8 bytes
        (b"k" * 16, hash_password(b"x")[:31]),  # H(PW) not 32 bytes
        (b"k" * 16, hash_password(b"x") + b"\x00"),
    ], ids=["short-key", "short-pw-hash", "long-pw-hash"])
    def test_malformed_field_is_a_serialization_error(self, key, pw_hash):
        """A value that frames but holds no valid anchor fails the way
        a value that does not frame does, not as a bare ``ValueError``."""
        from repro.util.serialize import SerializationError, pack_fields

        with pytest.raises(SerializationError, match="malformed THA value"):
            tha_value_decode(7, pack_fields(key, pw_hash))

    def test_cache_is_bounded(self):
        from repro.core.tha import _ANCHOR_CACHE_SIZE, _decode_anchor

        assert _decode_anchor.cache_info().maxsize == _ANCHOR_CACHE_SIZE == 1024
        oldest = tha_value_decode(0, _blob(1 << 104))
        for index in range(_ANCHOR_CACHE_SIZE + 10):
            tha_value_decode(9, _blob(index))
        assert _decode_anchor.cache_info().currsize == _ANCHOR_CACHE_SIZE
        # evicted, so decoded afresh: equal, not identical
        again = tha_value_decode(0, _blob(1 << 104))
        assert _fields(again) == _fields(oldest) and again is not oldest
