"""Tests for the authenticated stream cipher."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.symmetric import _TAG_BYTES, CipherError, SymmetricKey


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 HMAC over SHA-256, written out from the definition: the
    reference for the tag ``SymmetricKey.seal`` computes from its
    pre-primed pad states."""
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\x00")
    o_key = bytes(b ^ 0x5C for b in key)
    i_key = bytes(b ^ 0x36 for b in key)
    inner = hashlib.sha256(i_key + message).digest()
    return hashlib.sha256(o_key + inner).digest()


class TestHmac:
    """The RFC 2104 reference must match the stdlib exactly."""

    @given(key=st.binary(min_size=1, max_size=100), msg=st.binary(max_size=200))
    def test_matches_stdlib(self, key, msg):
        ours = _hmac_sha256(key, msg)
        theirs = stdlib_hmac.new(key, msg, hashlib.sha256).digest()
        assert ours == theirs

    def test_long_key_hashed_first(self):
        key = b"k" * 100  # longer than the 64-byte block
        assert _hmac_sha256(key, b"m") == stdlib_hmac.new(
            key, b"m", hashlib.sha256
        ).digest()

    @given(plaintext=st.binary(max_size=500))
    def test_seal_tag_is_the_reference_hmac(self, plaintext):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = key.seal(plaintext)
        assert sealed[-_TAG_BYTES:] == _hmac_sha256(key._mac_key, sealed[:-_TAG_BYTES])


class TestSealOpen:
    @given(plaintext=st.binary(max_size=500))
    def test_roundtrip(self, plaintext):
        key = SymmetricKey(b"0123456789abcdef")
        assert key.open(key.seal(plaintext)) == plaintext

    def test_distinct_key_instances_interoperate(self):
        a = SymmetricKey(b"0123456789abcdef")
        b = SymmetricKey(b"0123456789abcdef")
        assert b.open(a.seal(b"msg")) == b"msg"

    def test_wrong_key_rejected(self):
        a = SymmetricKey(b"0123456789abcdef")
        b = SymmetricKey(b"fedcba9876543210")
        with pytest.raises(CipherError):
            b.open(a.seal(b"msg"))

    def test_tampered_ciphertext_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(b"payload"))
        sealed[10] ^= 0x01
        with pytest.raises(CipherError):
            key.open(bytes(sealed))

    def test_tampered_tag_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(CipherError):
            key.open(bytes(sealed))

    def test_tag_with_only_its_first_byte_flipped_rejected(self):
        """The other end of the tag from ``test_tampered_tag_rejected``:
        31 of 32 bytes right is still a mismatch."""
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(b"payload"))
        sealed[-_TAG_BYTES] ^= 0x80
        with pytest.raises(CipherError):
            key.open(bytes(sealed))

    def test_truncated_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        with pytest.raises(CipherError):
            key.open(b"short")

    def test_nonces_differ_between_seals(self):
        key = SymmetricKey(b"0123456789abcdef")
        s1 = key.seal(b"same")
        s2 = key.seal(b"same")
        assert s1 != s2  # deterministic counter nonce advances

    def test_explicit_nonce_reproducible(self):
        key = SymmetricKey(b"0123456789abcdef")
        n = b"\x00" * 8
        assert key.seal(b"m", nonce=n) == key.seal(b"m", nonce=n)

    def test_bad_nonce_length_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        for nonce in (b"short", b"\x00" * 9, bytearray(7), memoryview(b"\x00" * 9)):
            with pytest.raises(ValueError):
                key.seal(b"m", nonce=nonce)

    def test_overhead_constant(self):
        key = SymmetricKey(b"0123456789abcdef")
        for size in (0, 1, 100, 1000):
            assert len(key.seal(b"x" * size)) == size + SymmetricKey.overhead()

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")

    def test_empty_plaintext(self):
        key = SymmetricKey(b"0123456789abcdef")
        assert key.open(key.seal(b"")) == b""

    @given(
        plaintext=st.binary(min_size=1, max_size=64),
        flip=st.integers(min_value=0, max_value=7),
    )
    def test_any_single_bit_flip_detected(self, plaintext, flip):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(plaintext, nonce=b"\x01" * 8))
        byte = flip % len(sealed)
        sealed[byte] ^= 1 << (flip % 8)
        with pytest.raises(CipherError):
            key.open(bytes(sealed))
