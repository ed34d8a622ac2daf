"""Regression tests for the optimised crypto hot path.

The seal/open fast path (pre-primed HMAC pads, primed XOF state, one
squeeze, an XOR of two big ints up to ``_INT_XOR_MAX`` bytes and one
vector XOR beyond, slicing whatever buffer ``open`` is handed) must
stay byte-identical to the reference construction at every size class
the keystream and the XOR distinguish, on both XOR paths, accept every
buffer type its callers hand it, and survive the 8-byte nonce-counter
boundary.
"""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.symmetric import (
    _INT_XOR_MAX,
    _NONCE_MODULUS,
    CipherError,
    SymmetricKey,
)

KEY = b"k" * 32


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The keystream from its definition: ``SHAKE-256(key || nonce)``
    squeezed to ``length`` bytes (the reference the fast path must equal)."""
    return hashlib.shake_256(key + nonce).digest(length)

#: the size classes the construction distinguishes: empty, one byte,
#: a few bytes either side of a 32-byte word multiple, either side of
#: the 136-byte SHAKE-256 rate, either side of the int/NumPy XOR
#: crossover, the largest session layer (429 B), many squeezes, and the
#: paper's 2 Mb file
SIZE_CLASSES = (0, 1, 31, 32, 33, 135, 136, 137, _INT_XOR_MAX, _INT_XOR_MAX + 1,
                429, 4096, 262144)


class TestSizeClasses:
    @pytest.mark.parametrize("size", SIZE_CLASSES)
    def test_roundtrip(self, size):
        key = SymmetricKey(KEY)
        plaintext = bytes(range(256)) * (size // 256 + 1)
        plaintext = plaintext[:size]
        opened = SymmetricKey(KEY).open(key.seal(plaintext))
        assert opened == plaintext
        assert isinstance(opened, bytes)

    @pytest.mark.parametrize("size", SIZE_CLASSES)
    def test_stream_matches_reference_keystream(self, size):
        """The primed-copy squeeze and the vector XOR must equal a
        byte-by-byte XOR with the from-definition keystream."""
        key = SymmetricKey(KEY)
        nonce = (5).to_bytes(8, "big")
        plaintext = b"\xa5" * size
        sealed = key.seal(plaintext, nonce=nonce)
        ct = sealed[8:-32]
        stream = _keystream(key._enc_key, nonce, size)
        assert len(stream) == size
        assert ct == bytes(p ^ s for p, s in zip(plaintext, stream))

    def test_keystream_prefix_property(self):
        """XOF property: the stream for ``n`` bytes is a prefix of the
        stream for ``m > n``, so a message's keystream does not depend
        on its length; distinct nonces give distinct streams."""
        nonce = (5).to_bytes(8, "big")
        longest = _keystream(KEY, nonce, max(SIZE_CLASSES))
        for size in SIZE_CLASSES:
            assert _keystream(KEY, nonce, size) == longest[:size]
        other = _keystream(KEY, (6).to_bytes(8, "big"), 136)
        assert other != longest[:136]

    @pytest.mark.parametrize("size", (0, 137, _INT_XOR_MAX, _INT_XOR_MAX + 1, 4096))
    def test_open_accepts_any_buffer(self, size):
        """``open`` takes ``bytes``, ``bytearray`` and a ``memoryview``
        slice at a non-zero offset (what ``open_answer`` hands it),
        returns ``bytes`` every time, and rejects every one of them
        truncated or with its nonce, first ciphertext byte or tag
        tampered."""
        key = SymmetricKey(KEY)
        plaintext = b"\x5a" * size
        sealed = key.seal(plaintext)
        framed = memoryview(b"hdr" + sealed + b"trailer")[3:3 + len(sealed)]
        for buffer in (sealed, bytearray(sealed), framed):
            opened = key.open(buffer)
            assert opened == plaintext
            assert type(opened) is bytes
            with pytest.raises(CipherError):
                key.open(buffer[:39])
        for at in (0, 8, len(sealed) - 1):
            tampered = bytearray(sealed)
            tampered[at] ^= 0x80
            for buffer in (bytes(tampered), tampered, memoryview(b"h" + tampered)[1:]):
                with pytest.raises(CipherError):
                    key.open(buffer)

    @pytest.mark.parametrize("size", (1, 33, _INT_XOR_MAX, _INT_XOR_MAX + 1))
    def test_all_zero_ciphertext_keeps_its_length(self, size):
        """A plaintext equal to the keystream seals to all-zero bytes:
        the int XOR's result is 0 and must still be written out at the
        full message length."""
        key = SymmetricKey(KEY)
        nonce = (9).to_bytes(8, "big")
        plaintext = _keystream(key._enc_key, nonce, size)
        assert key.seal(plaintext, nonce=nonce)[8:-32] == bytes(size)

    @pytest.mark.parametrize("size", (0, 137, _INT_XOR_MAX + 1))
    def test_seal_returns_bytes_for_any_nonce_buffer(self, size):
        """The output is ``bytes`` whatever buffer the nonce arrives in
        (a ``bytearray`` nonce used to return a ``bytearray``, and a
        ``memoryview`` one raised ``TypeError``)."""
        nonce = (7).to_bytes(8, "big")
        plaintext = b"\x3c" * size
        sealed = [
            SymmetricKey(KEY).seal(plaintext, nonce=buffer)
            for buffer in (nonce, bytearray(nonce), memoryview(b"x" + nonce)[1:])
        ]
        assert [type(s) for s in sealed] == [bytes] * 3
        assert sealed[0] == sealed[1] == sealed[2]
        assert SymmetricKey(KEY).open(sealed[2]) == plaintext

    @given(plaintext=st.binary(max_size=2048))
    def test_roundtrip_fuzz(self, plaintext):
        key = SymmetricKey(KEY)
        assert SymmetricKey(KEY).open(key.seal(plaintext)) == plaintext


class TestNonceCounterBoundary:
    def test_seal_past_the_8_byte_boundary(self):
        """The counter must wrap modulo 2**64 instead of raising
        OverflowError when encoding the nonce (regression: the counter
        used to grow unbounded and explode at 2**64)."""
        key = SymmetricKey(KEY)
        key._nonce_counter = _NONCE_MODULUS - 1
        sealed_wrap = key.seal(b"at the edge")  # counter -> 0
        sealed_next = key.seal(b"after the edge")  # counter -> 1
        assert sealed_wrap[:8] == (0).to_bytes(8, "big")
        assert sealed_next[:8] == (1).to_bytes(8, "big")
        opener = SymmetricKey(KEY)
        assert opener.open(sealed_wrap) == b"at the edge"
        assert opener.open(sealed_next) == b"after the edge"

    def test_wrap_reuses_the_counter_zero_stream(self):
        """Documented consequence of wrapping: the nonce sequence
        repeats, so seal #2**64+1 equals seal #1 for equal plaintext."""
        fresh = SymmetricKey(KEY)
        first = fresh.seal(b"m")
        wrapped = SymmetricKey(KEY)
        wrapped._nonce_counter = _NONCE_MODULUS
        assert wrapped.seal(b"m") == first
