"""Regression tests for the optimised crypto hot path.

The seal/open fast path (pre-primed HMAC pads, one AES-256-CTR context
per key whose counter block each call sets, one ``EVP_EncryptUpdate``
per message, slicing whatever buffer ``open`` is handed) must stay
byte-identical to the reference construction at every size class the
cipher distinguishes, accept every buffer type its callers hand it, and
survive the 8-byte nonce-counter boundary.

The reference keystream is AES-256 in ECB mode over the counter blocks
``nonce || i`` (``i`` a big-endian 64-bit integer): libcrypto's ECB
path, bound here on a handle of its own, shares no mode code with the
CTR path under test.  FIPS-197 pins the ECB binding, and SP 800-38A
pins the module's CTR on a vector with a counter block of its own.
"""

import ctypes

import _hashlib
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import symmetric
from repro.crypto.symmetric import _NONCE_MODULUS, CipherError, SymmetricKey

KEY = b"k" * 32

_ptr, _int, _buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
#: a handle of the test's own, so its typed functions are not the module's
_ECB = ctypes.CDLL(_hashlib.__file__)
symmetric._bind(_ECB, (
    ("EVP_aes_256_ecb", _ptr),
    ("EVP_CIPHER_CTX_new", _ptr),
    ("EVP_CIPHER_CTX_free", None, _ptr),
    ("EVP_CIPHER_CTX_set_padding", _int, _ptr, _int),
    ("EVP_EncryptInit_ex", _int, _ptr, _ptr, _ptr, _buf, _buf),
    ("EVP_EncryptUpdate", _int, _ptr, _buf, ctypes.POINTER(_int), _buf, _int),
))


def _aes256_ecb(key: bytes, blocks: bytes) -> bytes:
    """AES-256 of each 16-byte block of ``blocks`` under ``key``, in
    libcrypto's ECB mode with padding off."""
    assert len(key) == 32 and len(blocks) % 16 == 0
    ctx = _ECB.EVP_CIPHER_CTX_new()
    try:
        out = ctypes.create_string_buffer(len(blocks))
        written = ctypes.c_int()
        assert _ECB.EVP_EncryptInit_ex(ctx, _ECB.EVP_aes_256_ecb(), None, key, None)
        assert _ECB.EVP_CIPHER_CTX_set_padding(ctx, 0)
        assert _ECB.EVP_EncryptUpdate(ctx, out, written, blocks, len(blocks))
        assert written.value == len(blocks)
        return out.raw
    finally:
        _ECB.EVP_CIPHER_CTX_free(ctx)


def keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The keystream from its definition: AES-256 of the counter blocks
    ``nonce || 0``, ``nonce || 1``, … truncated to ``length`` bytes (the
    reference the fast path must equal)."""
    counters = b"".join(bytes(nonce) + i.to_bytes(8, "big")
                        for i in range(-(-length // 16)))
    return _aes256_ecb(key, counters)[:length]


#: the size classes the construction distinguishes: empty, one byte,
#: either side of the 16-byte AES block, a few bytes either side of a
#: 32-byte word multiple, either side of 136 and of 320 (where the
#: former keystream changed rate and XOR path), the largest session
#: layer (429 B), many blocks, and the paper's 2 Mb file
SIZE_CLASSES = (0, 1, 15, 16, 17, 31, 32, 33, 135, 136, 137, 320, 321,
                429, 4096, 262144)


class TestStandardVectors:
    def test_ecb_reference_is_fips_197(self):
        """FIPS-197 App. C.3 (AES-256): the reference's block cipher."""
        key = bytes(range(32))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert _aes256_ecb(key, plaintext).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_module_ctr_is_sp_800_38a(self):
        """SP 800-38A F.5.5 (CTR-AES256.Encrypt), first two blocks,
        through a key's own context re-keyed to the vector's key."""
        key = SymmetricKey(KEY)
        vector_key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
        assert symmetric._LIBCRYPTO.EVP_EncryptInit_ex(key._ctx, None, None, vector_key, None)
        counter_block = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"
                                  "ae2d8a571e03ac9c9eb76fac45af8e51")
        assert key._ctr(counter_block, plaintext).raw.hex() == (
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5")


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
        """The per-key context and its one update must equal a
        byte-by-byte XOR with the from-definition keystream."""
        key = SymmetricKey(KEY)
        nonce = (5).to_bytes(8, "big")
        plaintext = b"\xa5" * size
        sealed = key.seal(plaintext, nonce=nonce)
        ct = sealed[8:-32]
        stream = keystream(key._enc_key, nonce, size)
        assert len(stream) == size
        assert ct == bytes(p ^ s for p, s in zip(plaintext, stream))

    def test_each_call_restarts_the_counter(self):
        """One key, one call after another, at sizes that end inside a
        block: each call's stream starts at its own counter block,
        never where the previous call's stopped."""
        key = SymmetricKey(KEY)
        for i, size in enumerate((17, 15, 1, 16, 33, 5)):
            nonce = (100 + i % 2).to_bytes(8, "big")
            ct = key.seal(bytes(size), nonce=nonce)[8:-32]
            assert ct == keystream(key._enc_key, nonce, size)
            assert key.open(key.seal(b"\x00" * size)) == bytes(size)

    def test_keystream_prefix_property(self):
        """Counter-mode property: the stream for ``n`` bytes is a prefix
        of the stream for ``m > n``, so a message's keystream does not
        depend on its length; distinct nonces give distinct streams."""
        nonce = (5).to_bytes(8, "big")
        longest = keystream(KEY, nonce, max(SIZE_CLASSES))
        for size in SIZE_CLASSES:
            assert keystream(KEY, nonce, size) == longest[:size]
        other = keystream(KEY, (6).to_bytes(8, "big"), 136)
        assert other != longest[:136]

    @pytest.mark.parametrize("size", (0, 15, 16, 17, 137, 320, 321, 4096))
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

    @pytest.mark.parametrize("size", (1, 16, 33, 320, 321))
    def test_all_zero_ciphertext_keeps_its_length(self, size):
        """A plaintext equal to the keystream seals to all-zero bytes,
        written out at the full message length."""
        key = SymmetricKey(KEY)
        nonce = (9).to_bytes(8, "big")
        plaintext = keystream(key._enc_key, nonce, size)
        assert key.seal(plaintext, nonce=nonce)[8:-32] == bytes(size)

    @pytest.mark.parametrize("size", (0, 17, 137, 321))
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

    @pytest.mark.parametrize("size", (0, 17, 429, 262144))
    def test_two_native_calls_per_call(self, size, monkeypatch):
        """A ``seal`` and an ``open`` each make one ``EVP_EncryptInit_ex``
        (the counter block, no re-keying) and one ``EVP_EncryptUpdate``,
        whatever the size."""
        lib = symmetric._LIBCRYPTO
        key = SymmetricKey(KEY)
        calls = []
        for name in ("EVP_EncryptInit_ex", "EVP_EncryptUpdate"):
            def counted(*args, _name=name, _fn=getattr(lib, name)):
                calls.append((_name, args[1]))
                return _fn(*args)
            monkeypatch.setattr(lib, name, counted)
        sealed = key.seal(b"\x11" * size)
        assert key.open(sealed) == b"\x11" * size
        assert [name for name, _ in calls] == ["EVP_EncryptInit_ex", "EVP_EncryptUpdate"] * 2
        assert calls[0][1] is None and calls[2][1] is None  # no cipher: the key stays

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
