"""Regression tests for the optimised crypto hot path.

The seal/open fast path (one AES-256-GCM context per key whose nonce
each call sets, four untyped native calls per message, output into one
``bytearray``) must stay byte-identical to the reference construction
at every size class, accept every buffer type its callers hand it,
make no ctypes type per call, and survive the 12-byte nonce-counter
boundary.

The reference is NIST SP 800-38D written out.  The ciphertext is the
plaintext XOR AES-256-ECB over the counter blocks ``inc32(J0)``,
``inc32²(J0)``, … with ``J0 = nonce || 0^31 || 1``: libcrypto's ECB
path, bound here on a handle of its own, shares no mode code with the
GCM path under test.  The tag is GHASH (Algorithm 1 over GF(2^128),
pure Python) of the ciphertext and the bit lengths, XOR the ECB of
``J0``.  FIPS-197 pins the ECB binding, and the GCM specification's
test case 15 pins the reference and the module alike.
"""

import ctypes
import gc
import random
from functools import lru_cache

import _hashlib
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import asymmetric, symmetric
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
    """GCM's keystream from its definition: AES-256 of the counter
    blocks ``inc32(J0)``, ``inc32²(J0)``, … for ``J0 = nonce || 0^31 ||
    1`` (``inc32`` steps the low 32 bits modulo 2**32), truncated to
    ``length`` bytes."""
    blocks = -(-length // 16)
    counters = b"".join(bytes(nonce) + ((1 + i) % (1 << 32)).to_bytes(4, "big")
                        for i in range(1, blocks + 1))
    return _aes256_ecb(key, counters)[:length]


#: SP 800-38D's reduction constant R = 11100001 || 0^120
_R = 0xE1 << 120


def _gf_mult(x: int, y: int) -> int:
    """SP 800-38D Algorithm 1: ``x · y`` in GF(2^128), the blocks read
    as big-endian integers (bit 0 of a block is the integer's top bit)."""
    z, v = 0, y
    for i in range(127, -1, -1):
        if x >> i & 1:
            z ^= v
        v = v >> 1 ^ _R if v & 1 else v >> 1
    return z


@lru_cache(maxsize=8)
def _times(h: int) -> tuple[list[int], ...]:
    """``x -> x · h`` as sixteen byte tables.  Multiplying by ``h`` is
    linear over GF(2), so ``x · h`` is the XOR over ``x``'s bytes of
    each byte's product, every product built by linearity from the
    eight Algorithm 1 products of its position's single bits."""
    tables = []
    for position in range(16):  # byte ``position`` from the low end
        bits = [_gf_mult(1 << (8 * position + j), h) for j in range(8)]
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte
            table[byte] = table[byte ^ low] ^ bits[low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


def ghash(h: int, data: bytes) -> int:
    """GHASH_H over ``data`` (a whole number of 16-byte blocks)."""
    assert len(data) % 16 == 0
    tables = _times(h)
    y = 0
    for at in range(0, len(data), 16):
        x = y ^ int.from_bytes(data[at:at + 16], "big")
        y = 0
        for table, byte in zip(tables, x.to_bytes(16, "little")):
            y ^= table[byte]
    return y


def reference_tag(key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
    """GCM's tag with no associated data: GHASH over the ciphertext,
    zero-padded to a block, and the block ``len(A) || len(C)`` in bits,
    XOR ``E_K(J0)``."""
    h_block, j0_block = (_aes256_ecb(key, bytes(16) + bytes(nonce) + (1).to_bytes(4, "big"))
                         [i:i + 16] for i in (0, 16))
    padded = ciphertext + bytes(-len(ciphertext) % 16)
    lengths = (0).to_bytes(8, "big") + (8 * len(ciphertext)).to_bytes(8, "big")
    s = ghash(int.from_bytes(h_block, "big"), padded + lengths)
    return (s ^ int.from_bytes(j0_block, "big")).to_bytes(16, "big")


def reference_seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """``nonce || C || T`` for AES-256-GCM under ``key``, from the
    definitions above."""
    stream = keystream(key, nonce, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    return bytes(nonce) + ciphertext + reference_tag(key, nonce, ciphertext)


#: the size classes the construction distinguishes: empty, one byte,
#: either side of the 16-byte AES and GHASH block, a few bytes either
#: side of a 32-byte word multiple, either side of 136 and of 320 (where
#: the former SHAKE keystream changed rate and XOR path), the largest
#: session layer (429 B), many blocks, and the paper's 2 Mb file
SIZE_CLASSES = (0, 1, 15, 16, 17, 31, 32, 33, 135, 136, 137, 320, 321,
                429, 4096, 262144)


def _message(size: int) -> bytes:
    return (bytes(range(256)) * (size // 256 + 1))[:size]


def _flips(sealed: bytes) -> list[int]:
    """Bit positions to flip: the nonce's first and last bit, the first
    and last ciphertext bit, the tag's first and last bit."""
    size = len(sealed) - SymmetricKey.overhead()
    bits = [0, 95, 8 * len(sealed) - 128, 8 * len(sealed) - 1]
    if size:
        bits += [96, 96 + 8 * size - 1]
    return bits


def _accepted_flips(open_, sealed: bytes) -> list[int]:
    """The bits of ``_flips`` whose flip ``open_`` does not reject with
    ``CipherError``."""
    accepted = []
    for bit in _flips(sealed):
        tampered = bytearray(sealed)
        tampered[bit // 8] ^= 0x80 >> bit % 8
        try:
            open_(bytes(tampered))
        except CipherError:
            continue
        accepted.append(bit)
    return accepted


def _open_before_final(key: SymmetricKey, sealed: bytes) -> bytes:
    """A hand mutant of ``SymmetricKey.open``: the same calls, but it
    returns the plaintext once ``EVP_CipherUpdate`` has run, without
    setting the tag or calling ``EVP_CipherFinal_ex``."""
    lib, length = symmetric._LIBCRYPTO, len(sealed) - SymmetricKey.overhead()
    buf = bytearray(sealed)
    at = ctypes.c_char.from_buffer(buf)
    body = ctypes.byref(at, 12)
    assert lib.EVP_CipherInit_ex(key._ctx, None, None, None, ctypes.byref(at), 0)
    assert lib.EVP_CipherUpdate(key._ctx, body, key._outl_ref, body, length)
    return bytes(buf[12:12 + length])


class TestStandardVectors:
    #: McGrew & Viega, "The Galois/Counter Mode of Operation", test case
    #: 15: AES-256, a 96-bit IV, 64 bytes of plaintext, no associated
    #: data (checked once against ``cryptography``'s ``AESGCM``)
    GCM_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308"
                            "feffe9928665731c6d6a8f9467308308")
    GCM_IV = bytes.fromhex("cafebabefacedbaddecaf888")
    GCM_PLAINTEXT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
    GCM_CIPHERTEXT = bytes.fromhex(
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad")
    GCM_TAG = bytes.fromhex("b094dac5d93471bdec1a502270e3cc6c")

    def test_ecb_reference_is_fips_197(self):
        """FIPS-197 App. C.3 (AES-256): the reference's block cipher."""
        key = bytes(range(32))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert _aes256_ecb(key, plaintext).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_reference_is_the_gcm_vector(self):
        """The from-definition keystream and GHASH reproduce test case
        15, so they pin the module by the specification, not by itself."""
        assert reference_seal(self.GCM_KEY, self.GCM_IV, self.GCM_PLAINTEXT) == (
            self.GCM_IV + self.GCM_CIPHERTEXT + self.GCM_TAG)

    def test_module_gcm_is_the_gcm_vector(self):
        """Test case 15 through a key's own context, re-keyed to the
        vector's key: the seal is the vector, and the opener of that
        context opens it."""
        key = SymmetricKey(KEY)
        assert symmetric._LIBCRYPTO.EVP_CipherInit_ex(
            key._ctx, None, None, self.GCM_KEY, None, 1)
        sealed = key.seal(self.GCM_PLAINTEXT, nonce=self.GCM_IV)
        assert sealed == self.GCM_IV + self.GCM_CIPHERTEXT + self.GCM_TAG
        assert key.open(sealed) == self.GCM_PLAINTEXT


class TestSizeClasses:
    @pytest.mark.parametrize("size", SIZE_CLASSES)
    def test_roundtrip(self, size):
        key = SymmetricKey(KEY)
        plaintext = _message(size)
        opened = SymmetricKey(KEY).open(key.seal(plaintext))
        assert opened == plaintext
        assert isinstance(opened, bytes)

    @pytest.mark.parametrize("size", SIZE_CLASSES)
    def test_stream_matches_reference_keystream(self, size):
        """The ciphertext equals a byte-by-byte XOR with the
        from-definition keystream."""
        key = SymmetricKey(KEY)
        nonce = (5).to_bytes(12, "big")
        plaintext = b"\xa5" * size
        sealed = key.seal(plaintext, nonce=nonce)
        ct = sealed[12:-16]
        stream = keystream(key._enc_key, nonce, size)
        assert len(stream) == size
        assert ct == bytes(p ^ s for p, s in zip(plaintext, stream))

    @pytest.mark.parametrize("size", SIZE_CLASSES)
    def test_tag_matches_reference_ghash(self, size):
        """The tag equals the from-definition GHASH tag over the
        ciphertext, so the whole seal is the reference seal."""
        key = SymmetricKey(KEY)
        nonce = (2**96 - 3).to_bytes(12, "big")
        plaintext = _message(size)
        assert key.seal(plaintext, nonce=nonce) == reference_seal(
            key._enc_key, nonce, plaintext)

    @pytest.mark.parametrize("size", SIZE_CLASSES)
    def test_every_flipped_bit_is_rejected(self, size):
        """A flipped bit in the nonce, the ciphertext or the tag makes
        ``open`` raise ``CipherError``."""
        key = SymmetricKey(KEY)
        sealed = key.seal(_message(size))
        assert _accepted_flips(key.open, sealed) == []
        assert key.open(sealed) == _message(size)

    def test_the_flip_check_catches_an_open_before_final(self):
        """The check above fails a mutant ``open`` that hands back the
        plaintext before ``EVP_CipherFinal_ex`` verifies the tag: it
        accepts every flip."""
        key = SymmetricKey(KEY)
        sealed = key.seal(_message(33))
        assert _open_before_final(key, sealed) == _message(33)
        assert _accepted_flips(lambda s: _open_before_final(key, s), sealed) == _flips(sealed)
        assert _accepted_flips(key.open, sealed) == []

    def test_each_call_restarts_the_counter(self):
        """One key, one call after another, at sizes that end inside a
        block: each call's stream starts at its own ``inc32(J0)``, never
        where the previous call's stopped."""
        key = SymmetricKey(KEY)
        for i, size in enumerate((17, 15, 1, 16, 33, 5)):
            nonce = (100 + i % 2).to_bytes(12, "big")
            ct = key.seal(bytes(size), nonce=nonce)[12:-16]
            assert ct == keystream(key._enc_key, nonce, size)
            assert key.open(key.seal(b"\x00" * size)) == bytes(size)

    def test_keystream_prefix_property(self):
        """Counter-mode property: the stream for ``n`` bytes is a prefix
        of the stream for ``m > n``, so a message's keystream does not
        depend on its length; distinct nonces give distinct streams."""
        nonce = (5).to_bytes(12, "big")
        longest = keystream(KEY, nonce, max(SIZE_CLASSES))
        for size in SIZE_CLASSES:
            assert keystream(KEY, nonce, size) == longest[:size]
        other = keystream(KEY, (6).to_bytes(12, "big"), 136)
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
            assert buffer == sealed  # decrypted in a copy, never in place
            with pytest.raises(CipherError):
                key.open(buffer[:27])
        for at in (0, 12, len(sealed) - 1):
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
        nonce = (9).to_bytes(12, "big")
        plaintext = keystream(key._enc_key, nonce, size)
        assert key.seal(plaintext, nonce=nonce)[12:-16] == bytes(size)

    @pytest.mark.parametrize("size", (0, 17, 137, 321))
    def test_seal_returns_bytes_for_any_nonce_buffer(self, size):
        """The output is ``bytes`` whatever buffer the nonce and the
        plaintext arrive in."""
        nonce = (7).to_bytes(12, "big")
        plaintext = b"\x3c" * size
        sealed = [
            SymmetricKey(KEY).seal(message, nonce=buffer)
            for message, buffer in ((plaintext, nonce),
                                    (bytearray(plaintext), bytearray(nonce)),
                                    (memoryview(plaintext), memoryview(b"x" + nonce)[1:]))
        ]
        assert [type(s) for s in sealed] == [bytes] * 3
        assert sealed[0] == sealed[1] == sealed[2]
        assert SymmetricKey(KEY).open(sealed[2]) == plaintext

    @pytest.mark.parametrize("size", (0, 17, 429, 262144))
    def test_four_native_calls_per_call(self, size, monkeypatch):
        """A ``seal`` makes ``EVP_CipherInit_ex`` (the nonce, no
        cipher and no key: the key stays), ``EVP_CipherUpdate``,
        ``EVP_CipherFinal_ex`` and ``EVP_CIPHER_CTX_ctrl`` (get the tag);
        an ``open`` the same four with the tag set before ``Final``
        verifies it — whatever the size, all four untyped."""
        lib = symmetric._LIBCRYPTO
        names = ("EVP_CipherInit_ex", "EVP_CipherUpdate",
                 "EVP_CipherFinal_ex", "EVP_CIPHER_CTX_ctrl")
        assert [getattr(lib, name).argtypes for name in names] == [None] * 4
        key = SymmetricKey(KEY)
        calls = []
        for name in names:
            def counted(*args, _name=name, _fn=getattr(lib, name)):
                calls.append((_name, args))
                return _fn(*args)
            monkeypatch.setattr(lib, name, counted)
        sealed = key.seal(b"\x11" * size)
        assert key.open(sealed) == b"\x11" * size
        assert [name for name, _ in calls] == [
            "EVP_CipherInit_ex", "EVP_CipherUpdate", "EVP_CipherFinal_ex",
            "EVP_CIPHER_CTX_ctrl",
            "EVP_CipherInit_ex", "EVP_CipherUpdate", "EVP_CIPHER_CTX_ctrl",
            "EVP_CipherFinal_ex",
        ]
        seal_init, open_init = calls[0][1], calls[4][1]
        assert seal_init[1:4] == open_init[1:4] == (None, None, None)
        assert (seal_init[5], open_init[5]) == (1, 0)
        assert (calls[3][1][1], calls[6][1][1]) == (symmetric._GET_TAG, symmetric._SET_TAG)

    @given(plaintext=st.binary(max_size=2048))
    def test_roundtrip_fuzz(self, plaintext):
        key = SymmetricKey(KEY)
        assert SymmetricKey(KEY).open(key.seal(plaintext)) == plaintext


class TestNoTypePerCall:
    def test_seal_open_and_modexp_make_no_array_type(self):
        """``seal``, ``open`` and the native modexp make no ctypes type
        per call.  ctypes keeps ``c_char * n`` array types only through
        a weak proxy, so an array made per call rebuilds its type after
        every GC pass.  Here, over 48 lengths each, with the collector
        off inside a round and a young-generation collection between
        rounds, no round leaves a new array type among the objects made
        since the last collection."""
        array_type = type(ctypes.c_char * 1)

        def new_array_types() -> int:
            return sum(type(obj) is array_type for obj in gc.get_objects(generation=0))

        assert asymmetric._BN is not None
        rng = random.Random(3)
        key = SymmetricKey(KEY)
        gc.collect()
        was_enabled = gc.isenabled()
        try:
            for round_ in range(48):
                gc.disable()
                message = bytes(round_ * 7)
                assert key.open(key.seal(message)) == message
                bits = asymmetric._NATIVE_MODEXP_BITS + 8 * round_
                mod = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                assert asymmetric._modexp(3, 65537, mod) == pow(3, 65537, mod)
                assert new_array_types() == 0, round_
                gc.enable()
                gc.collect(0)
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class TestNonceCounterBoundary:
    def test_seal_past_the_12_byte_boundary(self):
        """The counter must wrap modulo 2**96 instead of raising
        OverflowError when encoding the nonce (regression: the counter
        used to grow unbounded and explode past the nonce width)."""
        key = SymmetricKey(KEY)
        key._nonce_counter = _NONCE_MODULUS - 1
        sealed_wrap = key.seal(b"at the edge")  # counter -> 0
        sealed_next = key.seal(b"after the edge")  # counter -> 1
        assert sealed_wrap[:12] == (0).to_bytes(12, "big")
        assert sealed_next[:12] == (1).to_bytes(12, "big")
        opener = SymmetricKey(KEY)
        assert opener.open(sealed_wrap) == b"at the edge"
        assert opener.open(sealed_next) == b"after the edge"

    def test_wrap_reuses_the_counter_zero_stream(self):
        """Documented consequence of wrapping: the nonce sequence
        repeats, so seal #2**96+1 equals seal #1 for equal plaintext."""
        fresh = SymmetricKey(KEY)
        first = fresh.seal(b"m")
        wrapped = SymmetricKey(KEY)
        wrapped._nonce_counter = _NONCE_MODULUS
        assert wrapped.seal(b"m") == first
