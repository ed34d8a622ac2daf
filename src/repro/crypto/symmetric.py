"""Authenticated symmetric encryption for tunnel layers.

Construction: a SHAKE-256 stream cipher —
``keystream(enc_key, nonce, n) = SHAKE-256(enc_key || nonce).digest(n)``
— combined with an encrypt-then-MAC HMAC-SHA256 tag.  HMAC is
implemented per RFC 2104 directly over :func:`hashlib.sha256` — the
reproduction builds its substrates from primitives; only the tag check
is :func:`hmac.compare_digest`, whose time does not depend on how many
leading bytes of a forged tag are right.

Each TAP tunnel hop performs exactly one ``seal`` or ``open`` per
message, matching the paper's "single symmetric key operation per
message" cost claim (§4).

Wire format, pinned by ``tests/crypto/test_vectors.py``: 8-byte nonce
|| ciphertext || 32-byte tag over ``nonce || ciphertext``.

Hot path: every ``seal``/``open`` is a constant number of C calls,
whatever the message size —

* the RFC 2104 inner/outer padded key blocks are absorbed into
  pre-primed SHA-256 states once per :class:`SymmetricKey`; each call
  only ``copy()``s them;
* the XOF state ``SHAKE-256(enc_key || …)`` is likewise primed per key;
  each call copies it, absorbs the nonce and squeezes the whole
  keystream in one ``digest(n)``;
* the XOR is one NumPy ``uint8`` ``bitwise_xor`` over zero-copy
  ``frombuffer`` views, and ``open`` slices the sealed buffer through
  :class:`memoryview` so nonce/ciphertext/tag extraction copies nothing.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

_BLOCK = 64  # SHA-256 block size in bytes (HMAC padding width)
_TAG_BYTES = 32
_NONCE_BYTES = 8
#: the deterministic nonce counter wraps modulo this (see ``_next_nonce``)
_NONCE_MODULUS = 1 << (8 * _NONCE_BYTES)


class CipherError(ValueError):
    """Raised when decryption fails authentication or framing."""


#: RFC 2104 pad XORs as byte-translation tables: ``key.translate(_IPAD)``
#: is ``bytes(b ^ 0x36 for b in key)`` without the per-byte generator
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    """RFC 2104 HMAC over SHA-256, written out from the definition."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    o_key = key.translate(_OPAD)
    i_key = key.translate(_IPAD)
    inner = hashlib.sha256(i_key + message).digest()
    return hashlib.sha256(o_key + inner).digest()


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The keystream from its definition: ``SHAKE-256(key || nonce)``
    squeezed to ``length`` bytes (the tests' reference)."""
    return hashlib.shake_256(key + nonce).digest(length)


class SymmetricKey:
    """A symmetric key ``K`` as stored inside a tunnel hop anchor.

    ``seal`` produces ``nonce || ciphertext || tag``; ``open`` verifies
    the tag before returning the plaintext.  The nonce is drawn from a
    per-key deterministic counter unless the caller supplies one, which
    keeps simulations reproducible while never reusing a keystream
    within the first 2**64 seals (see ``_next_nonce``).
    """

    __slots__ = ("key_bytes", "_enc_key", "_mac_key", "_nonce_counter",
                 "_mac_inner", "_mac_outer", "_ks_prefix")

    def __init__(self, key_bytes: bytes):
        if not isinstance(key_bytes, (bytes, bytearray)) or len(key_bytes) < 8:
            raise ValueError("key must be at least 8 bytes")
        self.key_bytes = bytes(key_bytes)
        # Domain-separate the encryption and MAC keys from K.
        self._enc_key = hashlib.sha256(b"enc" + self.key_bytes).digest()
        self._mac_key = hashlib.sha256(b"mac" + self.key_bytes).digest()
        self._nonce_counter = 0
        # RFC 2104 pad blocks, absorbed once per key: _mac_key is 32
        # bytes (< block), so it is zero-padded, never pre-hashed.
        padded = self._mac_key.ljust(_BLOCK, b"\x00")
        self._mac_inner = hashlib.sha256(padded.translate(_IPAD))
        self._mac_outer = hashlib.sha256(padded.translate(_OPAD))
        # XOF state SHAKE-256(enc_key || …), extended with the nonce
        # and squeezed once per message.
        self._ks_prefix = hashlib.shake_256(self._enc_key)

    def _next_nonce(self) -> bytes:
        """Advance the deterministic counter and encode it as the nonce.

        The counter wraps modulo ``2**64`` so sealing can never raise
        ``OverflowError`` encoding the nonce.  A wrap reuses keystream
        only after 2**64 seals on one key — far beyond any simulation's
        horizon, and TAP rotates tunnel keys on every reform long
        before that.  ``open`` is counter-free (the nonce travels on
        the wire), so wrapped sealers interoperate with any opener.
        """
        self._nonce_counter = (self._nonce_counter + 1) % _NONCE_MODULUS
        return self._nonce_counter.to_bytes(_NONCE_BYTES, "big")

    def _tag(self, message) -> bytes:
        """HMAC-SHA256 via the pre-primed RFC 2104 pad states."""
        inner = self._mac_inner.copy()
        inner.update(message)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def _stream_xor(self, nonce, data) -> bytes:
        """XOR ``data`` with the per-(key, nonce) keystream: one XOF
        squeeze, one vector XOR."""
        length = len(data)
        if not length:
            return b""
        xof = self._ks_prefix.copy()
        xof.update(nonce)
        return np.bitwise_xor(
            np.frombuffer(data, np.uint8),
            np.frombuffer(xof.digest(length), np.uint8),
        ).tobytes()

    def seal(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """Encrypt-then-MAC: returns ``nonce || ct || tag``."""
        if nonce is None:
            nonce = self._next_nonce()
        if len(nonce) != _NONCE_BYTES:
            raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
        ciphertext = self._stream_xor(nonce, plaintext)
        tag = self._tag(nonce + ciphertext)
        return nonce + ciphertext + tag

    def open(self, sealed) -> bytes:
        """Verify and decrypt a ``seal`` output (bytes or memoryview)."""
        if len(sealed) < _NONCE_BYTES + _TAG_BYTES:
            raise CipherError("sealed message too short")
        view = memoryview(sealed)
        nonce = view[:_NONCE_BYTES]
        ciphertext = view[_NONCE_BYTES:-_TAG_BYTES]
        tag = view[-_TAG_BYTES:]
        body = self._mac_inner.copy()
        body.update(view[:-_TAG_BYTES])
        outer = self._mac_outer.copy()
        outer.update(body.digest())
        if not hmac.compare_digest(tag, outer.digest()):
            raise CipherError("authentication tag mismatch")
        return self._stream_xor(nonce, ciphertext)

    @staticmethod
    def overhead() -> int:
        """Bytes added by one layer of ``seal`` (nonce + tag)."""
        return _NONCE_BYTES + _TAG_BYTES

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymmetricKey) and other.key_bytes == self.key_bytes

    def __hash__(self) -> int:
        return hash(self.key_bytes)

    def __getstate__(self) -> bytes:
        # hashlib states are not picklable; rebuild them on unpickle so
        # keys cross process boundaries (the parallel trial executor).
        return self.key_bytes + self._nonce_counter.to_bytes(9, "big")

    def __setstate__(self, state: bytes) -> None:
        self.__init__(state[:-9])
        self._nonce_counter = int.from_bytes(state[-9:], "big")

    def __repr__(self) -> str:
        return f"SymmetricKey({self.key_bytes[:4].hex()}…)"
