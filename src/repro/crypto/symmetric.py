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

Hot path: a ``seal``/``open`` costs what a tunnel hop's layer of a
few hundred bytes needs, and stays a constant number of C calls for a
256 KiB answer —

* the RFC 2104 inner/outer padded key blocks are absorbed into
  pre-primed SHA-256 states once per :class:`SymmetricKey`; each call
  only ``copy()``s them, and ``seal`` feeds the nonce and the
  ciphertext to the MAC as two ``update`` calls, never as one
  concatenated temporary;
* the XOF state ``SHAKE-256(enc_key || …)`` is likewise primed per key;
  each call copies it, absorbs the nonce and squeezes the whole
  keystream in one ``digest(n)``;
* the XOR is two big ints up to ``_INT_XOR_MAX`` bytes and one NumPy
  ``uint8`` ``bitwise_xor`` over zero-copy ``frombuffer`` views beyond
  it (the table at the constant says where NumPy's fixed cost stops
  dominating);
* ``seal`` returns ``nonce || ct || tag`` from one ``b"".join``, and
  ``open`` slices the buffer it is handed: ``bytes`` slices of a small
  layer cost less than a :class:`memoryview` wrapper, and a large
  caller (``retrieval.open_answer``) hands in a memoryview, whose
  slices copy nothing.
"""

from __future__ import annotations

import hashlib
import hmac

import numpy as np

_BLOCK = 64  # SHA-256 block size in bytes (HMAC padding width)
_TAG_BYTES = 32
_NONCE_BYTES = 8
#: the deterministic nonce counter wraps modulo this (see ``seal``)
_NONCE_MODULUS = 1 << (8 * _NONCE_BYTES)
#: ``_stream_xor`` XORs up to this many bytes as two little-endian big
#: ints and longer messages with NumPy, whose ~2 µs of call overhead
#: outweighs the byte work below it.  Session layers are 113–429 B,
#: bulk answers 256 KiB.  Measured XOR alone (2-CPU box, CPython 3.11,
#: NumPy 2.4; median of 31 interleaved best-of-3 × 1,000-call batches):
#:
#:     bytes   int XOR   NumPy XOR   int faster
#:        64   0.95 µs     2.31 µs      31/31
#:       256   1.36 µs     1.67 µs      23/31
#:       320   1.58 µs     1.89 µs      17/31
#:       352   1.67 µs     1.54 µs      12/31
#:       512   3.64 µs     2.80 µs       1/31
#:    16,384  61.66 µs     3.94 µs       0/31
_INT_XOR_MAX = 320


class CipherError(ValueError):
    """Raised when decryption fails authentication or framing."""


#: RFC 2104 pad XORs as byte-translation tables: ``key.translate(_IPAD)``
#: is ``bytes(b ^ 0x36 for b in key)`` without the per-byte generator
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class SymmetricKey:
    """A symmetric key ``K`` as stored inside a tunnel hop anchor.

    ``seal`` produces ``nonce || ciphertext || tag``; ``open`` verifies
    the tag before returning the plaintext.  The nonce is drawn from a
    per-key deterministic counter unless the caller supplies one, which
    keeps simulations reproducible while never reusing a keystream
    within the first 2**64 seals (see ``seal``).
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

    def _stream_xor(self, nonce, data) -> bytes:
        """XOR ``data`` with the per-(key, nonce) keystream: one XOF
        squeeze, then one XOR — of two big ints up to
        ``_INT_XOR_MAX`` bytes, one NumPy vector op beyond."""
        length = len(data)
        xof = self._ks_prefix.copy()
        xof.update(nonce)
        if length <= _INT_XOR_MAX:
            return (int.from_bytes(data, "little")
                    ^ int.from_bytes(xof.digest(length), "little")).to_bytes(length, "little")
        # The keystream is referenced by the call's arguments only, so
        # it is freed before ``tobytes`` allocates the result: a 256 KiB
        # answer holds two buffers of its size here, not three.
        return np.bitwise_xor(
            np.frombuffer(data, np.uint8), np.frombuffer(xof.digest(length), np.uint8)
        ).tobytes()

    def seal(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """Encrypt-then-MAC: returns ``nonce || ct || tag`` as ``bytes``
        whatever buffer type ``nonce`` is.

        Without a ``nonce`` the per-key counter advances and is encoded
        as the nonce.  It wraps modulo ``2**64``, so sealing never
        raises ``OverflowError``; a wrap reuses keystream only after
        2**64 seals on one key — far beyond any simulation's horizon,
        and TAP rotates tunnel keys on every reform long before that.
        ``open`` is counter-free (the nonce travels on the wire), so
        wrapped sealers interoperate with any opener.
        """
        if nonce is None:
            self._nonce_counter = counter = (self._nonce_counter + 1) % _NONCE_MODULUS
            nonce = counter.to_bytes(_NONCE_BYTES, "big")
        elif len(nonce) != _NONCE_BYTES:
            raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
        ciphertext = self._stream_xor(nonce, plaintext)
        inner = self._mac_inner.copy()
        inner.update(nonce)
        inner.update(ciphertext)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return b"".join((nonce, ciphertext, outer.digest()))

    def open(self, sealed) -> bytes:
        """Verify and decrypt a ``seal`` output (``bytes``, ``bytearray``
        or ``memoryview``); the tag is checked before anything is
        decrypted.  Slicing a memoryview copies nothing, so a large
        ``sealed`` should be handed in as one."""
        if len(sealed) < _NONCE_BYTES + _TAG_BYTES:
            raise CipherError("sealed message too short")
        inner = self._mac_inner.copy()
        inner.update(sealed[:-_TAG_BYTES])
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        if not hmac.compare_digest(sealed[-_TAG_BYTES:], outer.digest()):
            raise CipherError("authentication tag mismatch")
        return self._stream_xor(sealed[:_NONCE_BYTES], sealed[_NONCE_BYTES:-_TAG_BYTES])

    @staticmethod
    def overhead() -> int:
        """Bytes added by one layer of ``seal`` (nonce + tag)."""
        return _NONCE_BYTES + _TAG_BYTES
