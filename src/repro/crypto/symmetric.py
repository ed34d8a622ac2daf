"""Authenticated symmetric encryption for tunnel layers.

Construction: AES-256 in counter mode — key ``enc_key``, initial
counter block ``nonce || 0^64``, the counter the block's low 64 bits —
combined with an encrypt-then-MAC HMAC-SHA256 tag.  AES runs in the
OpenSSL libcrypto that :mod:`hashlib` already links (bound through
``ctypes``; the import fails where that library has no AES-256-CTR).
HMAC is implemented per RFC 2104 directly over :func:`hashlib.sha256`;
only the tag check is :func:`hmac.compare_digest`, whose time does not
depend on how many leading bytes of a forged tag are right.

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
* the AES key schedule is likewise made once per key, in the key's own
  ``EVP_CIPHER_CTX``; each call makes two native calls on it at every
  size — ``EVP_EncryptInit_ex`` sets the counter block, one
  ``EVP_EncryptUpdate`` XORs the whole message with the keystream into
  a fresh buffer;
* ``seal`` returns ``nonce || ct || tag`` from one ``b"".join``, and
  ``open`` slices the buffer it is handed: ``bytes`` slices of a small
  layer cost less than a :class:`memoryview` wrapper, and a large
  caller (``retrieval.open_answer``) hands in a memoryview, whose
  slices copy nothing for the MAC.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac

_BLOCK = 64  # SHA-256 block size in bytes (HMAC padding width)
_TAG_BYTES = 32
_NONCE_BYTES = 8
#: the deterministic nonce counter wraps modulo this (see ``seal``)
_NONCE_MODULUS = 1 << (8 * _NONCE_BYTES)
#: the low half of the initial counter block ``nonce || 0^64``
_COUNTER_ZERO = bytes(8)
#: ``EVP_EncryptUpdate`` takes the length as a C ``int``
_MAX_LENGTH = (1 << 31) - 1


class CipherError(ValueError):
    """Raised when decryption fails authentication or framing."""


def _bind(lib: ctypes.CDLL, signatures) -> None:
    """Type each ``(name, restype, *argtypes)`` of ``signatures`` on
    ``lib``; ``AttributeError`` if ``lib`` lacks one, before any is
    typed."""
    bound = [getattr(lib, name) for name, *_ in signatures]
    for fn, (_, restype, *argtypes) in zip(bound, signatures):
        fn.restype, fn.argtypes = restype, argtypes


def _load_libcrypto() -> tuple[ctypes.CDLL, int]:
    """The libcrypto that ``_hashlib`` links, with the ``EVP_*``
    functions a key calls typed, and its AES-256-CTR cipher.

    ``ctypes.CDLL`` of the extension module itself: its symbol lookup
    also searches the extension's dependencies, so this binds the very
    OpenSSL hashlib uses, with no soname to guess and no second load.
    ``repro.crypto.asymmetric`` types its ``BN_*`` functions on the
    same handle.
    """
    ptr, c_int, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    signatures = (
        ("EVP_aes_256_ctr", ptr),
        ("EVP_CIPHER_CTX_new", ptr),
        ("EVP_CIPHER_CTX_free", None, ptr),
        ("EVP_EncryptInit_ex", c_int, ptr, ptr, ptr, buf, buf),
        ("EVP_EncryptUpdate", c_int, ptr, buf, ctypes.POINTER(c_int), buf, c_int),
    )
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        _bind(lib, signatures)
    except (ImportError, OSError, AttributeError) as exc:
        raise ImportError(
            "repro.crypto.symmetric needs AES-256-CTR from the OpenSSL "
            f"libcrypto that hashlib links, and cannot bind it: {exc}"
        ) from exc
    cipher = lib.EVP_aes_256_ctr()
    if not cipher:
        raise ImportError("the libcrypto that hashlib links has no AES-256-CTR")
    return lib, cipher


_LIBCRYPTO, _AES_256_CTR = _load_libcrypto()


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

    A key owns one native cipher context, keyed once here and freed
    with the key.  One key serves one thread at a time: a call sets the
    context's counter block and then runs it, and the nonce counter is
    a read-modify-write, so two threads sealing under one key at once
    can mix their streams.  A key cannot be copied or pickled
    (``TypeError``): a copy would share the context and repeat the
    nonces; make a new key from ``key_bytes`` instead.  Every libcrypto
    status is checked: a failed call raises ``RuntimeError``.
    """

    __slots__ = ("key_bytes", "_enc_key", "_mac_key", "_nonce_counter",
                 "_mac_inner", "_mac_outer", "_ctx")

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
        # The AES-256 key schedule, made once; each call sets the IV.
        self._ctx = _LIBCRYPTO.EVP_CIPHER_CTX_new()
        if not (self._ctx and _LIBCRYPTO.EVP_EncryptInit_ex(
                self._ctx, _AES_256_CTR, None, self._enc_key, None)):
            raise RuntimeError("libcrypto could not key an AES-256-CTR context")

    def __del__(self, _free=_LIBCRYPTO.EVP_CIPHER_CTX_free):
        # A key whose __init__ raised may have no _ctx; the free function
        # is bound at definition, so module teardown cannot unbind it.
        try:
            ctx = self._ctx
        except AttributeError:
            return
        _free(ctx)  # takes NULL

    def __reduce_ex__(self, protocol):
        raise TypeError("a SymmetricKey owns a native cipher context and "
                        "cannot be copied or pickled")

    def _ctr(self, counter_block: bytes, data) -> ctypes.Array:
        """XOR ``data`` with the AES-256-CTR keystream from the 16-byte
        ``counter_block``: two native calls, into a fresh buffer that
        :mod:`hashlib` and ``bytes.join`` read in place."""
        length = len(data)
        if length > _MAX_LENGTH:
            raise ValueError(f"message of {length} bytes exceeds {_MAX_LENGTH}")
        if type(data) is not bytes:
            data = bytes(data)
        out = (ctypes.c_char * length)()
        written = ctypes.c_int()
        if not (_LIBCRYPTO.EVP_EncryptInit_ex(self._ctx, None, None, None, counter_block)
                and _LIBCRYPTO.EVP_EncryptUpdate(self._ctx, out, written, data, length)
                and written.value == length):
            raise RuntimeError("libcrypto AES-256-CTR failed")
        return out

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
        else:
            nonce = bytes(nonce)
        ciphertext = self._ctr(nonce + _COUNTER_ZERO, plaintext)
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
        counter_block = bytes(sealed[:_NONCE_BYTES]) + _COUNTER_ZERO
        return self._ctr(counter_block, sealed[_NONCE_BYTES:-_TAG_BYTES]).raw

    @staticmethod
    def overhead() -> int:
        """Bytes added by one layer of ``seal`` (nonce + tag)."""
        return _NONCE_BYTES + _TAG_BYTES
