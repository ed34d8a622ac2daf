"""Authenticated symmetric encryption for tunnel layers.

Construction: AES-256-GCM (NIST SP 800-38D) under ``enc_key =
SHA-256("enc" || K)``, a 96-bit nonce and no associated data, in the
OpenSSL libcrypto that :mod:`hashlib` already links (bound through
``ctypes``; the import fails where that library has no AES-256-GCM).

Each TAP tunnel hop performs exactly one ``seal`` or ``open`` per
message, matching the paper's "single symmetric key operation per
message" cost claim (§4).

Wire format, pinned by ``tests/crypto/test_vectors.py``: 12-byte nonce
|| ciphertext || 16-byte tag.

Hot path: the AES key schedule is made once per key, in the key's own
``EVP_CIPHER_CTX``, and every ``seal``/``open`` makes the same four
native calls on it at any size: ``EVP_CipherInit_ex`` sets only the
nonce and the direction, one ``EVP_CipherUpdate`` runs the whole
message, and ``EVP_CipherFinal_ex`` with one ``EVP_CIPHER_CTX_ctrl``
gets the tag (``seal``) or sets it for ``Final`` to verify (``open``).
Those four are called untyped, which saves ~0.3 µs of argument
conversion a call (0.81 → 0.49 µs for a 113 B update): every pointer is a ctypes object the key made once
(the context's ``c_void_p``, a ``byref`` of its length ``c_int``) or a
``byref`` into a ``bytearray``, bytes go as ``char*`` and lengths as C
``int``.  No ctypes array is made per call: ctypes caches the type of
``c_char * n`` only weakly, so every GC pass frees it and the next call
rebuilds it.  ``seal`` writes nonce, ciphertext and tag into one
``bytearray`` and returns one ``bytes`` copy; ``open`` copies what it
is handed (``bytes``, ``bytearray`` or ``memoryview``) into one,
decrypts it in place and returns the plaintext as ``bytes``.
"""

from __future__ import annotations

import ctypes
import hashlib

_NONCE_BYTES = 12
_TAG_BYTES = 16
_OVERHEAD = _NONCE_BYTES + _TAG_BYTES
#: the deterministic nonce counter wraps modulo this (see ``seal``)
_NONCE_MODULUS = 1 << (8 * _NONCE_BYTES)
#: ``EVP_CipherUpdate`` takes the length as a C ``int``
_MAX_LENGTH = (1 << 31) - 1
#: ``EVP_CIPHER_CTX_ctrl`` codes ``EVP_CTRL_AEAD_GET_TAG`` / ``_SET_TAG``
_GET_TAG, _SET_TAG = 0x10, 0x11

_byref = ctypes.byref
_at = ctypes.c_char.from_buffer


class CipherError(ValueError):
    """Raised when decryption fails authentication or framing."""


def _bind(lib: ctypes.CDLL, signatures) -> None:
    """Type each ``(name, restype, *argtypes)`` of ``signatures`` on
    ``lib``; ``AttributeError`` if ``lib`` lacks one, before any is
    typed.  A signature with no argument types leaves them unset, so
    ctypes converts each argument by its Python type."""
    bound = [getattr(lib, name) for name, *_ in signatures]
    for fn, (_, restype, *argtypes) in zip(bound, signatures):
        fn.restype = restype
        if argtypes:
            fn.argtypes = argtypes


def _load_libcrypto() -> tuple[ctypes.CDLL, ctypes.c_void_p]:
    """The libcrypto that ``_hashlib`` links, with the ``EVP_*``
    functions a key calls bound, and its AES-256-GCM cipher.

    ``ctypes.CDLL`` of the extension module itself: its symbol lookup
    also searches the extension's dependencies, so this binds the very
    OpenSSL hashlib uses, with no soname to guess and no second load.
    ``repro.crypto.asymmetric`` types its ``BN_*`` functions on the
    same handle.  The four functions a ``seal`` or ``open`` calls stay
    untyped (see the module docstring).
    """
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    signatures = (
        ("EVP_aes_256_gcm", ptr),
        ("EVP_CIPHER_CTX_new", ptr),
        ("EVP_CIPHER_CTX_free", None, ptr),
        ("EVP_CipherInit_ex", c_int),
        ("EVP_CipherUpdate", c_int),
        ("EVP_CipherFinal_ex", c_int),
        ("EVP_CIPHER_CTX_ctrl", c_int),
    )
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        _bind(lib, signatures)
    except (ImportError, OSError, AttributeError) as exc:
        raise ImportError(
            "repro.crypto.symmetric needs AES-256-GCM from the OpenSSL "
            f"libcrypto that hashlib links, and cannot bind it: {exc}"
        ) from exc
    cipher = lib.EVP_aes_256_gcm()
    if not cipher:
        raise ImportError("the libcrypto that hashlib links has no AES-256-GCM")
    return lib, ptr(cipher)


_LIBCRYPTO, _AES_256_GCM = _load_libcrypto()


class SymmetricKey:
    """A symmetric key ``K`` as stored inside a tunnel hop anchor.

    ``seal`` produces ``nonce || ciphertext || tag``; ``open`` returns
    the plaintext only after the tag verified.  The nonce is drawn from
    a per-key deterministic counter unless the caller supplies one,
    which keeps simulations reproducible.  A nonce used twice under one
    key forfeits GCM's authenticity (the two keystreams cancel and the
    GHASH key leaks), so only the object that owns a key's counter
    seals under it — a tunnel's own keys, a retrieval's fresh ``K_f``,
    a hybrid RSA session key — and the keys a hop decodes from an
    anchor only ``open``.

    A key owns one native cipher context, keyed once here and freed
    with the key.  One key serves one thread at a time: a call sets the
    context's nonce and then runs it, and the nonce counter is a
    read-modify-write.  A key cannot be copied or pickled
    (``TypeError``): a copy would share the context and repeat the
    nonces; make a new key from ``key_bytes`` instead.  A failed
    libcrypto call raises ``RuntimeError``, a tag that does not verify
    ``CipherError``.
    """

    __slots__ = ("key_bytes", "_enc_key", "_nonce_counter", "_ctx",
                 "_outl", "_outl_ref")

    def __init__(self, key_bytes: bytes):
        if not isinstance(key_bytes, (bytes, bytearray)) or len(key_bytes) < 8:
            raise ValueError("key must be at least 8 bytes")
        self.key_bytes = bytes(key_bytes)
        self._enc_key = hashlib.sha256(b"enc" + self.key_bytes).digest()
        self._nonce_counter = 0
        self._outl = ctypes.c_int()
        self._outl_ref = _byref(self._outl)
        # The AES-256 key schedule, made once; each call sets the nonce.
        self._ctx = ctypes.c_void_p(_LIBCRYPTO.EVP_CIPHER_CTX_new())
        if not (self._ctx.value and _LIBCRYPTO.EVP_CipherInit_ex(
                self._ctx, _AES_256_GCM, None, self._enc_key, None, 1)):
            raise RuntimeError("libcrypto could not key an AES-256-GCM context")

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

    def seal(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """Encrypt and authenticate: returns ``nonce || ct || tag`` as
        ``bytes`` whatever buffer types ``plaintext`` and ``nonce`` are.

        Without a ``nonce`` the per-key counter advances and is encoded
        as the nonce.  It wraps modulo ``2**96``, so sealing never
        raises ``OverflowError`` and repeats a nonce only after 2**96
        seals on one key; ``open`` reads the nonce from the wire.  A
        caller that passes ``nonce`` owns its uniqueness under the key.
        """
        if nonce is None:
            self._nonce_counter = counter = (self._nonce_counter + 1) % _NONCE_MODULUS
            nonce = counter.to_bytes(_NONCE_BYTES, "big")
        elif len(nonce) != _NONCE_BYTES:
            raise ValueError(f"nonce must be {_NONCE_BYTES} bytes")
        else:
            nonce = bytes(nonce)
        length = len(plaintext)
        if length > _MAX_LENGTH:
            raise ValueError(f"message of {length} bytes exceeds {_MAX_LENGTH}")
        if type(plaintext) is not bytes:
            plaintext = bytes(plaintext)
        sealed = bytearray(nonce).ljust(_OVERHEAD + length, b"\0")
        lib, ctx, outl = _LIBCRYPTO, self._ctx, self._outl_ref
        at = _at(sealed)
        tag = _byref(at, _NONCE_BYTES + length)
        if not (lib.EVP_CipherInit_ex(ctx, None, None, None, nonce, 1)
                and lib.EVP_CipherUpdate(ctx, _byref(at, _NONCE_BYTES), outl,
                                         plaintext, length)
                and self._outl.value == length
                and lib.EVP_CipherFinal_ex(ctx, tag, outl)
                and self._outl.value == 0
                and lib.EVP_CIPHER_CTX_ctrl(ctx, _GET_TAG, _TAG_BYTES, tag)):
            raise RuntimeError("libcrypto AES-256-GCM seal failed")
        return bytes(sealed)

    def open(self, sealed) -> bytes:
        """Verify and decrypt a ``seal`` output (``bytes``, ``bytearray``
        or ``memoryview``): the plaintext is returned only once
        ``EVP_CipherFinal_ex`` has verified the tag."""
        length = len(sealed) - _OVERHEAD
        if length < 0:
            raise CipherError("sealed message too short")
        if length > _MAX_LENGTH:
            raise ValueError(f"message of {length} bytes exceeds {_MAX_LENGTH}")
        buf = bytearray(sealed)
        lib, ctx, outl = _LIBCRYPTO, self._ctx, self._outl_ref
        at = _at(buf)
        body = _byref(at, _NONCE_BYTES)
        tag = _byref(at, _NONCE_BYTES + length)
        if not (lib.EVP_CipherInit_ex(ctx, None, None, None, _byref(at), 0)
                and lib.EVP_CipherUpdate(ctx, body, outl, body, length)
                and self._outl.value == length
                and lib.EVP_CIPHER_CTX_ctrl(ctx, _SET_TAG, _TAG_BYTES, tag)):
            raise RuntimeError("libcrypto AES-256-GCM open failed")
        if not lib.EVP_CipherFinal_ex(ctx, tag, outl):
            raise CipherError("authentication tag mismatch")
        if self._outl.value:
            raise RuntimeError("libcrypto AES-256-GCM open failed")
        return memoryview(buf)[_NONCE_BYTES:_NONCE_BYTES + length].tobytes()

    @staticmethod
    def overhead() -> int:
        """Bytes added by one layer of ``seal`` (nonce + tag)."""
        return _OVERHEAD
