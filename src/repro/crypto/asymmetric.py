"""Schoolbook RSA for the bootstrap PKI and temporary initiator keys.

The paper assumes "a public key infrastructure on a P2P system by
assuming each node has a pair of private and public keys" (§3.3), used
for the Onion-Routing bootstrap, and a temporary public key ``K_I``
that the responder uses to wrap the file key (§4).

This is textbook RSA over CPython ints, with modexps from 192 bits up
in hashlib's libcrypto, provable-prime key generation and a hash-based
hybrid mode for arbitrary-length messages (RSA carries a fresh
symmetric key; the payload rides under that key).  Default modulus is
512 bits: simulation-scale security, real key generation, real algebra.

Key material is prepared once per key pair:

* **Proved primes.**  Every prime carries a proof, not an error bound.
  Below ``_SIEVE_BOUND²`` (24 bits) trial division by every prime
  under ``_SIEVE_BOUND`` decides primality.  Above it a candidate is
  ``n = 2tf + 1`` over a recursively proved prime ``f`` with
  ``f + 1 > √n``, and Pocklington's criterion decides it (the
  Shawe–Taylor structure, FIPS 186-4 App. C.6).  ``t`` is drawn once
  per level and then stepped by one, so a candidate costs one addition.
  Trial division is two gcds: the odd primes up to 53 reject 73 % of
  candidates for under a microsecond, the full product half the rest,
  and each survivor costs one modexp.  Per 512-bit pair (100 seeds):
  346 candidates, 96 second-stage gcds and 46 modexps, 24 of them
  modulo 256-bit numbers; 86 % of candidates never reach a modexp.
* **Native modexps.**  ``_modexp`` is ``pow(base, exp, mod)``; from
  ``_NATIVE_MODEXP_BITS`` up it runs in ``BN_mod_exp`` of the OpenSSL
  that ``_hashlib`` already links (called through ``ctypes``), about
  three times faster than ``pow`` at 256 bits.  The Pocklington tests and
  the CRT halves call it; a 512-bit pair takes ~2.5 ms instead of
  ~4.5 ms.  Where that library cannot be bound, ``_modexp`` is the
  builtin ``pow``: the same integers either way, so the same keys.
* **CRT private operations.**  The pair keeps ``p``, ``q``,
  ``d mod (p-1)``, ``d mod (q-1)`` and ``q⁻¹ mod p``; ``decrypt`` is
  two half-size modexps recombined by Garner's formula instead of one
  full-size ``pow(c, d, n)``.  The full private exponent ``d`` is not
  stored; the tests compute it as the reference.  Nothing in TAP signs,
  so the pair has no signing operation.
"""

from __future__ import annotations

import ctypes
import math
import random

from repro.crypto.symmetric import CipherError, SymmetricKey

_E = 65537
#: candidates are trial-divided by every prime below this.  A wider
#: bound trades the gcd each stage-one survivor pays against the
#: Pocklington tests it saves; measured per 512-bit pair (100 seeds,
#: 2-CPU box, CPython 3.11, OpenSSL 3.0; gcd and pass rate on 256-bit
#: candidates, time the median of 40 interleaved batches of 40 pairs
#: with the tests' modexps in ``pow`` and in ``BN_mod_exp``, and how
#: many batches the native run beat 4,096's):
#:
#:   bound   product   full gcd   passes   tests   pow ms   native ms   wins
#:   1,024   1,420 b     2.6 µs   16.3 %    55.3     4.74      2.49     24/40
#:   2,048   2,865 b     3.3 µs   14.9 %    50.4     4.54      2.49     24/40
#:   4,096   5,811 b     5.7 µs   13.7 %    46.4     4.48      2.56       —
#:   8,192  11,635 b    10.7 µs   12.7 %    42.8     4.60      2.92      5/40
#:
#: The 40 seeds draw the same keys at every bound.  With native modexps the gcd costs
#: as much as the tests it saves from 1,024 to 4,096; an earlier run
#: had 2,048 ahead in 34 of 40 batches, short of nine in ten.
_SIEVE_BOUND = 4096


#: ``_modexp`` hands a modulus of this many bits or more to OpenSSL's
#: ``BN_mod_exp`` and a smaller one to the builtin ``pow``: the ctypes
#: call pays ~6 µs of conversions and allocations before any
#: arithmetic.  Keygen's chain levels are 256 → 129 → 66 → 34 bits
#: for a 512-bit pair (192 → 97 → 50 for 384).  Measured per
#: Pocklington test (two modexps, exponents half the modulus; 2-CPU
#: box, CPython 3.11, OpenSSL 3.0; median of 31 interleaved batches of
#: 500 tests):
#:
#:     bits   pow      BN_mod_exp   native faster
#:       66    13.3 µs    29.1 µs      0/31
#:       97    24.2 µs    29.3 µs      1/31
#:      129    35.5 µs    33.3 µs     20/31
#:      160    52.0 µs    35.4 µs     31/31
#:      192    74.8 µs    36.3 µs     31/31
#:      256   127.7 µs    41.0 µs     31/31
#:
#: 129 is a tie: 512-bit keygen at a 129-bit threshold won 22 of 40
#: interleaved batches against 192, inside the batches' own spread.
_NATIVE_MODEXP_BITS = 192
_NATIVE_MODEXP_MIN = 1 << (_NATIVE_MODEXP_BITS - 1)


class RsaError(ValueError):
    """Raised on malformed ciphertexts or bad parameters."""


def _bind_bn() -> tuple | None:
    """The ``BN_*`` functions ``_modexp`` calls, typed, from the
    libcrypto that ``_hashlib`` links, or ``None`` where there is none.

    ``ctypes.CDLL`` of the extension module itself: its symbol lookup
    also searches the extension's dependencies, so this binds the very
    OpenSSL hashlib uses, with no soname to guess and no second load.
    Every call but the two frees fails closed through ``_bn_check``.
    """
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    signatures = (
        ("BN_CTX_new", ptr),
        ("BN_CTX_free", None, ptr),
        ("BN_bin2bn", ptr, ctypes.c_char_p, c_int, ptr),
        ("BN_new", ptr),
        ("BN_free", None, ptr),
        ("BN_mod_exp", c_int, ptr, ptr, ptr, ptr, ptr),
        ("BN_bn2binpad", c_int, ptr, ctypes.c_char_p, c_int),
    )
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        bound = tuple(getattr(lib, name) for name, *_ in signatures)
    except (ImportError, OSError, AttributeError):
        return None
    for fn, (_, restype, *argtypes) in zip(bound, signatures):
        fn.restype, fn.argtypes = restype, argtypes
        if restype is not None:
            fn.errcheck = _bn_check
    return bound


def _bn_check(result, fn, args):
    """ctypes ``errcheck`` of every ``BN_*`` call that reports: a NULL
    pointer, a 0 status or ``BN_bn2binpad``'s -1 raises, so a failed
    call never yields a value."""
    if result is None or result <= 0:
        raise RuntimeError(f"libcrypto {fn.__name__} failed")
    return result


def _modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``: by ``BN_mod_exp`` for a modulus of
    ``_NATIVE_MODEXP_BITS`` bits or more and ``exp >= 0``, by the
    builtin ``pow`` otherwise.  The base is reduced first, since
    ``BN_mod_exp`` wants ``0 <= base < mod`` (a CRT half passes a
    ``c`` above its prime).  Every ``BN`` and the ``BN_CTX`` are made
    and freed by the call, so threads share no libcrypto state; ctypes
    drops the GIL around each call.  A failed libcrypto call raises
    ``RuntimeError``."""
    if exp < 0 or mod < _NATIVE_MODEXP_MIN:
        return pow(base, exp, mod)
    ctx_new, ctx_free, bin2bn, bn_new, bn_free, mod_exp, bn2binpad = _BN
    # int's own methods, so a non-int argument raises pow's TypeError
    width = (int.bit_length(mod) + 7) >> 3
    exp_width = (int.bit_length(exp) + 7) >> 3
    base_bytes = int.to_bytes(base % mod, width, "big")
    exp_bytes = int.to_bytes(exp, exp_width, "big")
    mod_bytes = int.to_bytes(mod, width, "big")
    out = ctypes.create_string_buffer(width)
    ctx = a = p = m = r = None
    try:
        ctx = ctx_new()
        a = bin2bn(base_bytes, width, None)
        p = bin2bn(exp_bytes, exp_width, None)
        m = bin2bn(mod_bytes, width, None)
        r = bn_new()
        mod_exp(r, a, p, m, ctx)
        bn2binpad(r, out, width)
    finally:
        # BN_free and BN_CTX_free take NULL
        bn_free(r)
        bn_free(m)
        bn_free(p)
        bn_free(a)
        ctx_free(ctx)
    return int.from_bytes(out.raw, "big")


_BN = _bind_bn()
if _BN is None:
    _modexp = pow  # noqa: F811 - no libcrypto to bind: the builtin is the kernel


def _primes_below(bound: int) -> list[int]:
    """Sieve of Eratosthenes."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, bound, i)))
    return [i for i, flag in enumerate(flags) if flag]


_SMALL_PRIMES = frozenset(_primes_below(_SIEVE_BOUND))
_SIEVE_PRODUCT = math.prod(_SMALL_PRIMES)
#: trial division's first stage, the odd primes up to 53: their product
#: fits in 64 bits, and 27 % of candidates pass it
_STAGE_ONE_PRODUCT = math.prod(p for p in _SMALL_PRIMES if 2 < p <= 53)


def _sieve_prime(n: int) -> bool:
    """Primality of ``n < _SIEVE_BOUND²``, from the prime table or trial
    division by every prime below the bound: such an ``n`` with no
    prime factor below it is prime.  Above that bound ``False`` still
    proves ``n`` composite.  The division is two gcds, the cheap one
    first; ``_SIEVE_PRODUCT`` has every stage-one prime as a factor, so
    the answer is the full-product gcd's alone."""
    if n < _SIEVE_BOUND:
        return n in _SMALL_PRIMES
    return (math.gcd(n, _STAGE_ONE_PRODUCT) == 1
            and math.gcd(n, _SIEVE_PRODUCT) == 1)


def _pocklington(n: int, f: int) -> bool:
    """Pocklington's criterion, base 2, for ``n = 2tf + 1``.

    With ``f`` prime and ``(f + 1)² > n``, ``True`` proves ``n`` prime:
    ``2^(n-1) ≡ 1`` and ``gcd(2^(2t) - 1, n) = 1`` put every prime
    factor of ``n`` at ``1 mod f``, so above ``√n``.
    """
    z = _modexp(2, (n - 1) // f, n)
    return _modexp(z, f, n) == 1 and math.gcd(z - 1, n) == 1


def _proved_prime(bits: int, rng: random.Random) -> int:
    """A proved prime of exactly ``bits`` bits, the top two set
    (guarantees modulus size), with ``e`` invertible modulo ``p - 1``."""
    top = 3 << (bits - 2)
    if 1 << bits <= _SIEVE_BOUND ** 2:
        while True:
            n = rng.getrandbits(bits) | top | 1
            if n % _E != 1 and _sieve_prime(n):
                return n
    # f has top two bits set, so f² > 2^bits > n
    f = _proved_prime((bits + 1) // 2 + 1, rng)
    step = 2 * f
    first = -(-top // step)
    # t is drawn once, then stepped by one, wrapping from the last t
    # below 2^bits to the first above top (FIPS 186-4 App. C.6 step 32)
    n = step * rng.randrange(first, -(-(1 << bits) // step)) + 1
    while True:
        if _sieve_prime(n) and n % _E != 1 and _pocklington(n, f):
            return n
        n += step
        if n >> bits:
            n = step * first + 1


class RsaPublicKey:
    """The shareable half of a key pair: encrypt and verify."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int = _E):
        # the floor generate enforces; below 160 bits encrypt has no room
        if n < 1 << 255 or e <= 1:
            raise RsaError("public key below 256 bits or with e <= 1")
        self.n = n
        self.e = e

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Canonical encoding (used as a node identifier input)."""
        width = self.modulus_bytes
        return self.n.to_bytes(width, "big") + self.e.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        """Decode :meth:`to_bytes` output received from a peer.

        Fails closed: input too short to hold a modulus ahead of the
        4-byte exponent decodes to ``n = 0``, which — like any modulus
        below 256 bits or ``e <= 1`` — raises :class:`RsaError`.
        """
        return cls(int.from_bytes(data[:-4], "big"),
                   int.from_bytes(data[-4:], "big"))

    def _encrypt_int(self, m: int) -> int:
        if not 0 <= m < self.n:
            raise RsaError("plaintext integer out of range")
        return pow(m, self.e, self.n)

    def encrypt(self, plaintext: bytes, rng: random.Random) -> bytes:
        """Hybrid encryption: RSA wraps a fresh key, which seals the payload.

        Output: ``wrapped_key(modulus_bytes) || sealed_payload``.
        """
        session_key = rng.getrandbits(128).to_bytes(16, "big")
        # Pad the session key with randomness; a zero leading byte keeps
        # the padded block strictly below the modulus.
        pad_len = self.modulus_bytes - 20
        pad = rng.getrandbits(8 * pad_len).to_bytes(pad_len, "big")
        block = b"\x00\x02" + pad + b"\x00" + session_key
        assert len(block) == self.modulus_bytes - 1
        m = int.from_bytes(block, "big")
        wrapped = self._encrypt_int(m).to_bytes(self.modulus_bytes, "big")
        sealed = SymmetricKey(session_key).seal(plaintext)
        return wrapped + sealed


class RsaKeyPair:
    """A node's key pair, held in CRT form (``p``, ``q`` and the three
    values derived from them).  ``generate`` is the only constructor
    users need."""

    __slots__ = ("public", "_p", "_q", "_d_p", "_d_q", "_q_inv")

    def __init__(self, p: int, q: int, e: int = _E):
        self.public = RsaPublicKey(p * q, e)
        self._p = p
        self._q = q
        try:
            self._d_p = pow(e, -1, p - 1)
            self._d_q = pow(e, -1, q - 1)
            self._q_inv = pow(q, -1, p)
        except ValueError as exc:
            raise RsaError(
                "not a key pair: e needs an inverse modulo p-1 and q-1, "
                "q one modulo p"
            ) from exc

    @classmethod
    def generate(cls, rng: random.Random, bits: int = 512) -> "RsaKeyPair":
        """Generate a fresh key pair with a ``bits``-bit modulus."""
        if bits < 256:
            raise RsaError("modulus below 256 bits cannot wrap a session key")
        half = bits // 2
        while True:
            p = _proved_prime(half, rng)
            q = _proved_prime(bits - half, rng)
            if p == q:
                continue
            try:
                return cls(p, q)
            except RsaError:
                continue

    def _private_op(self, c: int) -> int:
        """``pow(c, d, n)`` for ``0 <= c < n`` by the CRT: one modexp
        modulo each prime, recombined by Garner's formula."""
        m_p = _modexp(c, self._d_p, self._p)
        m_q = _modexp(c, self._d_q, self._q)
        return m_q + (self._q_inv * (m_p - m_q)) % self._p * self._q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`RsaPublicKey.encrypt`."""
        width = self.public.modulus_bytes
        if len(ciphertext) < width:
            raise RsaError("ciphertext shorter than RSA block")
        wrapped = int.from_bytes(ciphertext[:width], "big")
        if wrapped >= self.public.n:
            raise RsaError("RSA block out of range")
        m = self._private_op(wrapped)
        session_key = (m & ((1 << 128) - 1)).to_bytes(16, "big")
        try:
            return SymmetricKey(session_key).open(ciphertext[width:])
        except CipherError as exc:
            raise RsaError("payload authentication failed") from exc
