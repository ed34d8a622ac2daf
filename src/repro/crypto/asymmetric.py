"""Schoolbook RSA for the bootstrap PKI and temporary initiator keys.

The paper assumes "a public key infrastructure on a P2P system by
assuming each node has a pair of private and public keys" (§3.3), used
for the Onion-Routing bootstrap, and a temporary public key ``K_I``
that the responder uses to wrap the file key (§4).

This is textbook RSA over CPython ints, with modexps from 97 bits up
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
  and each survivor costs one Pocklington test.  Per 512-bit pair (100
  seeds): 346 candidates, 96 second-stage gcds and 46 tests, 24 of
  them modulo 256-bit numbers; 86 % of candidates never reach a test.
* **A native kernel.**  From ``_NATIVE_MODEXP_BITS`` up the
  Pocklington tests and the CRT halves run in the OpenSSL that
  ``_hashlib`` already links (called through ``ctypes``, on the handle
  ``repro.crypto.symmetric`` binds its cipher on), on a per-thread
  workspace (``_Workspace``): one ``BN_CTX``, one ``BN_MONT_CTX`` and
  five ``BN``s, made on the thread's first native call and reused by
  every later one.  A Pocklington test is one native sequence on it,
  whose two modexps share one Montgomery context for ``n``; only its
  verdict comes back, and at 256 bits it takes about a fifth of its
  time in ``pow``.  In traced ``retrieve_bulk`` runs (seed 2004, four
  per tree) a request's 512-bit ``K_I`` pair reads 1,569–1,607 µs of
  keygen, against 1,672–1,745 µs when each of a test's two modexps set
  up its own Montgomery context.  Where libcrypto cannot be bound both
  run on the builtin ``pow``: the same integers either way, so the same
  keys.
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
import threading

from repro.crypto.symmetric import _LIBCRYPTO, CipherError, SymmetricKey, _bind

_E = 65537
#: candidates are trial-divided by every prime below this.  A wider
#: bound trades the gcd each stage-one survivor pays against the
#: Pocklington tests it saves; measured per 512-bit pair (100 seeds,
#: 2-CPU box, CPython 3.11, OpenSSL 3.0; gcd and pass rate on 256-bit
#: candidates, time the median of 40 interleaved batches of 40 pairs
#: with the tests in ``pow`` and in the per-thread workspace, and how
#: many batches the workspace run beat 4,096's; the base case stays at
#: 24 bits throughout):
#:
#:   bound   product   full gcd   passes   tests   pow ms   native ms   wins
#:   1,024   1,420 b     2.6 µs   16.3 %    55.3     4.74      2.26     25/40
#:   2,048   2,865 b     3.3 µs   14.9 %    50.4     4.54      2.18     25/40
#:   4,096   5,811 b     5.7 µs   13.7 %    46.4     4.48      2.28       —
#:   8,192  11,635 b    10.7 µs   12.7 %    42.8     4.60      2.39     20/40
#:
#: The 40 seeds draw the same keys at every bound.  With the tests
#: native the gcd costs about as much as the tests it saves from 1,024
#: to 4,096; a run of 30 batches had 2,048 ahead in 24 and 1,024 in 22,
#: short of nine in ten every time.  A smaller bound would also need a
#: base case of its own to keep the keys of every size.
_SIEVE_BOUND = 4096


#: ``_modexp`` and ``_pocklington`` hand a modulus of this many bits or
#: more to the thread's libcrypto workspace and a smaller one to the
#: builtin ``pow``: below, OpenSSL's fixed cost per call (about 6 µs of
#: a test's is ``BN_MONT_CTX_set`` alone) outweighs the arithmetic.
#: Keygen's chain levels are 256 → 129 → 66 → 34 bits for a 512-bit
#: pair (192 → 97 → 50 for 384).  Measured per Pocklington test on
#: keygen's sieved candidates, the workspace running one Montgomery
#: context per test (2-CPU box, CPython 3.11, OpenSSL 3.0; median of 10
#: interleaved batches of 500 tests, best of 3 each):
#:
#:     bits   pow       workspace   native faster
#:       34     6.2 µs    14.7 µs      0/10
#:       50     9.6 µs    16.2 µs      0/10
#:       66    15.1 µs    16.2 µs      0/10
#:       97    25.7 µs    16.5 µs     10/10
#:      129    35.1 µs    22.0 µs     10/10
#:      160    54.5 µs    20.8 µs     10/10
#:      192    73.5 µs    22.5 µs     10/10
#:      256   140.0 µs    29.9 µs     10/10
#:
#: The constant rests on these rows: native wins every batch from 97
#: bits up and none at 66, so 97, the lowest size measured to win, is
#: where the workspace starts.  Every product key is 512 bits, whose
#: levels take the same paths at 97 as at 129; the two differ only on a
#: 384-bit pair's 97-bit level.  Keys are the same at every crossover.
_NATIVE_MODEXP_BITS = 97
_NATIVE_MODEXP_MIN = 1 << (_NATIVE_MODEXP_BITS - 1)


class RsaError(ValueError):
    """Raised on malformed ciphertexts or bad parameters."""


def _bind_bn() -> ctypes.CDLL | None:
    """The libcrypto that ``_hashlib`` links (``symmetric``'s handle),
    with the ``BN_*`` functions the workspace calls typed, or ``None``
    where it lacks one."""
    ptr, c_int = ctypes.c_void_p, ctypes.c_int
    # BN_ULONG is the machine word, as size_t is on every ABI OpenSSL
    # builds for
    word = ctypes.c_size_t
    signatures = (
        ("BN_CTX_new", ptr),
        ("BN_CTX_free", None, ptr),
        ("BN_new", ptr),
        ("BN_free", None, ptr),
        ("BN_MONT_CTX_new", ptr),
        ("BN_MONT_CTX_free", None, ptr),
        ("BN_MONT_CTX_set", c_int, ptr, ptr, ptr),
        ("BN_bin2bn", ptr, ctypes.c_char_p, c_int, ptr),
        ("BN_bn2binpad", c_int, ptr, ctypes.c_char_p, c_int),
        ("BN_mod_exp", c_int, ptr, ptr, ptr, ptr, ptr),
        ("BN_mod_exp_mont", c_int, ptr, ptr, ptr, ptr, ptr, ptr),
        ("BN_mod_exp_mont_word", c_int, ptr, word, ptr, ptr, ptr, ptr),
        ("BN_is_one", c_int, ptr),
        ("BN_sub_word", c_int, ptr, word),
        ("BN_gcd", c_int, ptr, ptr, ptr, ptr),
    )
    try:
        _bind(_LIBCRYPTO, signatures)
    except AttributeError:
        return None
    return _LIBCRYPTO


class _Workspace:
    """One thread's libcrypto scratch space: a ``BN_CTX``, a
    ``BN_MONT_CTX`` and five ``BN``s that every native call of the
    thread reuses, so a call converts its operands into existing
    ``BN``s and allocates nothing.

    ``_workspace`` makes it on the thread's first native call and keeps
    it in a ``threading.local``, which drops it, and so frees it, when
    the thread ends; a ``fork`` child owns its own copy.  Every status
    is checked where it is returned: a failed libcrypto call raises
    ``RuntimeError``, so none ever yields a value.  ctypes drops the
    GIL around each call, so threads interleave inside libcrypto on
    their own workspaces.
    """

    __slots__ = ("_lib", "_ctx", "_mont", "_bns")

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._ctx = self._mont = self._bns = None
        self._ctx = lib.BN_CTX_new()
        self._mont = lib.BN_MONT_CTX_new()
        self._bns = tuple(lib.BN_new() for _ in range(5))
        if not (self._ctx and self._mont and all(self._bns)):
            raise RuntimeError("libcrypto could not make a workspace")

    def __del__(self):
        # BN_free, BN_MONT_CTX_free and BN_CTX_free take NULL
        for bn in self._bns or ():
            self._lib.BN_free(bn)
        self._lib.BN_MONT_CTX_free(self._mont)
        self._lib.BN_CTX_free(self._ctx)

    def modexp(self, base: int, exp: int, mod: int) -> int:
        """``pow(base, exp, mod)`` for ``exp >= 0`` and ``mod > 1`` by
        ``BN_mod_exp``, the base reduced first: ``BN_mod_exp`` wants
        ``0 <= base < mod`` (a CRT half passes a ``c`` above its
        prime)."""
        lib = self._lib
        m, p, _, a, r = self._bns
        # int's own methods, so a non-int argument raises pow's TypeError
        width = (int.bit_length(mod) + 7) >> 3
        exp_width = (int.bit_length(exp) + 7) >> 3
        # a bytearray, not a ctypes array: ctypes keeps array types
        # only weakly, so a (c_char * width) per call is rebuilt after
        # every GC pass
        out = bytearray(width)
        if not (lib.BN_bin2bn(int.to_bytes(mod, width, "big"), width, m)
                and lib.BN_bin2bn(int.to_bytes(exp, exp_width, "big"), exp_width, p)
                and lib.BN_bin2bn(int.to_bytes(base % mod, width, "big"), width, a)
                and lib.BN_mod_exp(r, a, p, m, self._ctx)
                and lib.BN_bn2binpad(r, ctypes.byref(ctypes.c_char.from_buffer(out)),
                                     width) == width):
            raise RuntimeError("libcrypto modexp failed")
        return int.from_bytes(out, "big")

    def pocklington(self, n: int, f: int) -> bool:
        """``_pocklington(n, f)`` as one native sequence: the operands go
        into the workspace's ``BN``s, both modexps share one Montgomery
        context for ``n`` (the first with the word base 2), and only the
        verdict comes back."""
        lib, ctx, mont = self._lib, self._ctx, self._mont
        bn_n, bn_e, bn_f, z, y = self._bns
        e = (n - 1) // f
        width = (n.bit_length() + 7) >> 3
        e_width = (e.bit_length() + 7) >> 3
        f_width = (f.bit_length() + 7) >> 3
        if not (lib.BN_bin2bn(n.to_bytes(width, "big"), width, bn_n)
                and lib.BN_bin2bn(e.to_bytes(e_width, "big"), e_width, bn_e)
                and lib.BN_bin2bn(f.to_bytes(f_width, "big"), f_width, bn_f)
                and lib.BN_MONT_CTX_set(mont, bn_n, ctx)
                and lib.BN_mod_exp_mont_word(z, 2, bn_e, bn_n, ctx, mont)
                and lib.BN_mod_exp_mont(y, z, bn_f, bn_n, ctx, mont)):
            raise RuntimeError("libcrypto Pocklington test failed")
        if not lib.BN_is_one(y):
            return False
        # z is 2^(2t) mod n, never 0 for odd n > 1
        if not (lib.BN_sub_word(z, 1) and lib.BN_gcd(y, z, bn_n, ctx)):
            raise RuntimeError("libcrypto Pocklington test failed")
        return lib.BN_is_one(y) == 1


_BN = _bind_bn()
_THREAD = threading.local()


def _workspace() -> _Workspace:
    """The calling thread's workspace, made on its first native call."""
    try:
        return _THREAD.workspace
    except AttributeError:
        _THREAD.workspace = workspace = _Workspace(_BN)
        return workspace


def _modexp(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)``: in the thread's libcrypto workspace for
    a modulus of ``_NATIVE_MODEXP_BITS`` bits or more and ``exp >= 0``,
    by the builtin ``pow`` otherwise and wherever libcrypto is not
    bound.  A failed libcrypto call raises ``RuntimeError``."""
    if _BN is None or exp < 0 or mod < _NATIVE_MODEXP_MIN:
        return pow(base, exp, mod)
    return _workspace().modexp(base, exp, mod)


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
    factor of ``n`` at ``1 mod f``, so above ``√n``.  From
    ``_NATIVE_MODEXP_BITS`` up the test is one native sequence in the
    thread's workspace; below, and wherever libcrypto is not bound, it
    is the builtin ``pow``: the same verdict either way.
    """
    if _BN is None or n < _NATIVE_MODEXP_MIN:
        z = pow(2, (n - 1) // f, n)
        return pow(z, f, n) == 1 and math.gcd(z - 1, n) == 1
    return _workspace().pocklington(n, f)


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
