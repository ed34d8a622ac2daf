"""Tests for the RSA key pairs (bootstrap PKI, temporary K_I)."""

import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import asymmetric
from repro.crypto.asymmetric import (
    RsaError,
    RsaKeyPair,
    RsaPublicKey,
    _pocklington,
    _proved_prime,
    _sieve_prime,
)
from repro.crypto.symmetric import CipherError, SymmetricKey

KEY_BITS = (256, 384, 512, 513)


@pytest.fixture(scope="module")
def keypair() -> RsaKeyPair:
    return RsaKeyPair.generate(random.Random(42), bits=512)


@pytest.fixture(scope="module", params=KEY_BITS)
def sized_pair(request) -> RsaKeyPair:
    return RsaKeyPair.generate(random.Random(request.param), bits=request.param)


def _trial_division_prime(n: int) -> bool:
    """The oracle: no sieve, no randomness."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _is_witness(a: int, n: int) -> bool:
    """Does base ``a`` prove odd ``n`` composite?  (Miller–Rabin, from
    the definition.)"""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _prime_factors(n: int) -> set[int]:
    """Trial division; quick on the smooth ``c - 1`` tested here."""
    factors, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    return factors | ({n} if n > 1 else set())


def _provable(n: int) -> bool:
    """Could a step of ``_proved_prime`` return ``n``?  Below
    ``_SIEVE_BOUND²`` the sieve decides; above it ``n`` must pass the
    sieve and then Pocklington over some prime ``f`` of ``n - 1`` with
    ``(f + 1)² > n`` — if ``n - 1`` has no such factor, no draw of
    ``n = 2tf + 1`` can ever produce ``n``."""
    if n < asymmetric._SIEVE_BOUND ** 2:
        return _sieve_prime(n)
    return _sieve_prime(n) and any(
        _pocklington(n, f) for f in _prime_factors(n - 1)
        if f > 2 and (f + 1) ** 2 > n
    )


def _prime_flags(bound: int) -> bytearray:
    """An independent sieve of Eratosthenes, as the oracle for a range."""
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, bound, i)))
    return flags


#: the first two primes above the sieve bound
_ABOVE = [n for n in range(asymmetric._SIEVE_BOUND, asymmetric._SIEVE_BOUND + 100)
          if _trial_division_prime(n)][:2]


@pytest.fixture()
def steps(monkeypatch):
    """Every Pocklington step run, as ``(n, f, accepted)``."""
    steps = []
    step = asymmetric._pocklington

    def spy(n, f):
        steps.append((n, f, step(n, f)))
        return steps[-1][2]

    monkeypatch.setattr(asymmetric, "_pocklington", spy)
    return steps


@pytest.fixture()
def candidates(monkeypatch):
    """Every candidate the search trial-divides, in order."""
    seen = []
    sieve = asymmetric._sieve_prime
    monkeypatch.setattr(asymmetric, "_sieve_prime",
                        lambda n: seen.append(n) or sieve(n))
    return seen


class _RecordingRandom(random.Random):
    """Records every ``randrange`` range; with ``last`` the first call
    hands out its range's last value instead of a random one."""

    def __init__(self, seed, last=False):
        super().__init__(seed)
        self.ranges, self._last = [], last

    def randrange(self, start, stop=None, step=1):
        self.ranges.append((start, stop))
        if self._last and len(self.ranges) == 1:
            return stop - 1
        return super().randrange(start, stop, step)


class TestPrimality:
    """The sieve base case, and the composites a probabilistic test
    has to be careful with, against the proof that replaced it."""

    def test_small_primes(self):
        for p in (2, 3, 5, 7, 101, 7919):
            assert _sieve_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 100, 7917, 561, 1105):  # incl. Carmichael
            assert not _sieve_prime(c)

    def test_matches_trial_division_below_20000(self):
        """Every ``n`` below, at and above the sieve bound — including
        the primes that divide ``_SIEVE_PRODUCT``, which a sieve that
        answers "has a small factor => composite" gets wrong."""
        assert asymmetric._SIEVE_BOUND < 20_000
        wrong = [n for n in range(-3, 20_000)
                 if _sieve_prime(n) != _trial_division_prime(n)]
        assert wrong == []

    def test_sieve_product_is_every_prime_below_the_bound(self):
        bound = asymmetric._SIEVE_BOUND
        primes = [n for n in range(bound) if _trial_division_prime(n)]
        assert asymmetric._SMALL_PRIMES == frozenset(primes)
        assert asymmetric._SIEVE_PRODUCT == math.prod(primes)

    def test_pseudoprimes_rejected(self):
        """Each fools the base-2 Fermat half of the proof, and none can
        be proved: all have a prime factor below the bound."""
        carmichael = (561, 1729, 41041, 825265, 321197185, 5394826801)
        strong_base_2 = (2047, 3215031751)
        for c in carmichael + strong_base_2:
            assert pow(2, c - 1, c) == 1, c
            assert not _sieve_prime(c), c
            assert not _provable(c), c

    def test_pseudoprimes_without_small_factors_rejected(self):
        """Composites the sieve cannot see: the shape of the proof must
        do it.  The smooth ones have no ``f`` to stand on, and the
        semiprime, which has one, fails Pocklington."""
        bound = asymmetric._SIEVE_BOUND
        # Chernick: (6k+1)(12k+1)(18k+1) is Carmichael when all three
        # factors are prime
        k = next(k for k in range(bound // 6 + 1, 10 * bound)
                 if all(_trial_division_prime(m * k + 1) for m in (6, 12, 18)))
        chernick = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        # the least strong pseudoprime to the first nine prime bases
        spsp9 = 149491 * 747451 * 34233211
        assert spsp9 == 3825123056546413051
        semiprime = _ABOVE[0] * _ABOVE[1]
        for c in (chernick, spsp9, semiprime, _ABOVE[0] ** 2):
            assert c > bound ** 2 and _sieve_prime(c), c
            assert not _provable(c), c
        assert _prime_factors(semiprime - 1) == {2, 3, 7, 11, 6079}
        assert not _pocklington(semiprime, 6079)

    def test_sieved_candidate_draws_nothing(self, monkeypatch):
        """A candidate with a factor below the bound costs no modexp:
        whatever reaches the Pocklington step is coprime to
        ``_SIEVE_PRODUCT``."""
        seen = []
        step = asymmetric._pocklington
        monkeypatch.setattr(asymmetric, "_pocklington",
                            lambda n, f: seen.append(n) or step(n, f))
        RsaKeyPair.generate(random.Random(3), bits=512)
        assert seen
        assert all(math.gcd(n, asymmetric._SIEVE_PRODUCT) == 1 for n in seen)


class TestProof:
    """``_proved_prime``: a Pocklington chain over a sieve base case."""

    def test_pocklington_step_is_exhaustively_sound(self):
        """Every ``n = 2tf + 1 < (f + 1)²`` over an odd prime
        ``f < 3000``: no composite is accepted.  The gcd half carries
        it — 66 composites pass the Fermat half alone."""
        bound = 3000
        is_prime = _prime_flags(bound ** 2 + 1)
        cases = fermat_fooled = 0
        for f in range(3, bound, 2):
            if not is_prime[f]:
                continue
            n = 2 * f + 1
            while n < (f + 1) ** 2:
                cases += 1
                if not is_prime[n]:
                    assert not _pocklington(n, f), (n, f)
                    fermat_fooled += pow(2, n - 1, n) == 1
                n += 2 * f
        assert (cases, fermat_fooled) == (297_125, 66)
        assert 11_305 == 2 * 36 * 157 + 1 and pow(2, 11_304, 11_305) == 1
        assert not _pocklington(11_305, 157)

    @pytest.mark.parametrize("bits", range(23, 35))
    def test_small_proved_primes_are_prime(self, bits):
        for seed in range(5):
            p = _proved_prime(bits, random.Random(seed))
            assert _trial_division_prime(p), (bits, seed, p)
            assert p.bit_length() == bits and p >> (bits - 2) == 0b11
            assert p % asymmetric._E != 1

    @staticmethod
    def _assert_certified(steps, primes):
        """Each step stands on a factor that was itself proved — by the
        sieve below ``_SIEVE_BOUND²`` or by an earlier accepted step —
        and large enough that ``(f + 1)² > n``; each prime returned was
        accepted by a step."""
        proved = set()
        for n, f, accepted in steps:
            assert (n - 1) % (2 * f) == 0 and (f + 1) ** 2 > n, (n, f)
            assert f in proved or (
                f < asymmetric._SIEVE_BOUND ** 2 and _sieve_prime(f)), f
            if accepted:
                proved.add(n)
        assert set(primes) <= proved

    @pytest.mark.parametrize("bits", KEY_BITS)
    def test_every_step_is_certified(self, bits, steps):
        pair = RsaKeyPair.generate(random.Random(bits), bits=bits)
        self._assert_certified(steps, (pair._p, pair._q))

    def test_every_chain_through_the_base_case_is_certified(self, steps):
        """Every size from the first step up to three levels: the
        factor sizes cover 14 to 36 bits, so the 24/25-bit edge of the
        base case is crossed."""
        first_step = (asymmetric._SIEVE_BOUND ** 2).bit_length()
        primes = [_proved_prime(bits, random.Random(bits))
                  for bits in range(first_step, 70)]
        self._assert_certified(steps, primes)


#: every prime below the sieve bound, from the independent sieve
_BELOW = [n for n, flag in enumerate(_prime_flags(asymmetric._SIEVE_BOUND)) if flag]


class TestSearch:
    """How candidates are made and screened: one draw of ``t`` per
    level, stepped by one, and trial division in two stages."""

    @staticmethod
    def _assert_sieve_is_one_gcd(n):
        assert _sieve_prime(n) == (math.gcd(n, math.prod(_BELOW)) == 1), n

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(min_value=asymmetric._SIEVE_BOUND, max_value=1 << 300))
    def test_two_stages_decide_as_one_gcd(self, n):
        self._assert_sieve_is_one_gcd(n)

    def test_two_stages_at_the_stage_boundary(self):
        """Products of two primes from either side of the first stage
        (the odd primes up to 53; 2 is left to the second) and either
        side of the bound: the first stage decides some, the second the
        rest, the answer is always the one full gcd's."""
        small = (2, 3, 47, 53, 59, 61, *_BELOW[-2:])
        large = (*_BELOW[-2:], *_ABOVE)
        products = [p * q for p in small for q in large]
        assert min(products) >= asymmetric._SIEVE_BOUND
        for n in products:
            self._assert_sieve_is_one_gcd(n)
        assert _sieve_prime(_ABOVE[0] * _ABOVE[1])
        assert not _sieve_prime(2 * _ABOVE[0])  # past the first stage

    def test_each_level_draws_t_once(self, steps, candidates):
        rng = _RecordingRandom(7)
        _proved_prime(256, rng)
        levels = sorted({n.bit_length() for n, _, _ in steps}, reverse=True)
        assert levels == [256, 129, 66, 34]
        assert len(rng.ranges) == len(levels)
        assert sum(n.bit_length() == 256 for n in candidates) > 1

    def test_last_t_wraps_to_the_first(self, steps, candidates):
        """A level handed its last ``t`` goes on at the range's first:
        the next ``t`` would leave ``bits`` bits."""
        bits = 40  # one level over a base-case f
        top = 3 << (bits - 2)
        p = _proved_prime(bits, _RecordingRandom(0, last=True))
        f = steps[-1][1]
        step = 2 * f
        first, stop = -(-top // step), -(-(1 << bits) // step)
        at_level = [n for n in candidates if n.bit_length() == bits]
        assert at_level[:2] == [step * (stop - 1) + 1, step * first + 1]
        assert (at_level[0] + step) >> bits == 1
        assert p == at_level[-1] == steps[-1][0] and steps[-1][2]
        assert _trial_division_prime(p)
        assert p.bit_length() == bits and p >> (bits - 2) == 0b11


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert keypair.public.n.bit_length() == 512

    @pytest.mark.parametrize("bits", KEY_BITS)
    def test_exact_modulus_size(self, bits):
        for seed in range(3):
            pair = RsaKeyPair.generate(random.Random(seed), bits=bits)
            assert pair.public.n.bit_length() == bits
            assert pair.public.n == pair._p * pair._q
            assert pair._p != pair._q
            assert pair._p.bit_length() == bits // 2
            assert pair._q.bit_length() == bits - bits // 2

    def test_primes_pass_a_fresh_full_test(self, sized_pair):
        """An independent check of the proof: 24 random-base
        Miller–Rabin rounds, from the definition."""
        rng = random.Random(99)
        for p in (sized_pair._p, sized_pair._q):
            assert not any(_is_witness(rng.randrange(2, p - 1), p)
                           for _ in range(24)), p

    def test_bad_prime_pairs_rejected(self, keypair):
        p, q = keypair._p, keypair._q
        with pytest.raises(RsaError):
            RsaKeyPair(p, p)
        with pytest.raises(RsaError):
            RsaKeyPair(p, q, e=2)  # shares a factor with p-1

    def test_deterministic_per_seed(self):
        a = RsaKeyPair.generate(random.Random(7), bits=384)
        b = RsaKeyPair.generate(random.Random(7), bits=384)
        assert a.public.to_bytes() == b.public.to_bytes()

    def test_too_small_rejected(self):
        with pytest.raises(RsaError):
            RsaKeyPair.generate(random.Random(0), bits=128)


class TestEncryptDecrypt:
    def test_roundtrip(self, keypair):
        rng = random.Random(1)
        for size in (0, 1, 15, 16, 100, 2000):
            msg = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
            assert keypair.decrypt(keypair.public.encrypt(msg, rng)) == msg

    def test_randomized_encryption(self, keypair):
        rng = random.Random(1)
        c1 = keypair.public.encrypt(b"m", rng)
        c2 = keypair.public.encrypt(b"m", rng)
        assert c1 != c2

    def test_wrong_key_rejected(self, keypair):
        other = RsaKeyPair.generate(random.Random(9), bits=512)
        ct = keypair.public.encrypt(b"secret", random.Random(2))
        with pytest.raises(RsaError):
            other.decrypt(ct)

    def test_tampered_ciphertext_rejected(self, keypair):
        ct = bytearray(keypair.public.encrypt(b"secret", random.Random(2)))
        ct[-1] ^= 1
        with pytest.raises(RsaError):
            keypair.decrypt(bytes(ct))

    def test_short_ciphertext_rejected(self, keypair):
        with pytest.raises(RsaError):
            keypair.decrypt(b"tiny")

    def test_payload_failures_are_cipher_errors_only(self, keypair, monkeypatch):
        """``decrypt`` reports a payload that fails authentication or
        framing as ``RsaError`` (caused by the ``CipherError``), and
        nothing else: a programming error inside ``open`` must surface
        as itself, never as "payload authentication failed"."""
        ct = keypair.public.encrypt(b"secret", random.Random(2))
        width = keypair.public.modulus_bytes
        tampered = bytearray(ct)
        tampered[width + 8] ^= 1  # first ciphertext byte of the payload
        for bad in (bytes(tampered), ct[: width + 10]):
            with pytest.raises(RsaError, match="payload authentication") as info:
                keypair.decrypt(bad)
            assert isinstance(info.value.__cause__, CipherError)

        def broken_open(self, sealed):
            raise TypeError("bug inside open")

        monkeypatch.setattr(SymmetricKey, "open", broken_open)
        with pytest.raises(TypeError, match="bug inside open"):
            keypair.decrypt(ct)


def _private_exponent(pair: RsaKeyPair) -> int:
    """The textbook ``d`` the key pair no longer stores."""
    return pow(pair.public.e, -1, (pair._p - 1) * (pair._q - 1))


class TestCrt:
    """CRT private operations against ``pow(c, d, n)``."""

    @settings(max_examples=200, deadline=None)
    @given(frac=st.fractions(min_value=0, max_value=1))
    @example(frac=0)
    @example(frac=1)
    def test_private_op_equals_full_exponent(self, keypair, frac):
        n = keypair.public.n
        c = min(n - 1, int(frac * n))
        assert keypair._private_op(c) == pow(c, _private_exponent(keypair), n)

    def test_private_op_on_edge_inputs(self, sized_pair):
        """0, 1, n-1 and the multiples of p and q (not coprime to n)."""
        n, p, q = sized_pair.public.n, sized_pair._p, sized_pair._q
        d = _private_exponent(sized_pair)
        for c in (0, 1, 2, n - 1, n - 2, p, q, n - p, n - q, 3 * p, 5 * q):
            assert sized_pair._private_op(c) == pow(c, d, n)

    def test_private_op_inverts_public_op(self, sized_pair):
        rng = random.Random(5)
        for _ in range(20):
            m = rng.randrange(sized_pair.public.n)
            assert sized_pair._private_op(sized_pair.public._encrypt_int(m)) == m

    def test_encrypt_decrypt_each_size(self, sized_pair):
        rng = random.Random(6)
        for msg in (b"", b"k" * 16, bytes(range(256)) * 5):
            assert sized_pair.decrypt(sized_pair.public.encrypt(msg, rng)) == msg

    def test_pickle_roundtrip(self, sized_pair):
        clone = pickle.loads(pickle.dumps(sized_pair))
        assert clone.public.to_bytes() == sized_pair.public.to_bytes()
        ct = sized_pair.public.encrypt(b"across processes", random.Random(7))
        assert clone.decrypt(ct) == b"across processes"
        back = clone.public.encrypt(b"and back", random.Random(8))
        assert sized_pair.decrypt(back) == b"and back"


class TestPublicKeyEncoding:
    def test_to_bytes_roundtrip(self, keypair):
        blob = keypair.public.to_bytes()
        n = int.from_bytes(blob[:-4], "big")
        e = int.from_bytes(blob[-4:], "big")
        assert (n, e) == (keypair.public.n, keypair.public.e)

    def test_from_bytes_inverts_to_bytes(self, sized_pair):
        public = sized_pair.public
        decoded = RsaPublicKey.from_bytes(public.to_bytes())
        assert (decoded.n, decoded.e) == (public.n, public.e)

    @pytest.mark.parametrize("data", [
        b"", b"\x01", b"\x00\x01\x00\x01",       # no room for a modulus
        b"\x03" + b"\x00\x01\x00\x01",           # n <= 3
        b"\xff" * 64 + b"\x00\x00\x00\x01",       # e <= 1
        b"\x00" * 68,                             # all zero
    ])
    def test_from_bytes_rejects_degenerate_keys(self, data):
        with pytest.raises(RsaError):
            RsaPublicKey.from_bytes(data)

    @given(blob=st.binary(max_size=72), cut=st.integers(min_value=0, max_value=68))
    def test_from_bytes_fails_closed(self, keypair, blob, cut):
        """Arbitrary and truncated input either raises ``RsaError`` or
        yields a usable key that round-trips — nothing else escapes."""
        encoded = keypair.public.to_bytes()
        for data in (blob, encoded[:cut], encoded[cut:]):
            try:
                key = RsaPublicKey.from_bytes(data)
            except RsaError:
                continue
            assert key.n.bit_length() >= 256 and key.e > 1
            assert RsaPublicKey.from_bytes(key.to_bytes()).to_bytes() == key.to_bytes()

    @pytest.mark.parametrize("bits", [65, 159, 160, 255])
    def test_from_bytes_rejects_a_modulus_below_256_bits(self, bits):
        """The floor ``generate`` enforces, so a peer's undersized
        ``K_I`` fails at decoding: below 160 bits ``encrypt`` has no
        room for its padding and would raise a bare ``ValueError``."""
        n = (1 << (bits - 1)) | 1
        data = n.to_bytes((bits + 7) // 8, "big") + (65537).to_bytes(4, "big")
        with pytest.raises(RsaError, match="below 256 bits"):
            RsaPublicKey.from_bytes(data)
        assert RsaPublicKey(1 << 255).n.bit_length() == 256

    def test_invalid_params_rejected(self):
        with pytest.raises(RsaError):
            RsaPublicKey(0)
        with pytest.raises(RsaError):
            RsaPublicKey(100, 1)
