"""Tests for the RSA key pairs (bootstrap PKI, temporary K_I)."""

import hashlib
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import asymmetric
from repro.crypto.asymmetric import RsaError, RsaKeyPair, RsaPublicKey, _is_probable_prime
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


class _CountingRandom(random.Random):
    """Counts Miller–Rabin base draws."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


#: the first two primes above the sieve bound
_ABOVE = [n for n in range(asymmetric._SIEVE_BOUND, asymmetric._SIEVE_BOUND + 100)
          if _trial_division_prime(n)][:2]


class TestPrimality:
    def test_small_primes(self):
        rng = random.Random(0)
        for p in (2, 3, 5, 7, 101, 7919):
            assert _is_probable_prime(p, rng)

    def test_small_composites(self):
        rng = random.Random(0)
        for c in (0, 1, 4, 9, 100, 7917, 561, 1105):  # incl. Carmichael
            assert not _is_probable_prime(c, rng)

    def test_matches_trial_division_below_20000(self):
        """Every ``n`` below, at and above the sieve bound — including
        the primes that divide ``_SIEVE_PRODUCT``, which a sieve that
        answers "has a small factor => composite" gets wrong."""
        assert asymmetric._SIEVE_BOUND < 20_000
        rng = random.Random(0)
        wrong = [n for n in range(-3, 20_000)
                 if _is_probable_prime(n, rng) != _trial_division_prime(n)]
        assert wrong == []

    def test_sieve_product_is_every_prime_below_the_bound(self):
        bound = asymmetric._SIEVE_BOUND
        primes = [n for n in range(bound) if _trial_division_prime(n)]
        assert asymmetric._SMALL_PRIMES == frozenset(primes)
        assert asymmetric._SIEVE_PRODUCT == math.prod(primes)

    def test_pseudoprimes_rejected(self):
        rng = random.Random(0)
        carmichael = (561, 1729, 41041, 825265, 321197185, 5394826801)
        strong_base_2 = (2047, 3215031751)
        for c in carmichael + strong_base_2:
            assert not _is_probable_prime(c, rng), c

    def test_pseudoprimes_without_small_factors_rejected(self):
        """Composites the sieve cannot see: Miller–Rabin must do it."""
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
        for seed in range(5):
            rng = random.Random(seed)
            for c in (chernick, spsp9, semiprime, _ABOVE[0] ** 2):
                assert not _is_probable_prime(c, rng), c

    def test_sieved_candidate_draws_nothing(self):
        """A factor below the bound costs no base draw (and so no
        modexp): the rng is left exactly where it was."""
        big_prime = asymmetric._random_prime(200, random.Random(3))
        rng = _CountingRandom(11)
        before = rng.getstate()
        for small in (3, 47, 53, max(asymmetric._SMALL_PRIMES)):
            assert not _is_probable_prime(small * big_prime, rng)
        assert not _is_probable_prime(asymmetric._SIEVE_BOUND - 1, rng)
        assert _is_probable_prime(max(asymmetric._SMALL_PRIMES), rng)
        assert rng.draws == 0
        assert rng.getstate() == before

    def test_prime_draws_every_round(self):
        assert asymmetric._MR_ROUNDS == 24
        prime = asymmetric._random_prime(256, random.Random(4))
        rng = _CountingRandom(12)
        assert _is_probable_prime(prime, rng)
        assert rng.draws == asymmetric._MR_ROUNDS
        rng = _CountingRandom(13)
        assert _is_probable_prime(_ABOVE[0], rng)
        assert rng.draws == asymmetric._MR_ROUNDS

    @pytest.mark.parametrize("seed", range(8))
    def test_sieve_passing_composite_draws_one_base_per_round(self, seed):
        """Rounds run until the first witness, one draw each — replayed
        here with an identical rng against the textbook witness test."""
        composite = _ABOVE[0] * _ABOVE[1]
        rng = _CountingRandom(seed)
        replay = random.Random(seed)
        assert not _is_probable_prime(composite, rng)
        expected = 1
        while not _is_witness(replay.randrange(2, composite - 1), composite):
            expected += 1
        assert rng.draws == expected <= asymmetric._MR_ROUNDS
        assert rng.getstate() == replay.getstate()


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
        rng = _CountingRandom(99)
        assert _is_probable_prime(sized_pair._p, rng)
        assert _is_probable_prime(sized_pair._q, rng)
        assert rng.draws == 2 * asymmetric._MR_ROUNDS

    def test_bad_prime_pairs_rejected(self, keypair):
        p, q = keypair._p, keypair._q
        with pytest.raises(RsaError):
            RsaKeyPair(p, p)
        with pytest.raises(RsaError):
            RsaKeyPair(p, q, e=2)  # shares a factor with p-1

    def test_deterministic_per_seed(self):
        a = RsaKeyPair.generate(random.Random(7), bits=384)
        b = RsaKeyPair.generate(random.Random(7), bits=384)
        assert a.public == b.public

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

    def test_sign_verify_each_size(self, sized_pair):
        sig = sized_pair.sign(b"message")
        assert len(sig) == sized_pair.public.modulus_bytes
        assert sized_pair.public.verify(b"message", sig)
        assert not sized_pair.public.verify(b"other", sig)
        n = sized_pair.public.n
        digest = int.from_bytes(
            hashlib.sha256(b"message").digest(), "big") % n
        assert int.from_bytes(sig, "big") == pow(digest, _private_exponent(sized_pair), n)

    def test_sign_refuses_to_release_a_faulty_signature(self, keypair):
        """A corrupted CRT half would hand out a signature whose gcd
        with ``n`` factors it; ``sign`` checks under the public key
        first."""
        broken = pickle.loads(pickle.dumps(keypair))
        broken._d_p ^= 1
        with pytest.raises(RsaError, match="verification"):
            broken.sign(b"message")

    def test_pickle_roundtrip(self, sized_pair):
        clone = pickle.loads(pickle.dumps(sized_pair))
        assert clone.public == sized_pair.public
        ct = sized_pair.public.encrypt(b"across processes", random.Random(7))
        assert clone.decrypt(ct) == b"across processes"
        assert clone.sign(b"m") == sized_pair.sign(b"m")


class TestSignVerify:
    def test_roundtrip(self, keypair):
        sig = keypair.sign(b"message")
        assert keypair.public.verify(b"message", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"message")
        assert not keypair.public.verify(b"other", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"message"))
        sig[0] ^= 1
        assert not keypair.public.verify(b"message", bytes(sig))

    def test_wrong_length_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"message", b"\x00" * 10)


class TestPublicKeyEncoding:
    def test_to_bytes_roundtrip(self, keypair):
        blob = keypair.public.to_bytes()
        n = int.from_bytes(blob[:-4], "big")
        e = int.from_bytes(blob[-4:], "big")
        assert RsaPublicKey(n, e) == keypair.public

    def test_from_bytes_inverts_to_bytes(self, sized_pair):
        public = sized_pair.public
        assert RsaPublicKey.from_bytes(public.to_bytes()) == public

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
            assert key.n > 3 and key.e > 1
            assert RsaPublicKey.from_bytes(key.to_bytes()) == key

    def test_invalid_params_rejected(self):
        with pytest.raises(RsaError):
            RsaPublicKey(0)
        with pytest.raises(RsaError):
            RsaPublicKey(100, 1)

    def test_hashable(self, keypair):
        assert len({keypair.public, keypair.public}) == 1
