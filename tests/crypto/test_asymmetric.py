"""Tests for the RSA key pairs (bootstrap PKI, temporary K_I)."""

import random

import pytest

from repro.crypto.asymmetric import RsaError, RsaKeyPair, RsaPublicKey, _is_probable_prime
from repro.crypto.symmetric import CipherError, SymmetricKey


@pytest.fixture(scope="module")
def keypair() -> RsaKeyPair:
    return RsaKeyPair.generate(random.Random(42), bits=512)


class TestPrimality:
    def test_small_primes(self):
        rng = random.Random(0)
        for p in (2, 3, 5, 7, 101, 7919):
            assert _is_probable_prime(p, rng)

    def test_small_composites(self):
        rng = random.Random(0)
        for c in (0, 1, 4, 9, 100, 7917, 561, 1105):  # incl. Carmichael
            assert not _is_probable_prime(c, rng)


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert 511 <= keypair.public.n.bit_length() <= 512

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

    def test_invalid_params_rejected(self):
        with pytest.raises(RsaError):
            RsaPublicKey(0)
        with pytest.raises(RsaError):
            RsaPublicKey(100, 1)

    def test_hashable(self, keypair):
        assert len({keypair.public, keypair.public}) == 1
