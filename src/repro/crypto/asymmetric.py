"""Schoolbook RSA for the bootstrap PKI and temporary initiator keys.

The paper assumes "a public key infrastructure on a P2P system by
assuming each node has a pair of private and public keys" (§3.3), used
for the Onion-Routing bootstrap, and a temporary public key ``K_I``
that the responder uses to wrap the file key (§4).

This is textbook RSA over Python big ints with Miller–Rabin key
generation and a hash-based hybrid mode for arbitrary-length messages
(RSA carries a fresh symmetric key; the payload rides under that key).
Default modulus is 512 bits: simulation-scale security, real key
generation, real algebra.
"""

from __future__ import annotations

import hashlib
import random

from repro.crypto.symmetric import CipherError, SymmetricKey

_E = 65537
_MR_ROUNDS = 24


class RsaError(ValueError):
    """Raised on malformed ciphertexts/signatures or bad parameters."""


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller–Rabin with ``_MR_ROUNDS`` random bases (plus small-prime sieve)."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(_MR_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A random prime with the top two bits set (guarantees modulus size)."""
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if candidate % _E == 1:
            continue  # e must be invertible mod p-1
        if _is_probable_prime(candidate, rng):
            return candidate


class RsaPublicKey:
    """The shareable half of a key pair: encrypt and verify."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e: int = _E):
        if n <= 3 or e <= 1:
            raise RsaError("invalid public key parameters")
        self.n = n
        self.e = e

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def to_bytes(self) -> bytes:
        """Canonical encoding (used as a node identifier input)."""
        width = self.modulus_bytes
        return self.n.to_bytes(width, "big") + self.e.to_bytes(4, "big")

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

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Hash-and-verify a signature produced by :meth:`RsaKeyPair.sign`."""
        if len(signature) != self.modulus_bytes:
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.n
        return recovered == digest

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RsaPublicKey) and (self.n, self.e) == (other.n, other.e)

    def __hash__(self) -> int:
        return hash((self.n, self.e))

    def __repr__(self) -> str:
        return f"RsaPublicKey(n~2^{self.n.bit_length()}, e={self.e})"


class RsaKeyPair:
    """A node's key pair.  ``generate`` is the only constructor users need."""

    __slots__ = ("public", "_d")

    def __init__(self, n: int, e: int, d: int):
        self.public = RsaPublicKey(n, e)
        self._d = d

    @classmethod
    def generate(cls, rng: random.Random, bits: int = 512) -> "RsaKeyPair":
        """Generate a fresh key pair with a ``bits``-bit modulus."""
        if bits < 256:
            raise RsaError("modulus below 256 bits cannot wrap a session key")
        half = bits // 2
        while True:
            p = _random_prime(half, rng)
            q = _random_prime(bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            try:
                d = pow(_E, -1, phi)
            except ValueError:
                continue
            return cls(n, _E, d)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Inverse of :meth:`RsaPublicKey.encrypt`."""
        width = self.public.modulus_bytes
        if len(ciphertext) < width:
            raise RsaError("ciphertext shorter than RSA block")
        wrapped = int.from_bytes(ciphertext[:width], "big")
        if wrapped >= self.public.n:
            raise RsaError("RSA block out of range")
        m = pow(wrapped, self._d, self.public.n)
        session_key = (m & ((1 << 128) - 1)).to_bytes(16, "big")
        try:
            return SymmetricKey(session_key).open(ciphertext[width:])
        except CipherError as exc:
            raise RsaError("payload authentication failed") from exc

    def sign(self, message: bytes) -> bytes:
        """Hash-and-sign (no padding — simulation-grade)."""
        digest = int.from_bytes(hashlib.sha256(message).digest(), "big") % self.public.n
        sig = pow(digest, self._d, self.public.n)
        return sig.to_bytes(self.public.modulus_bytes, "big")

    def __repr__(self) -> str:
        return f"RsaKeyPair({self.public!r})"
