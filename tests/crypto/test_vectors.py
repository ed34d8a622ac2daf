"""Pinned test vectors: the wire formats must never drift silently.

A deployed anonymity network cannot change its cryptographic framing
without a coordinated upgrade, so these tests pin the exact bytes of
each construction against known inputs.  If any of them fails after a
refactor, the change is wire-breaking and must be intentional.
"""

import hashlib
import random

from repro.crypto.hashing import derive_hopid, hash_password, sha1_id
from repro.crypto.onion import OnionLayer, build_onion
from repro.crypto.symmetric import SymmetricKey
from repro.util.serialize import pack_fields, pack_int
from tests.crypto.test_hotpath import keystream, reference_tag


class TestHashVectors:
    def test_sha1_id_vector(self):
        # SHA-1("abc" || SEP) >> 32, fixed forever by construction.
        assert sha1_id(b"abc") == 0xBA08D07FC5B180AD9FBF13E7097C7795

    def test_hopid_vector(self):
        assert derive_hopid(b"10.0.0.1", b"hkey", 7) == (
            0x011D3037B5A2378CC3CE3881F62749FB
        )

    def test_password_hash_vector(self):
        assert hash_password(b"hunter2").hex() == (
            "2592b5b5d10ef3a263326daf791f1f671c2cdc7f61911a28b5ecb989d45286c2"
        )


class TestCipherVectors:
    def test_seal_with_fixed_nonce(self):
        """Nonce, ciphertext and tag of one seal, byte for byte.

        The cipher changed three times, each an intentional wire change.
        Twice only the ciphertext bytes moved: SHA-256 in counter mode
        became one SHAKE-256 squeeze per message, and that squeeze,
        which was most of a 256 KiB retrieval's symmetric cost, became
        AES-256-CTR in a cipher context keyed once per key.  Then
        AES-256-CTR with an encrypt-then-MAC HMAC-SHA256 tag (an 8-byte
        nonce and a 32-byte tag, 40 bytes a layer) became AES-256-GCM
        (a 12-byte nonce and a 16-byte tag, 28 bytes a layer), because
        the HMAC's SHA-256 pass cost most of what was left.  The expected
        ciphertext comes from ``test_hotpath.keystream``, AES-256-ECB
        over GCM's counter blocks through a binding of its own, and the
        tag from ``test_hotpath.reference_tag``, GHASH written out in
        Python, so this pins the construction without sharing code with
        it; the whole seal is also pinned as a literal.
        """
        secret = b"0123456789abcdef"
        plaintext = b"attack at dawn"
        nonce = b"\x00" * 12
        key = SymmetricKey(secret)
        sealed = key.seal(plaintext, nonce=nonce)
        assert len(sealed) == len(plaintext) + SymmetricKey.overhead() == 42
        assert sealed[:12] == nonce
        enc_key = hashlib.sha256(b"enc" + secret).digest()
        stream = keystream(enc_key, nonce, len(plaintext))
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        assert sealed[12:-16] == ciphertext
        assert sealed[-16:] == reference_tag(enc_key, nonce, ciphertext)
        assert sealed.hex() == (
            "000000000000000000000000"
            "22b49c1c2e7d3bf4db6635136bcb"
            "77c69e167459abf713135842b48f629c"
        )
        assert key.open(sealed) == plaintext

    def test_layer_framing_vector(self):
        """One onion layer's plaintext framing, byte for byte."""
        frame = pack_fields(b"R", pack_int(5), b"", b"inner")
        assert frame.hex() == (
            "0000000152"  # len=1, "R"
            "0000001000000000000000000000000000000005"  # len=16, id 5
            "00000000"  # empty hint
            "00000005696e6e6572"  # len=5, "inner"
        )


class TestOnionDeterminism:
    def test_onion_stable_given_nonces(self):
        """Two onion builds from identical key states produce identical
        bytes (nonces are per-key counters)."""
        def build():
            layers = [
                OnionLayer(100 + i, SymmetricKey(bytes([i + 1]) * 16))
                for i in range(3)
            ]
            return build_onion(layers, 7, b"m")

        assert build() == build()

    def test_onion_size_formula(self):
        """Size grows by exactly overhead+framing per layer — the
        property traffic-analysis padding must account for."""
        payload = b"x" * 100
        sizes = []
        for depth in (1, 2, 3, 4):
            layers = [
                OnionLayer(i, SymmetricKey(bytes([i + 1]) * 16))
                for i in range(depth)
            ]
            sizes.append(len(build_onion(layers, 7, payload)))
        deltas = {b - a for a, b in zip(sizes, sizes[1:])}
        assert len(deltas) == 1  # constant per-layer growth
        per_layer = deltas.pop()
        # seal overhead (28) + 4 length prefixes (16) + tag (1) + id (16) + hint (0)
        assert per_layer == SymmetricKey.overhead() + 16 + 1 + 16


class TestRsaDeterminism:
    def test_keygen_vector(self):
        """The modulus and both primes drawn from one seed, exactly.

        This is the pin on keygen's RNG draw order.  Each prime is built
        bottom-up: the sieve-proved base of a Pocklington chain is drawn
        first (``getrandbits``, one per candidate), then at each level
        up one ``randrange`` draws a starting ``t`` and the candidates
        ``2tf + 1`` step ``t`` by one from it; the sieve and the proofs
        draw nothing.  ``p``'s chain runs to the end before ``q``'s
        begins.  Three changes moved this pin on purpose, and the same
        seed yields different, equally valid keys: the wide sieve (a
        candidate with a prime factor below 2,048 stopped drawing a
        Miller–Rabin base), the proved primes (no Miller–Rabin bases at
        all) and the stepped ``t`` (one draw per level, not one per
        candidate).  That is safe because nothing committed depends on
        key *values*: every
        ``rows digest`` of ``tap-repro all/extensions --fast``, the chaos
        smoke report and events, the durability CSV
        (``results/DIGESTS.txt``) and every perfbench ``work_digest``
        were byte-identical before and after each change.
        """
        from repro.crypto.asymmetric import RsaKeyPair

        pair = RsaKeyPair.generate(random.Random(2024), bits=384)
        p = 0xEDA4C23998F14EF227E619291D0B9EAAEB6C987E0208EAAD
        q = 0xD7299AF6E22181A03680DDEFE32AEC7AF437CD137ED638F9
        assert pair.public.e == 65537
        assert pair.public.n == int(
            "c7bbfe5bc5bfff55c78cb5eba3b0534fe6697007f9d167ef"
            "75d791fac9fb76085a3ab606f1eb7298d612edce40a01a45", 16)
        assert pair.public.n == p * q
        assert (pair._p, pair._q) == (p, q)
        assert pair.decrypt(
            pair.public.encrypt(b"pin", random.Random(1))
        ) == b"pin"
