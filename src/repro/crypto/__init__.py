"""Cryptographic substrate built from hash primitives.

TAP assumes three cryptographic capabilities (paper §2–§4):

1. a collision-resistant hash ``H`` for hopid derivation and password
   hashing — :mod:`repro.crypto.hashing`;
2. symmetric encryption for the mix-style layered tunnels (one
   symmetric operation per hop) — :mod:`repro.crypto.symmetric`;
3. a public-key infrastructure for the Onion-Routing bootstrap and the
   initiator's temporary key ``K_I`` — :mod:`repro.crypto.asymmetric`.

Everything is built over :mod:`hashlib` primitives, Python big integers
and the OpenSSL libcrypto that :mod:`hashlib` links (AES-256-GCM for the
tunnel layers, RSA's larger modexps).  The constructions are *functionally*
faithful (layer counts, message sizes and failure modes match the paper)
but are research simulators, not production cryptography.
"""

from repro.crypto.hashing import (
    sha1_id,
    sha256_bytes,
    derive_hopid,
    hash_password,
    random_key,
    random_password,
)
from repro.crypto.symmetric import SymmetricKey, CipherError
from repro.crypto.asymmetric import RsaKeyPair, RsaPublicKey, RsaError
from repro.crypto.onion import (
    OnionLayer,
    build_onion,
    peel_layer,
    build_reply_onion,
    FAKE_ONION_MAGIC,
    make_fake_onion,
)

__all__ = [
    "sha1_id",
    "sha256_bytes",
    "derive_hopid",
    "hash_password",
    "random_key",
    "random_password",
    "SymmetricKey",
    "CipherError",
    "RsaKeyPair",
    "RsaPublicKey",
    "RsaError",
    "OnionLayer",
    "build_onion",
    "peel_layer",
    "build_reply_onion",
    "FAKE_ONION_MAGIC",
    "make_fake_onion",
]
