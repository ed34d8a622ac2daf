"""Hashing: id derivation, hopid generation (§3.2), password proofs (§3.4).

The paper derives every identifier from SHA-1 (Pastry/PAST's hash) and
generates node-specific hop identifiers as::

    hopid = H(node_ID, hkey, t)

where ``hkey`` is a secret bit-string and ``t`` a creation time, so
that outsiders cannot link a hopid to its creator by recomputation.
"""

from __future__ import annotations

import hashlib
import random

from repro.util.ids import ID_BITS

_SEP = b"\x1f"  # unambiguous field separator for hash inputs


def sha1_id(*parts: bytes) -> int:
    """SHA-1 of the separated parts, folded into the 128-bit id space.

    Pastry uses 128-bit ids; SHA-1 yields 160 bits, of which FreePastry
    keeps the top 128.  We do the same.
    """
    h = hashlib.sha1()
    for part in parts:
        h.update(part)
        h.update(_SEP)
    digest = int.from_bytes(h.digest(), "big")
    return digest >> (160 - ID_BITS)


def sha256_bytes(*parts: bytes) -> bytes:
    """SHA-256 over separated parts — hash-tree nodes, PW hashes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(_SEP)
    return h.digest()


def derive_hopid(node_identifier: bytes, hkey: bytes, timestamp: int) -> int:
    """``hopid = H(node_ID, hkey, t)`` per paper §3.2.

    ``node_identifier`` may be the node's IP address, private key or
    public key bytes — anything node-specific.  The secret ``hkey``
    and the creation time ``timestamp`` prevent linking by
    recomputation.
    """
    if not node_identifier:
        raise ValueError("node_identifier must be non-empty")
    if not hkey:
        raise ValueError("hkey must be non-empty")
    if timestamp < 0:
        raise ValueError("timestamp must be non-negative")
    return sha1_id(node_identifier, hkey, str(timestamp).encode())


def hash_password(password: bytes) -> bytes:
    """``H(PW)`` stored inside a THA (only the hash is ever stored)."""
    if not password:
        raise ValueError("password must be non-empty")
    return sha256_bytes(b"tap-pw", password)


def random_key(rng: random.Random, nbytes: int = 16) -> bytes:
    """Random symmetric key ``K`` from an explicit generator."""
    return rng.getrandbits(8 * nbytes).to_bytes(nbytes, "big")


def random_password(rng: random.Random, nbytes: int = 16) -> bytes:
    """Random THA password ``PW`` from an explicit generator."""
    return rng.getrandbits(8 * nbytes).to_bytes(nbytes, "big")
