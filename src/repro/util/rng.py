"""Deterministic randomness plumbing.

Every stochastic component in the reproduction (topology generation,
THA generation, failure sampling, Monte-Carlo sweeps) receives an
explicit generator.  A single experiment seed is split into
independent child seeds with :class:`SeedSequenceFactory`, so the same
seed reproduces the same figure rows bit-for-bit regardless of how many
sub-generators a component requests.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a stable 64-bit child seed from a root seed and labels.

    The derivation hashes ``root_seed`` together with the textual
    labels, so adding a new consumer with a fresh label never perturbs
    the streams of existing consumers (unlike sequential draws from a
    shared generator).
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest()[:8], "big") & _MASK64


def make_rng(root_seed: int, *labels: object) -> np.random.Generator:
    """NumPy generator for the (seed, labels) stream."""
    return np.random.default_rng(derive_seed(root_seed, *labels))


def make_pyrandom(root_seed: int, *labels: object) -> random.Random:
    """stdlib ``random.Random`` for the (seed, labels) stream."""
    return random.Random(derive_seed(root_seed, *labels))


class SeedSequenceFactory:
    """Hands out independent child generators from one root seed.

    Example
    -------
    >>> seeds = SeedSequenceFactory(42)
    >>> topo_rng = seeds.numpy("topology")
    >>> tha_rng = seeds.pyrandom("tha", 3)
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def child(self, *labels: object) -> int:
        """A derived 64-bit seed for the labelled stream."""
        return derive_seed(self.root_seed, *labels)

    def numpy(self, *labels: object) -> np.random.Generator:
        return make_rng(self.root_seed, *labels)

    def pyrandom(self, *labels: object) -> random.Random:
        return make_pyrandom(self.root_seed, *labels)

    def spawn(self, *labels: object) -> "SeedSequenceFactory":
        """A nested factory whose streams are independent of the parent's."""
        return SeedSequenceFactory(self.child("spawn", *labels))
