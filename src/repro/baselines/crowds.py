"""Crowds (Reiter & Rubin 1998): probabilistic-forwarding baseline.

The paper positions TAP against the P2P anonymity family it cites —
Crowds being the canonical probabilistic design.  A message hops
between random *jondos*: each holder flips a biased coin and forwards
to a uniformly random member with probability ``p_f``, otherwise
submits to the destination.

Implemented here are the closed forms the anonymity comparison reads
(Reiter & Rubin §5): the posterior ``P(predecessor = initiator |
observed)`` = ``1 - p_f (n - c - 1) / n`` seen by the first colluding
member on a path (the predecessor attack), the adversary's resulting
suspect distribution, and the mean path length.  The tests check the
posterior and the path length against a Monte Carlo path sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CrowdsNetwork:
    """A crowd of ``members`` with forwarding probability ``p_f``."""

    members: list[int]
    p_f: float = 0.75
    collaborators: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not 0.5 <= self.p_f < 1.0:
            raise ValueError("Crowds requires 1/2 <= p_f < 1")
        if len(self.members) < 2:
            raise ValueError("a crowd needs at least two members")
        unknown = self.collaborators - set(self.members)
        if unknown:
            raise ValueError(f"collaborators not in crowd: {unknown}")

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def c(self) -> int:
        return len(self.collaborators)

    # ------------------------------------------------------------------
    # closed forms (Reiter & Rubin §5)
    # ------------------------------------------------------------------
    def predecessor_posterior(self) -> float:
        """P(the observed predecessor is the initiator)."""
        return 1.0 - self.p_f * (self.n - self.c - 1) / self.n

    def suspect_distribution(self) -> np.ndarray:
        """The adversary's initiator distribution after one observation:
        the observed predecessor carries the posterior, the remaining
        honest members split the rest uniformly."""
        p_suspect = self.predecessor_posterior()
        others = self.n - self.c - 1
        if others <= 0:
            return np.array([1.0])
        rest = (1.0 - p_suspect) / others
        return np.array([p_suspect] + [rest] * others)

    def expected_path_length(self) -> float:
        """Mean number of jondos on a path (geometric forwarding)."""
        return 1.0 / (1.0 - self.p_f) + 1.0
