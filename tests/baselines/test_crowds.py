"""Tests for the Crowds baseline: its closed forms against a Monte
Carlo path sampler."""

import random
from dataclasses import dataclass

import numpy as np
import pytest

from repro.baselines.crowds import CrowdsNetwork


@dataclass
class CrowdsObservation:
    """What the first collaborator on a path sees."""

    predecessor: int
    position: int  # 1-based index of the collaborator on the path
    is_initiator: bool  # ground truth (scoring only)


def send(crowd, initiator, rng):
    """Sample one path by the Crowds coin; return it plus the first
    collaborator's observation (None if no collaborator relays)."""
    path = [initiator]
    observation = None
    while True:
        nxt = crowd.members[rng.randrange(crowd.n)]
        if observation is None and nxt in crowd.collaborators:
            observation = CrowdsObservation(path[-1], len(path), path[-1] == initiator)
        path.append(nxt)
        if rng.random() >= crowd.p_f:
            return path, observation


@pytest.fixture()
def crowd():
    members = list(range(100))
    return CrowdsNetwork(members, p_f=0.75, collaborators=set(range(0, 100, 10)))


class TestValidation:
    def test_pf_bounds(self):
        with pytest.raises(ValueError):
            CrowdsNetwork([1, 2], p_f=0.4)
        with pytest.raises(ValueError):
            CrowdsNetwork([1, 2], p_f=1.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            CrowdsNetwork([1], p_f=0.75)

    def test_collaborators_must_be_members(self):
        with pytest.raises(ValueError):
            CrowdsNetwork([1, 2], p_f=0.75, collaborators={99})


class TestPaths:
    def test_path_starts_at_initiator(self, crowd):
        path, _ = send(crowd, 5, random.Random(1))
        assert path[0] == 5
        assert len(path) >= 2

    def test_mean_path_length_matches_geometric(self, crowd):
        rng = random.Random(2)
        lengths = [len(send(crowd, 5, rng)[0]) for _ in range(3000)]
        assert np.mean(lengths) == pytest.approx(crowd.expected_path_length(), rel=0.05)


class TestPredecessorAttack:
    def test_observation_reports_first_collaborator(self, crowd):
        rng = random.Random(4)
        for _ in range(200):
            path, obs = send(crowd, 5, rng)
            if obs is None:
                assert not any(
                    m in crowd.collaborators for m in path[1:]
                )
            else:
                collab = path[obs.position]
                assert collab in crowd.collaborators
                assert path[obs.position - 1] == obs.predecessor
                assert obs.is_initiator == (obs.predecessor == 5)

    def test_posterior_matches_monte_carlo(self, crowd):
        """Reiter–Rubin closed form vs simulation: conditioned on *any*
        first-collaborator observation, the predecessor is the
        initiator with probability ``1 - p_f (n-c-1)/n`` (the loop-back
        term is why it is n-c-1, not n-c)."""
        rng = random.Random(5)
        hits = total = 0
        honest = [m for m in crowd.members if m not in crowd.collaborators]
        for i in range(8000):
            initiator = honest[i % len(honest)]
            _, obs = send(crowd, initiator, rng)
            if obs is not None:
                total += 1
                hits += obs.is_initiator
        assert total > 2000
        assert hits / total == pytest.approx(crowd.predecessor_posterior(), abs=0.03)

    def test_suspect_distribution_sums_to_one(self, crowd):
        dist = crowd.suspect_distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert dist[0] == pytest.approx(crowd.predecessor_posterior())

    def test_more_collaborators_less_anonymity(self):
        from repro.analysis.anonymity import degree_of_anonymity

        members = list(range(100))
        degrees = []
        for c in (5, 20, 40):
            crowd = CrowdsNetwork(members, 0.75, collaborators=set(range(c)))
            degrees.append(degree_of_anonymity(crowd.suspect_distribution()))
        assert degrees == sorted(degrees, reverse=True)
