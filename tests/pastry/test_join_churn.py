"""Join churn keeps routing: the ``join_node`` route loop, closed.

Alternating ``fail_node``/``join_node`` used to end in
``RoutingError("join route failed")`` (seed 7 at event 136, seed 2004 at
event 1,061): departure repair refilled a depleted leaf set with the
|L|+2 *ring-distance*-closest ids, leaving 7 + 9 splits whose arc ran
the long way round the ring, and a later join announcement took the
slot.  A leaf set is now read as the ±reach index window of
:func:`repro.pastry.bulk.leaf_window` — true halves — so that state
cannot arise.  DESIGN.md §5c has the diagnosis.
"""

import random

import pytest

from repro import TapSystem
from repro.pastry.network import PastryNetwork, RoutingError
from repro.util.ids import random_id

OWNER = 1 << 100


def _near(cw: int, ccw: int) -> list[int]:
    """``cw`` ids just clockwise of OWNER and ``ccw`` just counterclockwise."""
    return [OWNER + d for d in range(1, cw + 1)] + [OWNER - d for d in range(1, ccw + 1)]


def _fail_join_churn(seed: int, events: int) -> TapSystem:
    system = TapSystem.bootstrap(1000, seed=seed)
    rng = random.Random(seed)
    for _ in range(events):
        alive = system.network.alive_ids
        system.fail_node(alive[rng.randrange(len(alive))], repair=True)
        system.join_node(random_id(rng))
    return system


def test_fail_join_churn_keeps_routing():
    """Alternating fail/join at N=1,000, seed 7: the 136th join's
    bootstrap route used to bounce between two nodes until ``MAX_HOPS``."""
    _fail_join_churn(seed=7, events=136)


def test_long_fail_join_churn_routes_to_the_root():
    """Seed 2004 raised at event 1,061; after 1,100 every route still
    succeeds and ends at the key's numerically closest alive node."""
    network = _fail_join_churn(seed=2004, events=1100).network
    rng = random.Random(2004)
    for _ in range(500):
        src, key = rng.choice(network.alive_ids), random_id(rng)
        path = network.route(src, key)
        assert path[-1] == network.closest_alive(key)


class TestFailedJoinLeavesTheRegistryAlone:
    def test_dead_bootstrap(self):
        """The route raises before the newcomer is indexed: it must not
        stay registered (alive but absent from ``alive_ids``)."""
        network = PastryNetwork.build(_near(cw=6, ccw=6))
        bootstrap = network.alive_ids[3]
        network.fail(bootstrap)
        before = (list(network.alive_ids), set(network.down_ids))
        with pytest.raises(RoutingError, match="is not alive"):
            network.join(OWNER, bootstrap_id=bootstrap)
        assert not network.is_registered(OWNER) and OWNER not in network.alive_ids
        assert (network.alive_ids, network.down_ids) == before

    def test_rejoin_of_a_dead_id_whose_route_does_not_converge(self, monkeypatch):
        """The dead node's record survives, so it can still be revived."""
        network = PastryNetwork.build(_near(cw=6, ccw=6) + [OWNER])
        network.fail(OWNER)
        dead = network._node(OWNER)
        monkeypatch.setattr(PastryNetwork, "MAX_HOPS", 0)
        with pytest.raises(RoutingError, match="join route failed"):
            network.join(OWNER)
        monkeypatch.undo()
        assert network._node(OWNER) is dead and OWNER in network.down_ids
        network.revive(OWNER)
        assert network.is_alive(OWNER) and OWNER in network.alive_ids
        assert network.route(network.alive_ids[0], OWNER)[-1] == OWNER
