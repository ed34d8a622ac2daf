"""The placement core's arc bound, against brute force.

``_keys_near(node)`` prunes the key scan of every join/revive repair:
it must never drop a key whose intended holders include the node, for
either backend's width, on rings at and just above the all-keys
shortcut and on a ring large enough for the bound to bite, with keys
on both sides of the id-space wrap.
"""

import random

import pytest

from repro.past.erasure import ErasureStore
from repro.past.replication import ReplicatedStore, ReplicationError
from repro.pastry.network import PastryNetwork
from repro.util.ids import ID_SPACE, random_id

#: backend -> (placement width, store factory)
STORES = {
    "replicated-3": (3, lambda net: ReplicatedStore(net, 3)),
    "erasure-2of4": (4, lambda net: ErasureStore(net, 2, 4)),
}


def populated(make_store, ring_size: int):
    rng = random.Random(ring_size)
    network = PastryNetwork.build({random_id(rng) for _ in range(ring_size)})
    store = make_store(network)
    keys = {random_id(rng) for _ in range(40)}
    # both sides of the wrap, and hard against the ring's extremes
    ids = network.alive_ids
    keys |= {0, 1, ID_SPACE - 1, ids[0] - 1, ids[0] + 1, ids[-1] - 1,
             (ids[-1] + 1) % ID_SPACE}
    for key in keys:
        store.insert(key % ID_SPACE, b"payload-%d" % (key % 997))
    return network, store


@pytest.mark.parametrize("backend", STORES)
@pytest.mark.parametrize("extra", [0, 1, 2, None])
def test_keys_near_covers_every_key_that_could_adopt_the_node(backend, extra):
    width, make_store = STORES[backend]
    network, store = populated(make_store, 40 if extra is None else width + extra)
    assert store.width == width
    pruned = False
    for node in network.alive_ids:
        near = set(store._keys_near(node))
        owed = {
            key for key in store.all_keys()
            if node in network.replica_candidates(key, width)
        }
        assert owed <= near
        pruned |= len(near) < len(store.all_keys())
    # a real filter on the big ring; on the tiny ones the two arcs of
    # ``width`` neighbours each cover the whole ring
    assert pruned == (extra is None)


@pytest.mark.parametrize("backend", STORES)
def test_keys_near_refuses_a_dead_node(backend):
    network, store = populated(STORES[backend][1], 40)
    victim = network.alive_ids[7]
    network.fail(victim)
    with pytest.raises(ReplicationError, match="not alive"):
        store._keys_near(victim)
