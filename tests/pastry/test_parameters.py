"""Parameter-generality tests: Pastry with non-default b and |L|.

The paper quotes ``log_{2^b} N`` routing "with a typical value of 4";
the implementation must stay correct for other protocol parameters
too (FreePastry supports b in {1, 2, 4}).
"""

import math
import random
import statistics

import pytest

from repro.core.system import TapSystem
from repro.pastry.network import PastryNetwork
from repro.util.ids import random_id


def _build(n, seed, **kwargs):
    rng = random.Random(seed)
    ids = set()
    while len(ids) < n:
        ids.add(rng.getrandbits(128))
    return PastryNetwork.build(ids, **kwargs)


class TestAlternativeDigitSizes:
    @pytest.mark.parametrize("b_bits", [1, 2, 8])
    def test_routing_exact_for_any_b(self, b_bits):
        net = _build(150, seed=b_bits, b_bits=b_bits)
        rng = random.Random(1000 + b_bits)
        ids = net.alive_ids
        for _ in range(60):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            assert net.route(src, key)[-1] == net.closest_alive(key)

    def test_smaller_b_means_more_hops(self):
        """Hop counts grow as b shrinks (each hop fixes fewer digits).

        Note: b=1 hops land well under log2(N) because an entry chosen
        for one divergent bit matches further bits by chance (~1 extra
        expected), halving the naive bound — so we assert the ordering
        and a loose floor, not the textbook logarithm.
        """
        rng = random.Random(7)
        means = {}
        for b_bits in (1, 4):
            net = _build(300, seed=50, b_bits=b_bits)
            ids = net.alive_ids
            hops = []
            for _ in range(120):
                src = ids[rng.randrange(len(ids))]
                hops.append(len(net.route(src, random_id(rng))) - 1)
            means[b_bits] = statistics.mean(hops)
        assert means[1] > 1.3 * means[4]
        assert means[4] == pytest.approx(math.log(300, 16), rel=0.5)

    def test_invalid_b_rejected(self):
        with pytest.raises(ValueError):
            _build(10, seed=1, b_bits=3)  # must divide 128


class TestAlternativeLeafSetSizes:
    @pytest.mark.parametrize("leaf_set_size", [4, 8, 32])
    def test_routing_exact_for_any_leafset(self, leaf_set_size):
        net = _build(150, seed=leaf_set_size, leaf_set_size=leaf_set_size)
        rng = random.Random(2000 + leaf_set_size)
        ids = net.alive_ids
        for _ in range(60):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            assert net.route(src, key)[-1] == net.closest_alive(key)

    def test_failures_survivable_with_small_leafset(self):
        net = _build(120, seed=9, leaf_set_size=4)
        rng = random.Random(3000)
        for victim in rng.sample(net.alive_ids, 25):
            net.fail(victim)
        ids = net.alive_ids
        for _ in range(40):
            src = ids[rng.randrange(len(ids))]
            key = random_id(rng)
            assert net.route(src, key)[-1] == net.closest_alive(key)


class TestTapOnAlternativeParameters:
    def test_full_tap_stack_on_b2(self):
        """The entire TAP pipeline works over a base-4-digit overlay."""
        system = TapSystem.bootstrap(num_nodes=120, seed=61, b_bits=2,
                                     replication_factor=3)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=8)
        fid = system.publish(b"content", name=b"f")
        result = system.retrieve(
            alice, fid,
            system.form_tunnel(alice, length=3),
            system.form_reply_tunnel(alice, length=3),
        )
        assert result.success, result.failure_reason
        assert result.content == b"content"

    def test_full_tap_stack_on_k5(self):
        system = TapSystem.bootstrap(num_nodes=120, seed=62,
                                     replication_factor=5)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=6)
        tunnel = system.form_tunnel(alice, length=3)
        # k=5 tolerates four replica deaths on a hop
        victim_hop = tunnel.hops[0]
        holders = list(system.store.holders(victim_hop.hop_id))
        assert len(holders) == 5
        system.fail_nodes(holders[:4], repair_after=False)
        trace = system.send(alice, tunnel, 42, b"x")
        assert trace.success
