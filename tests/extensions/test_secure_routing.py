"""Tests for the secure-routing extension (§9 / extended report)."""

import random

import pytest

from repro.extensions.secure_routing import (
    RoutingInterceptor,
    estimate_id_spacing,
    honest_neighbor_set,
    neighbor_set_spacing,
    routing_failure_test,
    secure_route,
)
from repro.util.ids import ID_SPACE, random_id
from tests.conftest import build_network


@pytest.fixture(scope="module")
def net():
    return build_network(300, seed=71)


@pytest.fixture()
def interceptor(net):
    rng = random.Random(72)
    return RoutingInterceptor(set(rng.sample(net.alive_ids, 60)))  # 20%


@pytest.fixture()
def honest_forger(net):
    rng = random.Random(72)
    return RoutingInterceptor(
        set(rng.sample(net.alive_ids, 60)), forge_honest_set=True
    )


class TestSpacingEstimates:
    def test_own_estimate_close_to_truth(self, net):
        true_spacing = ID_SPACE / net.size
        for nid in net.alive_ids[::50]:
            est = estimate_id_spacing(net, nid)
            assert true_spacing / 3 < est < true_spacing * 3

    def test_neighbor_set_spacing_uniform(self, net):
        root = net.alive_ids[10]
        spacing = neighbor_set_spacing(honest_neighbor_set(net, root))
        assert ID_SPACE / net.size / 3 < spacing < ID_SPACE / net.size * 3

    def test_degenerate_sets(self):
        assert neighbor_set_spacing([]) == float(ID_SPACE)
        assert neighbor_set_spacing([5]) == float(ID_SPACE)

    def test_lonely_node(self):
        lonely = build_network(1, seed=1)
        nid = lonely.alive_ids[0]
        assert estimate_id_spacing(lonely, nid) == float(ID_SPACE)


class TestFailureTest:
    def test_accepts_honest_responses(self, net):
        """False-accusation rate must be negligible."""
        rng = random.Random(73)
        observer = net.alive_ids[0]
        accepted = 0
        for _ in range(100):
            key = random_id(rng)
            root = net.closest_alive(key)
            accepted += routing_failure_test(
                net, observer, key, root, honest_neighbor_set(net, root)
            )
        assert accepted >= 98

    def test_rejects_coalition_only_neighbor_set(self, net, interceptor):
        """Forging the set from coalition ids makes it ~1/p sparser."""
        rng = random.Random(74)
        observer = net.alive_ids[0]
        caught = impostors = 0
        for _ in range(100):
            key = random_id(rng)
            fake = interceptor.fake_root(key)
            if fake == net.closest_alive(key):
                continue
            impostors += 1
            forged = interceptor.forged_neighbor_set(net, fake)
            if not routing_failure_test(net, observer, key, fake, forged):
                caught += 1
        assert impostors > 50
        assert caught > impostors * 0.9

    def test_rejects_honest_set_forgery(self, net, honest_forger):
        """Presenting the impostor's true leaf set passes density but
        exposes honest nodes closer to the key."""
        rng = random.Random(75)
        observer = net.alive_ids[0]
        caught = impostors = 0
        for _ in range(100):
            key = random_id(rng)
            fake = honest_forger.fake_root(key)
            if fake == net.closest_alive(key):
                continue
            impostors += 1
            forged = honest_forger.forged_neighbor_set(net, fake)
            if not routing_failure_test(net, observer, key, fake, forged):
                caught += 1
        assert caught > impostors * 0.8

    def test_empty_neighbor_set_rejected(self, net):
        observer = net.alive_ids[0]
        assert not routing_failure_test(net, observer, 1, 2, [])


class TestInterceptor:
    def test_empty_coalition_cannot_forge(self):
        adversary = RoutingInterceptor(set())
        with pytest.raises(ValueError):
            adversary.fake_root(1)

    def test_hijack_at_malicious_relay(self, net, interceptor):
        rng = random.Random(76)
        hijacks = 0
        for _ in range(100):
            src = net.alive_ids[rng.randrange(net.size)]
            key = random_id(rng)
            path, forged = interceptor.route(net, src, key)
            if forged is not None:
                hijacks += 1
                assert path[-1] == interceptor.fake_root(key)
        assert hijacks > 5

    def test_honest_path_returns_true_root(self, net, interceptor):
        rng = random.Random(77)
        for _ in range(60):
            src = net.alive_ids[rng.randrange(net.size)]
            key = random_id(rng)
            path, forged = interceptor.route(net, src, key)
            if forged is None:
                assert path[-1] == net.closest_alive(key)

    def test_malicious_destination_is_not_interception(self, net, interceptor):
        """A malicious node that IS the root serves the key normally."""
        rng = random.Random(78)
        for _ in range(200):
            key = random_id(rng)
            truth = net.closest_alive(key)
            if not interceptor.is_malicious(truth):
                continue
            src = next(
                n for n in net.alive_ids if not interceptor.is_malicious(n)
            )
            path, forged = interceptor.route(net, src, key)
            if forged is None:
                assert path[-1] == truth
            break


class TestSecureRoute:
    def test_no_adversary_trivially_correct(self, net):
        rng = random.Random(79)
        for _ in range(20):
            src = net.alive_ids[rng.randrange(net.size)]
            key = random_id(rng)
            result = secure_route(net, src, key)
            assert result.accepted_root == net.closest_alive(key), (
                result.candidates, result.rejected)

    @pytest.mark.parametrize("forge_honest", [False, True])
    def test_cuts_silent_deception_under_interception(self, net, forge_honest):
        """The headline property: verification converts silent
        deceptions (client trusts an impostor) into detected failures
        (alarms), for both forgery strategies."""
        rng = random.Random(80)
        coalition = set(rng.sample(net.alive_ids, 60))
        adversary = RoutingInterceptor(coalition, forge_honest_set=forge_honest)
        naive_deceived = secure_deceived = secure_alarms = trials = 0
        for _ in range(300):
            src = net.alive_ids[rng.randrange(net.size)]
            key = random_id(rng)
            truth = net.closest_alive(key)
            if adversary.is_malicious(src) or adversary.is_malicious(truth):
                continue
            trials += 1
            naive, _ = adversary.route(net, src, key)
            naive_deceived += naive[-1] != truth
            secure = secure_route(net, src, key, adversary, redundancy=4,
                                  rng=random.Random(key & 0xFFFF))
            if secure.alarm:
                secure_alarms += 1
            elif secure.accepted_root != truth:
                secure_deceived += 1
        assert trials > 100
        assert naive_deceived > 5  # the attack is real
        # Verification eliminates almost all silent deception.
        assert secure_deceived <= max(1, naive_deceived // 5)
        assert secure_alarms > 0

    def test_rejected_candidates_are_mostly_impostors(self, net, interceptor):
        """The test is probabilistic: rare false accusations of honest
        roots are tolerated, but impostors must dominate rejections."""
        rng = random.Random(81)
        rejected_impostors = rejected_honest = 0
        for _ in range(100):
            src = net.alive_ids[rng.randrange(net.size)]
            key = random_id(rng)
            # Skip keys whose true root is malicious: a forged response
            # can then name the true root (with a forged neighbor set),
            # and rejecting it is correct, not a false accusation.
            if interceptor.is_malicious(src) or interceptor.is_malicious(
                net.closest_alive(key)
            ):
                continue
            result = secure_route(net, src, key, interceptor, redundancy=4)
            for bad in result.rejected:
                if bad == net.closest_alive(key):
                    rejected_honest += 1
                else:
                    rejected_impostors += 1
        assert rejected_impostors > 0
        assert rejected_honest <= max(2, rejected_impostors // 4)

    def test_dead_source_rejected(self, net):
        from repro.pastry.network import RoutingError

        with pytest.raises(RoutingError):
            secure_route(net, 12345, 1)  # not a node

    def test_redundancy_bounds_paths(self, net):
        src = net.alive_ids[0]
        result = secure_route(net, src, random_id(random.Random(82)), redundancy=2)
        assert result.paths_used <= 2
