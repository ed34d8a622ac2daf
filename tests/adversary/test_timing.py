"""Tests for the timing-analysis adversary (§6 case 2)."""

import pytest

from repro.adversary.timing import (
    Claim,
    TimingAnalysisAdversary,
    TransmissionTruth,
    evaluate_claims,
)


@pytest.fixture()
def adversary():
    return TimingAnalysisAdversary(malicious_ids={10, 20})


class TestTaps:
    def test_metadata_tap_filters_coalition(self, adversary):
        adversary.tap(1.0, 5, 10, 100.0)  # to coalition: kept
        adversary.tap(2.0, 5, 6, 100.0)  # honest to honest: dropped
        adversary.tap(3.0, 20, 7, 100.0)  # from coalition: kept
        assert len(adversary.events) == 2

    def test_content_tap_filters_coalition(self, adversary):
        adversary.content_tap(1.0, 10, 999, 100.0)
        adversary.content_tap(2.0, 7, 999, 100.0)  # honest peel: unseen
        assert len(adversary.reveals) == 1


class TestClaims:
    def test_pairs_entry_with_reveal(self, adversary):
        adversary.tap(1.0, 5, 10, 100.0)  # initiator 5 enters at hop 10
        adversary.content_tap(3.0, 20, 777, 100.0)  # tail reveals dest
        claims = adversary.claims(window_seconds=5.0)
        assert claims == [Claim(5, 777, 1.0, 3.0)]

    def test_window_enforced(self, adversary):
        adversary.tap(1.0, 5, 10, 100.0)
        adversary.content_tap(100.0, 20, 777, 100.0)
        assert adversary.claims(window_seconds=5.0) == []

    def test_size_mismatch_rejected(self, adversary):
        adversary.tap(1.0, 5, 10, 100.0)
        adversary.content_tap(2.0, 20, 777, 999.0)
        assert adversary.claims(window_seconds=5.0) == []

    def test_size_tolerance(self, adversary):
        adversary.tap(1.0, 5, 10, 100.0)
        adversary.content_tap(2.0, 20, 777, 110.0)
        assert adversary.claims(window_seconds=5.0, size_tolerance_bits=20.0)

    def test_earliest_entry_wins(self, adversary):
        """The first coalition touchpoint is the initiator candidate."""
        adversary.tap(1.0, 5, 10, 100.0)  # true initiator send
        adversary.tap(2.0, 8, 20, 100.0)  # later middle-hop arrival
        adversary.content_tap(3.0, 20, 777, 100.0)
        claims = adversary.claims(window_seconds=10.0)
        assert claims[0].initiator == 5

    def test_entries_consumed_once(self, adversary):
        adversary.tap(1.0, 5, 10, 100.0)
        adversary.content_tap(2.0, 20, 777, 100.0)
        adversary.content_tap(3.0, 20, 888, 100.0)
        claims = adversary.claims(window_seconds=10.0)
        assert len(claims) == 1  # one entry cannot explain two reveals

    def test_entry_must_precede_reveal(self, adversary):
        adversary.tap(5.0, 5, 10, 100.0)
        adversary.content_tap(1.0, 20, 777, 100.0)
        assert adversary.claims(window_seconds=10.0) == []

    def test_destination_resolver_applied(self):
        adv = TimingAnalysisAdversary(
            malicious_ids={10}, resolve_destination=lambda key: key + 1
        )
        adv.tap(1.0, 5, 10, 100.0)
        adv.content_tap(2.0, 10, 100, 100.0)
        assert adv.claims(window_seconds=5.0)[0].destination == 101

    def test_entries_from_coalition_nodes_excluded(self, adversary):
        """Coalition-internal transfers are not initiator evidence."""
        adversary.tap(1.0, 20, 10, 100.0)  # coalition -> coalition
        adversary.content_tap(2.0, 20, 777, 100.0)
        assert adversary.claims(window_seconds=5.0) == []


class TestEvaluation:
    TRUTHS = [
        TransmissionTruth(initiator=5, destination=777, started_at=0.0, finished_at=10.0),
        TransmissionTruth(initiator=6, destination=888, started_at=0.0, finished_at=10.0),
    ]

    def test_perfect(self):
        claims = [Claim(5, 777, 1.0, 3.0), Claim(6, 888, 1.0, 3.0)]
        score = evaluate_claims(claims, self.TRUTHS)
        assert score == {"claims": 2.0, "precision": 1.0, "recall": 1.0}

    def test_wrong_initiator_not_counted(self):
        score = evaluate_claims([Claim(9, 777, 1.0, 3.0)], self.TRUTHS)
        assert score["precision"] == 0.0 and score["recall"] == 0.0

    def test_time_bounds_checked(self):
        score = evaluate_claims([Claim(5, 777, 50.0, 60.0)], self.TRUTHS)
        assert score["precision"] == 0.0

    def test_empty_claims(self):
        score = evaluate_claims([], self.TRUTHS)
        assert score["precision"] == 0.0 and score["recall"] == 0.0

    def test_partial(self):
        claims = [Claim(5, 777, 1.0, 3.0), Claim(9, 999, 1.0, 3.0)]
        score = evaluate_claims(claims, self.TRUTHS)
        assert score["precision"] == 0.5
        assert score["recall"] == 0.5


class TestEndToEnd:
    def test_attack_on_emulation(self):
        """Full-stack: a coalition controlling first+tail of a hinted
        tunnel identifies (initiator, destination) from timing."""
        from repro.adversary.timing import TimingAnalysisAdversary
        from repro.core.emulation import TapEmulation
        from repro.core.system import TapSystem
        from repro.simnet.topology import Topology

        system = TapSystem.bootstrap(num_nodes=200, seed=61)
        alice = system.tap_node(system.random_node_id("alice"))
        system.deploy_thas(alice, count=8)
        tunnel = system.form_tunnel(alice, length=3, use_hints=True)

        first = system.network.closest_alive(tunnel.hops[0].hop_id)
        tail = system.network.closest_alive(tunnel.hops[-1].hop_id)
        adversary = TimingAnalysisAdversary(
            {first, tail}, resolve_destination=system.network.closest_alive
        )

        emu = TapEmulation.from_system(system, topology=Topology(seed=62))
        emu.taps.append(adversary.tap)
        emu.content_taps.append(adversary.content_tap)

        trace = emu.send_through_tunnel(alice, tunnel, 4242, b"x", size_bits=1e6)
        emu.simulator.run()
        assert trace.delivered

        claims = adversary.claims(window_seconds=60.0)
        truths = [TransmissionTruth(alice.node_id, trace.destination,
                                    trace.started_at, trace.finished_at)]
        score = evaluate_claims(claims, truths)
        assert score["recall"] == 1.0
