"""Tests for the closed-form expectations (cross-checked by brute force)."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.theory import (
    _hyper_all_in_subset,
    _hyper_any_in_subset,
    expected_route_hops,
    tha_disclosure_prob,
    tunnel_corruption_prob,
    tunnel_failure_prob_current,
    tunnel_failure_prob_tap,
)


def _draws_all_in(n: int, m: int, k: int) -> Fraction:
    """P(k draws without replacement from n all land among m), one
    draw at a time."""
    prob = Fraction(1)
    for i in range(k):
        prob *= Fraction(max(m - i, 0), n - i)
    return prob


class TestExactHypergeometric:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2_000), data=st.data())
    def test_ratios_are_the_rounded_exact_fraction(self, n, data):
        """Each ratio is the correctly rounded float of the exact
        probability; "any" is one minus the "none" ratio, in float."""
        k = data.draw(st.integers(1, min(20, n)), label="k")
        m = data.draw(st.integers(0, n), label="subset")
        assert _hyper_all_in_subset(n, m, k) == float(_draws_all_in(n, m, k))
        assert _hyper_any_in_subset(n, m, k) == 1.0 - float(
            _draws_all_in(n, n - m, k)
        )


#: every exact form, called as (n_nodes, length, k) -> probability
_EXACT_FORMS = {
    "current": lambda n, l, k: tunnel_failure_prob_current(0.1, l, n_nodes=n),
    "tap": lambda n, l, k: tunnel_failure_prob_tap(0.1, l, k, n_nodes=n),
    "disclosure": lambda n, l, k: tha_disclosure_prob(0.1, k, n_nodes=n),
    "corruption": lambda n, l, k: tunnel_corruption_prob(0.1, l, k, n_nodes=n),
}


class TestPopulationFailsClosed:
    @pytest.mark.parametrize("form", sorted(_EXACT_FORMS))
    @pytest.mark.parametrize("n_nodes", [0, -3, 2.5, 10.0, "10"])
    def test_n_nodes_must_be_a_positive_integer(self, form, n_nodes):
        with pytest.raises(ValueError, match="integer >= 1"):
            _EXACT_FORMS[form](n_nodes, 1, 1)

    @pytest.mark.parametrize("form", ["current", "tap", "corruption"])
    def test_tunnel_longer_than_population(self, form):
        with pytest.raises(ValueError, match="tunnel length 5 exceeds"):
            _EXACT_FORMS[form](3, 5, 1)

    @pytest.mark.parametrize("form", ["tap", "disclosure", "corruption"])
    def test_more_replicas_than_population(self, form):
        with pytest.raises(ValueError, match="k=4 exceeds"):
            _EXACT_FORMS[form](3, 1, 4)

    @pytest.mark.parametrize("form", sorted(_EXACT_FORMS))
    def test_whole_population_is_allowed(self, form):
        assert 0.0 <= _EXACT_FORMS[form](3, 3, 3) <= 1.0

    def test_numpy_integer_population(self):
        assert tunnel_failure_prob_current(0.2, 2, n_nodes=np.int64(8)) == (
            tunnel_failure_prob_current(0.2, 2, n_nodes=8)
        )


class TestCurrentTunnelFailure:
    def test_asymptotic_form(self):
        assert tunnel_failure_prob_current(0.2, 5) == pytest.approx(1 - 0.8**5)

    def test_zero_failure(self):
        assert tunnel_failure_prob_current(0.0, 5) == 0.0

    def test_total_failure(self):
        assert tunnel_failure_prob_current(1.0, 5) == 1.0

    def test_exact_vs_asymptotic_converge(self):
        exact = tunnel_failure_prob_current(0.2, 5, n_nodes=100_000)
        assert exact == pytest.approx(1 - 0.8**5, rel=1e-3)

    def test_exact_by_enumeration(self):
        """Brute-force: N=8 nodes, 2 failed, l=2 relays."""
        n, failed, l = 8, 2, 2
        total = 0
        bad = 0
        for relays in itertools.combinations(range(n), l):
            total += 1
            if any(r < failed for r in relays):
                bad += 1
        assert tunnel_failure_prob_current(failed / n, l, n_nodes=n) == pytest.approx(
            bad / total
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            tunnel_failure_prob_current(-0.1, 5)
        with pytest.raises(ValueError):
            tunnel_failure_prob_current(0.5, 0)


class TestTapTunnelFailure:
    def test_asymptotic_form(self):
        assert tunnel_failure_prob_tap(0.3, 5, 3) == pytest.approx(
            1 - (1 - 0.3**3) ** 5
        )

    def test_tap_beats_current_everywhere(self):
        for p in (0.1, 0.3, 0.5):
            for l in (3, 5):
                assert tunnel_failure_prob_tap(p, l, 3) < tunnel_failure_prob_current(p, l)

    def test_higher_k_more_tolerant(self):
        assert tunnel_failure_prob_tap(0.3, 5, 5) < tunnel_failure_prob_tap(0.3, 5, 3)

    def test_k1_matches_current(self):
        assert tunnel_failure_prob_tap(0.25, 4, 1) == pytest.approx(
            tunnel_failure_prob_current(0.25, 4)
        )

    def test_k_validation(self):
        with pytest.raises(ValueError):
            tunnel_failure_prob_tap(0.1, 5, 0)

    def test_exact_hypergeometric(self):
        """k nodes all failed, N=10, 4 failed: C(4,3)/C(10,3)."""
        hop_fail = math.comb(4, 3) / math.comb(10, 3)
        assert tunnel_failure_prob_tap(0.4, 1, 3, n_nodes=10) == pytest.approx(hop_fail)


class TestDisclosureAndCorruption:
    def test_disclosure_asymptotic(self):
        assert tha_disclosure_prob(0.1, 3) == pytest.approx(1 - 0.9**3)

    def test_disclosure_monotone_in_k(self):
        probs = [tha_disclosure_prob(0.1, k) for k in range(1, 8)]
        assert probs == sorted(probs)

    def test_corruption_is_disclosure_power(self):
        assert tunnel_corruption_prob(0.1, 5, 3) == pytest.approx(
            tha_disclosure_prob(0.1, 3) ** 5
        )

    def test_corruption_decreasing_in_length(self):
        probs = [tunnel_corruption_prob(0.1, l, 3) for l in range(1, 10)]
        assert probs == sorted(probs, reverse=True)

    def test_corruption_increasing_in_k(self):
        probs = [tunnel_corruption_prob(0.1, 5, k) for k in range(1, 8)]
        assert probs == sorted(probs)

    def test_zero_malicious(self):
        assert tha_disclosure_prob(0.0, 3) == 0.0
        assert tunnel_corruption_prob(0.0, 5, 3) == 0.0

    def test_exact_disclosure_enumeration(self):
        """N=10 nodes, 3 malicious, k=2: 1 - C(7,2)/C(10,2)."""
        want = 1 - math.comb(7, 2) / math.comb(10, 2)
        assert tha_disclosure_prob(0.3, 2, n_nodes=10) == pytest.approx(want)

    def test_monte_carlo_agreement(self):
        """Closed form vs simulation with exactly-m malicious draws."""
        rng = np.random.default_rng(5)
        n, k, p = 500, 3, 0.2
        m = round(p * n)
        hits = 0
        trials = 4000
        for _ in range(trials):
            malicious = rng.choice(n, size=m, replace=False)
            replicas = rng.choice(n, size=k, replace=False)
            if np.intersect1d(malicious, replicas).size:
                hits += 1
        expected = tha_disclosure_prob(p, k, n_nodes=n)
        assert hits / trials == pytest.approx(expected, abs=0.03)


class TestExpectedRouteHops:
    def test_log16(self):
        assert expected_route_hops(10_000) == pytest.approx(math.log(10_000, 16))

    def test_single_node(self):
        assert expected_route_hops(1) == 0.0

    def test_b_param(self):
        assert expected_route_hops(1024, b_bits=1) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_route_hops(0)
