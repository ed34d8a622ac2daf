"""Shape tests for every figure: the qualitative claims the paper makes
must hold in the regenerated data (fast configs)."""

from dataclasses import replace

import pytest

from repro.experiments import (
    Fig2Config,
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
    run_fig2,
    run_fig3,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
)
from repro.perf import rows_digest
from tests.conftest import series


@pytest.fixture(scope="module")
def fig2_rows():
    return run_fig2(Fig2Config.fast())


@pytest.fixture(scope="module")
def fig3_rows():
    return run_fig3(Fig3Config.fast())


@pytest.fixture(scope="module")
def fig4a_rows():
    return run_fig4a(Fig4Config.fast())


@pytest.fixture(scope="module")
def fig4b_rows():
    return run_fig4b(Fig4Config.fast())


@pytest.fixture(scope="module")
def fig5_rows():
    return run_fig5(Fig5Config.fast())


@pytest.fixture(scope="module")
def fig6_rows():
    return run_fig6(Fig6Config.fast())


class TestFig2:
    def test_rows_match_the_digest_sheet(self, fig2_rows, digest_sheet):
        assert rows_digest(fig2_rows) == digest_sheet["fig2"]

    def test_tap_far_below_current(self, fig2_rows):
        by_scheme = series(fig2_rows, "failed_fraction", "failed_tunnels")
        for (p, cur), (_, tap) in zip(by_scheme["current"], by_scheme["tap-k3"]):
            if 0.1 <= p <= 0.4:
                assert tap < cur / 2
            elif p > 0.4:
                # At extreme failure rates the gap narrows but TAP
                # must still dominate.
                assert tap < cur

    def test_k5_below_k3(self, fig2_rows):
        by_scheme = series(fig2_rows, "failed_fraction", "failed_tunnels")
        for (_, k3), (_, k5) in zip(by_scheme["tap-k3"], by_scheme["tap-k5"]):
            assert k5 <= k3

    def test_current_matches_theory(self, fig2_rows):
        for row in fig2_rows:
            if row["scheme"] == "current":
                assert row["failed_tunnels"] == pytest.approx(
                    row["expected"], abs=0.06
                )

    def test_tap_matches_theory(self, fig2_rows):
        for row in fig2_rows:
            if row["scheme"].startswith("tap"):
                assert row["failed_tunnels"] == pytest.approx(
                    row["expected"], abs=0.06
                )

    def test_current_collapses_while_tap_holds(self, fig2_rows):
        """The paper: current tunneling 'increases dramatically', while
        'in TAP, there is no significant tunnel failure'."""
        by_scheme = series(fig2_rows, "failed_fraction", "failed_tunnels")
        assert by_scheme["current"][-1][1] > 0.8
        assert all(v < 0.1 for p, v in by_scheme["tap-k3"] if p <= 0.2)

    def test_current_monotone_in_p(self, fig2_rows):
        points = series(fig2_rows, "failed_fraction", "failed_tunnels")["current"]
        values = [v for _, v in points]
        assert values == sorted(values)


class TestFig3:
    def test_rows_match_the_digest_sheet(self, fig3_rows, digest_sheet):
        assert rows_digest(fig3_rows) == digest_sheet["fig3"]

    def test_monotone_in_malicious_fraction(self, fig3_rows):
        values = [r["corrupted_tunnels"] for r in fig3_rows]
        assert values == sorted(values)

    def test_no_significant_corruption_even_at_30pct(self, fig3_rows):
        """The paper's wording: no significant corruption even at p=0.3."""
        worst = max(r["corrupted_tunnels"] for r in fig3_rows)
        assert worst < 0.2

    def test_matches_theory(self, fig3_rows):
        for row in fig3_rows:
            assert row["corrupted_tunnels"] == pytest.approx(
                row["expected"], abs=0.05
            )


class TestFig4:
    def test_rows_match_the_digest_sheet(self, fig4a_rows, fig4b_rows,
                                         digest_sheet):
        assert rows_digest(fig4a_rows) == digest_sheet["fig4a"]
        assert rows_digest(fig4b_rows) == digest_sheet["fig4b"]

    def test_4a_increasing_in_k(self, fig4a_rows):
        values = [r["corrupted_tunnels"] for r in fig4a_rows]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_4b_decreasing_in_length(self, fig4b_rows):
        values = [r["corrupted_tunnels"] for r in fig4b_rows]
        assert values == sorted(values, reverse=True)
        assert values[0] > values[-1]

    def test_4b_knee_at_five(self):
        """Beyond l=5 the marginal gain is small (paper: 'the tunnel
        length of 5 catches the knee of the curve')."""
        config = Fig4Config.fast()
        config = Fig4Config(
            num_nodes=config.num_nodes,
            num_tunnels=config.num_tunnels,
            num_seeds=config.num_seeds,
            tunnel_lengths=(1, 3, 5, 7, 9),
        )
        rows = {r["tunnel_length"]: r["expected"] for r in run_fig4b(config)}
        drop_to_5 = rows[1] - rows[5]
        drop_after_5 = rows[5] - rows[9]
        assert drop_to_5 > 10 * drop_after_5


class TestFig5:
    def test_rows_match_the_digest_sheet(self, fig5_rows, digest_sheet):
        assert rows_digest(fig5_rows) == digest_sheet["fig5"]

    def test_unrefreshed_grows(self, fig5_rows):
        unref = series(fig5_rows, "time", "corrupted_tunnels")["unrefreshed"]
        assert unref[-1][1] >= unref[0][1]

    def test_refreshed_stays_near_static_level(self, fig5_rows):
        static = fig5_rows[0]["static_expected"]
        ref = series(fig5_rows, "time", "corrupted_tunnels")["refreshed"]
        for _, value in ref:
            assert value <= static + 0.05

    def test_unrefreshed_dominates_refreshed_at_end(self):
        """With heavy churn the separation must be decisive: corruption
        is an all-l-hops event, so the effect needs enough tunnels and
        accumulated disclosure to rise above noise."""
        config = Fig5Config(
            num_nodes=1_000, num_tunnels=2_000, churn_per_unit=100,
            time_units=15, num_seeds=2,
        )
        rows = run_fig5(config)
        by = series(rows, "time", "corrupted_tunnels")
        assert by["unrefreshed"][-1][1] > 3 * max(
            by["refreshed"][-1][1], 1.0 / config.num_tunnels
        )
        # unrefreshed grows steadily; refreshed stays near the static level
        unref = [v for _, v in by["unrefreshed"]]
        assert unref == sorted(unref) and unref[-1] > unref[0]
        static = rows[0]["static_expected"]
        assert max(v for _, v in by["refreshed"]) < static + 5.0 / config.num_tunnels + 0.01


class TestFig6:
    def test_rows_match_the_digest_sheet(self, fig6_rows, digest_sheet):
        assert rows_digest(fig6_rows) == digest_sheet["fig6"]

    def test_ordering_overt_opt_basic(self, fig6_rows):
        by_n = {}
        for row in fig6_rows:
            by_n.setdefault(row["num_nodes"], {})[row["scheme"]] = row[
                "transfer_time_s"
            ]
        for n, schemes in by_n.items():
            assert schemes["overt"] < schemes["tap-opt-l3"]
            assert schemes["tap-opt-l3"] < schemes["tap-basic-l3"]
            assert schemes["tap-opt-l5"] < schemes["tap-basic-l5"]

    def test_longer_tunnel_costs_more(self, fig6_rows):
        for row3 in fig6_rows:
            if row3["scheme"] == "tap-basic-l3":
                row5 = next(
                    r for r in fig6_rows
                    if r["num_nodes"] == row3["num_nodes"]
                    and r["scheme"] == "tap-basic-l5"
                )
                assert row5["transfer_time_s"] > row3["transfer_time_s"]

    def test_basic_grows_with_network_size(self, fig6_rows):
        points = series(fig6_rows, "num_nodes", "transfer_time_s")["tap-basic-l5"]
        assert points[-1][1] > points[0][1]

    def test_opt_insensitive_to_network_size(self, fig6_rows):
        """TAP_opt takes l+2 direct hops regardless of N (no churn)."""
        points = series(fig6_rows, "num_nodes", "transfer_time_s")["tap-opt-l5"]
        values = [v for _, v in points]
        assert max(values) - min(values) < 0.25 * min(values)

    def test_optimisation_factor_substantial(self, fig6_rows):
        """The paper: optimisation 'dramatically' reduces the penalty."""
        last_n = max(r["num_nodes"] for r in fig6_rows)
        basic = next(
            r["transfer_time_s"] for r in fig6_rows
            if r["num_nodes"] == last_n and r["scheme"] == "tap-basic-l5"
        )
        opt = next(
            r["transfer_time_s"] for r in fig6_rows
            if r["num_nodes"] == last_n and r["scheme"] == "tap-opt-l5"
        )
        assert basic / opt > 1.5


#: the PNS ablation at CI size: 10 kb messages keep the measurement
#: latency-bound, where locality matters (a 2 Mb transfer hides it
#: behind 1.33 s of serialisation per hop at 1.5 Mb/s)
PNS_BENCH = Fig6Config(network_sizes=(300, 1_000), transfers_per_size=15,
                       num_seeds=1, tunnel_lengths=(5,), file_bits=10_000.0)


@pytest.fixture(scope="module")
def pns_rows():
    return {pns: run_fig6(replace(PNS_BENCH, pns=pns)) for pns in (False, True)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pns, digest", [
    (False, "2f41ce5191920237da658df92424e23d4a775e23ab4e2d8183a714bbbcb801ca"),
    (True, "13fc593a7246d8220d5ada72155f0760d84f09dd4c8b975ba8c7f64df997917c"),
])
def test_pns_bench_rows_are_pinned(pns, digest, workers, pns_rows):
    """Both arms of the PNS ablation reproduce their rows exactly, for
    any worker count."""
    rows = (pns_rows[pns] if workers == 1
            else run_fig6(replace(PNS_BENCH, pns=pns), workers=workers))
    assert rows_digest(rows) == digest


def test_pns_shortens_dht_routes_only(pns_rows):
    """Locality makes the schemes that route through the DHT (overt,
    TAP_basic) faster on small, latency-bound messages; TAP_opt, which
    takes direct links by IP hint, barely moves."""
    time_of = {
        (row["num_nodes"], row["scheme"], pns): row["transfer_time_s"]
        for pns, rows in pns_rows.items() for row in rows
    }
    for n in PNS_BENCH.network_sizes:
        assert time_of[n, "overt", True] < 0.9 * time_of[n, "overt", False]
        assert time_of[n, "tap-basic-l5", True] < 0.9 * time_of[n, "tap-basic-l5", False]
        opt_delta = abs(time_of[n, "tap-opt-l5", True] - time_of[n, "tap-opt-l5", False])
        assert opt_delta < 0.15 * time_of[n, "tap-opt-l5", False]
