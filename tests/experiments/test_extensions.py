"""Shape tests for the beyond-paper extension experiments."""

import pytest

from repro.experiments.ablation import (
    HintStalenessConfig,
    ScatterConfig,
    TradeoffConfig,
    run_hint_staleness,
    run_scatter,
    run_tradeoff,
)
from repro.experiments.anonymity_comparison import (
    ComparisonConfig,
    run_anonymity_comparison,
)
from repro.experiments.secure_routing_exp import (
    SecureRoutingConfig,
    run_secure_routing,
)
from repro.experiments.session_survival import (
    SessionSurvivalConfig,
    run_session_survival,
)
from repro.experiments.timing_attack import TimingAttackConfig, run_timing_attack
from repro.perf import rows_digest


class TestTradeoff:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_tradeoff(TradeoffConfig.fast())

    def test_rows_match_the_digest_sheet(self, rows, digest_sheet):
        assert rows_digest(rows) == digest_sheet["tradeoff"]

    def test_monotone_in_k_both_axes(self, rows):
        by_l = {}
        for row in rows:
            by_l.setdefault(row["tunnel_length"], []).append(row)
        for group in by_l.values():
            group.sort(key=lambda r: r["replication_factor"])
            fails = [r["failed_tunnels"] for r in group]
            corr = [r["corrupted_tunnels"] for r in group]
            assert fails == sorted(fails, reverse=True)
            assert corr == sorted(corr)

    def test_tracks_theory(self, rows):
        for row in rows:
            assert row["failed_tunnels"] == pytest.approx(
                row["expected_failed"], abs=0.12
            )
            assert row["corrupted_tunnels"] == pytest.approx(
                row["expected_corrupted"], abs=0.05
            )


class TestScatter:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_scatter(ScatterConfig.fast())

    def test_rows_match_the_digest_sheet(self, rows, digest_sheet):
        assert rows_digest(rows) == digest_sheet["scatter"]

    def test_scattering_reduces_multi_hop_holders(self, rows):
        rates = {r["selection"]: r["multi_hop_holder_rate"] for r in rows}
        assert rates["scattered"] < rates["uniform"]


class TestHintStaleness:
    def test_fresh_network_all_hints_work(self):
        rows = run_hint_staleness(HintStalenessConfig.fast())
        base = rows[0]
        assert base["churn_events"] == 0
        assert base["hint_failure_rate"] == 0.0
        assert base["via_hint_rate"] == 1.0

    def test_fallback_preserves_success(self):
        rows = run_hint_staleness(HintStalenessConfig.fast())
        assert all(r["tunnel_success_rate"] == 1.0 for r in rows)


class TestTimingAttack:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_timing_attack(TimingAttackConfig.fast())

    def test_conditions_present(self, rows):
        names = {r["condition"] for r in rows}
        assert "no-defence" in names
        assert "padded-cells" in names

    def test_undefended_attack_extracts_signal(self, rows):
        base = next(r for r in rows if r["condition"] == "no-defence")
        assert base["precision"] > 0.2
        assert base["recall"] > 0.1

    def test_padding_blunts_attack(self, rows):
        base = next(r for r in rows if r["condition"] == "no-defence")
        padded = next(r for r in rows if r["condition"] == "padded-cells")
        assert padded["precision"] <= base["precision"] / 2

    def test_defences_cost_bandwidth(self, rows):
        base = next(r for r in rows if r["condition"] == "no-defence")
        for row in rows:
            if row["condition"] != "no-defence":
                assert row["gbits_sent"] > base["gbits_sent"]


class TestSecureRouting:
    def test_deception_nearly_eliminated(self):
        rows = run_secure_routing(SecureRoutingConfig.fast())
        for row in rows:
            assert row["naive_deceived"] > 0.02
            assert row["secure_deceived"] <= row["naive_deceived"] / 3
            assert row["false_alarms"] <= 0.05


class TestSessionSurvival:
    def test_tap_dominates_fixed(self):
        rows = run_session_survival(SessionSurvivalConfig.fast())
        for row in rows:
            assert row["tap_availability"] >= row["fixed_availability"]
            assert row["tap_reforms"] <= row["fixed_reforms"]

    def test_baseline_degrades_under_churn(self):
        rows = run_session_survival(SessionSurvivalConfig.fast())
        heavy = rows[-1]
        assert heavy["failures_per_request"] > 0
        assert heavy["fixed_availability"] < 1.0
        assert heavy["tap_availability"] >= 0.99


class TestReplyDurability:
    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.reply_durability import (
            ReplyDurabilityConfig,
            run_reply_durability,
        )

        return run_reply_durability(ReplyDurabilityConfig.fast())

    def test_no_churn_both_perfect(self, rows):
        base = rows[0]
        assert base["churn_fraction"] == 0.0
        assert base["tap_reply_success"] == 1.0
        assert base["fixed_reply_success"] == 1.0

    def test_tap_survives_fixed_rots(self, rows):
        heavy = rows[-1]
        assert heavy["churn_fraction"] > 0
        assert heavy["tap_reply_success"] >= 0.9
        assert heavy["fixed_reply_success"] < 1.0
        assert heavy["tap_reply_success"] > heavy["fixed_reply_success"]

    def test_fixed_tracks_theory(self, rows):
        for row in rows:
            assert row["fixed_reply_success"] == pytest.approx(
                row["fixed_expected"], abs=0.35
            )


class TestComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_anonymity_comparison(ComparisonConfig.fast())

    def test_all_systems_present(self, rows):
        assert {r["system"] for r in rows} == {
            "tap-basic", "tap-opt", "crowds", "onion-routing"
        }

    def test_tap_survival_dominates(self, rows):
        by = {r["system"]: r for r in rows}
        assert by["tap-opt"]["path_failure_prob"] < by["crowds"]["path_failure_prob"]
        assert by["tap-opt"]["path_failure_prob"] < by["onion-routing"]["path_failure_prob"]

    def test_anonymity_in_same_band(self, rows):
        degrees = [r["degree_of_anonymity"] for r in rows]
        assert max(degrees) - min(degrees) < 0.3

    def test_optimisation_cuts_hops(self, rows):
        by = {r["system"]: r for r in rows}
        assert by["tap-opt"]["mean_hops"] < by["tap-basic"]["mean_hops"]
