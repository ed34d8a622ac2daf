"""Shape + determinism tests for the batched scale-latency experiment."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.scale_churn import TELEMETRY_VALUES
from repro.experiments.scale_latency import (
    ScaleLatencyConfig,
    run_scale_latency,
    summarize_rows,
)
from repro.obs import EventTrace, MetricsRegistry
from repro.perf import Sinks, rows_digest

TINY = ScaleLatencyConfig(
    num_nodes=500,
    num_transfers=80,
    tunnel_lengths=(2, 3),
    churn_rounds=2,
    verify_routes=3,
    num_seeds=2,
    seed=23,
)


class TestScaleLatency:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_scale_latency(TINY)

    def test_row_shape(self, rows):
        arms = [r for r in rows if r["figure"] == "scale-latency"]
        verify = [r for r in rows if r["figure"] == "scale-latency-verify"]
        per_rep = 1 + len(TINY.tunnel_lengths)
        assert len(arms) == TINY.num_seeds * per_rep
        assert len(verify) == TINY.num_seeds
        for row in arms:
            assert row["transfers"] == TINY.num_transfers
            assert 0.0 <= row["completion"] <= 1.0
            assert row["p10_s"] <= row["p50_s"] <= row["p90_s"]
            if row["arm"] == "direct":
                assert row["tunnel_length"] == 0
            else:
                assert row["arm"] == f"tunnel-l{row['tunnel_length']}"
                assert row["hop_stretch"] > 0

    def test_routes_complete_and_agree(self, rows):
        for row in rows:
            if row["figure"] == "scale-latency":
                assert row["completion"] == 1.0
            if row["figure"] == "scale-latency-verify":
                assert row["routes"] == TINY.verify_routes
                assert row["agree"] == row["routes"]

    def test_fig6_trend(self, rows):
        """Tunnels pay latency proportional to their hop stretch: the
        trend ratio sits near 1 and longer tunnels cost more (fig6)."""
        for rep in range(TINY.num_seeds):
            arms = {
                r["arm"]: r
                for r in rows
                if r["figure"] == "scale-latency" and r["rep"] == rep
            }
            direct = arms["direct"]
            prev = direct["mean_s"]
            for length in TINY.tunnel_lengths:
                tun = arms[f"tunnel-l{length}"]
                assert tun["mean_hops"] > direct["mean_hops"]
                assert tun["mean_s"] > prev
                prev = tun["mean_s"]
                assert 0.8 < tun["trend_ratio"] < 1.2

    def test_digest_is_worker_independent(self, rows):
        assert rows_digest(run_scale_latency(TINY, workers=2)) == (
            rows_digest(rows)
        )

    def test_fast_config_is_smaller(self):
        fast = ScaleLatencyConfig.fast()
        assert fast.num_nodes < ScaleLatencyConfig().num_nodes

    @pytest.mark.parametrize("name, config", [
        ("scale-latency", ScaleLatencyConfig.fast()),
        ("scale-latency --million", ScaleLatencyConfig.million()),
    ], ids=["fast", "million"])
    def test_rows_match_the_digest_sheet(self, name, config, digest_sheet):
        rows = run_scale_latency(config, workers=1)
        assert rows_digest(rows) == digest_sheet[name]


class TestTelemetry:
    """Telemetry must observe without perturbing the rows."""

    @pytest.fixture(scope="class")
    def telemetry(self):
        metrics = MetricsRegistry()
        events = EventTrace()
        rows = run_scale_latency(
            TINY, sinks=Sinks(metrics, event_trace=events)
        )
        return rows, metrics, events

    def test_rows_identical_with_telemetry_off(self, telemetry):
        rows, _, _ = telemetry
        assert rows_digest(rows) == rows_digest(run_scale_latency(TINY))

    def test_expected_instruments_present(self, telemetry):
        _, metrics, _ = telemetry
        snap = metrics.snapshot()
        per_rep = TINY.num_transfers * (1 + len(TINY.tunnel_lengths))
        assert snap["scale_latency.transfers"]["value"] == (
            TINY.num_seeds * per_rep
        )
        assert snap["scale_latency.direct_completion"]["value"] == 1.0
        # every transfer completes, so each arm's histogram takes a
        # prefix of its latencies
        observed = TINY.num_seeds * min(TINY.num_transfers, TELEMETRY_VALUES)
        assert snap["scale_latency.direct_s"]["count"] == observed
        for length in TINY.tunnel_lengths:
            assert snap[f"scale_latency.tunnel_l{length}_s"]["count"] == observed

    def test_arm_events_recorded(self, telemetry):
        _, _, events = telemetry
        arms = list(events.events("scale_latency.arm"))
        assert len(arms) == TINY.num_seeds * (1 + len(TINY.tunnel_lengths))
        assert all(e.fields["completion"] == 1.0 for e in arms)


class TestSummarizeRows:
    def test_summary_keys(self):
        rows = run_scale_latency(TINY)
        summary = summarize_rows(rows)
        assert set(summary) == {
            "scale_latency.route_completion",
            "scale_latency.median_tunnel_latency_s",
            "scale_latency.hop_stretch",
            "scale_latency.trend_ratio",
            "scale_latency.route_agreement",
        }
        assert summary["scale_latency.route_completion"] == 1.0
        assert summary["scale_latency.route_agreement"] == 1.0
        assert summary["scale_latency.hop_stretch"] > 1.0
        assert 0.8 < summary["scale_latency.trend_ratio"] < 1.2
        assert summary["scale_latency.median_tunnel_latency_s"] > 0.0

    def test_empty_rows(self):
        assert summarize_rows([]) == {}


class TestMillionKnobs:
    """The million-node operating point: its config, rows that depend
    neither on how a caller splits the packet batches nor on the worker
    count, and million configs alias their SLOs under scale_1m."""

    def test_million_config_shape(self):
        cfg = ScaleLatencyConfig.million()
        assert cfg.num_nodes == 1_000_000
        assert cfg.verify_routes > 0

    def test_rows_invariant_to_chunk_and_workers(self, route_in_windows):
        flat = rows_digest(run_scale_latency(TINY))
        route_in_windows(13)
        rows = run_scale_latency(TINY, workers=2)
        assert rows_digest(rows) == flat

    def test_volatile_out_reports_restore(self):
        sinks = Sinks()
        run_scale_latency(TINY, workers=2, sinks=sinks)
        volatile = sinks.volatile
        assert len(volatile["trials"]) == TINY.num_seeds
        for entry in volatile["trials"]:
            assert entry["restore_seconds"] >= 0.0

    def test_summary_aliases_scale_1m_for_million_configs(self):
        rows = run_scale_latency(TINY)
        plain = summarize_rows(rows, config=TINY)
        assert not any(k.startswith("scale_1m.") for k in plain)
        million = summarize_rows(
            rows, config=dataclasses.replace(TINY, num_nodes=1_000_000)
        )
        assert million["scale_1m.route_completion"] == (
            million["scale_latency.route_completion"]
        )
        assert million["scale_1m.route_agreement"] == 1.0
