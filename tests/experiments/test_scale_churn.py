"""Shape + determinism tests for the compact-engine scale experiment."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.scale_churn import (
    ScaleChurnConfig,
    run_scale_churn,
    summarize_rows,
)
from repro.obs import EventTrace, MetricsRegistry
from repro.perf import Sinks, rows_digest

TINY = ScaleChurnConfig(
    num_nodes=400,
    num_anchors=50,
    churn_rounds=3,
    spot_check_routes=4,
    num_seeds=2,
    seed=11,
    telemetry_anchor_samples=16,
    telemetry_route_samples=2,
)


class TestScaleChurn:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_scale_churn(TINY)

    def test_row_shape(self, rows):
        churn = [r for r in rows if r["figure"] == "scale-churn"]
        sweeps = [r for r in rows if r["figure"] == "scale-churn-sweep"]
        spots = [r for r in rows if r["figure"] == "scale-churn-spot"]
        assert len(churn) == TINY.num_seeds * TINY.churn_rounds
        assert len(sweeps) == TINY.num_seeds
        assert len(spots) == TINY.num_seeds
        for row in churn:
            assert 0.0 <= row["survivor_fraction"] <= 1.0
            assert 0.0 <= row["replica_overlap"] <= 1.0
            assert row["alive"] > 0

    def test_sweep_routes_every_anchor_to_its_root(self, rows):
        for row in rows:
            if row["figure"] == "scale-churn-sweep":
                assert row["routes"] == TINY.num_anchors
                assert row["completion"] == 1.0
                assert row["root_hit_fraction"] == 1.0
                assert row["mean_hops"] > 0

    def test_churn_erodes_replica_sets(self, rows):
        for rep in range(TINY.num_seeds):
            series = [
                r["replica_overlap"]
                for r in rows
                if r["figure"] == "scale-churn" and r["rep"] == rep
            ]
            assert series == sorted(series, reverse=True)
            assert series[-1] < 1.0
        # ... while at these rates most anchors keep an original replica
        assert all(r["survivor_fraction"] > 0.9
                   for r in rows if r["figure"] == "scale-churn")

    def test_spot_checks_agree_with_bridge(self, rows):
        for row in rows:
            if row["figure"] == "scale-churn-spot":
                assert row["agree"] == row["routes"]
                assert row["mean_hops"] >= 0

    def test_digest_is_worker_independent(self, rows):
        serial = rows_digest(rows)
        assert rows_digest(run_scale_churn(TINY, workers=2)) == serial

    def test_fast_config_is_smaller(self):
        fast = ScaleChurnConfig.fast()
        assert fast.num_nodes < ScaleChurnConfig().num_nodes


class TestTelemetry:
    """Sampled telemetry must observe without perturbing the rows."""

    @pytest.fixture(scope="class")
    def telemetry(self):
        metrics = MetricsRegistry()
        events = EventTrace()
        rows = run_scale_churn(
            TINY, sinks=Sinks(metrics, event_trace=events)
        )
        return rows, metrics, events

    def test_rows_identical_with_telemetry_off(self, telemetry):
        rows, _, _ = telemetry
        assert rows_digest(rows) == rows_digest(run_scale_churn(TINY))

    def test_expected_instruments_present(self, telemetry):
        _, metrics, _ = telemetry
        snap = metrics.snapshot()
        expected_rounds = TINY.num_seeds * TINY.churn_rounds
        assert snap["scale.churn.rounds"]["value"] == expected_rounds
        assert snap["compact.fail_events"]["value"] == expected_rounds
        assert snap["scale.churn.failed_nodes"]["value"] > 0
        assert snap["scale.replica.overlap"]["count"] == (
            expected_rounds * TINY.telemetry_anchor_samples
        )
        assert snap["scale.route.hops"]["count"] == (
            TINY.num_seeds * TINY.telemetry_route_samples
        )
        assert 0.0 < snap["scale.alive_fraction"]["value"] <= 1.0
        assert 0.0 < snap["compact.alive_fraction"]["value"] <= 1.0

    def test_round_events_recorded(self, telemetry):
        _, _, events = telemetry
        rounds = list(events.events("scale.round"))
        assert len(rounds) == TINY.num_seeds * TINY.churn_rounds
        assert all(0.0 <= e.fields["survivor_fraction"] <= 1.0
                   for e in rounds)


class TestSummarizeRows:
    def test_summary_keys(self):
        rows = run_scale_churn(TINY)
        summary = summarize_rows(rows)
        assert set(summary) == {
            "scale.survivor_fraction",
            "scale.replica_overlap",
            "scale.final_replica_overlap",
            "scale.sweep_completion",
            "scale.sweep_root_hit",
            "scale.sweep_mean_hops",
            "scale.route_agreement",
        }
        assert summary["scale.route_agreement"] == 1.0
        assert summary["scale.sweep_completion"] == 1.0
        assert summary["scale.sweep_root_hit"] == 1.0
        assert 0.0 < summary["scale.replica_overlap"] <= 1.0

    def test_empty_rows(self):
        assert summarize_rows([]) == {}


class TestMillionKnobs:
    """The million-node execution knobs, exercised at toy scale: the
    rows must not depend on chunking or the worker count, and the
    scalar-verify arm must pin batch-vs-scalar agreement."""

    def test_million_config_shape(self):
        cfg = ScaleChurnConfig.million()
        assert cfg.num_nodes == 1_000_000
        assert cfg.chunk_size is not None
        assert cfg.scalar_verify_routes > 0
        assert cfg.spot_check_routes == 0  # bridge spot checks don't scale

    def test_rows_invariant_to_chunk_and_workers(self):
        flat = rows_digest(run_scale_churn(TINY))
        knobs = dataclasses.replace(TINY, chunk_size=7)
        rows = run_scale_churn(knobs, workers=2)
        assert rows_digest(rows) == flat

    def test_scalar_verify_rows_agree(self):
        cfg = dataclasses.replace(TINY, scalar_verify_routes=5)
        rows = run_scale_churn(cfg)
        verify = [r for r in rows if r["figure"] == "scale-churn-verify"]
        assert len(verify) == TINY.num_seeds
        for row in verify:
            assert row["routes"] == 5
            assert row["agree"] == 5

    def test_volatile_out_reports_restore(self):
        sinks = Sinks()
        run_scale_churn(TINY, workers=2, sinks=sinks)
        volatile = sinks.volatile
        assert len(volatile["trials"]) == TINY.num_seeds
        for entry in volatile["trials"]:
            assert entry["restore_seconds"] >= 0.0

    def test_summary_aliases_scale_1m_for_million_configs(self):
        cfg = dataclasses.replace(TINY, scalar_verify_routes=3)
        rows = run_scale_churn(cfg)
        plain = summarize_rows(rows, config=cfg)
        assert "scale.scalar_agreement" in plain
        assert not any(k.startswith("scale_1m.") for k in plain)
        million = summarize_rows(
            rows, config=dataclasses.replace(cfg, num_nodes=1_000_000)
        )
        assert million["scale_1m.survivor_fraction"] == (
            million["scale.survivor_fraction"]
        )
        assert million["scale_1m.scalar_agreement"] == 1.0
