"""Shape + determinism tests for the durability experiment."""

from __future__ import annotations

import pytest

from repro.experiments.config import DurabilityConfig
from repro.experiments.durability import (
    BACKENDS,
    run_durability,
    summarize_rows,
)
from repro.obs import MetricsRegistry
from repro.perf import Sinks, rows_digest

TINY = DurabilityConfig(
    num_nodes=90,
    num_objects=16,
    object_bytes=64,
    crawler_budget_bytes=4_096,
    num_seeds=1,
    seed=11,
)


class TestDurability:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_durability(TINY)

    def test_row_shape(self, rows):
        per_round = [r for r in rows if r["figure"] == "durability"]
        finals = [r for r in rows if r["figure"] == "durability-final"]
        rounds = {r["round"] for r in per_round}
        assert len(finals) == TINY.num_seeds * len(BACKENDS)
        assert len(per_round) == len(finals) * len(rounds)
        for row in per_round:
            assert row["backend"] in BACKENDS
            assert 0.0 <= row["clean"] <= row["available"] <= 1.0
            assert row["repair_bytes"] >= 0

    def test_replication_serves_rot_erasure_stays_clean(self, rows):
        """The headline: under the bitrot plan the replicated arm
        silently serves corrupted bytes, the erasure arm never does."""
        summary = summarize_rows(rows)
        assert summary["durability.erasure.clean_min"] == 1.0
        assert summary["durability.replicated.clean_min"] < 1.0
        # erasure fetches are verified: rot is never served, whatever
        # the round — it shows up as unavailability at worst
        assert all(
            r["corrupt_served"] == 0 for r in rows
            if r.get("figure") == "durability" and r["backend"] == "erasure"
        )
        # replication hides the rot inside its availability number
        assert summary["durability.replicated.available_min"] > \
            summary["durability.replicated.clean_min"]

    def test_erasure_stores_fewer_bytes(self, rows):
        per_object = {
            r["backend"]: r["stored_bytes_per_object"]
            for r in rows if r["figure"] == "durability-final"
        }
        assert per_object["erasure"] < per_object["replicated"]

    def test_crawler_budget_bounds_round_repair(self, rows):
        summary = summarize_rows(rows)
        frag = (TINY.object_bytes + TINY.data_shares - 1) // TINY.data_shares
        overshoot = (TINY.data_shares + TINY.total_shares) * frag
        assert summary["durability.erasure.repair_bytes_round_max"] <= \
            TINY.crawler_budget_bytes + overshoot

    def test_summary_has_the_gated_indicators(self, rows):
        summary = summarize_rows(rows)
        for backend in BACKENDS:
            for stem in ("available_min", "clean_min", "final_clean",
                         "repair_bytes_round_max"):
                assert f"durability.{backend}.{stem}" in summary
        assert "durability.repair_bytes_ratio" in summary

    def test_rows_identical_across_worker_counts(self, rows):
        assert rows_digest(run_durability(TINY, workers=2)) == \
            rows_digest(rows)

    def test_rows_identical_with_telemetry(self, rows):
        metrics = MetricsRegistry()
        assert rows_digest(run_durability(TINY, sinks=Sinks(metrics))) == \
            rows_digest(rows)
        snapshot = metrics.snapshot()
        assert any(name.startswith("erasure.repair") for name in snapshot)

    def test_lease_skew_plan_skews_leases(self):
        """The one route to ``StorageFaultInjector.inject_lease_skew``:
        the erasure arm's holders get fast clocks, the replicated arm
        (no lease clock) counts the event as unsupported."""
        import dataclasses

        metrics = MetricsRegistry()
        rows = run_durability(
            dataclasses.replace(DurabilityConfig.fast(), plan="lease-skew"),
            sinks=Sinks(metrics),
        )
        assert {r["backend"] for r in rows} == set(BACKENDS)
        snapshot = metrics.snapshot()
        assert snapshot["faults.storage.lease_skew"]["value"] > 0
        assert snapshot["faults.storage.skew_unsupported"]["value"] > 0

    @pytest.mark.parametrize(
        "name", ["lossy", "flaky", "partition", "byzantine", "smoke"]
    )
    def test_plans_it_cannot_apply_are_refused(self, name, monkeypatch):
        """Message faults, partitions and Byzantine hops used to be
        dropped silently, so the run read as a pass."""
        import dataclasses

        import repro.experiments.durability as durability

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the plan was refused")

        monkeypatch.setattr(durability, "run_trials", no_trials)
        with pytest.raises(ValueError, match=f"{name!r}.*run_chaos"):
            run_durability(dataclasses.replace(TINY, plan=name))

    @pytest.mark.parametrize("name", ["churn", "bitrot", "lease-skew"])
    def test_node_and_storage_plans_run(self, name):
        import dataclasses

        rows = run_durability(dataclasses.replace(TINY, plan=name, rounds=2))
        assert {r["backend"] for r in rows} == set(BACKENDS)

    def test_fast_config_is_smaller(self):
        fast = DurabilityConfig.fast()
        assert fast.num_nodes < DurabilityConfig().num_nodes
