"""Unit tests for the bench_compare gate logic (no benchmarks run).

The harness itself lives outside the package in ``tools/``, so it is
loaded by path; only the pure gate functions are exercised —
``batch_speedup_failures`` (per-route normalisation),
``scale_1m_failures`` (the 10^6 RSS budget) and ``overhead_failures``
(each telemetry arm against its off/off control).
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_compare", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_compare", module)
    spec.loader.exec_module(module)
    return module


class TestScale1mGates:
    def test_rss_within_budget_passes(self, bench):
        results = {
            "pastry.bootstrap_1m": {
                "median_ns": 1.0, "peak_rss_bytes": 500 * 1024**2,
            },
        }
        assert bench.scale_1m_failures(results) == []

    def test_rss_over_budget_fails(self, bench):
        results = {
            "compact.churn_1m": {
                "median_ns": 1.0,
                "peak_rss_bytes": bench.SCALE_1M_MAX_RSS + 1,
            },
        }
        failures = bench.scale_1m_failures(results)
        assert len(failures) == 1
        assert "compact.churn_1m" in failures[0]

    def test_missing_rss_is_skipped(self, bench):
        assert bench.scale_1m_failures(
            {"pastry.bootstrap_1m": {"median_ns": 1.0}}
        ) == []

    def test_env_knob_gates_the_group(self, bench, monkeypatch):
        monkeypatch.delenv("TAP_BENCH_SCALE_1M", raising=False)
        enabled, reason = bench.scale_1m_status()
        assert not enabled and "TAP_BENCH_SCALE_1M" in reason


class TestBatchSpeedupGate:
    def _results(self, bench, per_route_ratio: float) -> dict:
        fast = "compact.route_many_100k"
        slow = "compact.route_100k"
        slow_ns = 1_000_000.0
        per_slow = slow_ns / bench.ROUTE_UNITS[slow]
        fast_ns = (per_slow / per_route_ratio) * bench.ROUTE_UNITS[fast]
        return {
            fast: {"median_ns": fast_ns},
            slow: {"median_ns": slow_ns},
        }

    def test_fast_enough_passes(self, bench):
        assert bench.batch_speedup_failures(self._results(bench, 25.0)) == []

    def test_too_slow_fails(self, bench):
        failures = bench.batch_speedup_failures(self._results(bench, 10.0))
        assert len(failures) == 1
        assert "x10.0 per route" in failures[0]

    def test_missing_member_is_skipped(self, bench):
        results = self._results(bench, 10.0)
        del results["compact.route_100k"]
        assert bench.batch_speedup_failures(results) == []


class TestOverheadGate:
    BARE = [100.0, 102.0, 99.0, 101.0, 100.0]

    def _samples(self, bench, on: list[float]) -> dict:
        samples = {}
        for arm, (bare, _) in bench.OVERHEAD.items():
            samples[bare] = self.BARE
            samples[bare + "#2"] = [101.0, 99.0, 100.0, 100.0, 102.0]
            samples[arm] = on
        return samples

    def test_arms_within_their_bars_pass(self, bench):
        assert bench.overhead_failures(self._samples(bench, [102.0] * 5)) == []

    def test_arm_past_its_bar_fails(self, bench):
        samples = self._samples(bench, [102.0] * 5)
        samples["fig6.spans"] = [115.0] * 5  # bar 10 %
        samples["compact.churn_100k_telemetry"] = [107.0] * 5  # bar 5 %
        failures = bench.overhead_failures(samples)
        assert [f.split(":")[0] for f in failures] == [
            "fig6.spans", "compact.churn_100k_telemetry"]

    def test_within_one_bar_past_another(self, bench):
        # 7 % passes the span bar (10 %) and fails the metrics bar (5 %)
        failures = bench.overhead_failures(self._samples(bench, [107.0] * 5))
        assert [f.split(":")[0] for f in failures] == [
            "fig6.metrics", "compact.churn_100k_telemetry"]
