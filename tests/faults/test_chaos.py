"""Tests for the chaos runner: acceptance bars + deterministic replay."""

import json
from dataclasses import replace

import pytest

from repro.core.resilience import ResiliencePolicy
from repro.faults import (
    ChaosConfig,
    availability_report,
    canonical_json,
    named_plan,
    run_chaos,
)
from repro.faults.chaos import BASELINE

FAST = ChaosConfig.fast()


@pytest.fixture(scope="module")
def lossy_policy_report():
    return run_chaos(named_plan("lossy"), FAST)


@pytest.fixture(scope="module")
def lossy_baseline_report():
    return run_chaos(named_plan("lossy"), FAST,
                     policy=ResiliencePolicy.reactive(0))


class TestAcceptance:
    def test_policy_holds_availability_under_loss(self, lossy_policy_report):
        # The ISSUE acceptance bar: 5% message loss, retry/reform keeps
        # session availability >= 0.99.
        assert lossy_policy_report["summary"]["availability"] >= 0.99

    def test_baseline_measurably_degrades(
        self, lossy_policy_report, lossy_baseline_report
    ):
        policy = lossy_policy_report["summary"]["availability"]
        baseline = lossy_baseline_report["summary"]["availability"]
        assert baseline < policy
        assert baseline < 0.99

    def test_recovered_requests_counted(self, lossy_policy_report):
        s = lossy_policy_report["summary"]
        assert s["retries"] > 0
        assert s["recovered"] > 0
        assert s["effective_availability"] <= s["availability"]

    def test_faults_were_actually_injected(self, lossy_policy_report):
        assert lossy_policy_report["summary"]["faults_injected"].get(
            "message.drop", 0
        ) > 0


class TestDeterminism:
    def test_same_seed_same_digest(self, lossy_policy_report):
        replay = run_chaos(named_plan("lossy"), FAST)
        assert replay["digest"] == lossy_policy_report["digest"]
        assert replay["events_jsonl"] == lossy_policy_report["events_jsonl"]

    def test_different_seed_different_digest(self, lossy_policy_report):
        other = run_chaos(
            named_plan("lossy"),
            ChaosConfig(num_nodes=100, sessions=3, rounds=12, seed=77),
        )
        assert other["digest"] != lossy_policy_report["digest"]

    def test_canonical_json_round_trips(self, lossy_policy_report):
        text = canonical_json(lossy_policy_report)
        parsed = json.loads(text)
        assert parsed["digest"] == lossy_policy_report["digest"]
        assert "events_jsonl" not in parsed


class TestReportShape:
    def test_per_session_rows(self, lossy_policy_report):
        rows = lossy_policy_report["rows"]
        assert len(rows) == FAST.sessions
        for row in rows:
            assert row["requests"] == FAST.rounds
            assert 0.0 <= row["availability"] <= 1.0
            assert row["mttr_rounds"] >= 0.0

    def test_human_report_renders(
        self, lossy_policy_report, lossy_baseline_report
    ):
        text = availability_report(
            lossy_policy_report, baseline=lossy_baseline_report
        )
        assert "availability" in text
        assert "MTTR" in text
        assert lossy_policy_report["digest"] in text


class TestOtherPlans:
    def test_churn_plan_crashes_and_recovers(self):
        report = run_chaos(named_plan("smoke"), FAST)
        faults = report["summary"]["faults_injected"]
        assert faults.get("node.crash", 0) > 0
        assert faults.get("node.recover", 0) > 0

    def test_partition_heals(self):
        report = run_chaos(
            named_plan("partition"),
            ChaosConfig(num_nodes=100, sessions=2, rounds=20, seed=11),
        )
        faults = report["summary"]["faults_injected"]
        assert faults.get("partition.split") == 1
        assert faults.get("partition.heal") == 1

    @pytest.mark.parametrize("name", ["lease-skew", "bitrot"])
    def test_storage_plans_are_refused_not_silently_passed(self, name):
        """Nothing in a chaos run applies at-rest storage faults: a
        plan carrying them used to report availability 1.0 with "faults
        injected: none" (lease-skew) or drop its rot (bitrot)."""
        with pytest.raises(ValueError, match="run_durability"):
            run_chaos(named_plan(name), FAST)


#: report digests of the plans that drive the resilient arm's retries,
#: backoff, breakers, probes and degraded reads at seed 7 (the smoke
#: plan in results/DIGESTS.txt drives none of them); partition alone
#: makes 24 retries, 8 breaker trips, 62 probes and 7 degraded serves
PINNED_DIGESTS = {
    ("lossy", "resilient"):
        "0231d95c7a750eb3be3ac94be9d134c7f602947491ca2a6c404239d23d4350ee",
    ("lossy", "baseline"):
        "e5f7b69d5fa34ac3ad5025ed203deb9452848e25da35e9450e668a043219edb7",
    ("byzantine", "resilient"):
        "a56f454e7e18bf45816ee7e762756b4f50a611737b8f75fcf8a43ef92ad7c2fa",
    ("byzantine", "baseline"):
        "a634fcc08d5c2933f5ac315fac60f31edd91f3319ed1ff1e4a8d15a4a53e6794",
    ("partition", "resilient"):
        "60746cd085c033a06daa8d2de0377d5d62dfa9cf5bfc1a5c10f02e443f78f133",
    ("partition", "baseline"):
        "e531f681dca72ca6bf6f648c5313153879c2a07c63bba8ed93febb687412a01b",
}


@pytest.mark.parametrize("plan,arm", sorted(PINNED_DIGESTS))
def test_policy_arms_pinned(plan, arm):
    policy = ResiliencePolicy() if arm == "resilient" else BASELINE
    report = run_chaos(named_plan(plan), replace(FAST, seed=7), policy=policy)
    assert report["digest"] == PINNED_DIGESTS[plan, arm]
