"""Tests for the tap-repro command-line interface."""

import inspect
import json

import pytest

from repro.cli import _ALL_RUNNERS, _EXTENSIONS, _FIGURES, main

#: the run-contract arguments each runner takes besides its config
CONTRACT = {
    **dict.fromkeys(("fig2", "fig3", "fig4a", "fig4b", "fig5", "tradeoff"),
                    {"workers"}),
    **dict.fromkeys(("fig6", "hints", "sessions"),
                    {"workers", "sinks", "audit"}),
    **dict.fromkeys(("scale-churn", "scale-latency", "durability"),
                    {"workers", "sinks"}),
    **dict.fromkeys(("scatter", "timing", "secure-routing", "comparison",
                     "reply-durability"), set()),
}

#: each flag a runner can refuse, the argument it needs, and its argv
#: (paths relative to the test's tmp dir)
FLAGS = {
    "--metrics-out": ("sinks", ["--metrics-out", "m/metrics.json"]),
    "--trace-out": ("sinks", ["--trace-out", "t/trace.json"]),
    "--audit": ("audit", ["--audit"]),
    "--workers": ("workers", ["--workers", "2"]),
    "--plan": ("plan", ["--plan", "churn"]),
}

#: config fields a flag sets, per runner whose config has them
CONFIG_FIELDS = {"durability": {"plan"}}

REFUSED = [
    (name, flag)
    for name in CONTRACT
    for flag, (param, _) in FLAGS.items()
    if param not in CONTRACT[name] | CONFIG_FIELDS.get(name, set())
]


class TestRegistry:
    def test_every_figure_registered(self):
        assert set(_FIGURES) == {"fig2", "fig3", "fig4a", "fig4b", "fig5", "fig6"}

    def test_extensions_registered(self):
        assert {"tradeoff", "hints", "scatter", "timing", "secure-routing",
                "durability"} <= set(_EXTENSIONS)

    def test_all_runners_have_fast_configs(self):
        for name, (config_cls, runner, desc) in _ALL_RUNNERS.items():
            assert callable(runner)
            assert desc
            assert hasattr(config_cls, "fast")

    def test_runners_share_one_contract(self):
        assert set(CONTRACT) == set(_ALL_RUNNERS)
        for name, (_, runner, _) in _ALL_RUNNERS.items():
            params = set(inspect.signature(runner).parameters)
            assert params <= {"config", "workers", "sinks", "audit"}, name
            assert params - {"config"} == CONTRACT[name], name


class TestInvocation:
    def test_single_figure(self, capsys):
        assert main(["fig3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "malicious_fraction" in out

    def test_seed_override_changes_nothing_structural(self, capsys):
        assert main(["fig3", "--fast", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "corrupted_tunnels" in out

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert main(["fig3", "--fast", "--csv", str(target)]) == 0
        content = target.read_text()
        assert content.startswith("figure,")
        assert "fig3" in content

    def test_outdir_output(self, tmp_path, capsys):
        assert main(["fig4a", "--fast", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "fig4a.csv").exists()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_extension_invocation(self, capsys):
        assert main(["scatter", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "scattered" in out

    @pytest.mark.parametrize("name,flag", REFUSED)
    def test_flag_a_runner_does_not_take_is_a_usage_error(
            self, name, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([name, "--fast", *FLAGS[flag][1], "--outdir", "out"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert name in err and flag in err
        assert list(tmp_path.iterdir()) == []

    def test_plan_reaches_the_durability_config(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(["durability", "--fast", "--plan", "lease-skew",
                     "--metrics-out", str(target)]) == 0
        snapshot = json.loads(target.read_text())
        assert snapshot["faults.storage.lease_skew"]["value"] > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["configs"]["durability"]["plan"] == "lease-skew"

    @pytest.mark.parametrize("name", ["durability", "extensions"])
    def test_plan_the_runner_cannot_apply_exits_2_before_running(
            self, name, tmp_path, capsys):
        assert main([name, "--fast", "--plan", "lossy",
                     "--outdir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert ("fault plan 'lossy' schedules message faults, which only "
                "run_chaos applies (tap-repro chaos --plan lossy)"
                in captured.err)
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_plan_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["durability", "--fast", "--plan", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_serial_workers_accepted_everywhere(self, capsys):
        assert main(["scatter", "--fast", "--workers", "1"]) == 0

    @pytest.mark.parametrize("group", ["all", "extensions"])
    def test_csv_with_a_group_points_to_outdir(self, group, tmp_path,
                                               capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([group, "--fast", "--csv", str(tmp_path / "rows.csv")])
        assert exit_info.value.code == 2
        assert "--outdir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestObservabilityFlags:
    def test_metrics_out_writes_json_and_csv(self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["fig6", "--fast", "--metrics-out", str(target)]) == 0
        snapshot = json.loads(target.read_text())
        # the Fig. 6 pipeline recorded routing and latency histograms
        assert snapshot["pastry.route.hops"]["type"] == "histogram"
        assert snapshot["fig6.link_latency_s"]["count"] > 0
        for key in ("p50", "p95", "p99"):
            assert key in snapshot["fig6.link_latency_s"]
        csv_path = tmp_path / "metrics.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("metric,type,")

    def test_scale_latency_metrics_say_which_branch_packets_took(
            self, tmp_path, capsys):
        import json

        target = tmp_path / "metrics.json"
        assert main(["scale-latency", "--fast",
                     "--metrics-out", str(target)]) == 0
        snapshot = json.loads(target.read_text())
        taken = {
            branch: snapshot[f"compact.route.decisions_{branch}"]["value"]
            for branch in ("covered", "prefix_cell", "empty_cell")
        }
        packets = snapshot["compact.route.packets"]["value"]
        # sources are alive and every route completes: one covered
        # decision ends each packet, after at least one hop for most
        assert taken["covered"] == packets > 0
        assert taken["prefix_cell"] > 0
        assert sum(taken.values()) > packets
        assert snapshot["compact.route.legs_rerouted"]["value"] == 0

    def test_audit_flag_accepted(self, capsys):
        assert main(["fig6", "--fast", "--audit"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out

    def test_metrics_flag_ignored_by_nonsupporting_runner(self, tmp_path,
                                                           capsys):
        # In a group run the flag reaches the runners that take sinks:
        # fig2-fig5 are pure Monte-Carlo models with no overlay to
        # instrument and run without it; fig6 fills the snapshot.
        target = tmp_path / "metrics.json"
        assert main(["all", "--fast", "--metrics-out", str(target)]) == 0
        snapshot = json.loads(target.read_text())
        assert snapshot["fig6.link_latency_s"]["count"] > 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["results"]) == set(_FIGURES)


@pytest.fixture(scope="module")
def fig6_trace(tmp_path_factory):
    """One fig6 --fast run with --trace-out, shared by the span tests."""
    path = tmp_path_factory.mktemp("trace") / "fig6.json"
    assert main(["fig6", "--fast", "--trace-out", str(path)]) == 0
    return path


class TestSpanTracing:
    def test_trace_out_writes_valid_chrome_trace(self, fig6_trace):
        doc = json.loads(fig6_trace.read_text())
        events = doc["traceEvents"]
        assert events and all(ev["ph"] == "X" for ev in events)
        for ev in events:
            assert {"name", "cat", "ts", "dur", "args"} <= set(ev)
            assert "span_id" in ev["args"]

    def test_trace_out_writes_event_jsonl_sibling(self, fig6_trace):
        sibling = fig6_trace.with_suffix(".events.jsonl")
        lines = sibling.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "fig6.transfer" in kinds

    def test_span_trees_sum_to_reported_latency(self, fig6_trace):
        """Acceptance: every per-request span tree's children sum
        (within rounding) to the end-to-end latency on its root, and
        the root matches the transfer time the runner reported."""
        from repro.obs.critical_path import build_trees, load_trace_file

        roots = build_trees(load_trace_file(fig6_trace))
        assert roots
        for root in roots:
            assert root.name == "tap.request"
            assert root.children, "request trace with no leg spans"
            child_sum = sum(c.dur for c in root.children)
            assert child_sum == pytest.approx(root.dur, rel=1e-9, abs=1e-9)
            assert root.dur == pytest.approx(
                root.args["transfer_time_s"], rel=1e-9
            )

    def test_trace_subcommand_prints_breakdown(self, fig6_trace, capsys):
        assert main(["trace", str(fig6_trace)]) == 0
        out = capsys.readouterr().out
        assert "per-phase latency attribution" in out
        assert "critical path of trace" in out
        assert "routing" in out and "hint-probe" in out

    def test_trace_subcommand_csv(self, fig6_trace, tmp_path, capsys):
        target = tmp_path / "breakdown.csv"
        assert main(["trace", str(fig6_trace), "--csv", str(target)]) == 0
        header = target.read_text().splitlines()[0]
        assert header.startswith("phase,")

    def test_trace_redact_strips_linkage(self, tmp_path):
        from repro.obs.spans import INITIATOR_KEYS, RESPONDER_KEYS

        path = tmp_path / "redacted.json"
        assert main(
            ["fig6", "--fast", "--trace-out", str(path), "--trace-redact"]
        ) == 0
        for ev in json.loads(path.read_text())["traceEvents"]:
            keys = set(ev["args"])
            assert not (keys & INITIATOR_KEYS and keys & RESPONDER_KEYS), ev

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "cannot analyse" in capsys.readouterr().err

    def test_trace_subcommand_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace", str(path)]) == 1
        assert "contains no spans" in capsys.readouterr().err

    def test_trace_flag_ignored_by_nonsupporting_runner(self, tmp_path,
                                                         capsys):
        # In a group run only fig6 takes the tracer; fig2-fig5 run
        # without it and add nothing to the export.
        path = tmp_path / "all.json"
        assert main(["all", "--fast", "--trace-out", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert {ev["name"] for ev in events} >= {"tap.request"}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["results"]) == set(_FIGURES)


class TestChaosSubcommand:
    CHAOS = ["chaos", "--fast", "--seed", "7", "--plan", "smoke",
             "--no-baseline"]

    def test_list_plans(self, capsys):
        assert main(["chaos", "--list-plans"]) == 0
        out = capsys.readouterr().out
        for name in ("lossy", "flaky", "partition", "churn",
                     "byzantine", "smoke"):
            assert name in out

    def test_unknown_plan(self, capsys):
        assert main(["chaos", "--plan", "nope"]) == 1
        assert "unknown fault plan" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", ["lease-skew", "bitrot"])
    def test_storage_plan_exits_2_naming_durability(self, plan, capsys):
        assert main(["chaos", "--plan", plan, "--fast"]) == 2
        captured = capsys.readouterr()
        assert f"(tap-repro run durability --plan {plan})" in captured.err
        assert "digest" not in captured.out
        assert main(["chaos", "--list-plans"]) == 0
        assert f"{plan:12s} [durability]" in capsys.readouterr().out

    def test_run_prints_report(self, capsys):
        assert main(self.CHAOS) == 0
        out = capsys.readouterr().out
        assert "per-session health" in out
        assert "availability" in out and "digest" in out

    def test_report_and_events_outputs(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        events = tmp_path / "events.jsonl"
        assert main(self.CHAOS + ["--report-out", str(report),
                                  "--events-out", str(events)]) == 0
        parsed = json.loads(report.read_text())
        assert parsed["plan"] == "smoke"
        assert parsed["summary"]["requests"] > 0
        assert "events_jsonl" not in parsed  # canonical form is slim
        kinds = {json.loads(line)["kind"]
                 for line in events.read_text().splitlines()}
        assert "chaos.round" in kinds

    def test_deterministic_replay_byte_identical(self, tmp_path, capsys):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        e1, e2 = tmp_path / "e1.jsonl", tmp_path / "e2.jsonl"
        assert main(self.CHAOS + ["--report-out", str(r1),
                                  "--events-out", str(e1)]) == 0
        assert main(self.CHAOS + ["--report-out", str(r2),
                                  "--events-out", str(e2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert e1.read_bytes() == e2.read_bytes()

    def test_assert_availability_gate(self, capsys):
        assert main(self.CHAOS + ["--assert-availability", "0.5"]) == 0
        assert main(self.CHAOS + ["--assert-availability", "1.01"]) == 2
        assert "BELOW THRESHOLD" in capsys.readouterr().err

    def test_assert_deterministic_gate(self, capsys):
        assert main(self.CHAOS + ["--assert-deterministic"]) == 0
        assert "deterministic replay ok" in capsys.readouterr().out

    def test_baseline_comparison_line(self, capsys):
        assert main(["chaos", "--fast", "--seed", "7", "--plan", "smoke"]) == 0
        assert "no-policy baseline" in capsys.readouterr().out


class TestMetricsFormats:
    def test_openmetrics_format(self, tmp_path, capsys):
        target = tmp_path / "metrics.om"
        assert main(["fig6", "--fast", "--metrics-out", str(target),
                     "--metrics-format", "openmetrics"]) == 0
        text = target.read_text()
        assert text.endswith("# EOF\n")
        assert "tap_pastry_route_hops" in text
        assert not target.with_suffix(".csv").exists()

    def test_jsonl_format(self, tmp_path, capsys):
        target = tmp_path / "metrics.jsonl"
        assert main(["fig6", "--fast", "--metrics-out", str(target),
                     "--metrics-format", "jsonl"]) == 0
        lines = [json.loads(l) for l in target.read_text().splitlines()]
        assert any(d["metric"] == "pastry.route.hops" for d in lines)

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig6", "--fast", "--metrics-out", "m.json",
                  "--metrics-format", "xml"])


class TestRunManifest:
    def test_manifest_written_next_to_artifacts(self, tmp_path, capsys):
        assert main(["fig3", "--fast", "--outdir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "run fig3"
        assert manifest["configs"]["fig3"]["num_nodes"] > 0
        assert "workers" not in manifest["configs"]["fig3"]
        assert len(manifest["results"]["fig3"]["digest"]) == 64
        assert manifest["artifacts"][0]["path"] == "fig3.csv"
        assert "wall_time_s" in manifest["volatile"]

    def test_no_artifacts_no_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig3", "--fast"]) == 0
        assert not (tmp_path / "manifest.json").exists()

    def test_explicit_manifest_out(self, tmp_path, capsys):
        target = tmp_path / "ledger" / "m.json"
        assert main(["fig3", "--fast", "--manifest-out", str(target)]) == 0
        manifest = json.loads(target.read_text())
        assert manifest["results"]["fig3"]["rows"] > 0
        assert manifest["artifacts"] == []

    def test_manifest_core_worker_independent(self, tmp_path, capsys):
        from repro.obs.manifest import canonical_manifest, load_manifest

        cmd = ["scale-churn", "--fast", "--seed", "3"]
        d1, d4 = tmp_path / "w1", tmp_path / "w4"
        assert main(cmd + ["--workers", "1", "--outdir", str(d1)]) == 0
        assert main(cmd + ["--workers", "2", "--outdir", str(d4)]) == 0
        m1 = load_manifest(d1 / "manifest.json")
        m4 = load_manifest(d4 / "manifest.json")
        assert canonical_manifest(m1) == canonical_manifest(m4)
        assert m1["digest"] == m4["digest"]
        assert m1["volatile"]["workers"] == 1
        assert m4["volatile"]["workers"] == 2

    def test_scale_churn_manifest_records_summary(self, tmp_path, capsys):
        assert main(["scale-churn", "--fast",
                     "--outdir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        summary = manifest["results"]["scale-churn"]["summary"]
        assert summary["scale.route_agreement"] == 1.0

    def test_chaos_manifest(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["chaos", "--fast", "--seed", "7", "--plan", "smoke",
                     "--report-out", str(report)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "chaos smoke"
        assert set(manifest["results"]) == {"chaos", "chaos-baseline"}
        assert manifest["results"]["chaos"]["summary"]["availability"] >= 0
        assert manifest["artifacts"][0]["kind"] == "chaos-report"


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    """A populated results tree: one run + one chaos invocation."""
    root = tmp_path_factory.mktemp("results")
    assert main(["fig6", "--fast", "--outdir", str(root / "fig6"),
                 "--metrics-out", str(root / "fig6" / "metrics.json"),
                 "--audit"]) == 0
    assert main(["chaos", "--fast", "--seed", "7", "--plan", "smoke",
                 "--report-out", str(root / "chaos" / "report.json")]) == 0
    assert main(["scale-churn", "--fast",
                 "--outdir", str(root / "scale")]) == 0
    return root


class TestReportSubcommand:
    def test_report_round_trip(self, results_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["report", str(results_dir), "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "# Run report" in printed
        report = json.loads(out.read_text())
        assert len(report["runs"]) == 3
        ind = report["indicators"]
        assert ind["audit.violations"] == 0
        assert ind["chaos.availability"] > 0
        assert ind["scale.route_agreement"] == 1.0

    def test_markdown_output_file(self, results_dir, tmp_path, capsys):
        md = tmp_path / "report.md"
        assert main(["report", str(results_dir), "--md", str(md)]) == 0
        assert "## Indicators" in md.read_text()

    def test_missing_dir_errors(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1
        assert "not a directory" in capsys.readouterr().err


class TestGateSubcommand:
    PASSING_SLO = """
[slo.audit]
indicator = "audit.violations"
max = 0

[slo.chaos]
indicator = "chaos.availability"
min = 0.5
"""

    def test_gate_passes(self, results_dir, tmp_path, capsys):
        slo = tmp_path / "slo.toml"
        slo.write_text(self.PASSING_SLO)
        assert main(["gate", str(results_dir), "--slo", str(slo)]) == 0
        assert "all SLOs met" in capsys.readouterr().out

    def test_gate_fails_on_violation(self, results_dir, tmp_path, capsys):
        slo = tmp_path / "slo.toml"
        slo.write_text('[slo.x]\nindicator = "chaos.availability"\n'
                       'min = 1.01\n')
        assert main(["gate", str(results_dir), "--slo", str(slo)]) == 2
        assert "SLO GATE FAILED" in capsys.readouterr().err

    def test_gate_fails_on_required_missing(self, results_dir, tmp_path,
                                            capsys):
        slo = tmp_path / "slo.toml"
        slo.write_text('[slo.x]\nindicator = "no.such.indicator"\n'
                       'min = 1\n')
        assert main(["gate", str(results_dir), "--slo", str(slo)]) == 2

    def test_repo_slo_file_passes_on_results(self, results_dir, capsys):
        import pathlib

        repo_slo = pathlib.Path(__file__).resolve().parents[1] / "slo.toml"
        assert main(["gate", str(results_dir), "--slo", str(repo_slo)]) == 0

    def test_bad_slo_file(self, results_dir, tmp_path, capsys):
        slo = tmp_path / "bad.toml"
        slo.write_text("x = 1\n")
        assert main(["gate", str(results_dir), "--slo", str(slo)]) == 1
        assert "cannot load" in capsys.readouterr().err
