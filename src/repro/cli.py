"""Command-line entry point: regenerate any figure of the paper.

Usage::

    tap-repro fig2 [--fast] [--csv out.csv]
    tap-repro all  [--fast] [--outdir results/]
    tap-repro fig6 [--fast] [--metrics-out metrics.json] [--audit]
    tap-repro fig6 [--fast] [--trace-out trace.json] [--trace-redact]
    tap-repro trace trace.json [--csv breakdown.csv]
    tap-repro durability [--fast] [--plan lease-skew]
    tap-repro chaos [--plan lossy] [--seed S] [--fast] [--list-plans]
    tap-repro report results/ [--json report.json] [--md report.md]
    tap-repro gate results/ [--slo slo.toml]

``--fast`` runs the scaled-down configs (same shapes, ~100x quicker);
without it the paper-scale parameters are used.

Every runner takes its config plus whichever of ``workers``, ``sinks``
(a :class:`repro.perf.Sinks`) and ``audit`` it uses.  A flag the one
named runner has no argument for (``--metrics-out`` / ``--trace-out``
need ``sinks``, ``--audit`` needs ``audit``, ``--workers`` above 1
needs ``workers``), and ``--plan`` for a runner whose config has no
``plan`` field, is a usage error; ``all`` / ``extensions`` apply each
flag to the runners that take it.

``--metrics-out`` threads a :class:`repro.obs.MetricsRegistry` through
the runners' sinks and writes the final snapshot (counters, gauges,
per-hop latency histograms with p50/p95/p99) as JSON — plus a sibling
``.csv`` of tidy per-instrument rows.  ``--metrics-format`` selects
``json`` (default), ``jsonl`` (one instrument per line, for log
shippers), or ``openmetrics`` (Prometheus exposition text).
``--audit`` enables :class:`repro.obs.InvariantAuditor` checks inside
the runners (the run aborts on the first invariant violation).

``--trace-out`` threads a :class:`repro.obs.SpanTracer` (and an
:class:`repro.obs.EventTrace`) through the runners' sinks and writes a
Chrome trace-event JSON — open it in Perfetto or ``chrome://tracing``
— plus a sibling ``.events.jsonl`` of the structured event trace.
``--trace-redact`` applies the anonymity-aware redaction to the
export.  ``tap-repro trace FILE`` reconstructs the span trees of such
an export and prints the critical path of the slowest trace plus a
per-phase latency breakdown (crypto / routing / hint-probe / repair).

``tap-repro chaos`` runs live sessions under a seeded
:mod:`repro.faults` plan and reports availability / MTTR against a
no-policy baseline; same seed + same plan replays byte-identically
(``--assert-deterministic`` proves it, ``--assert-availability`` turns
the availability bar into an exit code for CI).

Every ``run`` / ``chaos`` invocation that writes artifacts also drops
a ``manifest.json`` run ledger beside them (``--manifest-out`` moves
it): git sha, full config + seeds, rows digests, artifact hashes, and
a canonical-core digest that is byte-identical for any ``--workers``
value.  ``tap-repro report DIR`` aggregates every manifest, metrics
snapshot, chaos report, and span trace under ``DIR`` into one
consolidated document (markdown via ``--md``, JSON via ``--json``);
``tap-repro gate DIR --slo slo.toml`` evaluates the declarative SLOs
against the report's indicators and exits 2 on violation — the CI
contract.
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import sys
import time
from dataclasses import asdict, fields, replace

from repro.experiments import (
    ComparisonConfig,
    DurabilityConfig,
    ReplyDurabilityConfig,
    run_durability,
    run_reply_durability,
    Fig2Config,
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
    HintStalenessConfig,
    ScatterConfig,
    SecureRoutingConfig,
    SessionSurvivalConfig,
    TimingAttackConfig,
    TradeoffConfig,
    render_table,
    rows_to_csv,
    run_anonymity_comparison,
    run_fig2,
    run_fig3,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_fig6,
    run_hint_staleness,
    run_scatter,
    run_scale_churn,
    run_scale_latency,
    run_secure_routing,
    run_session_survival,
    run_timing_attack,
    run_tradeoff,
    ScaleChurnConfig,
    ScaleLatencyConfig,
)
from repro.faults.plan import NAMED_PLANS

_FIGURES = {
    "fig2": (Fig2Config, run_fig2, "tunnel failures vs node failures"),
    "fig3": (Fig3Config, run_fig3, "corruption vs malicious fraction"),
    "fig4a": (Fig4Config, run_fig4a, "corruption vs replication factor"),
    "fig4b": (Fig4Config, run_fig4b, "corruption vs tunnel length"),
    "fig5": (Fig5Config, run_fig5, "corruption over time under churn"),
    "fig6": (Fig6Config, run_fig6, "transfer latency vs network size"),
}

#: extension experiments beyond the paper's figures (run by name, or
#: via 'extensions'; excluded from 'all', which regenerates the paper)
_EXTENSIONS = {
    "tradeoff": (TradeoffConfig, run_tradeoff, "k/l functionality-anonymity surface"),
    "hints": (HintStalenessConfig, run_hint_staleness, "IP-hint staleness under churn"),
    "scatter": (ScatterConfig, run_scatter, "scattered vs uniform anchor selection"),
    "timing": (TimingAttackConfig, run_timing_attack, "timing analysis vs defences"),
    "secure-routing": (SecureRoutingConfig, run_secure_routing,
                       "verified lookups vs routing interception"),
    "sessions": (SessionSurvivalConfig, run_session_survival,
                 "long-running session survival under churn"),
    "comparison": (ComparisonConfig, run_anonymity_comparison,
                   "TAP vs Crowds vs Onion Routing balance point"),
    "reply-durability": (ReplyDurabilityConfig, run_reply_durability,
                         "anonymous-email reply survival after churn"),
    "scale-churn": (ScaleChurnConfig, run_scale_churn,
                    "compact-engine replica survival at 10^5 nodes"),
    "scale-latency": (ScaleLatencyConfig, run_scale_latency,
                      "batched direct-vs-tunnel latency at 10^5 nodes"),
    "durability": (DurabilityConfig, run_durability,
                   "k-replication vs (k,n) erasure under chaos"),
}


_ALL_RUNNERS = {**_FIGURES, **_EXTENSIONS}


def _contract(runner) -> set[str]:
    """The run-contract arguments a runner takes: a subset of
    ``workers``, ``sinks`` and ``audit``."""
    return set(inspect.signature(runner).parameters) - {"config"}


def _config(
    name: str, fast: bool, seed: int | None, million: bool, plan: str | None
):
    """Runner ``name``'s config (fast, default or million-node) with the
    ``--seed`` override and, where the config has the field, ``--plan``.

    Raises ``ValueError`` for a plan the config refuses."""
    config_cls = _ALL_RUNNERS[name][0]
    if million:
        if not hasattr(config_cls, "million"):
            raise SystemExit(
                f"error: {name} has no million-node configuration "
                f"(--million applies to scale-churn and scale-latency)"
            )
        config = config_cls.million()
    else:
        config = config_cls.fast() if fast else config_cls()
    if seed is not None:
        config = replace(config, seed=seed)
    if plan is not None and "plan" in _config_fields(config_cls):
        config = replace(config, plan=plan)
    return config


def _config_fields(config_cls) -> set[str]:
    return {field.name for field in fields(config_cls)}


def _run_one(name: str, config, **contract) -> list[dict]:
    """Run one named runner, handing it whichever of the ``contract``
    arguments (``workers`` / ``sinks`` / ``audit``) it takes."""
    runner = _ALL_RUNNERS[name][1]
    takes = _contract(runner)
    return runner(config, **{key: value for key, value in contract.items()
                             if key in takes})


def _refused_flags(name: str, args) -> list[str]:
    """The flags of ``args`` that runner ``name`` has no argument or
    config field for."""
    config_cls, runner, _ = _ALL_RUNNERS[name]
    takes = _contract(runner) | _config_fields(config_cls)
    asked = {
        "--metrics-out": (args.metrics_out is not None, "sinks"),
        "--trace-out": (args.trace_out is not None, "sinks"),
        "--audit": (args.audit, "audit"),
        "--workers": (args.workers not in (None, 0, 1), "workers"),
        "--plan": (args.plan is not None, "plan"),
    }
    return [flag for flag, (wanted, param) in asked.items()
            if wanted and param not in takes]


def _write_run_manifest(
    command: str,
    manifest_out: pathlib.Path | None,
    written: list[tuple[pathlib.Path, str, bool]],
    *,
    started: float,
    workers: int | None,
    argv: list[str],
    volatile: dict | None = None,
    **core,
) -> None:
    """Write the run ledger for ``written`` (``(path, kind, volatile)``
    artifacts): to ``manifest_out``, else beside the first artifact —
    no artifacts, no manifest.  ``core`` goes to
    :func:`repro.obs.manifest.build_manifest`; ``volatile`` joins the
    wall time, timestamp, worker count and argv outside the digest."""
    path = manifest_out
    if path is None and written:
        path = written[0][0].parent / "manifest.json"
    if path is None:
        return
    from repro.obs.manifest import artifact_entry, build_manifest, write_manifest

    manifest = build_manifest(
        command,
        artifacts=[
            artifact_entry(artifact, kind, volatile=changes, base=path.parent)
            for artifact, kind, changes in written
        ],
        volatile={
            "wall_time_s": round(time.perf_counter() - started, 6),
            "timestamp": time.time(),
            "workers": workers,
            "argv": list(argv),
            **(volatile or {}),
        },
        **core,
    )
    manifest = write_manifest(manifest, path)
    print(f"wrote {path} (digest {manifest['digest'][:16]}...)")


def _row_summary(name: str, rows: list[dict], config=None) -> dict:
    """Headline numbers recorded in the manifest, per runner."""
    if name == "scale-churn":
        from repro.experiments.scale_churn import summarize_rows

        return summarize_rows(rows, config)
    if name == "scale-latency":
        from repro.experiments.scale_latency import summarize_rows

        return summarize_rows(rows, config)
    if name == "durability":
        from repro.experiments.durability import summarize_rows

        return summarize_rows(rows)
    return {}


def _trace_main(argv: list[str]) -> int:
    """The ``tap-repro trace FILE`` subcommand: critical-path report."""
    parser = argparse.ArgumentParser(
        prog="tap-repro trace",
        description="Analyse a Chrome trace written by --trace-out: "
                    "critical path + per-phase latency breakdown.",
    )
    parser.add_argument("path", type=pathlib.Path,
                        help="trace JSON written by --trace-out")
    parser.add_argument("--csv", type=pathlib.Path, default=None,
                        help="also write the phase breakdown as CSV")
    args = parser.parse_args(argv)

    from repro.experiments import render_table, rows_to_csv
    from repro.obs.critical_path import (
        render_critical_path,
        summarize_trace_file,
    )

    try:
        summary = summarize_trace_file(args.path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot analyse {args.path}: {exc}", file=sys.stderr)
        return 1
    if not summary["spans"]:
        print(f"error: {args.path} contains no spans", file=sys.stderr)
        return 1

    print(f"{summary['spans']} spans in {summary['traces']} traces, "
          f"{summary['end_to_end_s']:.6f} s end-to-end\n")
    print(render_table(
        [
            {
                "phase": row["phase"],
                "time_s": row["time_s"],
                "share": row["share"],
                "spans": row["spans"],
                "links": row["links"],
            }
            for row in summary["breakdown"]
        ],
        title="per-phase latency attribution (self time)",
    ))
    if summary["slowest"] is not None:
        print(render_critical_path(summary["slowest"]))
    if args.csv is not None:
        args.csv.write_text(rows_to_csv(summary["breakdown"]))
        print(f"wrote {args.csv}")
    return 0


def _chaos_main(argv: list[str]) -> int:
    """The ``tap-repro chaos`` subcommand: seeded fault injection.

    Exit codes: 0 ok, 2 availability below ``--assert-availability``
    or a plan this runner cannot apply (storage faults: ``durability``
    runs those), 3 determinism violation under ``--assert-deterministic``.
    """
    parser = argparse.ArgumentParser(
        prog="tap-repro chaos",
        description="Run TAP sessions under a deterministic fault plan "
                    "and report availability / MTTR.  Same seed + same "
                    "plan => byte-identical report and event trace.",
    )
    parser.add_argument("--plan", default="lossy",
                        help="named fault plan (see --list-plans)")
    parser.add_argument("--list-plans", action="store_true",
                        help="list the shipped fault plans and exit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the chaos seed (default 2004)")
    parser.add_argument("--fast", action="store_true",
                        help="scaled-down run (100 nodes, 12 rounds)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the round count")
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the overlay size")
    parser.add_argument("--sessions", type=int, default=None,
                        help="override the concurrent session count")
    parser.add_argument("--no-baseline", action="store_true",
                        help="skip the no-policy comparison run")
    parser.add_argument("--report-out", type=pathlib.Path, default=None,
                        help="write the canonical report JSON here")
    parser.add_argument("--events-out", type=pathlib.Path, default=None,
                        help="write the event trace JSONL here")
    parser.add_argument("--manifest-out", type=pathlib.Path, default=None,
                        help="write the run-ledger manifest here (default: "
                             "manifest.json next to --report-out)")
    parser.add_argument("--assert-availability", type=float, default=None,
                        metavar="X", help="exit 2 if availability < X")
    parser.add_argument("--assert-deterministic", action="store_true",
                        help="run twice and exit 3 if the digests differ")
    parser.add_argument("--workers", "--parallel", dest="workers", type=int,
                        default=None, metavar="N",
                        help="worker processes for the policy / baseline / "
                             "replay runs (negative = all cores); every "
                             "run is deterministic, so results are "
                             "identical for any value")
    args = parser.parse_args(argv)

    from repro.faults import (
        NAMED_PLANS,
        ChaosConfig,
        availability_report,
        canonical_json,
        named_plan,
        run_chaos_jobs,
    )

    if args.list_plans:
        for name in sorted(NAMED_PLANS):
            plan = NAMED_PLANS[name]
            runner = "durability" if plan.storage_events else "chaos"
            print(f"{name:12s} [{runner}] {plan.description}")
        return 0
    try:
        plan = named_plan(args.plan)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1

    config = ChaosConfig.fast() if args.fast else ChaosConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    if args.sessions is not None:
        overrides["sessions"] = args.sessions
    if overrides:
        config = replace(config, **overrides)

    t0 = time.perf_counter()
    # The policy run, the no-policy baseline, and the determinism
    # replay are independent deterministic runs — one job list, fanned
    # out when --workers asks for it.
    jobs = [(plan, config, True)]
    if not args.no_baseline:
        jobs.append((plan, config, False))
    if args.assert_deterministic:
        jobs.append((plan, config, True))
    try:
        results = run_chaos_jobs(jobs, workers=args.workers)
    except ValueError as exc:  # a plan whose faults chaos cannot apply
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = results[0]
    baseline = results[1] if not args.no_baseline else None
    replay = results[-1] if args.assert_deterministic else None

    rows = [dict(r) for r in report["rows"]]
    print(render_table(rows, title=f"chaos '{plan.name}': per-session health"))
    print(availability_report(report, baseline=baseline))

    written: list[tuple[pathlib.Path, str, bool]] = []
    if args.report_out is not None:
        args.report_out.parent.mkdir(parents=True, exist_ok=True)
        args.report_out.write_text(canonical_json(report))
        print(f"wrote {args.report_out}")
        written.append((args.report_out, "chaos-report", False))
    if args.events_out is not None:
        args.events_out.parent.mkdir(parents=True, exist_ok=True)
        args.events_out.write_text(report["events_jsonl"])
        print(f"wrote {args.events_out}")
        written.append((args.events_out, "events", False))

    def _arm(rep):
        return {
            "rows": len(rep["rows"]),
            "digest": rep["digest"],
            "summary": dict(rep["summary"]),
        }

    arms = {"chaos": _arm(report)}
    if baseline is not None:
        arms["chaos-baseline"] = _arm(baseline)
    _write_run_manifest(
        f"chaos {plan.name}", args.manifest_out, written,
        started=t0, workers=args.workers, argv=argv,
        configs={"chaos": asdict(config)},
        results=arms,
        seed=config.seed,
        extra={"plan": plan.name, "baseline": not args.no_baseline},
    )

    if args.assert_deterministic:
        if replay["digest"] != report["digest"]:
            print(
                f"DETERMINISM VIOLATION: replay digest "
                f"{replay['digest']} != {report['digest']}",
                file=sys.stderr,
            )
            return 3
        print(f"deterministic replay ok ({report['digest'][:16]}...)")
    if args.assert_availability is not None:
        avail = report["summary"]["availability"]
        if avail < args.assert_availability:
            print(
                f"AVAILABILITY BELOW THRESHOLD: {avail:.4f} < "
                f"{args.assert_availability:.4f}",
                file=sys.stderr,
            )
            return 2
        print(f"availability {avail:.4f} >= {args.assert_availability:.4f} ok")
    return 0


def _report_main(argv: list[str]) -> int:
    """``tap-repro report DIR``: consolidate manifests + artifacts."""
    parser = argparse.ArgumentParser(
        prog="tap-repro report",
        description="Aggregate every run manifest, metrics snapshot, "
                    "chaos report, and span trace under a results "
                    "directory into one consolidated report.",
    )
    parser.add_argument("results_dir", type=pathlib.Path,
                        help="directory holding run artifacts")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="also write the report as JSON here")
    parser.add_argument("--md", type=pathlib.Path, default=None,
                        help="also write the markdown report here")
    args = parser.parse_args(argv)

    if not args.results_dir.is_dir():
        print(f"error: {args.results_dir} is not a directory",
              file=sys.stderr)
        return 1
    import json as _json

    from repro.obs.report import build_report, render_report

    report = build_report(args.results_dir)
    markdown = render_report(report)
    print(markdown)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(
            _json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    if args.md is not None:
        args.md.parent.mkdir(parents=True, exist_ok=True)
        args.md.write_text(markdown)
        print(f"wrote {args.md}")
    return 0


def _gate_main(argv: list[str]) -> int:
    """``tap-repro gate DIR --slo slo.toml``: SLO gate for CI.

    Exit codes: 0 all objectives met, 1 usage/parse error, 2 violation.
    """
    parser = argparse.ArgumentParser(
        prog="tap-repro gate",
        description="Evaluate declarative SLOs against the consolidated "
                    "report of a results directory; exit 2 on violation.",
    )
    parser.add_argument("results_dir", type=pathlib.Path,
                        help="directory holding run artifacts")
    parser.add_argument("--slo", type=pathlib.Path,
                        default=pathlib.Path("slo.toml"),
                        help="SLO definition file (default ./slo.toml)")
    args = parser.parse_args(argv)

    from repro.obs.report import build_report
    from repro.obs.slo import (
        GATE_EXIT_VIOLATION,
        SLOError,
        evaluate_slos,
        load_slos,
        render_slo_results,
        slo_violations,
    )

    try:
        slos = load_slos(args.slo)
    except (OSError, SLOError, ValueError) as exc:
        print(f"error: cannot load {args.slo}: {exc}", file=sys.stderr)
        return 1
    if not args.results_dir.is_dir():
        print(f"error: {args.results_dir} is not a directory",
              file=sys.stderr)
        return 1
    report = build_report(args.results_dir)
    results = evaluate_slos(slos, report["indicators"])
    print(render_slo_results(results))
    violations = slo_violations(results)
    if violations:
        print(f"\nSLO GATE FAILED: {len(violations)} objective(s) violated",
              file=sys.stderr)
        return GATE_EXIT_VIOLATION
    print("\nall SLOs met")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "run":
        # 'tap-repro run fig2' is an explicit alias of 'tap-repro fig2'.
        argv = argv[1:]
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "gate":
        return _gate_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="tap-repro",
        description="Regenerate the figures of the TAP paper (ICPP 2004).",
    )
    parser.add_argument(
        "figure",
        choices=[*_FIGURES, *_EXTENSIONS, "all", "extensions"],
        help="which figure/extension to regenerate ('all' = the "
             "paper's figures; 'extensions' = the beyond-paper suite)",
    )
    parser.add_argument("--fast", action="store_true",
                        help="scaled-down config (quick, same shapes)")
    parser.add_argument("--million", action="store_true",
                        help="the N=10^6 operating point (scale-churn / "
                             "scale-latency only): one base build "
                             "inherited by fork workers, sampled "
                             "scalar verification")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment seed")
    parser.add_argument("--plan", default=None, choices=sorted(NAMED_PLANS),
                        metavar="NAME",
                        help="named fault plan, for runners whose config "
                             "has one (durability; 'chaos --list-plans' "
                             "names its plans)")
    parser.add_argument("--csv", type=pathlib.Path, default=None,
                        help="also write one runner's rows as CSV to this "
                             "path (groups: use --outdir)")
    parser.add_argument("--outdir", type=pathlib.Path, default=None,
                        help="write one CSV per runner here")
    parser.add_argument("--metrics-out", type=pathlib.Path, default=None,
                        help="write a repro.obs metrics snapshot (default "
                             "JSON plus a sibling .csv of per-instrument "
                             "rows; see --metrics-format)")
    parser.add_argument("--metrics-format", default="json",
                        choices=("json", "jsonl", "openmetrics"),
                        help="serialisation for --metrics-out: 'json' "
                             "(snapshot + CSV sibling), 'jsonl' (one "
                             "instrument per line), or 'openmetrics' "
                             "(Prometheus text exposition)")
    parser.add_argument("--manifest-out", type=pathlib.Path, default=None,
                        help="write the run-ledger manifest here (default: "
                             "manifest.json next to the first artifact "
                             "written; no artifacts, no manifest)")
    parser.add_argument("--audit", action="store_true",
                        help="run invariant audits inside the runners "
                             "(abort on the first violation)")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="write a repro.obs span trace (Chrome trace-event "
                             "JSON for Perfetto/chrome://tracing, plus a "
                             "sibling .events.jsonl event trace)")
    parser.add_argument("--trace-redact", action="store_true",
                        help="apply anonymity-aware redaction to the span "
                             "export (per-observer attribute stripping)")
    parser.add_argument("--workers", "--parallel", dest="workers", type=int,
                        default=None, metavar="N",
                        help="worker processes for independent trials "
                             "(negative = all cores); rows are identical "
                             "for any value — compare the printed digests")
    parser.add_argument("--assert-deterministic", action="store_true",
                        help="re-run each figure (without telemetry) and "
                             "exit 3 if the rows digests differ — the CI "
                             "determinism contract")
    args = parser.parse_args(argv)

    if args.figure == "all":
        names = list(_FIGURES)
    elif args.figure == "extensions":
        names = list(_EXTENSIONS)
    else:
        names = [args.figure]
        refused = _refused_flags(args.figure, args)
        if refused:
            parser.error(f"{args.figure} takes no {', '.join(refused)}")
    if args.csv is not None and len(names) > 1:
        parser.error(f"--csv writes one runner's rows; use --outdir with "
                     f"{args.figure!r} (one CSV per runner)")
    try:
        run_configs = {name: _config(name, args.fast, args.seed,
                                     args.million, args.plan)
                       for name in names}
    except ValueError as exc:  # a --plan whose faults the runner cannot apply
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.obs import EventTrace, MetricsRegistry, SpanTracer
    from repro.perf import Sinks, rows_digest

    metrics = MetricsRegistry() if args.metrics_out is not None else None
    tracer = SpanTracer() if args.trace_out is not None else None
    event_trace = EventTrace() if args.trace_out is not None else None
    t0 = time.perf_counter()
    written: list[tuple[pathlib.Path, str, bool]] = []  # (path, kind, volatile)
    configs: dict = {}
    results: dict = {}
    runner_volatile: dict = {}
    run_seed = args.seed
    for name in names:
        # one Sinks per runner: shared registry / tracer / event trace,
        # the runner's own volatile timings
        sinks = Sinks(metrics, tracer, event_trace)
        config = run_configs[name]
        rows = _run_one(name, config, workers=args.workers, sinks=sinks,
                        audit=args.audit)
        if sinks.volatile:
            runner_volatile[name] = sinks.volatile
        _, _, description = _ALL_RUNNERS[name]
        print(render_table(rows, title=f"{name}: {description}"))
        print(f"{name} rows digest: {rows_digest(rows)}")
        if args.assert_deterministic:
            # The replay runs without telemetry on purpose: rows must
            # be identical with instrumentation on or off.
            replay_rows = _run_one(name, config, workers=args.workers)
            if rows_digest(replay_rows) != rows_digest(rows):
                print(
                    f"DETERMINISM VIOLATION: {name} replay digest "
                    f"{rows_digest(replay_rows)} != {rows_digest(rows)}",
                    file=sys.stderr,
                )
                return 3
            print(f"{name} deterministic replay ok")
        configs[name] = asdict(config)
        results[name] = {
            "rows": len(rows),
            "digest": rows_digest(rows),
            "summary": _row_summary(name, rows, config),
        }
        if run_seed is None:
            run_seed = getattr(config, "seed", None)
        if args.csv is not None:
            args.csv.parent.mkdir(parents=True, exist_ok=True)
            args.csv.write_text(rows_to_csv(rows))
            print(f"wrote {args.csv}")
            written.append((args.csv, "csv", False))
        if args.outdir is not None:
            args.outdir.mkdir(parents=True, exist_ok=True)
            target = args.outdir / f"{name}.csv"
            target.write_text(rows_to_csv(rows))
            print(f"wrote {target}")
            written.append((target, "csv", False))
    if metrics is not None:
        from repro.obs.export import write_metrics

        for path in write_metrics(metrics, args.metrics_out,
                                  args.metrics_format):
            print(f"wrote {path}")
            written.append((path, "metrics" if path.suffix != ".csv"
                            else "metrics-csv", False))
    if tracer is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        count = tracer.dump(args.trace_out, redact=args.trace_redact)
        events_path = args.trace_out.with_suffix(".events.jsonl")
        n_events = event_trace.dump(events_path)
        print(f"wrote {args.trace_out} ({count} spans, "
              f"{tracer.dropped} dropped) and {events_path} "
              f"({n_events} events)")
        # span exports carry wall clocks: real bytes, volatile hash
        written.append((args.trace_out, "trace", True))
        written.append((events_path, "events", False))

    _write_run_manifest(
        f"run {args.figure}", args.manifest_out, written,
        started=t0, workers=args.workers, argv=argv,
        # per-runner machine timings (e.g. per-trial snapshot restore);
        # volatile is outside the core digest
        volatile={"runners": runner_volatile} if runner_volatile else None,
        configs=configs,
        results=results,
        seed=run_seed,
        extra={"fast": bool(args.fast), "audit": bool(args.audit),
               "million": bool(args.million)},
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
