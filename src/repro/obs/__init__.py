"""Observability substrate: metrics, traces, spans, invariant audits.

Every performance or robustness claim this reproduction makes rests on
per-hop counters and replica-set invariants.  This package makes those
first-class artifacts instead of ad-hoc computations inside the hot
paths:

* :class:`MetricsRegistry` — named counters, gauges and histograms
  (p50/p95/p99), exportable as JSON or tidy CSV rows;
* :class:`EventTrace` — a bounded ring buffer of structured per-hop /
  per-route events with JSON-lines export;
* :class:`SpanTracer` — causal span trees (one per end-to-end request,
  children per hop and per ``onion.peel`` / ``dht.route`` /
  ``hint.probe`` / ``failover.repair`` operation) with wall-clock and
  simulated-cost attribution, Chrome-trace/Perfetto export, and an
  anonymity-aware redaction mode;
* :mod:`repro.obs.critical_path` — rebuilds span trees from an export
  and attributes end-to-end latency to phases along the critical path;
* :class:`InvariantAuditor` — systematic post-event checks over the
  overlay (leaf-set symmetry, routing-table liveness, ``_sorted_alive``
  consistency) and the replicated store (holder/intended agreement,
  storage/index agreement);
* :mod:`repro.obs.export` — OpenMetrics / Prometheus text exposition
  and streaming JSONL renderings of a registry;
* :mod:`repro.obs.manifest` — the run ledger: one canonical-JSON
  ``manifest.json`` per CLI invocation, byte-identical (core) across
  serial and parallel execution;
* :mod:`repro.obs.report` / :mod:`repro.obs.slo` — the consolidated
  results-directory report and the declarative SLO gate evaluated
  over its flat indicator dict.

All instrumentation is opt-in: substrates accept an optional registry
or tracer and pay only a ``None``/falsiness check when disabled.
"""

from repro.obs.audit import AuditReport, InvariantAuditor, InvariantViolationError
from repro.obs.export import (
    METRICS_FORMATS,
    metrics_jsonl_lines,
    to_metrics_jsonl,
    to_openmetrics,
    write_metrics,
)
from repro.obs.manifest import (
    build_manifest,
    canonical_manifest,
    load_manifest,
    manifest_digest,
    write_manifest,
)
from repro.obs.critical_path import (
    SpanRecord,
    build_trees,
    critical_path,
    load_trace_file,
    phase_breakdown,
    records_from_tracer,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import (
    PHASES,
    Span,
    SpanContext,
    SpanTracer,
    phase_of,
    redact_attrs,
)
from repro.obs.trace import EventTrace, TraceEvent

__all__ = [
    "AuditReport",
    "Counter",
    "EventTrace",
    "Gauge",
    "Histogram",
    "InvariantAuditor",
    "InvariantViolationError",
    "METRICS_FORMATS",
    "MetricsRegistry",
    "PHASES",
    "Span",
    "SpanContext",
    "SpanRecord",
    "SpanTracer",
    "TraceEvent",
    "build_manifest",
    "build_trees",
    "canonical_manifest",
    "critical_path",
    "load_manifest",
    "load_trace_file",
    "manifest_digest",
    "metrics_jsonl_lines",
    "phase_breakdown",
    "phase_of",
    "records_from_tracer",
    "redact_attrs",
    "to_metrics_jsonl",
    "to_openmetrics",
    "write_manifest",
    "write_metrics",
]
