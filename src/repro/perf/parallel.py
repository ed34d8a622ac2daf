"""The parallel trial executor.

Experiment repetitions in this repo are *independent by construction*:
every trial derives its own seed streams from ``(base_seed, labels)``
via :func:`repro.util.rng.derive_seed`, so no trial reads generator
state another trial advanced.  That makes fan-out safe — the only
remaining source of nondeterminism would be merge order, which
:func:`run_trials` eliminates by returning results (and folding
telemetry) in submission order regardless of completion order.

Workers are OS processes (``ProcessPoolExecutor``), so trial functions
and their arguments must be picklable **top-level** callables.  A
worker raising propagates to the caller — a failed trial fails the
experiment rather than silently dropping a repetition; a worker that
dies outright surfaces as ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence


def resolve_workers(workers: int | None, n_items: int) -> int:
    """Normalise a worker-count request against the work available.

    ``None``/``0``/``1`` mean serial; negative means "all cores";
    anything else is clamped to ``n_items`` (idle workers are pure
    startup cost).
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_items))


@dataclass
class Sinks:
    """The :mod:`repro.obs` sinks a fanned-out runner writes to.

    A runner hands its caller's sinks (``None`` for each kind that was
    not asked for) to :func:`run_trials`; every trial receives *fresh*
    sinks of the same kinds as its last argument and instruments
    against them exactly as a standalone run would.  ``volatile``
    carries machine-dependent facts (restore timings) to the manifest's
    volatile section, never into rows.
    """

    metrics: object | None = None
    tracer: object | None = None
    event_trace: object | None = None
    volatile: dict = field(default_factory=dict)

    def fresh(self) -> "Sinks":
        """Empty sinks of the same kinds, for one trial."""
        from repro.obs import EventTrace, MetricsRegistry, SpanTracer

        return Sinks(
            MetricsRegistry() if self.metrics is not None else None,
            SpanTracer() if self.tracer is not None else None,
            EventTrace() if self.event_trace is not None else None,
        )

    def fold(self, trial: "Sinks") -> None:
        """Merge one trial's sinks into these: counters and histograms
        accumulate, gauges last-write-win, span and event ids continue
        this tracer's / trace's numbering, volatile dicts append."""
        if self.metrics is not None:
            self.metrics.merge_from(trial.metrics)
        if self.tracer is not None:
            self.tracer.absorb(trial.tracer.finished)
        if self.event_trace is not None:
            self.event_trace.absorb(trial.event_trace)
        if trial.volatile:
            self.volatile.setdefault("trials", []).append(trial.volatile)


#: Process-local snapshot memo for :func:`base_snapshot`; bounded and
#: cleared wholesale (snapshots are large, tokens few).
_SNAPSHOT_CACHE: dict = {}
_SNAPSHOT_CACHE_LIMIT = 16


def base_snapshot(token, build: Callable[[], object]):
    """The base snapshot for ``token`` (a
    :class:`~repro.perf.compact.CompactSnapshot`), built once per
    process and cached.

    Runners key the token by everything that determines the base
    overlay (seed, size) and call this in the parent before they fan
    out, so every trial of a fan-out restores one build per distinct
    base (see :func:`run_trials` for how workers reach it), and trials
    stay callable outside ``run_trials``.
    """
    snap = _SNAPSHOT_CACHE.get(token)
    if snap is None:
        if len(_SNAPSHOT_CACHE) >= _SNAPSHOT_CACHE_LIMIT:
            _SNAPSHOT_CACHE.clear()
        snap = _SNAPSHOT_CACHE[token] = build()
    return snap


def _call(trial: Callable, args: tuple, sinks: Sinks | None):
    """One trial; with sinks, they ride along as its last argument and
    come back with the result (from a worker: pickled)."""
    if sinks is None:
        return trial(*args), None
    return trial(*args, sinks), sinks


def run_trials(
    trial: Callable,
    arglists: Sequence[tuple],
    workers: int | None = 1,
    sinks: Sinks | None = None,
) -> list:
    """Run ``trial(*args)`` for every ``args`` tuple, possibly in parallel.

    Results come back in submission order, so folding them is
    deterministic for any worker count — the property the serial ==
    parallel digest gate checks.  With an effective worker count of 1
    the trials run inline (no executor, no pickling).

    Workers reach a base overlay through :func:`base_snapshot` alone.
    A caller that builds it there before the fan-out hands it to
    fork-start workers for free: they inherit the parent's snapshot
    cache copy-on-write, and nothing is pickled.  A spawn or forkserver
    worker (forkserver is the Linux default from CPython 3.14) starts
    with an empty cache and builds each base once from its token; the
    build is deterministic, so rows do not change, but at N=10^6 every
    such worker pays ~0.4 s for it.

    With ``sinks``, each trial is called as ``trial(*args, fresh)``
    with :meth:`Sinks.fresh` sinks, which are folded back into
    ``sinks`` in submission order — for ``workers == 1`` too, so even
    float accumulation grouping (histogram totals) is bit-identical
    across worker counts.
    """
    jobs = [(trial, args, None if sinks is None else sinks.fresh())
            for args in arglists]
    w = resolve_workers(workers, len(jobs))
    if w <= 1:
        outcomes = [_call(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=w) as pool:
            futures = [pool.submit(_call, *job) for job in jobs]
            outcomes = [f.result() for f in futures]
    if sinks is not None:
        for _, trial_sinks in outcomes:
            sinks.fold(trial_sinks)
    return [result for result, _ in outcomes]
