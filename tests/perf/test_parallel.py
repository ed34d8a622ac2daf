"""Tests for repro.perf: the parallel executor, sink folding, and digests.

The load-bearing property is the digest gate: a runner fanned over N
worker processes must produce byte-identical canonical-JSON rows — and
identical metrics, spans and events — to a serial run.  These tests
pin rows for fig2 (the acceptance example) and the chaos harness
across three worker counts, telemetry for every runner that takes
sinks, and unit-test the merge primitives the gate relies on.  Fork
workers must restore the base the parent built, never rebuild it, and
a killed worker must fail the fan-out promptly.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.ablation import HintStalenessConfig, run_hint_staleness
from repro.experiments.config import Fig2Config, Fig6Config
from repro.experiments.durability import run_durability
from repro.experiments.fig2_failures import run_fig2
from repro.experiments.fig6_latency import run_fig6
from repro.experiments.scale_churn import run_scale_churn
from repro.experiments.scale_latency import run_scale_latency
from repro.experiments.session_survival import (
    SessionSurvivalConfig,
    run_session_survival,
)
from repro.obs import EventTrace, MetricsRegistry, SpanTracer
from repro.perf import (
    CompactOverlay,
    Sinks,
    base_snapshot,
    canonical_json,
    resolve_workers,
    rows_digest,
    run_trials,
)
from repro.perf.parallel import _SNAPSHOT_CACHE
from tests.experiments import test_durability, test_scale_churn, test_scale_latency

WORKER_COUNTS = (1, 2, 3)

TINY_FIG2 = Fig2Config(
    num_nodes=200, num_tunnels=50, num_seeds=3,
    failure_fractions=(0.1, 0.3),
)


def _tiny_chaos():
    from repro.faults import ChaosConfig, named_plan

    return named_plan("lossy"), ChaosConfig(num_nodes=60, sessions=2, rounds=6)


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
def _square(x):  # must be top-level: workers pickle it
    return x * x


def _explode(x):
    raise ZeroDivisionError(x)


def _count_into_sinks(rep, sinks):
    assert sinks.tracer is None and sinks.event_trace is None
    sinks.metrics.counter("trials").inc()
    if rep % 2:
        sinks.volatile["rep"] = rep


class TestRunTrials:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_results_in_submission_order(self, workers):
        args = [(i,) for i in range(7)]
        assert run_trials(_square, args, workers) == [i * i for i in range(7)]

    def test_serial_runs_inline(self):
        # Unpicklable closures are fine at workers=1 (no executor).
        calls = []
        assert run_trials(lambda x: calls.append(x) or x, [(1,), (2,)], 1) == [1, 2]
        assert calls == [1, 2]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_trial_exception_propagates(self, workers):
        with pytest.raises(ZeroDivisionError):
            run_trials(_explode, [(1,), (2,)], workers)

    def test_resolve_workers(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(4, 2) == 2  # clamped to the work
        assert resolve_workers(4, 10) == 4
        assert resolve_workers(-1, 100) >= 1  # all cores


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
class TestDigest:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_numpy_scalars_coerce_to_native(self):
        np = pytest.importorskip("numpy")
        native = canonical_json({"x": 1.5, "n": 3, "v": [1, 2]})
        coerced = canonical_json(
            {"x": np.float64(1.5), "n": np.int64(3), "v": np.array([1, 2])}
        )
        assert native == coerced

    def test_unserialisable_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_rows_digest_is_stable_sha256(self):
        rows = [{"a": 1}, {"b": 2.5}]
        assert rows_digest(rows) == rows_digest(list(rows))
        assert len(rows_digest(rows)) == 64
        assert rows_digest(rows) != rows_digest(rows[:1])


# ----------------------------------------------------------------------
# obs merge primitives
# ----------------------------------------------------------------------
class TestObsMerge:
    def test_histogram_merge_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1.0, 5.0, 2.0):
            a.histogram("h").observe(v)
        for v in (0.5, 9.0):
            b.histogram("h").observe(v)
        a.merge_from(b)
        h = a.histogram("h")
        assert h.count == 5
        assert h.total == pytest.approx(17.5)
        assert h.min == 0.5 and h.max == 9.0

    def test_counter_and_gauge_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(7)
        a.merge_from(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 7

    def test_span_absorb_remaps_ids_and_parents(self):
        parent, worker = SpanTracer(), SpanTracer()
        pre = parent.start_trace("existing")
        parent.finish(pre)

        root = worker.start_trace("tap.request")
        worker.add_span("leg", parent=root, sim_start=0.0, sim_end=1.0)
        worker.finish(root)

        absorbed = parent.absorb(list(worker.finished))
        assert absorbed == 2
        spans = {s.name: s for s in parent.finished}
        assert spans["leg"].parent_id == spans["tap.request"].span_id
        assert spans["leg"].trace_id == spans["tap.request"].trace_id
        # remapped ids continue the parent's numbering (no collisions)
        ids = [s.span_id for s in parent.finished]
        assert len(ids) == len(set(ids))
        assert spans["tap.request"].span_id > pre.span_id

    def test_event_absorb_resequences(self):
        parent, worker = EventTrace(), EventTrace()
        parent.record("first")
        worker.record("second", x=1)
        worker.record("third")
        assert parent.absorb(list(worker)) == 2
        seqs = [e.seq for e in parent]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3
        assert [e.kind for e in parent] == ["first", "second", "third"]
        assert list(parent.events("second"))[0].fields == {"x": 1}

    @pytest.mark.parametrize("workers", (1, 2))
    def test_trial_sinks_mirror_the_kinds_asked_for(self, workers):
        sinks = Sinks(metrics=MetricsRegistry())
        run_trials(_count_into_sinks, [(i,) for i in range(4)], workers,
                   sinks=sinks)
        assert sinks.metrics.counter("trials").value == 4
        # only odd trials reported volatile facts; the fold keeps order
        assert sinks.volatile == {"trials": [{"rep": 1}, {"rep": 3}]}


# ----------------------------------------------------------------------
# the digest gate: serial == parallel, byte for byte
# ----------------------------------------------------------------------
class TestDigestGate:
    def test_fig2_digest_identical_across_worker_counts(self):
        digests = {
            rows_digest(run_fig2(TINY_FIG2, workers=w)) for w in WORKER_COUNTS
        }
        assert len(digests) == 1

    def test_chaos_digest_identical_across_worker_counts(self):
        from repro.faults import run_chaos_jobs

        plan, config = _tiny_chaos()
        digests = set()
        for w in WORKER_COUNTS:
            reports = run_chaos_jobs([(plan, config, True)], workers=w)
            digests.add(reports[0]["digest"])
        assert len(digests) == 1

    def test_chaos_jobs_return_in_job_order(self):
        from repro.faults import run_chaos_jobs

        plan, config = _tiny_chaos()
        with_policy, baseline = run_chaos_jobs(
            [(plan, config, True), (plan, config, False)], workers=2
        )
        assert with_policy["policy"] == "resilient"
        assert baseline["policy"] == "baseline"


# ----------------------------------------------------------------------
# telemetry parity: every runner that takes sinks, serial vs 2 workers
# ----------------------------------------------------------------------
#: every runner that takes sinks, each on its test module's tiny config,
#: and whether it records spans (the rest record metrics and events only)
PARITY_CASES = {
    "fig6": (run_fig6, Fig6Config(
        network_sizes=(100,), transfers_per_size=3, num_seeds=2), True),
    "sessions": (run_session_survival, SessionSurvivalConfig.fast(), True),
    "hints": (run_hint_staleness, HintStalenessConfig.fast(), True),
    "durability": (run_durability, test_durability.TINY, False),
    "scale-churn": (run_scale_churn, test_scale_churn.TINY, False),
    "scale-latency": (run_scale_latency, test_scale_latency.TINY, False),
}


def _observed_run(runner, config, workers):
    sinks = Sinks(MetricsRegistry(), SpanTracer(), EventTrace())
    rows = runner(config, workers=workers, sinks=sinks)
    return {
        "rows": rows_digest(rows),
        "metrics": sinks.metrics.snapshot(),
        "spans": [
            (s.trace_id, s.span_id, s.parent_id, s.name, s.sim_start,
             s.sim_end)
            for s in sinks.tracer.finished
        ],
        "events": [(e.seq, e.kind, sorted(e.fields.items()))
                   for e in sinks.event_trace],
    }


#: functions that only feed a sink, by qualified name; neither they nor
#: anything they call counts as the run's own work.  None of them draws
#: randomness, hashes, routes or builds state.
SINK_ONLY = frozenset({
    "record_links", "_settled", "TunnelForwarder._observe_trace",
    "Tunnel.span_attrs", "TapSystem.attach_observability",
    "repair_latency_s", "_fig6_leg.<locals>.trace_spans",
    # accessors read for attributes and gauges
    "PastryNetwork.size", "Tunnel.length", "ResilientReply.ok",
    "ForwardTrace.overlay_hops", "ForwardTrace.underlying_hops",
    "CompactOverlay.instrument", "CompactOverlay._note_membership",
    "CompactOverlay.num_alive", "CompactOverlay.size",
})


def _program_calls(run) -> Counter:
    """Calls ``run()`` makes to named ``repro`` functions outside
    ``repro.obs`` and :data:`SINK_ONLY`.  Comprehensions and lambdas
    are not counted (from Python 3.12 comprehensions run inline), but
    the functions they call are."""
    counts: Counter = Counter()
    skipping = None  # the outermost sink-only frame still running

    def profile(frame, event, arg):
        nonlocal skipping
        if event == "return" and frame is skipping:
            skipping = None
        if event != "call" or skipping is not None:
            return
        package = frame.f_globals.get("__name__", "").split(".")
        code = frame.f_code
        if (package[0] != "repro" or package[1:2] == ["obs"]
                or code.co_name.startswith("<")):
            return
        if code.co_qualname in SINK_ONLY:
            skipping = frame
        else:
            counts[".".join(package), code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


class TestObsParity:
    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_serial_equals_parallel(self, name):
        runner, config, records_spans = PARITY_CASES[name]
        serial = _observed_run(runner, config, 1)
        assert serial["metrics"] and serial["events"]
        assert bool(serial["spans"]) == records_spans
        parallel = _observed_run(runner, config, 2)
        for part in ("rows", "metrics", "spans", "events"):
            assert parallel[part] == serial[part], part

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="qualified names need code.co_qualname")
    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_sinks_add_no_program_calls(self, name):
        """Telemetry records what ran and never runs program code of
        its own: all three sinks on make the same calls as none."""
        runner, config, _ = PARITY_CASES[name]
        runner(config, workers=1)  # both arms see warm caches (base snapshots)
        bare = _program_calls(lambda: runner(config, workers=1))
        observed = _program_calls(lambda: runner(
            config, workers=1,
            sinks=Sinks(MetricsRegistry(), SpanTracer(), EventTrace()),
        ))
        assert bare
        assert {
            call: observed[call] - bare[call]
            for call in bare.keys() | observed.keys()
            if observed[call] != bare[call]
        } == {}


# ----------------------------------------------------------------------
# the base a fan-out shares, and worker death
# ----------------------------------------------------------------------
_BASE_TOKEN = ("inherited-base", 5, 64)


def _no_build_in_a_worker():
    raise AssertionError(f"worker {os.getpid()} rebuilt the base")


def _inherited_base(parent_pid):
    snap = base_snapshot(_BASE_TOKEN, _no_build_in_a_worker)
    overlay = snap.restore()
    return (os.getpid() != parent_pid, overlay.hi.tolist(),
            overlay.lo.tolist(), overlay.alive.tolist())


def _die(_):
    os.kill(os.getpid(), signal.SIGKILL)


class TestBaseInheritance:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only fork workers inherit the parent's cache")
    def test_fork_workers_restore_the_parent_build(self):
        snap = base_snapshot(
            _BASE_TOKEN, lambda: CompactOverlay.random(64, seed=5).snapshot()
        )
        try:
            results = run_trials(_inherited_base, [(os.getpid(),)] * 2, 2)
        finally:
            _SNAPSHOT_CACHE.pop(_BASE_TOKEN)
        expected = (True, snap.hi.tolist(), snap.lo.tolist(),
                    snap.alive.tolist())
        assert results == [expected, expected]


class TestWorkerDeath:
    def test_sigkilled_worker_raises_broken_process_pool(self):
        outcome = []

        def fan_out():
            try:
                run_trials(_die, [(0,)] * 2, 2)
            except Exception as exc:  # inspected below, off this thread
                outcome.append(exc)

        thread = threading.Thread(target=fan_out, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "run_trials hung on a dead worker"
        assert len(outcome) == 1 and isinstance(outcome[0], BrokenProcessPool)
