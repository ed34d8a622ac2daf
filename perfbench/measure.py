"""Measuring one workload in this process: set-up, fixed-count
segments, the rolling work digest, and the traced pass.

The boxes this runs on are shared: their speed drifts by 10–25 % over
seconds, which no amount of medians inside a ten-second run removes.
So every timed stretch is bracketed by a fixed reference computation
(:func:`spin`) and its clock is scaled by how fast the machine ran the
reference just then.  All times reported are therefore *at reference
machine speed*; the unscaled figures are kept as diagnostics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from collections import Counter
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import numpy as np

from ledger import LAYERS, TARGETS, layer_self_us_per_op, per_layer
from repro import MetricsRegistry
from tracer import Tracer
from workloads import Recorder

BASELINE_SEGMENTS = 8
METRICS_ONLY_SEGMENTS = 4
TRACED_SEGMENTS = 6
#: what :func:`spin` takes on the reference box when it is quiet
REFERENCE_SPIN_S = 0.0200

_SPIN_WORDS = np.random.default_rng(0).integers(0, 2**63, size=20_000, dtype=np.uint64)


def spin() -> float:
    """Seconds the fixed reference computation takes right now: an
    interpreter loop over the primitives the program leans on (SHA-256,
    big-int XOR, small allocations) plus a NumPy sort/search."""
    start = perf_counter()
    sha256 = hashlib.sha256
    block = bytes(64)
    acc = 0
    for i in range(14_000):
        acc = (acc * 31 + i) % 1_000_003
        digest = sha256(block).digest()
        acc ^= int.from_bytes(digest[:8], "big")
    for _ in range(20):
        np.searchsorted(np.sort(_SPIN_WORDS), _SPIN_WORDS[:5_000])
    return perf_counter() - start


def machine_speed(spin_before_s: float, spin_after_s: float) -> float:
    """Speed of the machine between two spins, 1.0 = the reference."""
    return 2 * REFERENCE_SPIN_S / (spin_before_s + spin_after_s)


class Segment(NamedTuple):
    rec: Recorder
    wall_ns: int
    counts: dict
    #: machine speed around the segment, 1.0 = the reference
    speed: float


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """State of one measured workload: segments run so far, their
    throughput, the pooled latency samples and the rolling work digest."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self._digest = hashlib.sha256(
            f"{workload.name}:{workload.seed}".encode()
        ).hexdigest()
        self._spin_s = spin()

    def segment(self, tracer=None) -> Segment:
        rec = Recorder(tracer)
        before = self._spin_s
        start = perf_counter_ns()
        self.workload.segment(rec)
        wall_ns = perf_counter_ns() - start
        self._spin_s = spin()
        counts = self.workload.take_counts()
        self.attempted += rec.attempted
        self.failed += rec.failed
        record = json.dumps([self._digest, rec.attempted, rec.failed, counts], sort_keys=True)
        self._digest = hashlib.sha256(record.encode()).hexdigest()
        self.digests.append(self._digest)
        return Segment(rec, wall_ns, counts, machine_speed(before, self._spin_s))


def summarise(segments: list[Segment]) -> dict:
    """Throughput and latency figures of some segments, at reference
    machine speed: a segment's times are multiplied by its ``speed``."""
    rates = [s.rec.attempted / (s.wall_ns * s.speed / 1e9) for s in segments]
    ordered = [sorted(s.rec.latencies_ns) for s in segments]
    pooled = sorted(ns * s.speed for s, ns_list in zip(segments, ordered) for ns in ns_list)
    quartiles = statistics.quantiles(rates, n=4)

    def across_segments(q: float) -> float:
        # A burst of machine noise inside one segment moves that
        # segment's percentile, not the median over segments.
        return statistics.median(
            percentile(ns_list, q) * s.speed for s, ns_list in zip(segments, ordered)
        ) / 1000.0

    return {
        "ops_per_s": statistics.median(rates),
        "segment_spread_frac": (quartiles[2] - quartiles[0]) / statistics.median(rates),
        "p50_us": across_segments(0.50),
        "p95_us": across_segments(0.95),
        "p99_us": percentile(pooled, 0.99) / 1000.0,
        "samples": len(pooled),
        "raw_ops_per_s": statistics.median(
            s.rec.attempted / (s.wall_ns / 1e9) for s in segments),
        "machine_speed": statistics.median(s.speed for s in segments),
    }


def at_reference_speed(phases) -> dict[str, list]:
    """Sum tracer totals ``{name: [calls, self_ns, weight]}`` over
    ``(totals, speed)`` pairs, scaling each one's times by its speed."""
    out: dict[str, list] = {}
    for totals, speed in phases:
        for name, (calls, self_ns, weight) in totals.items():
            row = out.setdefault(name, [0, 0.0, 0])
            row[0] += calls
            row[1] += self_ns * speed
            row[2] += weight
    return out


def set_up(cls, seed: int, smoke: bool, repeat: bool):
    """Build the workload (several times if ``repeat``); returns the
    last instance and the median set-up time (overlay build + publish +
    deploy + tunnel/session formation + warm-up)."""
    times: list[float] = []
    spent = 0.0
    after = spin()
    while True:
        workload = cls(seed, smoke)
        gc.collect()
        before = after
        start = perf_counter()
        workload.setup()
        elapsed = perf_counter() - start
        after = spin()
        spent += elapsed
        times.append(elapsed * machine_speed(before, after))
        if not repeat or (len(times) >= 3 and (spent >= 2.0 or len(times) >= 9)):
            return workload, statistics.median(times)


def gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def measure_untraced(cls, seed: int, smoke: bool, segments: int):
    workload, setup_s = set_up(cls, seed, smoke, repeat=not smoke)
    gc.collect()
    gc.freeze()
    run = Run(workload)
    collections = gc_collections()
    summary = summarise([run.segment() for _ in range(segments)])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": summary["ops_per_s"],
        "p50_us": summary["p50_us"],
        "p95_us": summary["p95_us"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "driver.segment_spread_frac": summary["segment_spread_frac"],
        "driver.p99_us": summary["p99_us"],
        "driver.samples": summary["samples"],
        "driver.gc_collections": gc_collections() - collections,
        "driver.raw_ops_per_s": summary["raw_ops_per_s"],
        "driver.machine_speed": summary["machine_speed"],
    }
    return run, metrics, detail


def measure_traced(cls, seed: int, smoke: bool, trace_path):
    tracer = Tracer()
    targets = TARGETS + cls.extra_targets

    # Set-up costs per layer, on an instance that is then thrown away.
    tracer.phase("setup")
    tracer.install(targets)
    before = spin()
    try:
        tracer.wrap(cls(seed, smoke).setup, "core.setup", root=True)()
    finally:
        tracer.remove()
    setup = at_reference_speed([(tracer.totals["setup"], machine_speed(before, spin()))])

    workload, _ = set_up(cls, seed, smoke, repeat=False)
    gc.collect()
    gc.freeze()
    run = Run(workload)
    collections = gc_collections()
    baseline = summarise([run.segment() for _ in range(BASELINE_SEGMENTS)])

    # The program's own counters, first alone (their cost), then fresh
    # for the traced segments (their readings).
    metrics_only = None
    registry = MetricsRegistry()
    if workload.system is not None:
        workload.system.attach_observability(metrics=MetricsRegistry())
        metrics_only = summarise([run.segment() for _ in range(METRICS_ONLY_SEGMENTS)])
        workload.system.attach_observability(metrics=registry)

    tracer.install(targets)
    workload.install_trace(tracer)
    traced = []
    try:
        for index in range(TRACED_SEGMENTS):
            tracer.phase(index)
            traced.append(run.segment(tracer))
    finally:
        workload.remove_trace()
        tracer.remove()
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write_chrome_trace(trace_path, f"perfbench {cls.name} seed {seed}")

    timed = at_reference_speed(
        (tracer.totals[index], segment.speed) for index, segment in enumerate(traced))
    ops = sum(s.rec.attempted for s in traced)
    events = sum(s.rec.events for s in traced)
    wall_us = sum(s.wall_ns * s.speed for s in traced) / 1000.0
    counts = sum((Counter(s.counts) for s in traced), Counter())
    layers = layer_self_us_per_op(timed, ops)
    traced_rate = summarise(traced)["ops_per_s"]
    extra = {
        "core.goodput_mib_s": workload.payload_bytes * baseline["ops_per_s"] / 2**20,
        "simnet.max_queue_len": 0,
        "perf.scratch_mib": 0.0,
        **workload.gauges(),
        "obs.trace_overhead_frac": 1.0 - traced_rate / baseline["ops_per_s"],
        "obs.metrics_on_overhead_frac": (
            1.0 - metrics_only["ops_per_s"] / baseline["ops_per_s"] if metrics_only else 0.0
        ),
        "driver.p99_us": baseline["p99_us"],
        "driver.samples": baseline["samples"],
        "driver.segment_spread_frac": baseline["segment_spread_frac"],
        "driver.gc_collections": gc_collections() - collections,
        "driver.unattributed_frac": 1.0 - sum(layers.values()) / (wall_us / ops),
        "driver.traced_us_per_op": wall_us / ops,
    }
    counters = {
        "route_count": registry.counter("pastry.route.count").value,
        "route_cache_hits": registry.counter("pastry.route.cache_hits").value,
        "route_hops": registry.histogram("pastry.route.hops").total,
        "repair_objects": registry.counter("past.repair.objects_moved").value,
    }
    metrics = per_layer(
        timed, setup, ops, events, workload.deployed_thas,
        counts, counters, extra,
    )
    detail = {
        "layer_self_us_per_op": {layer: layers[layer] for layer in LAYERS},
        "untraced_ops_per_s": baseline["ops_per_s"],
        "traced_ops_per_s": traced_rate,
    }
    return run, metrics, detail
