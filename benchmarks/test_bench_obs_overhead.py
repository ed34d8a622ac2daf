"""Observability overhead bench: instrumented vs bare figure paths.

The acceptance bar for :mod:`repro.obs` is that threading a
:class:`~repro.obs.MetricsRegistry` through the Fig. 6 pipeline (the
hot routing path) costs < 5% wall-clock.  Fig. 2 is pure vectorised
NumPy and takes no instrumentation, so its overhead is identically
zero; Fig. 6 exercises every instrumented layer (overlay build,
``route``, per-link histogram observation).

The measured overhead and the exported histogram summary land in
``benchmarks/results/obs_overhead.{txt,csv}``.
"""

from __future__ import annotations

import time

from repro.experiments import Fig6Config, render_table, rows_to_csv, run_fig6
from repro.obs import MetricsRegistry
from repro.perf import Sinks

from conftest import paper_scale

#: generous CI bound; the measured number (reported in results/) is
#: the artifact — typically well under the 5% acceptance bar.
MAX_OVERHEAD = 0.05


def _config() -> Fig6Config:
    if paper_scale():
        return Fig6Config()
    return Fig6Config(
        network_sizes=(100, 500, 1_000),
        transfers_per_size=20,
        num_seeds=1,
    )


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_obs_overhead(benchmark, emit):
    config = _config()
    registry = MetricsRegistry()

    bare = _best_of(lambda: run_fig6(config))
    instrumented = _best_of(lambda: run_fig6(config, sinks=Sinks(registry)))
    benchmark.pedantic(
        run_fig6, args=(config,), kwargs={"sinks": Sinks(MetricsRegistry())},
        rounds=1, iterations=1,
    )

    overhead = instrumented / bare - 1.0
    rows = [
        {
            "path": "fig6",
            "bare_s": bare,
            "instrumented_s": instrumented,
            "overhead_pct": 100.0 * overhead,
            "routes_observed": registry.counter("pastry.route.count").value,
            "links_observed": registry.histogram("fig6.link_latency_s").count,
        }
    ]
    emit(
        "obs_overhead",
        render_table(rows, title="repro.obs instrumentation overhead"),
        rows_to_csv(rows),
    )
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%}"
    )
    # the instrumented run actually recorded the latency artifacts
    assert registry.histogram("fig6.link_latency_s").count > 0
    assert registry.counter("pastry.route.count").value > 0