"""Span-tracing overhead bench: the bare vs the traced figure path.

Tracing off is ``sinks=None`` — the bare run itself — so the one
acceptance bar for :mod:`repro.obs.spans` is the cost of tracing *on*:
Fig. 6 is the hot routing path the spans instrument, and a live
:class:`~repro.obs.SpanTracer` recording every span there must cost
< 10% over the bare run.

Wall-clock on shared/virtualised hosts wanders by several percent
between *identical* runs, so the harness measures its own noise floor
(two interleaved bare variants) and widens the gate by it; on a quiet
machine the floor is ~0 and the gate is exactly the bar above.  The measured overheads land in
``benchmarks/results/span_overhead.{txt,csv}``.
"""

from __future__ import annotations

import time

from repro.experiments import Fig6Config, render_table, rows_to_csv, run_fig6
from repro.obs import SpanTracer
from repro.perf import Sinks

from conftest import paper_scale

#: the acceptance bar; the measured numbers (in results/) are the
#: artifact.
MAX_ENABLED_OVERHEAD = 0.10


def _config() -> Fig6Config:
    if paper_scale():
        return Fig6Config()
    return Fig6Config(
        network_sizes=(100, 500, 1_000),
        transfers_per_size=20,
        num_seeds=1,
    )


def _interleaved_best(variants: dict, repeats: int = 6) -> dict:
    """Best-of-N per variant, measured round-robin.

    Block measurement (all repeats of A, then all of B) lets CPU
    warm-up and frequency drift bias whichever variant runs first;
    interleaving exposes every variant to the same conditions.
    """
    best = dict.fromkeys(variants, float("inf"))
    for _ in range(repeats):
        for name, fn in variants.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_bench_span_overhead(benchmark, emit):
    config = _config()
    run_fig6(config)  # warm caches before timing anything

    live = SpanTracer()
    variants = {
        # two identical bare variants: their disagreement IS the
        # measurement noise, and the gate widens by it
        "bare_a": lambda: run_fig6(config),
        "bare_b": lambda: run_fig6(config),
        "enabled": lambda: run_fig6(config, sinks=Sinks(tracer=live)),
    }
    best = _interleaved_best(variants)
    benchmark.pedantic(
        run_fig6, args=(config,), kwargs={"sinks": Sinks(tracer=SpanTracer())},
        rounds=1, iterations=1,
    )

    bare = min(best["bare_a"], best["bare_b"])
    noise = max(best["bare_a"], best["bare_b"]) / bare - 1.0
    enabled_overhead = best["enabled"] / bare - 1.0
    rows = [
        {
            "path": "fig6",
            "tracer": "live",
            "bare_s": bare,
            "traced_s": best["enabled"],
            "overhead_pct": 100.0 * enabled_overhead,
            "noise_floor_pct": 100.0 * noise,
            "spans": len(live) + live.dropped,
        }
    ]
    emit(
        "span_overhead",
        render_table(rows, title="repro.obs span-tracing overhead"),
        rows_to_csv(rows),
    )
    assert enabled_overhead < MAX_ENABLED_OVERHEAD + noise, (
        f"enabled tracing costs {enabled_overhead:.1%} "
        f"(bar {MAX_ENABLED_OVERHEAD:.0%} + noise floor {noise:.1%})"
    )
    # the live run actually recorded span trees
    assert len(live) + live.dropped > 0
