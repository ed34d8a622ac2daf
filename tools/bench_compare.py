#!/usr/bin/env python
"""Micro timings no benchmark workload covers, and their same-run gates.

``BENCHMARK.json``'s workloads time what a TAP request does end to end
(crypto, onions, framing, routing, PAST repair, the simnet plane, the
10^5-node packet plane), and ``tools/compare.py`` judges a change on
them.  This harness keeps only what those workloads do not time, and
the gates that compare two entries of the same run, so machine noise
cancels and no stored baseline is needed:

* the batched packet plane against the scalar route per route
  (:data:`BATCH_PAIRS`), at 10^5 and, opt-in, at 10^6 nodes, where the
  10^6 group also holds the 2 GiB peak-RSS budget;
* the telemetry overhead gate (``--overhead-only``): each telemetry-on
  arm in a round robin with two bare runs, judged by
  ``compare.verdict`` against its bar (:data:`OVERHEAD`);
* in the full suite, the entries of :data:`UNCOVERED` and the serial
  vs parallel wall clock of one experiment.

Usage::

    python tools/bench_compare.py                  # everything, then the gates
    python tools/bench_compare.py --quick          # the packet-plane group only
    python tools/bench_compare.py --overhead-only  # the telemetry overhead gate

Exit code 1 when a gate fails.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

TOOLS = pathlib.Path(__file__).resolve().parent
REPO_ROOT = TOOLS.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(TOOLS)]

from compare import ROUNDS, verdict  # noqa: E402


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def time_op(fn, *, min_time_s: float = 0.15, repeats: int = 5) -> float:
    """Median ns/op over ``repeats`` calibrated batches of ``fn``."""
    # Calibrate the batch size so one batch takes >= min_time_s / repeats.
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time_s / repeats or n >= 1 << 20:
            break
        n = max(n * 2, int(n * (min_time_s / repeats) / max(elapsed, 1e-9)))
    samples = [elapsed / n]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e9


def peak_rss_bytes() -> int | None:
    """The process's high-water RSS in bytes (Linux: ru_maxrss KiB)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return rss * 1024 if sys.platform.startswith("linux") else rss


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def bench_fig2_rep():
    from repro.experiments.config import Fig2Config
    from repro.experiments.fig2_failures import run_fig2

    config = Fig2Config(
        num_nodes=1_000, num_tunnels=500, num_seeds=1,
        failure_fractions=(0.1, 0.3, 0.5),
    )
    return lambda: run_fig2(config)


def bench_erasure_repair_cycle_300():
    """One op = ``fail`` + ``on_fail`` + ``revive`` + ``on_revive`` of
    one fixed holder (the fullest) on a 300-node overlay storing 200
    objects in a (2, 4) erasure store: its membership-repair path,
    through its public surface only."""
    from repro.past.erasure import ErasureStore
    from repro.pastry.network import PastryNetwork
    from repro.util.ids import random_id
    from repro.util.rng import make_pyrandom

    rng = make_pyrandom(2004, "bench-repair-cycle")
    ids: set[int] = set()
    while len(ids) < 300:
        ids.add(random_id(rng))
    net = PastryNetwork.build(ids)
    store = ErasureStore(net, 2, 4)
    for _ in range(200):
        store.insert(random_id(rng), rng.randbytes(64))
    victim = max(sorted(store.storages), key=lambda n: len(store.storages[n].keys()))

    def repair_cycle():
        net.fail(victim)
        store.on_fail(victim)
        net.revive(victim)
        store.on_revive(victim)

    return repair_cycle


#: entries no workload times: every workload stores by replication and
#: none runs the id-space model behind figures 2-5
UNCOVERED = {
    "erasure.repair_cycle_300": bench_erasure_repair_cycle_300,
    "fig2.rep": bench_fig2_rep,
}


def churn_100k_arms():
    """The scale-churn round at 10^5 nodes (restore the base, fail 1 %,
    query 2,000 replica sets), bare and with the sampled telemetry one
    such round pays when a MetricsRegistry is threaded through: the
    overlay's membership instrumentation, the per-round counters and
    gauge, and a 256-value histogram sample."""
    import numpy as np

    from repro.obs import MetricsRegistry
    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    snap = CompactOverlay.random(100_000, seed=2004).snapshot()
    rng = SeedSequenceFactory(2004).numpy("bench-churn")
    u64_max = np.iinfo(np.uint64).max
    key_hi = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    victims = rng.choice(100_000, size=1_000, replace=False)
    tel = SeedSequenceFactory(2004).numpy("bench-telemetry")
    sample_idx = np.sort(tel.choice(2_000, size=256, replace=False))

    def bare():
        overlay = snap.restore()
        overlay.fail_positions(victims)
        return overlay.replica_positions(key_hi, key_lo, 3)

    def telemetry():
        metrics = MetricsRegistry()
        overlay = snap.restore()
        overlay.instrument(metrics)
        overlay.fail_positions(victims)
        positions = overlay.replica_positions(key_hi, key_lo, 3)
        metrics.counter("scale.churn.rounds").inc()
        metrics.counter("scale.churn.failed_nodes").inc(len(victims))
        metrics.gauge("scale.alive_fraction").set(overlay.num_alive / 100_000)
        metrics.histogram("scale.replica.overlap").observe_many(
            positions[sample_idx, 0].tolist()
        )
        return positions

    return {"compact.churn_100k": bare, "compact.churn_100k_telemetry": telemetry}


def fig6_arms():
    """Figure 6 at three sizes, bare (``sinks=None``) and with each
    telemetry sink live: a :class:`~repro.obs.SpanTracer` recording
    every span of the hot routing path, and a
    :class:`~repro.obs.MetricsRegistry` on every instrumented layer."""
    from repro.experiments import Fig6Config, run_fig6
    from repro.obs import MetricsRegistry, SpanTracer
    from repro.perf import Sinks

    config = Fig6Config(
        network_sizes=(100, 500, 1_000), transfers_per_size=20, num_seeds=1,
    )
    return {
        "fig6": lambda: run_fig6(config),
        "fig6.spans": lambda: run_fig6(config, sinks=Sinks(tracer=SpanTracer())),
        "fig6.metrics": lambda: run_fig6(config, sinks=Sinks(MetricsRegistry())),
    }


def _route_setup():
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    overlay = CompactOverlay.random(100_000, seed=2004)
    rng = SeedSequenceFactory(2004).numpy("bench-route")
    u64_max = np.iinfo(np.uint64).max
    alive = np.flatnonzero(overlay.alive)
    src = rng.choice(alive, size=512)
    key_hi = rng.integers(0, u64_max, size=512, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=512, dtype=np.uint64)
    return overlay, src, key_hi, key_lo, rng


def bench_compact_route_100k():
    """Scalar baseline: 16 cold twin walks per call (one op = 16 routes)."""
    overlay, src, key_hi, key_lo, _ = _route_setup()
    pairs = [
        (
            (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]]),
            (int(key_hi[i]) << 64) | int(key_lo[i]),
        )
        for i in range(ROUTE_UNITS["compact.route_100k"])
    ]
    return lambda: [overlay.route(s, k) for s, k in pairs]


def bench_compact_route_many_100k():
    """Batched plane: 512 routes advanced in lockstep per call."""
    overlay, src, key_hi, key_lo, _ = _route_setup()
    return lambda: overlay.route_many(src, key_hi, key_lo)


def bench_compact_tunnel_batch_100k():
    """128 three-hop tunnels (4 legs each) built + routed per call."""
    import numpy as np

    overlay, src, key_hi, key_lo, rng = _route_setup()
    u64_max = np.iinfo(np.uint64).max
    tunnels = 128
    hop_hi = rng.integers(0, u64_max, size=(tunnels, 3), dtype=np.uint64)
    hop_lo = rng.integers(0, u64_max, size=(tunnels, 3), dtype=np.uint64)
    return lambda: overlay.route_tunnels(
        src[:tunnels], hop_hi, hop_lo, key_hi[:tunnels], key_lo[:tunnels]
    )


#: batched packet-plane benchmarks at 10^5 nodes; one *op* is a whole
#: call, so ROUTE_UNITS records how many end-to-end routes each call
#: performs (tunnel legs count per-leg routes)
ROUTE = {
    "compact.route_100k": bench_compact_route_100k,
    "compact.route_many_100k": bench_compact_route_many_100k,
    "compact.tunnel_batch_100k": bench_compact_tunnel_batch_100k,
}


def bench_pastry_bootstrap_1m():
    from repro.perf.compact import CompactOverlay

    return lambda: CompactOverlay.random(1_000_000, seed=2004)


def bench_compact_churn_1m():
    """One scale-churn-style round at 10^6: restore the base snapshot,
    fail 10k nodes, merge-insert 5k joiners, query 2k replica sets."""
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    snap = CompactOverlay.random(1_000_000, seed=2004).snapshot()
    rng = SeedSequenceFactory(2004).numpy("bench-churn-1m")
    u64_max = np.iinfo(np.uint64).max
    key_hi = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    victims = rng.choice(1_000_000, size=10_000, replace=False)
    join_hi = rng.integers(0, u64_max, size=5_000, dtype=np.uint64)
    join_lo = rng.integers(0, u64_max, size=5_000, dtype=np.uint64)
    joiners = [
        (int(h) << 64) | int(l)
        for h, l in zip(join_hi.tolist(), join_lo.tolist())
    ]

    def churn_round():
        overlay = snap.restore()
        overlay.fail_positions(victims)
        overlay.join(joiners)
        return overlay.replica_positions(key_hi, key_lo, 3)

    return churn_round


def _route_setup_1m():
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    overlay = CompactOverlay.random(1_000_000, seed=2004)
    rng = SeedSequenceFactory(2004).numpy("bench-route-1m")
    u64_max = np.iinfo(np.uint64).max
    alive = overlay.alive_positions()
    src = rng.choice(alive, size=4096)
    key_hi = rng.integers(0, u64_max, size=4096, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=4096, dtype=np.uint64)
    return overlay, src, key_hi, key_lo


def bench_route_throughput_1m():
    """4096 routes per call at 10^6 nodes, as one batch."""
    overlay, src, key_hi, key_lo = _route_setup_1m()
    return lambda: overlay.route_many(src, key_hi, key_lo)


def bench_compact_route_1m():
    """Scalar baseline at 10^6: 16 cold twin walks per call."""
    overlay, src, key_hi, key_lo = _route_setup_1m()
    pairs = [
        (
            (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]]),
            (int(key_hi[i]) << 64) | int(key_lo[i]),
        )
        for i in range(ROUTE_UNITS["compact.route_1m"])
    ]
    return lambda: [overlay.route(s, k) for s, k in pairs]


#: the million-node group: opt-in via TAP_BENCH_SCALE_1M=1 (each setup
#: bootstraps a 10^6 ring) and skipped loudly on low-memory machines
SCALE_1M = {
    "pastry.bootstrap_1m": bench_pastry_bootstrap_1m,
    "compact.churn_1m": bench_compact_churn_1m,
    "route.throughput_1m": bench_route_throughput_1m,
    "compact.route_1m": bench_compact_route_1m,
}

#: peak-RSS ceiling for the 10^6 operating point (acceptance gate)
SCALE_1M_MAX_RSS = 2 * 1024**3

ROUTE_UNITS = {
    "compact.route_100k": 16,
    "compact.route_many_100k": 512,
    "compact.tunnel_batch_100k": 128 * 4,
    "route.throughput_1m": 4096,
    "compact.route_1m": 16,
}

#: batched -> (scalar, min per-route speedup): same-run relative gate,
#: normalised by ROUTE_UNITS — the vectorised plane must stay at least
#: this many times faster per route than the scalar route, a cold walk
#: of ``CompactOverlay.twin()`` (PastryNode's rule over the id words).
#: Four ``--quick`` runs on a 2-CPU box, CPython 3.11.7, read x47–95,
#: x46–81 and (three runs) x47–84 for the three pairs below
BATCH_PAIRS = {
    "compact.route_many_100k": ("compact.route_100k", 20.0),
    # 128 tunnels x 4 legs: the same 512 routes per call, held to the
    # same floor — it is cleared only while the legs route as one
    # front (one after the other, 128-packet legs are dispatch-bound
    # and sit near x17)
    "compact.tunnel_batch_100k": ("compact.route_100k", 20.0),
    "route.throughput_1m": ("compact.route_1m", 15.0),
}

#: telemetry-on arm -> (its bare run, bar): the relative cost the arm
#: may add.  Each arm runs in a round robin with two runs of its bare
#: twin, an off/off control, and fails only when
#: :func:`compare.verdict` reads it *slower*, i.e. when its median is
#: past the bare median by more than the bar.
OVERHEAD = {
    "fig6.spans": ("fig6", 0.10),
    "fig6.metrics": ("fig6", 0.05),
    "compact.churn_100k_telemetry": ("compact.churn_100k", 0.05),
}


def scale_1m_status() -> tuple[bool, str]:
    """Whether the SCALE-1M group should run, and why not if not.

    Opt-in via ``TAP_BENCH_SCALE_1M=1``; even then, skipped (loudly,
    never silently) when the machine advertises under 4 GiB available
    — the group bootstraps several 10^6 rings back to back.
    """
    if os.environ.get("TAP_BENCH_SCALE_1M", "") not in ("1", "true", "yes"):
        return False, "TAP_BENCH_SCALE_1M not set"
    min_bytes = 4 * 1024**3
    try:
        meminfo = pathlib.Path("/proc/meminfo").read_text()
        for line in meminfo.splitlines():
            if line.startswith("MemAvailable:"):
                available = int(line.split()[1]) * 1024
                if available < min_bytes:
                    return False, (
                        f"only {available / 1024**3:.1f} GiB available "
                        f"(< {min_bytes / 1024**3:.0f} GiB)"
                    )
                break
    except OSError:
        pass  # no /proc (macOS): trust the env knob
    return True, ""


def run_suite(quick: bool) -> dict[str, dict]:
    suite = dict(ROUTE) if quick else {**ROUTE, **UNCOVERED}
    enabled, reason = scale_1m_status()
    if enabled:
        suite.update(SCALE_1M)
    else:
        # never a silent skip: a reader must be able to tell "not run"
        # from "mysteriously missing"
        print(f"  scale-1m group SKIPPED: {reason}")
    results: dict[str, dict] = {}
    for name, setup in suite.items():
        fn = setup()
        fn()  # warm caches
        median_ns = time_op(fn)
        results[name] = {"median_ns": round(median_ns, 1)}
        if name in SCALE_1M:
            rss = peak_rss_bytes()
            if rss is not None:
                results[name]["peak_rss_bytes"] = rss
        print(f"  {name:28s} {median_ns:14,.0f} ns/op")
    if not quick:
        results.update(wallclock_suite())
    return results


def scale_1m_failures(results: dict[str, dict]) -> list[str]:
    """Same-run gate: the 10^6 operating point must fit the memory
    budget (``SCALE_1M_MAX_RSS`` peak RSS, acceptance criterion)."""
    failures: list[str] = []
    for name in ("pastry.bootstrap_1m", "compact.churn_1m"):
        rss = results.get(name, {}).get("peak_rss_bytes")
        if rss is None:
            continue
        status = "ok" if rss <= SCALE_1M_MAX_RSS else "FAIL"
        print(f"  scale-1m rss {name}: {rss / 1024**3:.2f} GiB "
              f"(max {SCALE_1M_MAX_RSS / 1024**3:.0f} GiB) {status}")
        if rss > SCALE_1M_MAX_RSS:
            failures.append(
                f"{name}: peak RSS {rss / 1024**3:.2f} GiB over the "
                f"{SCALE_1M_MAX_RSS / 1024**3:.0f} GiB million-node budget"
            )
    return failures


def batch_speedup_failures(results: dict[str, dict]) -> list[str]:
    """Same-run pair gate: batched vs scalar per-route cost.

    Normalised by :data:`ROUTE_UNITS` (routes per call) so the two
    members compare per route regardless of their batch sizes; both
    sides come from this run, so machine noise cancels.
    """
    failures: list[str] = []
    for fast, (slow, min_ratio) in BATCH_PAIRS.items():
        if fast not in results or slow not in results:
            continue
        per_fast = results[fast]["median_ns"] / ROUTE_UNITS[fast]
        per_slow = results[slow]["median_ns"] / ROUTE_UNITS[slow]
        ratio = per_slow / per_fast
        status = "ok" if ratio >= min_ratio else "FAIL"
        print(f"  batch speedup {fast} vs {slow}: x{ratio:.1f}/route "
              f"(min x{min_ratio:.0f}) {status}")
        if ratio < min_ratio:
            failures.append(
                f"{fast}: only x{ratio:.1f} per route over {slow}, "
                f"batch-speedup gate is x{min_ratio:.0f}"
            )
    return failures


def overhead_samples(rounds: int = ROUNDS) -> dict[str, list[float]]:
    """ns per call (:func:`time_op`) of every arm of :data:`OVERHEAD`
    and of two runs of each bare twin (``name`` and ``name#2``), once
    per round, the arm order rotating every round."""
    arms = {**fig6_arms(), **churn_100k_arms()}
    groups: dict[str, list[str]] = {}
    for arm, (bare, _) in OVERHEAD.items():
        groups.setdefault(bare, [bare, bare + "#2"]).append(arm)
    samples: dict[str, list[float]] = {}
    for names in groups.values():
        for name in names:
            arms[name.split("#")[0]]()  # warm
        for r in range(rounds):
            for name in names[r % len(names):] + names[:r % len(names)]:
                fn = arms[name.split("#")[0]]
                samples.setdefault(name, []).append(time_op(fn))
    return samples


def overhead_failures(samples: dict[str, list[float]]) -> list[str]:
    """Judge each telemetry arm against its two bare runs."""
    failures: list[str] = []
    for arm, (bare, bar) in OVERHEAD.items():
        off, off2, on = samples[bare], samples[bare + "#2"], samples[arm]
        ratio = statistics.median(on) / statistics.median(off + off2)
        aa = statistics.median(off2) / statistics.median(off) - 1.0
        judged = verdict(off, off2, on, "lower", bar)
        print(f"  overhead {arm} / {bare}: x{ratio:.3f} (bar x{1 + bar:.2f}, "
              f"A/A {100 * aa:+.1f}%) -> {judged}")
        if judged == "slower":
            failures.append(f"{arm}: x{ratio:.3f} over {bare}, past the "
                            f"x{1 + bar:.2f} telemetry overhead bar")
    return failures


def wallclock_suite() -> dict[str, dict]:
    """Serial vs parallel wall clock of one experiment (informational):
    no workload runs ``run_trials``' worker processes."""
    from repro.experiments.config import Fig6Config
    from repro.experiments.fig6_latency import run_fig6

    config = Fig6Config(
        network_sizes=(100, 200), tunnel_lengths=(3,),
        transfers_per_size=10, num_seeds=4,
    )
    out: dict[str, dict] = {}
    for label, workers in (("fig6.wall_serial", 1), ("fig6.wall_workers4", 4)):
        start = time.perf_counter()
        run_fig6(config, workers=workers)
        elapsed = time.perf_counter() - start
        out[label] = {"median_ns": round(elapsed * 1e9, 1)}
        print(f"  {label:24s} {elapsed:14.3f} s/run (workers={workers})")
    return out


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="the packet-plane group only (CI smoke)")
    parser.add_argument("--overhead-only", action="store_true",
                        help="run only the telemetry overhead gate")
    args = parser.parse_args(argv)

    if args.overhead_only:
        print(f"bench_compare: telemetry overhead gate at {git_sha()}")
        failures = overhead_failures(overhead_samples())
    else:
        print(f"bench_compare: {'quick' if args.quick else 'full'} suite at {git_sha()}")
        results = run_suite(args.quick)
        failures = batch_speedup_failures(results) + scale_1m_failures(results)
    if failures:
        print("\nGATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\ngates ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
