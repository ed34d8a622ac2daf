"""Scale experiment: fig6-class latency at N=10^5 on the packet plane.

The paper's figure 6 compares end-to-end transfer latency of direct
Pastry routes against TAP tunnels of length 3 and 5, modelling each
underlying link as a U[10, 230] ms draw.  The object-engine runner
(:mod:`repro.experiments.fig6_latency`) tops out around 10^4 nodes
because every route is a scalar hop loop; this runner replays the same
methodology at 100k nodes on the vectorised packet plane
(:mod:`repro.perf.packet`): all transfers of an arm advance as one
batch, tunnels route all legs batched with additive stitched hop
counts, and link latencies are one flat Generator draw folded per
packet with ``np.add.reduceat``.

Per trial (one per ``rep``):

1. restore a private overlay from the base
   :class:`~repro.perf.compact.CompactSnapshot` (built once before the
   fan-out, see :func:`~repro.perf.run_trials`), then apply
   ``churn_rounds`` rounds of fail/join churn so the measured ring is
   not pristine;
2. sample ``num_transfers`` sources and destination keys, route the
   direct arm with :func:`~repro.perf.packet.route_many`, and draw its
   per-hop latencies;
3. per tunnel length ``L``: sample (num_transfers, L) relay keys,
   build every tunnel with :func:`~repro.perf.packet.route_tunnels`,
   and draw latencies over the stitched hop totals;
4. cross-check ``verify_routes`` packets hop-for-hop against the
   scalar ``CompactOverlay.route``.

Each arm emits one row with completion fraction, mean hops, latency
quantiles, and — for tunnel arms — the hop stretch over the direct arm
and the fig6 trend ratio ``mean_tunnel_latency / (mean_direct_latency
× hop_stretch)``, which sits near 1 because link draws are i.i.d.: the
assertion pinned by the bench suite and the scale tests.

Determinism contract: rows are a pure function of the config —
identical for any ``workers`` value and with telemetry on or off
(each arm's latency histogram observes its first
:data:`~repro.experiments.scale_churn.TELEMETRY_VALUES` latencies;
transfers are i.i.d., so the prefix is a uniform sample, and nothing
is drawn for it).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.config import ScaleLatencyConfig
from repro.experiments.scale_churn import TELEMETRY_VALUES, _fresh_ids
from repro.perf import Sinks, base_snapshot, run_trials
from repro.perf.compact import CompactOverlay
from repro.perf.packet import latency_sums
from repro.util.rng import SeedSequenceFactory

_U64_MAX = np.iinfo(np.uint64).max


def _base_token(config: ScaleLatencyConfig) -> tuple:
    return ("scale-latency-base", config.seed, config.num_nodes)


def _base_build(config: ScaleLatencyConfig):
    return CompactOverlay.random(config.num_nodes, seed=config.seed).snapshot()


def _quantiles(values: np.ndarray) -> dict:
    if len(values) == 0:
        return {"p10_s": 0.0, "p50_s": 0.0, "p90_s": 0.0, "mean_s": 0.0}
    p10, p50, p90 = np.quantile(values, (0.10, 0.50, 0.90))
    return {
        "p10_s": float(p10),
        "p50_s": float(p50),
        "p90_s": float(p90),
        "mean_s": float(values.mean()),
    }


def _latency_trial(
    config: ScaleLatencyConfig,
    rep: int,
    sinks: Sinks,
) -> list[dict]:
    snap = base_snapshot(_base_token(config), lambda: _base_build(config))
    start = time.perf_counter()
    overlay = snap.restore()
    sinks.volatile.update({
        "rep": rep,
        "restore_seconds": round(time.perf_counter() - start, 6),
    })
    rng = SeedSequenceFactory(config.seed).numpy("scale-latency", rep)

    metrics, event_trace = sinks.metrics, sinks.event_trace
    if metrics is not None:
        overlay.instrument(metrics)

    for _ in range(config.churn_rounds):
        alive_idx = overlay.alive_positions()
        fails = int(round(config.fail_fraction * len(alive_idx)))
        if fails:
            overlay.fail_positions(
                rng.choice(alive_idx, size=fails, replace=False)
            )
        joins = int(round(config.join_fraction * config.num_nodes))
        if joins:
            overlay.join(_fresh_ids(overlay, rng, joins))

    num = config.num_transfers
    alive_idx = overlay.alive_positions()
    src = rng.choice(alive_idx, size=num)
    key_hi = rng.integers(0, _U64_MAX, size=num, dtype=np.uint64)
    key_lo = rng.integers(0, _U64_MAX, size=num, dtype=np.uint64)

    direct = overlay.route_many(src, key_hi, key_lo)
    direct_lat = latency_sums(
        rng, direct.hops, config.min_latency_s, config.max_latency_s
    )
    ok = direct.success
    mean_direct_hops = float(direct.hops[ok].mean()) if ok.any() else 0.0
    mean_direct_lat = float(direct_lat[ok].mean()) if ok.any() else 0.0

    rows: list[dict] = [{
        "figure": "scale-latency",
        "rep": rep,
        "arm": "direct",
        "tunnel_length": 0,
        "transfers": num,
        "completion": float(ok.mean()),
        "mean_hops": mean_direct_hops,
        **_quantiles(direct_lat[ok]),
    }]

    tunnel_samples: list[np.ndarray] = []
    for length in config.tunnel_lengths:
        hop_hi = rng.integers(0, _U64_MAX, size=(num, length), dtype=np.uint64)
        hop_lo = rng.integers(0, _U64_MAX, size=(num, length), dtype=np.uint64)
        tunnels = overlay.route_tunnels(src, hop_hi, hop_lo, key_hi, key_lo)
        lat = latency_sums(
            rng, tunnels.hops, config.min_latency_s, config.max_latency_s
        )
        tok = tunnels.success
        mean_hops = float(tunnels.hops[tok].mean()) if tok.any() else 0.0
        mean_lat = float(lat[tok].mean()) if tok.any() else 0.0
        hop_stretch = mean_hops / mean_direct_hops if mean_direct_hops else 0.0
        trend = (
            mean_lat / (mean_direct_lat * hop_stretch)
            if mean_direct_lat and hop_stretch else 0.0
        )
        rows.append({
            "figure": "scale-latency",
            "rep": rep,
            "arm": f"tunnel-l{length}",
            "tunnel_length": length,
            "transfers": num,
            "completion": float(tok.mean()),
            "mean_hops": mean_hops,
            **_quantiles(lat[tok]),
            "hop_stretch": hop_stretch,
            "trend_ratio": trend,
        })
        tunnel_samples.append(lat[tok])

    agree = 0
    checks = min(config.verify_routes, num)
    for i in range(checks):
        src_id = (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]])
        key = (int(key_hi[i]) << 64) | int(key_lo[i])
        if direct.success[i] and tuple(direct.path(i)) == overlay.route(src_id, key):
            agree += 1
    if checks:
        rows.append({
            "figure": "scale-latency-verify",
            "rep": rep,
            "routes": checks,
            "agree": agree,
        })

    if metrics is not None:
        metrics.counter("scale_latency.transfers").inc(num * (1 + len(config.tunnel_lengths)))
        metrics.gauge("scale_latency.direct_completion").set(float(ok.mean()))
        metrics.histogram("scale_latency.direct_s").observe_many(
            direct_lat[ok][:TELEMETRY_VALUES].tolist()
        )
        for length, sample in zip(config.tunnel_lengths, tunnel_samples):
            metrics.histogram(f"scale_latency.tunnel_l{length}_s").observe_many(
                sample[:TELEMETRY_VALUES].tolist()
            )
    if event_trace is not None:
        for row in rows:
            if row["figure"] == "scale-latency":
                event_trace.record(
                    "scale_latency.arm", rep=rep, arm=row["arm"],
                    completion=round(row["completion"], 6),
                    mean_hops=round(row["mean_hops"], 6),
                    p50_s=round(row["p50_s"], 6),
                )
    return rows


def run_scale_latency(
    config: ScaleLatencyConfig = ScaleLatencyConfig(),
    workers: int | None = None,
    sinks: Sinks | None = None,
) -> list[dict]:
    """The scale-latency runner; trials fan out over ``workers``.

    Same contract as scale-churn: the base overlay snapshot is built
    once in this process before the fan-out (fork workers inherit it),
    per-rep seed streams make rows identical for any ``workers`` value,
    and telemetry folds back in trial order.  ``sinks.volatile``
    receives per-trial restore timings for the manifest's volatile
    section.
    """
    base_snapshot(_base_token(config), lambda: _base_build(config))
    results = run_trials(
        _latency_trial,
        [(config, rep) for rep in range(config.num_seeds)],
        workers,
        sinks=Sinks() if sinks is None else sinks,
    )
    return [row for rows in results for row in rows]


def summarize_rows(rows: list[dict], config=None) -> dict:
    """Headline indicators from scale-latency rows (for the run ledger
    and the ``scale_latency.*`` SLOs — keys are contract).  With a
    ``config`` at N >= 10^6 every indicator is mirrored under
    ``scale_1m.`` for the million-node SLO gate."""
    arms = [r for r in rows if r.get("figure") == "scale-latency"]
    verify = [r for r in rows if r.get("figure") == "scale-latency-verify"]
    tunnels = [r for r in arms if r["tunnel_length"]]
    out: dict = {}
    if arms:
        out["scale_latency.route_completion"] = min(
            r["completion"] for r in arms
        )
    if tunnels:
        out["scale_latency.median_tunnel_latency_s"] = max(
            r["p50_s"] for r in tunnels
        )
        out["scale_latency.hop_stretch"] = max(r["hop_stretch"] for r in tunnels)
        out["scale_latency.trend_ratio"] = sum(
            r["trend_ratio"] for r in tunnels
        ) / len(tunnels)
    if verify:
        routes = sum(r["routes"] for r in verify)
        out["scale_latency.route_agreement"] = (
            sum(r["agree"] for r in verify) / routes if routes else 1.0
        )
    if config is not None and getattr(config, "num_nodes", 0) >= 1_000_000:
        for key in list(out):
            out[key.replace("scale_latency.", "scale_1m.", 1)] = out[key]
    return out
