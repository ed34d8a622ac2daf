"""Scale experiment: replica-set survival under churn at N=10^5.

The paper's availability statements (figure 2 and the churn sweep of
figure 5) are about which k nodes are closest to which keys; nothing in
them needs per-node objects.  This runner replays that methodology on
the compact array-backed engine (:mod:`repro.perf.compact`) at 100k
nodes — the ROADMAP's production-scale target — with the same
determinism contract as every other runner: rows are a pure function of
the config, identical for any ``workers`` value.

Per trial (one per ``rep``):

1. restore a private overlay from the base
   :class:`~repro.perf.compact.CompactSnapshot`, which the runner
   builds once before it fans out (see :func:`~repro.perf.run_trials`
   for how workers reach it);
2. sample ``num_anchors`` keys and record their original replica sets
   *by id content* (robust across joins, which shift array positions);
3. per churn round: fail ``fail_fraction`` of the alive set, admit
   ``join_fraction * num_nodes`` fresh joiners, then measure the
   fraction of anchors with a surviving original replica and the mean
   overlap between current and original replica sets;
4. sweep *every* anchor key through the vectorised packet plane
   (:meth:`CompactOverlay.route_many`) — completion, root-hit fraction
   and mean hops over the full batch, not a sample;
5. finally, re-route the first ``verify_routes`` sweep packets one at
   a time through the scalar ``CompactOverlay.route`` (the object
   engine's forwarding rule over the alive words): each must settle
   and agree hop for hop with the batch.

Telemetry (opt-in): pass a :class:`~repro.obs.MetricsRegistry` /
:class:`~repro.obs.EventTrace` and the trial additionally maintains
``compact.*`` membership counters (via
:meth:`CompactOverlay.instrument`), per-round churn counters and
alive-fraction gauges, and histograms of the first
:data:`TELEMETRY_VALUES` values of arrays the trial computes anyway —
each round's anchor overlaps and the sweep's hop counts.  Anchors and
sweep sources are drawn i.i.d., so a prefix is a uniform sample; the
telemetry draws, routes and computes nothing of its own, so rows (and
their digest) are identical with telemetry on or off, and worker-local
registries merge in trial order, so serial == parallel holds for the
telemetry too.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.config import ScaleChurnConfig
from repro.perf import Sinks, base_snapshot, run_trials
from repro.perf.compact import CompactOverlay
from repro.util.rng import SeedSequenceFactory

_U64_MAX = np.iinfo(np.uint64).max

#: values a telemetry histogram takes from each array it observes
TELEMETRY_VALUES = 256


def _base_token(config: ScaleChurnConfig) -> tuple:
    return ("scale-churn-base", config.seed, config.num_nodes)


def _base_build(config: ScaleChurnConfig):
    return CompactOverlay.random(config.num_nodes, seed=config.seed).snapshot()


def _fresh_ids(overlay: CompactOverlay, rng: np.random.Generator, count: int) -> list[int]:
    """``count`` uniform ids absent from the overlay (dup redraw)."""
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < count:
        need = count - len(out)
        hi = rng.integers(0, _U64_MAX, size=need, dtype=np.uint64)
        lo = rng.integers(0, _U64_MAX, size=need, dtype=np.uint64)
        for h, l in zip(hi.tolist(), lo.tolist()):
            value = (h << 64) | l
            if value in seen or value in overlay:
                continue
            seen.add(value)
            out.append(value)
    return out


def _churn_trial(
    config: ScaleChurnConfig,
    rep: int,
    sinks: Sinks,
) -> list[dict]:
    snap = base_snapshot(_base_token(config), lambda: _base_build(config))
    # A wall-clock fact about this trial — shipped back through the
    # volatile channel, never into rows.
    start = time.perf_counter()
    overlay = snap.restore()
    sinks.volatile.update({
        "rep": rep,
        "restore_seconds": round(time.perf_counter() - start, 6),
    })
    rng = SeedSequenceFactory(config.seed).numpy("scale-churn", rep)
    k = config.replication_factor

    metrics, event_trace = sinks.metrics, sinks.event_trace
    if metrics is not None:
        overlay.instrument(metrics)

    key_hi = rng.integers(0, _U64_MAX, size=config.num_anchors, dtype=np.uint64)
    key_lo = rng.integers(0, _U64_MAX, size=config.num_anchors, dtype=np.uint64)
    original = overlay.replica_positions(key_hi, key_lo, k)
    orig_hi = overlay.hi[original].copy()
    orig_lo = overlay.lo[original].copy()

    rows: list[dict] = []
    for round_idx in range(1, config.churn_rounds + 1):
        alive_idx = overlay.alive_positions()
        fails = int(round(config.fail_fraction * len(alive_idx)))
        if fails:
            overlay.fail_positions(
                rng.choice(alive_idx, size=fails, replace=False)
            )
        joins = int(round(config.join_fraction * config.num_nodes))
        if joins:
            overlay.join(_fresh_ids(overlay, rng, joins))

        survived = overlay.alive_mask(orig_hi, orig_lo).any(axis=1)
        current = overlay.replica_positions(key_hi, key_lo, k)
        cur_hi = overlay.hi[current]
        cur_lo = overlay.lo[current]
        same = (
            (cur_hi[:, :, None] == orig_hi[:, None, :])
            & (cur_lo[:, :, None] == orig_lo[:, None, :])
        )
        overlap = same.any(axis=2).sum(axis=1) / k
        survivor_fraction = float(survived.mean())
        replica_overlap = float(overlap.mean())
        rows.append({
            "figure": "scale-churn",
            "rep": rep,
            "round": round_idx,
            "alive": overlay.num_alive,
            "survivor_fraction": survivor_fraction,
            "replica_overlap": replica_overlap,
        })
        if metrics is not None:
            metrics.counter("scale.churn.rounds").inc()
            metrics.counter("scale.churn.failed_nodes").inc(fails)
            metrics.counter("scale.churn.joined_nodes").inc(joins)
            metrics.gauge("scale.alive_fraction").set(
                overlay.num_alive / config.num_nodes
            )
            metrics.gauge("scale.survivor_fraction").set(survivor_fraction)
            metrics.histogram("scale.replica.overlap").observe_many(
                overlap[:TELEMETRY_VALUES].tolist()
            )
        if event_trace is not None:
            event_trace.record(
                "scale.round", rep=rep, round=round_idx,
                alive=overlay.num_alive,
                survivor_fraction=round(survivor_fraction, 6),
                replica_overlap=round(replica_overlap, 6),
            )

    # Full batched route sweep over the churned ring: every anchor key
    # routed at once on the packet plane; each packet must settle on
    # the key's true root (its k=1 replica position).
    alive_idx = overlay.alive_positions()
    sweep_src = rng.choice(alive_idx, size=config.num_anchors)
    sweep = overlay.route_many(sweep_src, key_hi, key_lo)
    roots = overlay.replica_positions(key_hi, key_lo, 1)[:, 0]
    rows.append({
        "figure": "scale-churn-sweep",
        "rep": rep,
        "routes": config.num_anchors,
        "completion": float(sweep.success.mean()),
        "root_hit_fraction": float(
            ((sweep.dest_pos == roots) & sweep.success).mean()
        ),
        "mean_hops": float(sweep.hops.mean()),
    })
    if metrics is not None:
        metrics.histogram("scale.route.hops").observe_many(
            sweep.hops[:TELEMETRY_VALUES].tolist()
        )

    if config.verify_routes:
        checks = min(config.verify_routes, config.num_anchors)
        agree = 0
        for i in range(checks):
            src_id = (
                (int(overlay.hi[sweep_src[i]]) << 64)
                | int(overlay.lo[sweep_src[i]])
            )
            key = (int(key_hi[i]) << 64) | int(key_lo[i])
            path = overlay.route(src_id, key)
            if (
                sweep.success[i]
                and tuple(sweep.path(i)) == path
                and int(sweep.hops[i]) == len(path) - 1
            ):
                agree += 1
        rows.append({
            "figure": "scale-churn-verify",
            "rep": rep,
            "routes": checks,
            "agree": agree,
        })
    return rows


def run_scale_churn(
    config: ScaleChurnConfig = ScaleChurnConfig(),
    workers: int | None = None,
    sinks: Sinks | None = None,
) -> list[dict]:
    """The scale-churn runner; trials fan out over ``workers``.

    The base overlay is built once in this process and snapshotted
    before the fan-out; trials restore from its arrays (milliseconds at
    100k) instead of re-bootstrapping, and fork workers inherit the
    snapshot copy-on-write, so at 10^6 nodes no worker copies or
    rebuilds it.  Pass ``sinks`` with a ``metrics`` registry /
    ``event_trace`` to collect the telemetry described in the module
    docstring; trial-local copies are folded back in trial
    order, so the merged state is identical for any ``workers`` value.
    ``sinks.volatile`` receives a machine-dependent timing — the
    per-trial restore cost — for the run manifest's volatile section.
    """
    base_snapshot(_base_token(config), lambda: _base_build(config))
    results = run_trials(
        _churn_trial,
        [(config, rep) for rep in range(config.num_seeds)],
        workers,
        sinks=Sinks() if sinks is None else sinks,
    )
    return [row for rows in results for row in rows]


def summarize_rows(rows: list[dict], config=None) -> dict:
    """Headline indicators from scale-churn rows (for the run ledger).

    Also the source of the SLO gate's ``scale.*`` indicators, so the
    keys here are contract, not presentation.  When the (optional)
    ``config`` says the run was at N >= 10^6, every indicator is also
    emitted under a ``scale_1m.`` prefix so ``slo.toml`` can gate the
    million-node operating point separately.
    """
    churn = [r for r in rows if r.get("figure") == "scale-churn"]
    sweep = [r for r in rows if r.get("figure") == "scale-churn-sweep"]
    verify = [r for r in rows if r.get("figure") == "scale-churn-verify"]
    out: dict = {}
    if churn:
        final_round = max(r["round"] for r in churn)
        finals = [r for r in churn if r["round"] == final_round]
        out["scale.survivor_fraction"] = min(
            r["survivor_fraction"] for r in churn
        )
        out["scale.replica_overlap"] = min(r["replica_overlap"] for r in churn)
        out["scale.final_replica_overlap"] = sum(
            r["replica_overlap"] for r in finals
        ) / len(finals)
    if sweep:
        out["scale.sweep_completion"] = min(r["completion"] for r in sweep)
        out["scale.sweep_root_hit"] = min(
            r["root_hit_fraction"] for r in sweep
        )
        out["scale.sweep_mean_hops"] = sum(
            r["mean_hops"] for r in sweep
        ) / len(sweep)
    if verify:
        routes = sum(r["routes"] for r in verify)
        out["scale.route_agreement"] = (
            sum(r["agree"] for r in verify) / routes if routes else 1.0
        )
    if config is not None and getattr(config, "num_nodes", 0) >= 1_000_000:
        for key in list(out):
            out[key.replace("scale.", "scale_1m.", 1)] = out[key]
    return out
