"""Figure 6: file transfer latency vs network size.

Setup (paper §7.3): networks of 100…10,000 nodes; per-link latency
drawn uniformly (Internet-like), 1.5 Mb/s links; a random initiator
transfers a 2 Mb file to the node numerically closest to a random
fileid three ways:

* ``overt``      — plain Pastry routing (log_16 N overlay hops);
* ``tap-basic``  — through an l-hop tunnel, every tunnel hop located
  by full DHT routing (≈ (l+1)·log_16 N overlay hops);
* ``tap-opt``    — §5 IP hints give a direct link to every hop node
  (l+2 physical hops; falls back to DHT routing only when stale —
  never, in this churn-free scenario).

The underlying node paths come from real Pastry routing over the
built overlay; transfer times from the store-and-forward model (each
relay receives the full message before forwarding — the paper's
whole-message Java emulation).  We do not expect the paper's absolute
seconds (its latency distribution is only loosely specified); the
ordering, ratios, and growth with l and N are the reproduced shape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.theory import expected_route_hops
from repro.experiments.config import Fig6Config
from repro.pastry.network import PastryNetwork
from repro.perf import Sinks, run_trials
from repro.simnet.topology import Topology
from repro.simnet.transport import store_and_forward
from repro.util.ids import random_id
from repro.util.rng import SeedSequenceFactory


def _stitch(*segments: tuple[int, ...]) -> list[int]:
    """Concatenate routing segments, dropping duplicated junctions."""
    path: list[int] = []
    for seg in segments:
        if path and seg and path[-1] == seg[0]:
            seg = seg[1:]
        path.extend(seg)
    return path


def _tunnel_paths(
    network: PastryNetwork,
    initiator: int,
    destination_key: int,
    hop_keys: list[int],
) -> tuple[list[int], list[int], list[tuple[str, tuple[int, ...]]],
           list[tuple[str, tuple[int, ...]]]]:
    """Paths *and* per-leg decomposition through the same tunnel hops.

    Returns ``(basic_path, optimised_path, basic_legs, opt_legs)``;
    legs are ``(span_name, leg_path)`` pairs whose link sets partition
    the stitched path — so per-leg transfer times sum exactly to the
    full-path transfer time under the additive store-and-forward model
    (the invariant the span export relies on).
    """
    roots = [network.closest_alive(h) for h in hop_keys]

    basic_segments = []
    current = initiator
    for hop_key, root in zip(hop_keys, roots):
        seg = network.route(current, hop_key)
        assert seg[-1] == root
        basic_segments.append(seg)
        current = root
    exit_seg = network.route(current, destination_key)
    basic = _stitch(*basic_segments, exit_seg)
    basic_legs = [("dht.route", seg) for seg in basic_segments]
    basic_legs.append(("exit.route", exit_seg))

    waypoints = [initiator, *roots, exit_seg[-1]]
    opt_legs: list[tuple[str, tuple[int, ...]]] = []
    for i, (a, b) in enumerate(zip(waypoints, waypoints[1:])):
        if a == b:
            continue  # co-located waypoints cost no link
        name = "exit.direct" if i == len(waypoints) - 2 else "hint.direct"
        opt_legs.append((name, (a, b)))
    optimised = _stitch(*[leg for _, leg in opt_legs]) or [initiator]
    return basic, optimised, basic_legs, opt_legs


def _fig6_topology(config: Fig6Config, n_nodes: int) -> Topology:
    """The per-size latency model: the PNS cell choices and every
    repetition's transfer times read it."""
    return Topology(
        seed=SeedSequenceFactory(config.seed).child("fig6-topo", n_nodes),
        min_latency_s=config.min_latency_s,
        max_latency_s=config.max_latency_s,
        bandwidth_bps=config.bandwidth_bps,
    )


def _fig6_leg(
    config: Fig6Config,
    rep: int,
    n_nodes: int,
    audit: bool,
    sinks: Sinks,
) -> list[tuple[tuple[int, str], float]]:
    """All transfers of one (repetition, network size) cell.

    The rng streams are labelled by ``(rep, n_nodes)``, so each cell
    is a self-contained trial — the unit the parallel executor fans
    out, handing it trial-local ``sinks``.  Every cell of one size
    bootstraps the same overlay: repetitions vary the initiators,
    fileids and tunnels they sample, not the substrate.
    """
    metrics, tracer, event_trace = sinks.metrics, sinks.tracer, sinks.event_trace
    seeds = SeedSequenceFactory(config.seed)
    acc: list[tuple[tuple[int, str], float]] = []

    rng = seeds.pyrandom("fig6", rep, n_nodes)
    topology = _fig6_topology(config, n_nodes)
    id_rng = seeds.pyrandom("fig6-base", n_nodes)
    ids = set()
    while len(ids) < n_nodes:
        ids.add(random_id(id_rng))
    network = PastryNetwork.build(
        ids,
        b_bits=config.b_bits,
        proximity=topology.latency if config.pns else None,
        metrics=metrics,
    )
    if audit:
        from repro.obs.audit import InvariantAuditor

        InvariantAuditor(network, metrics=metrics).assert_clean(
            f"fig6 build n={n_nodes} rep={rep}"
        )
    alive = network.alive_ids
    latency, bandwidth_bps = topology.latency, topology.bandwidth_bps
    #: scheme -> its (transfer time, underlying hops, link latency)
    #: histograms, resolved on the scheme's first record
    histograms: dict[str, tuple] = {}

    def trace_spans(scheme, path, legs, lat, t) -> None:
        """One ``tap.request`` trace of a recorded transfer.  The legs
        partition the path's links in order, so each leg span covers
        its slice of ``lat`` and the children's durations sum exactly
        to the end-to-end time; no latency is drawn again."""
        root = tracer.start_trace(
            "tap.request", observer="initiator",
            scheme=scheme, num_nodes=n_nodes,
            initiator=path[0] if path else None,
        )
        cursor = 0.0
        first = 0
        for name, leg_path in legs:
            links = max(0, len(leg_path) - 1)
            dt = store_and_forward(
                lat[first:first + links], config.file_bits, bandwidth_bps
            )
            first += links
            tracer.add_span(
                name, parent=root,
                sim_start=cursor, sim_end=cursor + dt,
                observer="hop",
                src=leg_path[0], dst=leg_path[-1],
                links=links,
            )
            cursor += dt
        root.set_sim(0.0, cursor)
        tracer.finish(root, links=len(lat), transfer_time_s=t)

    def record(
        scheme: str,
        path: Sequence[int],
        legs: list[tuple[str, tuple[int, ...]]] | None = None,
    ) -> None:
        # each link's latency is drawn once: the transfer time, the
        # leg spans and the link histogram all read this list
        lat = [latency(a, b) for a, b in zip(path, path[1:])]
        t = store_and_forward(lat, config.file_bits, bandwidth_bps)
        acc.append(((n_nodes, scheme), t))
        if tracer:
            trace_spans(scheme, path, legs or [("dht.route", path)], lat, t)
        if event_trace is not None:
            event_trace.record(
                "fig6.transfer", scheme=scheme, num_nodes=n_nodes,
                transfer_time_s=t, links=len(lat),
            )
        if metrics is not None:
            if scheme not in histograms:
                histograms[scheme] = (
                    metrics.histogram(f"fig6.transfer_time_s.{scheme}"),
                    metrics.histogram(f"fig6.underlying_hops.{scheme}"),
                    metrics.histogram("fig6.link_latency_s"),
                )
            transfer_time, hops, link_latency = histograms[scheme]
            transfer_time.observe(t)
            hops.observe(len(lat))
            for value in lat:
                link_latency.observe(value)

    for _ in range(config.transfers_per_size):
        initiator = alive[rng.randrange(len(alive))]
        fid = random_id(rng)

        record("overt", network.route(initiator, fid))

        for length in config.tunnel_lengths:
            hop_keys = [random_id(rng) for _ in range(length)]
            basic, optimised, basic_legs, opt_legs = _tunnel_paths(
                network, initiator, fid, hop_keys
            )
            record(f"tap-basic-l{length}", basic, basic_legs)
            record(f"tap-opt-l{length}", optimised, opt_legs)

    return acc


def run_fig6(
    config: Fig6Config = Fig6Config(),
    workers: int | None = None,
    sinks: Sinks | None = None,
    audit: bool = False,
) -> list[dict]:
    """Generate the Figure-6 rows.

    ``sinks.metrics`` (a :class:`repro.obs.MetricsRegistry`)
    additionally accumulates per-link latency and per-transfer time
    histograms — the paper's latency data as a first-class artifact.
    ``audit`` runs the :class:`repro.obs.InvariantAuditor` on every
    overlay built, raising on violations.

    ``sinks.tracer`` (a :class:`repro.obs.SpanTracer`) records one
    trace per transfer per scheme on the *simulated* clock: a
    ``tap.request`` root whose child legs carry their store-and-forward
    transfer time and sum exactly to the root's end-to-end duration.
    ``sinks.event_trace`` (an :class:`repro.obs.EventTrace`) records
    one ``fig6.transfer`` event per trace.

    ``workers`` fans the (repetition, network size) cells out over
    processes; rows, metrics, spans, and events are identical for any
    worker count (cell-local sinks are folded back in cell order).
    """
    partials = run_trials(
        _fig6_leg,
        [
            (config, rep, n_nodes, audit)
            for rep in range(config.num_seeds)
            for n_nodes in config.network_sizes
        ],
        workers,
        sinks=Sinks() if sinks is None else sinks,
    )

    acc: dict[tuple[int, str], list[float]] = {}
    for partial in partials:
        for key, value in partial:
            acc.setdefault(key, []).append(value)

    rows: list[dict] = []
    for (n_nodes, scheme), values in sorted(acc.items()):
        rows.append(
            {
                "figure": "fig6",
                "num_nodes": n_nodes,
                "scheme": scheme,
                "transfer_time_s": float(np.mean(values)),
                "std": float(np.std(values)),
                "expected_route_hops": expected_route_hops(n_nodes, config.b_bits),
            }
        )
    return rows
