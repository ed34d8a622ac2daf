"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's figures and quantify its design knobs:

* :func:`run_tradeoff` — the k/l functionality-vs-anonymity plane:
  for each (k, l), both the tunnel failure rate at a reference failure
  fraction *and* the corruption rate at a reference malicious fraction.
  Figure 2 and Figure 4 are 1-D slices of this surface.
* :func:`run_hint_staleness` — §5's IP hints under churn: how often a
  hint is stale and what the DHT fallback costs in extra hops.
* :func:`run_scatter` — §3.5's prefix-scattered anchor selection vs
  uniform selection: probability that one physical node holds replicas
  of several hops of the same tunnel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.idspace import draw_unique_ids
from repro.analysis.theory import tunnel_corruption_prob, tunnel_failure_prob_tap
from repro.experiments.ring import figure_ring
from repro.perf import Sinks, run_trials
from repro.util.rng import SeedSequenceFactory


@dataclass(frozen=True)
class TradeoffConfig:
    num_nodes: int = 10_000
    num_tunnels: int = 2_000
    failure_fraction: float = 0.3
    malicious_fraction: float = 0.1
    replication_factors: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    tunnel_lengths: tuple[int, ...] = (3, 5, 7)
    seed: int = 2004

    @classmethod
    def fast(cls) -> "TradeoffConfig":
        return cls(num_nodes=1_000, num_tunnels=500,
                   replication_factors=(1, 3, 5), tunnel_lengths=(3, 5))


def _tradeoff_trial(config: TradeoffConfig, length: int) -> list[dict]:
    """One tunnel-length column of the (k, l) plane.

    The population and failure mask replay the shared ``"tradeoff"``
    stream (identical in every trial); the hop anchors come from a
    per-length labelled stream, which is what makes the columns
    independent units of fan-out.
    """
    seeds = SeedSequenceFactory(config.seed)
    rng = seeds.numpy("tradeoff")
    overlay, malicious, _ = figure_ring(
        config.num_nodes, rng, config.malicious_fraction
    )

    n_failed = round(config.failure_fraction * config.num_nodes)
    failed_mask = np.zeros(config.num_nodes, dtype=bool)
    failed_mask[rng.choice(config.num_nodes, size=n_failed, replace=False)] = True

    hop_rng = seeds.numpy("tradeoff-hops", length)
    hop_keys = draw_unique_ids(config.num_tunnels * length, hop_rng)

    rows: list[dict] = []
    for k in config.replication_factors:
        # one table per k answers both questions; the failure is a mask
        # over the original replica sets, as in Figure 2
        table = overlay.replica_positions(hop_keys, np.zeros_like(hop_keys), k)
        survivors = (~failed_mask[table]).any(axis=1)
        functional = survivors.reshape(config.num_tunnels, length).all(axis=1)
        disclosed = malicious[table].any(axis=1)
        corrupted = disclosed.reshape(config.num_tunnels, length).all(axis=1)
        rows.append(
            {
                "figure": "ablation-tradeoff",
                "replication_factor": k,
                "tunnel_length": length,
                "failed_tunnels": float(1.0 - functional.mean()),
                "corrupted_tunnels": float(corrupted.mean()),
                "expected_failed": tunnel_failure_prob_tap(
                    config.failure_fraction, length, k, config.num_nodes
                ),
                "expected_corrupted": tunnel_corruption_prob(
                    config.malicious_fraction, length, k, config.num_nodes
                ),
            }
        )
    return rows


def run_tradeoff(
    config: TradeoffConfig = TradeoffConfig(), workers: int | None = None
) -> list[dict]:
    """Sweep (k, l); report failure and corruption rates side by side."""
    columns = run_trials(
        _tradeoff_trial,
        [(config, length) for length in config.tunnel_lengths],
        workers,
    )
    return [row for column in columns for row in column]


@dataclass(frozen=True)
class HintStalenessConfig:
    num_nodes: int = 300
    tunnels: int = 12
    tunnel_length: int = 3
    churn_steps: tuple[int, ...] = (0, 5, 10, 20, 40)
    seed: int = 2004

    @classmethod
    def fast(cls) -> "HintStalenessConfig":
        return cls(num_nodes=150, tunnels=6, churn_steps=(0, 5, 15))


def _hint_staleness_level(
    config: HintStalenessConfig,
    churn: int,
    audit: bool,
    sinks: Sinks,
) -> dict:
    """One churn level: the base overlay of ``config.seed`` with its own
    behavioural seed, hinted tunnels, churn, probe."""
    from repro.core.system import TapSystem

    system = TapSystem.bootstrap(
        config.num_nodes, seed=config.seed + churn, overlay_seed=config.seed,
        metrics=sinks.metrics, event_trace=sinks.event_trace, tracer=sinks.tracer,
    )
    if audit:
        system.enable_auditing(strict=True)
    rng = system.seeds.pyrandom("hint-churn")
    tunnels = []
    for i in range(config.tunnels):
        owner = system.tap_node(system.random_node_id(("owner", i)))
        system.deploy_thas(owner, count=config.tunnel_length * 2)
        tunnels.append(
            (owner, system.form_tunnel(owner, config.tunnel_length, use_hints=True))
        )
    owners = {owner.node_id for owner, _ in tunnels}
    for _ in range(churn):
        victim = rng.choice([
            nid for nid in system.network.alive_ids if nid not in owners
        ])
        system.fail_node(victim)
        new_id = rng.getrandbits(128)
        while system.network.is_registered(new_id):
            new_id = rng.getrandbits(128)
        system.join_node(new_id)

    hop_records = []
    successes = 0
    for owner, tunnel in tunnels:
        trace = system.send(owner, tunnel, 42, b"probe")
        if trace.success:
            successes += 1
        hop_records.extend(trace.records)
    total_hops = len(hop_records)
    return {
        "figure": "ablation-hints",
        "churn_events": churn,
        "hint_failure_rate": sum(r.hint_failed for r in hop_records) / total_hops,
        # timed-out probes (dead/unknown hint) are the only ones
        # charged an extra physical link in underlying_hops
        "hint_timeout_rate": sum(r.hint_timeout for r in hop_records) / total_hops,
        "via_hint_rate": sum(r.via_hint for r in hop_records) / total_hops,
        "mean_underlying_per_hop": float(
            np.mean([max(0, len(r.underlying_path) - 1) for r in hop_records])
        ),
        "tunnel_success_rate": successes / len(tunnels),
    }


def run_hint_staleness(
    config: HintStalenessConfig = HintStalenessConfig(),
    workers: int | None = None,
    sinks: Sinks | None = None,
    audit: bool = False,
) -> list[dict]:
    """Object-level: form hinted tunnels, churn, measure hint failures.

    For each churn level, a fresh TapSystem is built, hinted tunnels
    are formed, the overlay churns (fail+join with repair), and every
    tunnel is exercised.  Reported per level: fraction of hops whose
    hint failed, and mean underlying hops (the latency driver).
    ``sinks`` and ``audit`` thread a :mod:`repro.obs` registry, span /
    event tracing and post-event invariant audits through every system
    built.  ``workers`` fans the (independent) churn levels out over
    processes; rows and obs are identical for any worker count.
    """
    return run_trials(
        _hint_staleness_level,
        [(config, churn, audit) for churn in config.churn_steps],
        workers,
        sinks=Sinks() if sinks is None else sinks,
    )


@dataclass(frozen=True)
class ScatterConfig:
    num_nodes: int = 500
    num_tunnels: int = 3_000
    tunnel_length: int = 5
    replication_factor: int = 3
    seed: int = 2004

    @classmethod
    def fast(cls) -> "ScatterConfig":
        return cls(num_tunnels=1_000)


def run_scatter(config: ScatterConfig = ScatterConfig()) -> list[dict]:
    """Prefix-scattered vs uniform hopid selection (§3.5).

    Measures the probability that a single node holds replicas of two
    or more hops of one tunnel — the event scattering minimises.  The
    effect matters on small/medium networks where replica
    neighbourhoods are wide relative to the ring.
    """
    seeds = SeedSequenceFactory(config.seed)
    rng = seeds.numpy("scatter")
    overlay, _, _ = figure_ring(config.num_nodes, rng)

    l, k, t = config.tunnel_length, config.replication_factor, config.num_tunnels

    def multi_hop_rate(hop_keys: np.ndarray) -> float:
        table = overlay.replica_positions(hop_keys, np.zeros_like(hop_keys), k)
        table = table.reshape(t, l * k)
        hits = 0
        for row in table:
            # A node appearing under two *different hops* of the tunnel:
            per_hop = row.reshape(l, k)
            seen: dict[int, int] = {}
            overlap = False
            for hop_idx in range(l):
                for node in per_hop[hop_idx]:
                    prev = seen.get(int(node))
                    if prev is not None and prev != hop_idx:
                        overlap = True
                    seen[int(node)] = hop_idx
            hits += overlap
        return hits / t

    # Uniform selection: independent uniform hopids.
    uniform_keys = draw_unique_ids(t * l, rng)

    # Scattered selection: force distinct top-4-bit prefixes per tunnel.
    prefixes = np.empty((t, l), dtype=np.uint64)
    for i in range(t):
        prefixes[i] = rng.choice(16, size=l, replace=False).astype(np.uint64)
    low = rng.integers(0, 1 << 60, size=(t, l), dtype=np.uint64)
    scattered_keys = (prefixes << np.uint64(60)) | low

    return [
        {
            "figure": "ablation-scatter",
            "selection": "uniform",
            "multi_hop_holder_rate": multi_hop_rate(uniform_keys),
        },
        {
            "figure": "ablation-scatter",
            "selection": "scattered",
            "multi_hop_holder_rate": multi_hop_rate(scattered_keys.reshape(-1)),
        },
    ]
