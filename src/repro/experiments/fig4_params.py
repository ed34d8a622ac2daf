"""Figure 4: corruption vs replication factor (a) and tunnel length (b).

Setup (paper §7.2): p = 0.1 malicious, 10^4 nodes, 5,000 tunnels.

* (a) corruption *increases* with k — each extra replica is one more
  chance for a malicious node to learn the anchor (the
  functionality/anonymity trade-off against Figure 2);
* (b) corruption *decreases* with tunnel length l — the adversary must
  disclose every hop; the paper reports the knee at l = 5.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import draw_unique_ids
from repro.analysis.theory import tunnel_corruption_prob
from repro.experiments.config import Fig4Config
from repro.experiments.fig3_collusion import corruption_fraction
from repro.experiments.ring import figure_ring
from repro.perf import run_trials
from repro.util.rng import SeedSequenceFactory


def _fig4a_trial(config: Fig4Config, rep: int) -> list[tuple[int, float]]:
    """One repetition of the k-sweep: ``(k, corruption)`` pairs."""
    rng = SeedSequenceFactory(config.seed).numpy("fig4a", rep)
    overlay, malicious, _ = figure_ring(
        config.num_nodes, rng, config.malicious_fraction
    )
    hop_keys = draw_unique_ids(config.num_tunnels * config.tunnel_length, rng)
    out: list[tuple[int, float]] = []
    for k in config.replication_factors:
        # bound until the next k's table replaces it (see
        # CompactOverlay.replica_positions)
        table = overlay.replica_positions(hop_keys, np.zeros_like(hop_keys), k)
        out.append((
            k,
            corruption_fraction(
                malicious, table, config.num_tunnels, config.tunnel_length
            ),
        ))
    return out


def _fig4b_trial(config: Fig4Config, rep: int) -> list[tuple[int, float]]:
    """One repetition of the l-sweep: ``(length, corruption)`` pairs."""
    rng = SeedSequenceFactory(config.seed).numpy("fig4b", rep)
    overlay, malicious, _ = figure_ring(
        config.num_nodes, rng, config.malicious_fraction
    )
    out: list[tuple[int, float]] = []
    for length in config.tunnel_lengths:
        hop_keys = draw_unique_ids(config.num_tunnels * length, rng)
        table = overlay.replica_positions(
            hop_keys, np.zeros_like(hop_keys), config.replication_factor
        )
        out.append((
            length,
            corruption_fraction(malicious, table, config.num_tunnels, length),
        ))
    return out


def _gather(trial, config: Fig4Config, workers: int | None) -> dict[int, list[float]]:
    partials = run_trials(
        trial,
        [(config, rep) for rep in range(config.num_seeds)],
        workers,
    )
    acc: dict[int, list[float]] = {}
    for partial in partials:
        for key, value in partial:
            acc.setdefault(key, []).append(value)
    return acc


def run_fig4a(
    config: Fig4Config = Fig4Config(), workers: int | None = None
) -> list[dict]:
    """Sweep the replication factor k at fixed l."""
    acc = _gather(_fig4a_trial, config, workers)

    return [
        {
            "figure": "fig4a",
            "replication_factor": k,
            "tunnel_length": config.tunnel_length,
            "corrupted_tunnels": float(np.mean(values)),
            "std": float(np.std(values)),
            "expected": tunnel_corruption_prob(
                config.malicious_fraction,
                config.tunnel_length,
                k,
                config.num_nodes,
            ),
        }
        for k, values in sorted(acc.items())
    ]


def run_fig4b(
    config: Fig4Config = Fig4Config(), workers: int | None = None
) -> list[dict]:
    """Sweep the tunnel length l at fixed k."""
    acc = _gather(_fig4b_trial, config, workers)

    return [
        {
            "figure": "fig4b",
            "tunnel_length": length,
            "replication_factor": config.replication_factor,
            "corrupted_tunnels": float(np.mean(values)),
            "std": float(np.std(values)),
            "expected": tunnel_corruption_prob(
                config.malicious_fraction,
                length,
                config.replication_factor,
                config.num_nodes,
            ),
        }
        for length, values in sorted(acc.items())
    ]
