"""Figure 3: corrupted tunnel fraction vs malicious node fraction.

Setup (paper §7.2): 10^4 nodes, 5,000 tunnels of length 5, k = 3; a
fraction p of nodes is malicious and colluding.  A THA is disclosed
iff any node of its replica set is malicious; a tunnel is corrupted
(attack case 1, §6) iff *all* of its hops' THAs are disclosed.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import draw_unique_ids
from repro.analysis.theory import tunnel_corruption_prob
from repro.experiments.config import Fig3Config
from repro.experiments.ring import figure_ring
from repro.perf import run_trials
from repro.util.rng import SeedSequenceFactory


def corruption_fraction(
    malicious: np.ndarray,
    table: np.ndarray,
    num_tunnels: int,
    tunnel_length: int,
) -> float:
    """Fraction of tunnels whose every hop's THA is disclosed.

    ``table`` holds each hop key's replica set as ring positions, and
    ``malicious`` flags those positions.
    """
    disclosed = malicious[table].any(axis=1)
    corrupted = disclosed.reshape(num_tunnels, tunnel_length).all(axis=1)
    return float(corrupted.mean())


def _fig3_trial(config: Fig3Config, rep: int) -> list[tuple[float, float]]:
    """One repetition: ``(malicious fraction, corruption)`` pairs."""
    rng = SeedSequenceFactory(config.seed).numpy("fig3", rep)
    # One ring per repetition: only the malicious flags vary across the
    # sweep, so one replica table serves every p.  Each p draws its
    # flags in draw order and aligns them with the ring through
    # `order`, which is what re-constructing the ring would compute.
    overlay, _, order = figure_ring(config.num_nodes, rng)
    hop_keys = draw_unique_ids(config.num_tunnels * config.tunnel_length, rng)
    table = overlay.replica_positions(
        hop_keys, np.zeros_like(hop_keys), config.replication_factor
    )
    out: list[tuple[float, float]] = []
    for p in config.malicious_fractions:
        malicious = np.zeros(config.num_nodes, dtype=bool)
        m = round(p * config.num_nodes)
        if m:
            malicious[rng.choice(config.num_nodes, size=m, replace=False)] = True
        out.append((
            p,
            corruption_fraction(
                malicious[order], table, config.num_tunnels,
                config.tunnel_length,
            ),
        ))
    return out


def run_fig3(
    config: Fig3Config = Fig3Config(), workers: int | None = None
) -> list[dict]:
    partials = run_trials(
        _fig3_trial,
        [(config, rep) for rep in range(config.num_seeds)],
        workers,
    )
    acc: dict[float, list[float]] = {}
    for partial in partials:
        for p, value in partial:
            acc.setdefault(p, []).append(value)

    rows: list[dict] = []
    for p, values in sorted(acc.items()):
        rows.append(
            {
                "figure": "fig3",
                "malicious_fraction": p,
                "scheme": f"tap-k{config.replication_factor}",
                "corrupted_tunnels": float(np.mean(values)),
                "std": float(np.std(values)),
                "expected": tunnel_corruption_prob(
                    p,
                    config.tunnel_length,
                    config.replication_factor,
                    config.num_nodes,
                ),
            }
        )
    return rows
