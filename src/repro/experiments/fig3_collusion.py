"""Figure 3: corrupted tunnel fraction vs malicious node fraction.

Setup (paper §7.2): 10^4 nodes, 5,000 tunnels of length 5, k = 3; a
fraction p of nodes is malicious and colluding.  A THA is disclosed
iff any node of its replica set is malicious; a tunnel is corrupted
(attack case 1, §6) iff *all* of its hops' THAs are disclosed.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import IdSpaceModel
from repro.analysis.theory import tunnel_corruption_prob
from repro.experiments.config import Fig3Config
from repro.perf import run_trials
from repro.util.rng import SeedSequenceFactory


def corruption_fraction(
    model: IdSpaceModel,
    hop_keys: np.ndarray,
    num_tunnels: int,
    tunnel_length: int,
    k: int,
) -> float:
    """Fraction of tunnels whose every hop's THA is disclosed."""
    disclosed = model.any_malicious_holder(hop_keys, k)
    corrupted = disclosed.reshape(num_tunnels, tunnel_length).all(axis=1)
    return float(corrupted.mean())


def _fig3_trial(config: Fig3Config, rep: int) -> list[tuple[float, float]]:
    """One repetition: ``(malicious fraction, corruption)`` pairs."""
    rng = SeedSequenceFactory(config.seed).numpy("fig3", rep)
    # One model per repetition: only the malicious flags vary across
    # the sweep, so the sorted population (and the replica_indices
    # memo keyed on it) is shared by every p — reassigning the flags
    # through sort_order is exactly what re-constructing would compute.
    # At fraction 0 `random` draws only the ids, and it adopts the sort
    # its duplicate check already made.
    model = IdSpaceModel.random(config.num_nodes, rng)
    hop_keys = IdSpaceModel.draw_unique_ids(
        config.num_tunnels * config.tunnel_length, rng
    )
    out: list[tuple[float, float]] = []
    for p in config.malicious_fractions:
        malicious = np.zeros(config.num_nodes, dtype=bool)
        m = round(p * config.num_nodes)
        if m:
            malicious[rng.choice(config.num_nodes, size=m, replace=False)] = True
        model.malicious = malicious[model.sort_order]
        out.append(
            (
                p,
                corruption_fraction(
                    model,
                    hop_keys,
                    config.num_tunnels,
                    config.tunnel_length,
                    config.replication_factor,
                ),
            )
        )
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
