"""Figure 2: tunnel failure fraction vs node failure fraction.

Series: "current tunneling" (fixed-node paths), TAP k=3, TAP k=5.
Setup (paper §7.1): 10^4 nodes, 5,000 tunnels of length 5; a fraction
p of nodes fails simultaneously; measure the fraction of tunnels that
no longer function.

* current tunneling: a tunnel dies iff any of its l relay nodes died;
* TAP: a hop dies iff its entire replica set died.  A key's object
  survives a *simultaneous* failure iff at least one of its k closest
  original nodes is outside the failed set: the closest survivor is
  then still a member of the original replica set, since every
  original member is closer than any node outside it.

The failure is a mask over the original ring, and the survivor test
reads each key's *original* replica set, so the overlay never fails a
node: the replica table of each k is computed once per repetition and
every failure fraction reads it.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import draw_unique_ids
from repro.analysis.theory import (
    tunnel_failure_prob_current,
    tunnel_failure_prob_tap,
)
from repro.experiments.config import Fig2Config
from repro.experiments.ring import figure_ring
from repro.perf import run_trials
from repro.util.rng import SeedSequenceFactory


def _distinct_relay_matrix(
    n_nodes: int, num_tunnels: int, length: int, rng: np.random.Generator
) -> np.ndarray:
    """(T, l) relay indices, distinct within each tunnel."""
    relays = rng.integers(0, n_nodes, size=(num_tunnels, length))
    for _ in range(64):
        # Resample rows containing duplicates (vanishingly rare for
        # l << sqrt(N); the loop is effectively one pass).
        sorted_rows = np.sort(relays, axis=1)
        dup = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
        if not dup.any():
            return relays
        relays[dup] = rng.integers(0, n_nodes, size=(int(dup.sum()), length))
    raise RuntimeError("could not draw distinct relays (length too close to N?)")


def _fig2_trial(config: Fig2Config, rep: int) -> list[tuple[tuple[float, str], float]]:
    """One Monte-Carlo repetition; the unit of parallel fan-out.

    Draws only from the rep's own labelled stream, so the values are
    identical whether this runs inline or in any worker process.
    """
    rng = SeedSequenceFactory(config.seed).numpy("fig2", rep)
    overlay, _, _ = figure_ring(config.num_nodes, rng)
    total_hops = config.num_tunnels * config.tunnel_length
    hop_keys = draw_unique_ids(total_hops, rng)
    relays = _distinct_relay_matrix(
        config.num_nodes, config.num_tunnels, config.tunnel_length, rng
    )
    tables = {
        k: overlay.replica_positions(hop_keys, np.zeros_like(hop_keys), k)
        for k in config.replication_factors
    }

    out: list[tuple[tuple[float, str], float]] = []
    for p in config.failure_fractions:
        n_failed = round(p * config.num_nodes)
        failed_mask = np.zeros(config.num_nodes, dtype=bool)
        if n_failed:
            failed_mask[
                rng.choice(config.num_nodes, size=n_failed, replace=False)
            ] = True

        cur_failed = failed_mask[relays].any(axis=1).mean()
        out.append(((p, "current"), float(cur_failed)))

        for k, table in tables.items():
            hop_ok = (~failed_mask[table]).any(axis=1)
            tunnels_ok = hop_ok.reshape(
                config.num_tunnels, config.tunnel_length
            ).all(axis=1)
            out.append(((p, f"tap-k{k}"), float(1.0 - tunnels_ok.mean())))
    return out


def run_fig2(
    config: Fig2Config = Fig2Config(), workers: int | None = None
) -> list[dict]:
    """Monte-Carlo rows for every (failure fraction, scheme) point."""
    partials = run_trials(
        _fig2_trial,
        [(config, rep) for rep in range(config.num_seeds)],
        workers,
    )
    acc: dict[tuple[float, str], list[float]] = {}
    for partial in partials:
        for key, value in partial:
            acc.setdefault(key, []).append(value)

    rows: list[dict] = []
    for (p, scheme), values in sorted(acc.items()):
        if scheme == "current":
            expected = tunnel_failure_prob_current(
                p, config.tunnel_length, config.num_nodes
            )
        else:
            k = int(scheme.split("k")[1])
            expected = tunnel_failure_prob_tap(
                p, config.tunnel_length, k, config.num_nodes
            )
        rows.append(
            {
                "figure": "fig2",
                "failed_fraction": p,
                "scheme": scheme,
                "failed_tunnels": float(np.mean(values)),
                "std": float(np.std(values)),
                "expected": expected,
            }
        )
    return rows
