"""Figure 5: corruption over time under churn, refreshed vs unrefreshed.

Setup (paper §7.2): k = 3, p = 0.1 held constant; per time unit 100
benign nodes leave and 100 fresh benign nodes join.  Malicious nodes
never leave and inherit replicas vacated by departures, so their THA
knowledge is *monotone*:

* ``unrefreshed`` — the original 5,000 tunnels are kept; corruption
  accumulates (every unit a few more anchors fall into malicious
  replica sets, permanently);
* ``refreshed`` — 5,000 *new* tunnels (fresh anchors) replace the old
  ones each unit; only current replica sets matter, so the corruption
  rate stays at the static Figure-3 level.

Knowledge bookkeeping: after each churn batch the replica set of every
anchor is recomputed on the current population; an anchor whose set
now contains a malicious node has been handed a replica (the repair
traffic) and is disclosed forever.  This is exactly the aggregate
behaviour of :meth:`repro.past.ReplicatedStore.on_fail`/``on_join``,
which the tests cross-validate at small scale.

The population is a compact overlay (:mod:`repro.experiments.ring`):
departures are ``fail_positions`` and arrivals ``join``.  A departed
node keeps its slot as a tombstone, so the arrays grow by
``churn_per_unit`` a unit (10^4 + 20 × 100 positions at paper scale).
The malicious flags follow each join (:func:`churn_unit`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import draw_unique_ids
from repro.analysis.theory import tunnel_corruption_prob
from repro.experiments.config import Fig5Config
from repro.experiments.ring import figure_ring
from repro.perf import run_trials
from repro.perf.compact import CompactOverlay
from repro.util.rng import SeedSequenceFactory


def _corrupted_fraction(known_hops: np.ndarray, num_tunnels: int, length: int) -> float:
    return float(known_hops.reshape(num_tunnels, length).all(axis=1).mean())


def churn_unit(
    overlay: CompactOverlay, malicious: np.ndarray, churn: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One time unit: ``churn`` benign nodes leave, then ``churn`` fresh
    benign nodes join.  Returns ``malicious`` realigned with the
    overlay's positions after the join's merge.

    The departures are drawn from the alive benign positions in ring
    order.  Malicious nodes never leave, so their high words find
    their new positions.
    """
    benign = np.flatnonzero(overlay.alive & ~malicious)
    overlay.fail_positions(
        rng.choice(benign, size=min(churn, len(benign)), replace=False)
    )
    malicious_hi = overlay.hi[malicious]
    overlay.join(int(x) << 64 for x in draw_unique_ids(churn, rng))
    flags = np.zeros(overlay.size, dtype=bool)
    flags[np.searchsorted(overlay.hi, malicious_hi)] = True
    return flags


def _fig5_trial(config: Fig5Config, rep: int) -> list[tuple[tuple[int, str], float]]:
    """One churn timeline: ``((time, scheme), corruption)`` points."""
    total_hops = config.num_tunnels * config.tunnel_length
    k = config.replication_factor
    rng = SeedSequenceFactory(config.seed).numpy("fig5", rep)
    overlay, malicious, _ = figure_ring(
        config.num_nodes, rng, config.malicious_fraction
    )
    static_keys = draw_unique_ids(total_hops, rng)
    zeros = np.zeros_like(static_keys)
    static_table = overlay.replica_positions(static_keys, zeros, k)
    known = malicious[static_table].any(axis=1)

    out: list[tuple[tuple[int, str], float]] = []
    start = _corrupted_fraction(known, config.num_tunnels, config.tunnel_length)
    out.append(((0, "unrefreshed"), start))
    out.append(((0, "refreshed"), start))

    for t in range(1, config.time_units + 1):
        # Benign leave then benign join (p restored each unit).
        malicious = churn_unit(overlay, malicious, config.churn_per_unit, rng)

        # Unrefreshed: knowledge accumulates monotonically.  Each table
        # stays bound until the next unit's replaces it (see
        # CompactOverlay.replica_positions).
        static_table = overlay.replica_positions(static_keys, zeros, k)
        known |= malicious[static_table].any(axis=1)
        out.append((
            (t, "unrefreshed"),
            _corrupted_fraction(known, config.num_tunnels, config.tunnel_length),
        ))

        # Refreshed: brand-new anchors; only the current state counts.
        fresh_keys = draw_unique_ids(total_hops, rng)
        fresh_table = overlay.replica_positions(fresh_keys, zeros, k)
        fresh_known = malicious[fresh_table].any(axis=1)
        out.append((
            (t, "refreshed"),
            _corrupted_fraction(fresh_known, config.num_tunnels, config.tunnel_length),
        ))
    return out


def run_fig5(
    config: Fig5Config = Fig5Config(), workers: int | None = None
) -> list[dict]:
    partials = run_trials(
        _fig5_trial,
        [(config, rep) for rep in range(config.num_seeds)],
        workers,
    )
    per_time: dict[tuple[int, str], list[float]] = {}
    for partial in partials:
        for key, value in partial:
            per_time.setdefault(key, []).append(value)

    static_expectation = tunnel_corruption_prob(
        config.malicious_fraction,
        config.tunnel_length,
        config.replication_factor,
        config.num_nodes,
    )
    rows: list[dict] = []
    for (t, scheme), values in sorted(per_time.items()):
        rows.append(
            {
                "figure": "fig5",
                "time": t,
                "scheme": scheme,
                "corrupted_tunnels": float(np.mean(values)),
                "std": float(np.std(values)),
                "static_expected": static_expectation,
            }
        )
    return rows
