"""The figure sweeps' population: uniform 64-bit ids on a compact overlay.

Figures 2–5 and the ablations ask *which k nodes are numerically
closest to which keys* under failures, collusion and churn, and
packet-level routing never enters the measured quantity.  Each runner
holds its ring as a :class:`repro.perf.compact.CompactOverlay` whose
ids are 64-bit draws carried as the high word over a zero low word,
i.e. as the 128-bit id ``x << 64``.  That keeps ring order and ties and
scales every distance by 2^64, so its replica sets are the exact
128-bit rankings of those ids; keys are high words the same way, so a
runner asks ``overlay.replica_positions(keys, np.zeros_like(keys), k)``.

Per-node attributes (``malicious``) are the experiment's own boolean
arrays, aligned with the overlay's global positions.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.idspace import _draw_unique
from repro.perf.compact import CompactOverlay


def figure_ring(
    num_nodes: int,
    rng: np.random.Generator,
    malicious_fraction: float = 0.0,
) -> tuple[CompactOverlay, np.ndarray, np.ndarray]:
    """``(overlay, malicious, order)`` over ``num_nodes`` uniform ids.

    Exactly ``round(p*N)`` nodes are flagged malicious, chosen in draw
    order and returned aligned with the overlay's positions.  ``order``
    is the draw→ring permutation: a sweep that redraws flags in draw
    order aligns them as ``flags[order]``.  The ring adopts the sort
    the draw's last duplicate check made, so the ids are sorted once.
    """
    ids, order, ranked = _draw_unique(num_nodes, rng)
    malicious = np.zeros(num_nodes, dtype=bool)
    m = int(round(malicious_fraction * num_nodes))
    if m > 0:
        malicious[rng.choice(num_nodes, size=m, replace=False)] = True
    overlay = CompactOverlay(
        ranked, np.zeros_like(ranked), np.ones(num_nodes, dtype=bool)
    )
    return overlay, malicious[order], order

