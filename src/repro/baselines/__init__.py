"""Baselines the paper compares against.

* :mod:`repro.baselines.fixed_tunnel` — "current tunneling": a mix
  path bound to l concrete nodes (Crowds/Tarzan/MorphMix style), which
  fails as soon as any relay fails (Figure 2's baseline);
* :mod:`repro.baselines.crowds` — Crowds with the predecessor attack,
  for the §8 anonymity comparison.

The §3.3 onion-routing bootstrap is not a baseline: it is TAP's own
deployment path, :class:`repro.core.deploy.ThaDeployer`.
"""

from repro.baselines.fixed_tunnel import FixedNodeTunnel, form_fixed_tunnel

__all__ = [
    "FixedNodeTunnel",
    "form_fixed_tunnel",
]
