"""Adversary and failure models (paper §6–§7).

* :mod:`repro.adversary.failures` — ``tunnel_functions``, the
  object-level "does this tunnel still work" predicate for Figure 2's
  simultaneous failures;
* :mod:`repro.adversary.collusion` — colluding malicious nodes that
  pool every THA replicated onto any of them (Figs 3–5);
* :mod:`repro.adversary.timing` — §6 case-2 end-to-end timing analysis
  on the emulation.

The paper-scale figures (2–5, churn included) run on a compact
overlay (:mod:`repro.experiments.ring`) from
:mod:`repro.experiments`; the models here operate on a live
:class:`~repro.core.system.TapSystem`.
"""

from repro.adversary.collusion import ColludingAdversary

__all__ = ["ColludingAdversary"]
