"""Analysis layer: vectorised Monte-Carlo model, metrics, closed forms.

* :mod:`repro.analysis.idspace` — exact 128-bit NumPy kernels of the
  id ring, computing the same replica-set mapping as :mod:`repro.past`
  for the compact overlay and the paper's 10^4-node, 5,000-tunnel
  experiments;
* :mod:`repro.analysis.anonymity` — anonymity metrics from §6
  (responder guess probability, predecessor confidence, anonymity-set
  entropy / degree of anonymity);
* :mod:`repro.analysis.theory` — closed-form expectations used to
  cross-check the simulations (tunnel failure and corruption
  probabilities, expected route lengths).
"""

from repro.analysis.anonymity import (
    responder_guess_probability,
    predecessor_confidence,
    anonymity_set_entropy,
    degree_of_anonymity,
)
from repro.analysis.theory import (
    tunnel_failure_prob_current,
    tunnel_failure_prob_tap,
    tha_disclosure_prob,
    tunnel_corruption_prob,
    expected_route_hops,
)

__all__ = [
    "responder_guess_probability",
    "predecessor_confidence",
    "anonymity_set_entropy",
    "degree_of_anonymity",
    "tunnel_failure_prob_current",
    "tunnel_failure_prob_tap",
    "tha_disclosure_prob",
    "tunnel_corruption_prob",
    "expected_route_hops",
]
