"""Closed-form expectations for TAP's failure/corruption behaviour.

These are the analytic counterparts of the paper's simulations, used
to cross-check Monte-Carlo results in the test-suite and to annotate
benchmark output with expected values.

Model: N nodes, a uniformly random subset of size ``round(p*N)`` is
failed (or malicious); each tunnel has ``l`` hops with independent
uniformly-placed hopids, each replicated on ``k`` nodes.  Because the
k-closest sets of independent uniform keys are (asymptotically)
independent uniform k-subsets, hop events are hypergeometric.

The exact (``n_nodes=``) forms count with integer binomials and divide
once, so each hypergeometric ratio is the correctly rounded float of
the exact fraction; "at least one" is one minus such a ratio.
"""

from __future__ import annotations

import math
from numbers import Integral


def _hyper_all_in_subset(n_total: int, n_subset: int, k: int) -> float:
    """P(all k draws land in the marked subset), without replacement."""
    return math.comb(n_subset, k) / math.comb(n_total, k)


def _hyper_any_in_subset(n_total: int, n_subset: int, k: int) -> float:
    """P(at least one of k draws is in the marked subset): one minus
    the chance that all k land in its complement."""
    return 1.0 - _hyper_all_in_subset(n_total, n_total - n_subset, k)


def tunnel_failure_prob_current(p: float, length: int, n_nodes: int | None = None) -> float:
    """Current tunneling: a fixed-node tunnel fails iff any relay fails.

    ``1 - (1-p)^l`` asymptotically; with ``n_nodes`` the exact
    without-replacement form is used.
    """
    _check(p, length)
    if n_nodes is None:
        return 1.0 - (1.0 - p) ** length
    n = _population(n_nodes, length=length)
    return _hyper_any_in_subset(n, round(p * n), length)


def tunnel_failure_prob_tap(
    p: float, length: int, k: int, n_nodes: int | None = None
) -> float:
    """TAP: a hop fails iff *all k* replicas fail → ``1 - (1 - p^k)^l``."""
    _check(p, length)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_nodes is None:
        hop_fail = p**k
    else:
        n = _population(n_nodes, length=length, k=k)
        hop_fail = _hyper_all_in_subset(n, round(p * n), k)
    return 1.0 - (1.0 - hop_fail) ** length


def tha_disclosure_prob(p: float, k: int, n_nodes: int | None = None) -> float:
    """P(adversary learns one THA) = P(any of k holders malicious)."""
    _check(p, 1)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_nodes is None:
        return 1.0 - (1.0 - p) ** k
    n = _population(n_nodes, k=k)
    return _hyper_any_in_subset(n, round(p * n), k)


def tunnel_corruption_prob(
    p: float, length: int, k: int, n_nodes: int | None = None
) -> float:
    """Case-1 corruption (§6): adversary knows *all* hops' THAs."""
    _check(p, length)
    if n_nodes is not None:
        _population(n_nodes, length=length)
    return tha_disclosure_prob(p, k, n_nodes) ** length


def expected_route_hops(n_nodes: int, b_bits: int = 4) -> float:
    """Pastry's ``log_{2^b} N`` expected overlay route length."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if n_nodes == 1:
        return 0.0
    return math.log(n_nodes, 2**b_bits)


def _check(p: float, length: int) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fraction p={p} outside [0, 1]")
    if length < 1:
        raise ValueError("tunnel length must be >= 1")


def _population(n_nodes, length: int = 1, k: int = 1) -> int:
    """``n_nodes`` as an int, once it can hold a tunnel of ``length``
    distinct relays and a replica set of ``k`` distinct holders."""
    if not isinstance(n_nodes, Integral) or n_nodes < 1:
        raise ValueError(f"n_nodes={n_nodes!r} must be an integer >= 1")
    if length > n_nodes:
        raise ValueError(f"tunnel length {length} exceeds n_nodes={n_nodes}")
    if k > n_nodes:
        raise ValueError(f"k={k} exceeds n_nodes={n_nodes}")
    return int(n_nodes)
