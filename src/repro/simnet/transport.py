"""Store-and-forward transfer time over a topology path.

Every relay receives the complete message before forwarding it:
``sum(latency_i) + hops * size/bandwidth``.  This matches a Java
emulation that sends whole application messages hop by hop (the
paper's setting, §7.3), and is the Figure-6 model.
"""

from __future__ import annotations

from collections.abc import Sequence


def serialization_delay(size_bits: float, bandwidth_bps: float) -> float:
    """Time to push ``size_bits`` onto a ``bandwidth_bps`` link."""
    if size_bits < 0:
        raise ValueError("size must be non-negative")
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    return size_bits / bandwidth_bps


def store_and_forward(
    latencies: Sequence[float], size_bits: float, bandwidth_bps: float
) -> float:
    """Time to move ``size_bits`` whole over links with the given
    one-way ``latencies``, summed in path order; no link costs zero."""
    hops = len(latencies)
    if hops == 0:
        return 0.0
    return sum(latencies) + hops * serialization_delay(size_bits, bandwidth_bps)
