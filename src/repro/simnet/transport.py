"""Store-and-forward transfer time over a topology path.

Every relay receives the complete message before forwarding it:
``sum(latency_i) + hops * size/bandwidth``.  This matches a Java
emulation that sends whole application messages hop by hop (the
paper's setting, §7.3), and is the Figure-6 model.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.simnet.topology import Topology


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
    one-way ``latencies``, in path order (summed in that order, as
    :meth:`Topology.path_latency` does); no link costs zero."""
    hops = len(latencies)
    if hops == 0:
        return 0.0
    return sum(latencies) + hops * serialization_delay(size_bits, bandwidth_bps)


def path_transfer_time(topology: Topology, path: list[int], size_bits: float) -> float:
    """End-to-end time to move ``size_bits`` along ``path``.

    ``path`` lists node addresses including source and destination; a
    single-element path (already there) costs zero.
    """
    if not path:
        raise ValueError("path must contain at least the source")
    return store_and_forward(
        [topology.latency(u, v) for u, v in zip(path, path[1:])],
        size_bits, topology.bandwidth_bps,
    )
