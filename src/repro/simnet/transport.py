"""Transfer-time models over a topology path.

Two classic models are provided:

* ``STORE_AND_FORWARD`` — every relay receives the complete message
  before forwarding it: ``sum(latency_i) + hops * size/bandwidth``.
  This matches a Java emulation that sends whole application messages
  hop by hop (the paper's setting), and is the Figure-6 default.
* ``PIPELINED`` — the message is cut into chunks that stream through
  the path (cut-through at chunk granularity):
  ``sum(latency_i) + size/bandwidth + (hops-1) * chunk/bandwidth``.
"""

from __future__ import annotations

from enum import Enum

from repro.simnet.topology import Topology


class TransferModel(Enum):
    STORE_AND_FORWARD = "store-and-forward"
    PIPELINED = "pipelined"


DEFAULT_CHUNK_BITS = 8 * 1024 * 8  # 8 KiB chunks for the pipelined model


def serialization_delay(size_bits: float, bandwidth_bps: float) -> float:
    """Time to push ``size_bits`` onto a ``bandwidth_bps`` link."""
    if size_bits < 0:
        raise ValueError("size must be non-negative")
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    return size_bits / bandwidth_bps


def path_transfer_time(
    topology: Topology,
    path: list[int],
    size_bits: float,
    model: TransferModel = TransferModel.STORE_AND_FORWARD,
    chunk_bits: float = DEFAULT_CHUNK_BITS,
) -> float:
    """End-to-end time to move ``size_bits`` along ``path``.

    ``path`` lists node addresses including source and destination; a
    single-element path (already there) costs zero.
    """
    if not path:
        raise ValueError("path must contain at least the source")
    hops = len(path) - 1
    if hops == 0:
        return 0.0
    propagation = topology.path_latency(path)
    serial = serialization_delay(size_bits, topology.bandwidth_bps)
    if model is TransferModel.STORE_AND_FORWARD:
        return propagation + hops * serial
    if model is TransferModel.PIPELINED:
        if chunk_bits <= 0:
            raise ValueError("chunk size must be positive")
        chunk = min(chunk_bits, size_bits) if size_bits > 0 else 0.0
        chunk_serial = serialization_delay(chunk, topology.bandwidth_bps)
        return propagation + serial + (hops - 1) * chunk_serial
    raise ValueError(f"unknown transfer model {model!r}")
