"""Repair accounting shared by both PAST backends.

:class:`repro.past.replication.ReplicatedStore` (plain k-copy) and
:class:`repro.past.erasure.ErasureStore` (k-of-n coded shares) charge
every replica/share movement in bytes (:func:`value_nbytes`) and
convert it into a *virtual* repair latency at the nominal link
bandwidth the paper's Figure 6 simulates (:data:`REPAIR_BANDWIDTH_BPS`)
— virtual rather than wall-clock so merged metrics registries stay
byte-identical for any ``--workers`` value.
"""

from __future__ import annotations

from typing import Any

#: Nominal link bandwidth used to convert repair bytes into a virtual
#: repair latency (the paper's 1.5 Mb/s transfer model, §4.3).  Both
#: backends observe ``<prefix>.repair.latency_s`` histograms in these
#: virtual seconds, so the k-copy baseline and the erasure backend
#: report directly comparable repair-bandwidth indicators.
REPAIR_BANDWIDTH_BPS = 1_500_000.0


def value_nbytes(value: Any) -> int:
    """Size of one stored value in bytes, for repair accounting.

    Exact for the byte strings every runner stores; any other payload
    is charged at the size of its canonical text rendering, which is
    deterministic (no ids / addresses leak into ``repr`` for the plain
    values used here).
    """
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return len(repr(value).encode("utf-8"))


def repair_latency_s(nbytes: int) -> float:
    """Virtual seconds to move ``nbytes`` at the nominal bandwidth."""
    return (8.0 * nbytes) / REPAIR_BANDWIDTH_BPS
