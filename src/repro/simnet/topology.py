"""Link latency/bandwidth models.

The paper: "Each link in the network had a random latency from 10 ms to
230 ms, randomly selected in a fashion that approximates an Internet
network [14].  All links had a simulated bandwidth of 1.5 Mb/s."

Storing an all-pairs latency table for 10^4 nodes would need 10^8
entries, so latencies are derived on demand from a keyed hash of the
(unordered) endpoint pair: O(1) memory, symmetric, and deterministic
for a given topology seed — the same idiom the HPC guides recommend
(compute over tabulate when the computation is cheap).
"""

from __future__ import annotations

import hashlib

DEFAULT_MIN_LATENCY_S = 0.010
DEFAULT_MAX_LATENCY_S = 0.230
DEFAULT_BANDWIDTH_BPS = 1_500_000.0  # 1.5 Mb/s, as in the paper


class Topology:
    """Opaque int node addresses (the reproduction uses Pastry nodeids),
    one bandwidth for every link, and a uniform per-pair latency.

    A 64-bit hash of ``(seed, min(a,b), max(a,b))`` is mapped to
    ``[min_latency_s, max_latency_s]``, so ``latency(a, b) ==
    latency(b, a)`` and draws for distinct pairs are independent to
    hash quality.
    """

    def __init__(
        self,
        seed: int,
        min_latency_s: float = DEFAULT_MIN_LATENCY_S,
        max_latency_s: float = DEFAULT_MAX_LATENCY_S,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if min_latency_s < 0 or max_latency_s < min_latency_s:
            raise ValueError("need 0 <= min_latency <= max_latency")
        self.seed = int(seed)
        self.min_latency_s = float(min_latency_s)
        self.max_latency_s = float(max_latency_s)
        self.bandwidth_bps = float(bandwidth_bps)

    def latency(self, a: int, b: int) -> float:
        """One-way propagation delay between two addresses (seconds)."""
        if a == b:
            return 0.0
        lo, hi = (a, b) if a <= b else (b, a)
        digest = hashlib.sha256(
            b"link" + self.seed.to_bytes(8, "big")
            + lo.to_bytes(16, "big") + hi.to_bytes(16, "big")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return self.min_latency_s + unit * (self.max_latency_s - self.min_latency_s)
