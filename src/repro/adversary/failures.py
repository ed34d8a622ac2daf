"""Does a tunnel survive simultaneous node failure (Figure 2's scenario)?

"We consider a 10^4 node network that forms 5,000 tunnels, and
randomly choose a fraction p of nodes that fail/leave.  After node
failures/leaves, we measure the fraction of tunnels that could not
function."  The failures are *simultaneous*: no repair runs in
between, so an object is lost iff its entire replica set is inside
the failed set.  :func:`tunnel_functions` answers that for one tunnel
of a live :class:`~repro.core.system.TapSystem`; the paper-scale
Figure 2 runs on a compact overlay (:mod:`repro.experiments.ring`).
"""

from __future__ import annotations


def tunnel_functions(system, tunnel) -> bool:
    """Does a tunnel still function after failures (object-level)?

    Each hop functions iff some live node holds its THA *and* that
    node is the one routing reaches (the closest alive).  Mirrors what
    :class:`repro.core.forwarding.TunnelForwarder` would discover, but
    without cryptographic traversal — used for bulk measurements.
    """
    for tha in tunnel.hops:
        holders = [
            h for h in system.store.holders(tha.hop_id)
            if system.network.is_alive(h)
        ]
        if not holders:
            return False
        root = system.network.closest_alive(tha.hop_id)
        if root not in holders:
            # The node routing reaches has no replica: the anchor is
            # unreachable even though stale copies exist elsewhere.
            return False
    return True
