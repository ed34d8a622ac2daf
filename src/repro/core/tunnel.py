"""Tunnels: ordered sequences of deployed THAs (§3.5, §4).

Forming a tunnel selects already-deployed anchors whose hopids
*scatter* across the id space — distinct leading digits — so that no
single node is likely to hold (replicas of) several hops of the same
tunnel.  Reply tunnels additionally carry a ``bid`` whose numerically
closest node is the initiator, plus a ``fakeonion`` so the tail hop
cannot recognise itself as last (§4).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.tha import OwnedTha
from repro.crypto.onion import OnionLayer, build_reply_onion, make_fake_onion
from repro.util.ids import id_digit


class TunnelFormationError(RuntimeError):
    """Raised when not enough suitable THAs are available."""


@dataclass
class Tunnel:
    """A forward (request) tunnel: first hop first.

    ``hint_ips`` optionally records the believed IP of each hop's
    tunnel hop node for the §5 optimisation (parallel list, ``None``
    entries mean no hint).  A tunnel is never mutated once formed — a
    broken one is replaced — so what every message needs of it
    (:meth:`onion_layers`, :attr:`formed_roots`) is derived once.
    """

    hops: list[OwnedTha]
    hint_ips: list[str | None] = field(default_factory=list)
    formed_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.hops:
            raise TunnelFormationError("a tunnel needs at least one hop")
        if not self.hint_ips:
            self.hint_ips = [None] * len(self.hops)
        if len(self.hint_ips) != len(self.hops):
            raise ValueError("hint_ips must parallel hops")

    @property
    def length(self) -> int:
        return len(self.hops)

    @property
    def hop_ids(self) -> list[int]:
        return [h.hop_id for h in self.hops]

    @cached_property
    def _layers(self) -> list[OnionLayer]:
        return [
            OnionLayer(h.hop_id, h.anchor.key, ip or "")
            for h, ip in zip(self.hops, self.hint_ips)
        ]

    def onion_layers(self) -> list[OnionLayer]:
        """Per-hop layer descriptors for :func:`repro.crypto.onion.build_onion`
        (one shared list per tunnel — read-only)."""
        return self._layers

    @cached_property
    def formed_roots(self) -> dict[int, int | None]:
        """hopid -> the replica root recorded when the hop was claimed
        (``None`` for anchors not claimed through ``TapSystem``); a hop
        served by any other node has failed over."""
        return {h.hop_id: h.meta.get("formed_root") for h in self.hops}

    def span_attrs(self) -> dict:
        """Structure attributes for the traversal's root span — shape
        only (length, hint coverage), never hop identities."""
        return {
            "tunnel_length": self.length,
            "hinted_hops": sum(1 for ip in self.hint_ips if ip),
        }


@dataclass
class ReplyTunnel(Tunnel):
    """A reply tunnel ``T_r``; ``bid`` routes the last leg back to the
    initiator (the initiator's own node must be numerically closest to
    ``bid``)."""

    bid: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bid == 0:
            raise ValueError("ReplyTunnel requires a bid")

    def capsule(self, rng: random.Random) -> tuple[int, bytes]:
        """What a responder is handed to answer with (§4): ``(first hop
        id, blob)`` — the entry hop in the clear, and the onion whose
        innermost layer reveals ``bid`` plus a fresh fakeonion drawn
        from ``rng``, so the tail cannot tell it is last."""
        return build_reply_onion(
            self.onion_layers(), self.bid, make_fake_onion(rng)
        )


def select_scattered(
    candidates: list[OwnedTha],
    length: int,
    rng: random.Random,
    b_bits: int = 4,
    scatter_digits: int = 1,
) -> list[OwnedTha]:
    """Pick ``length`` deployed THAs with scattered hopid prefixes (§3.5).

    Anchors are grouped by their leading ``scatter_digits`` digits and
    the selection draws from distinct groups whenever possible,
    relaxing the constraint only when there are fewer groups than
    requested hops (small candidate pools).  Raises
    :class:`TunnelFormationError` if fewer than ``length`` deployed
    candidates exist at all.
    """
    pool = [t for t in candidates if t.deployed and not t.in_use]
    if len(pool) < length:
        raise TunnelFormationError(
            f"need {length} deployed unused THAs, have {len(pool)}"
        )

    def prefix(t: OwnedTha) -> tuple[int, ...]:
        return tuple(id_digit(t.hop_id, r, b_bits) for r in range(scatter_digits))

    groups: dict[tuple[int, ...], list[OwnedTha]] = {}
    for tha in pool:
        groups.setdefault(prefix(tha), []).append(tha)
    group_keys = list(groups)
    rng.shuffle(group_keys)

    chosen: list[OwnedTha] = []
    # Round-robin over prefix groups: one anchor per distinct prefix
    # first, then wrap around for the remainder.
    for _round in itertools.count():
        progressed = False
        for gk in group_keys:
            bucket = groups[gk]
            if _round < len(bucket):
                chosen.append(bucket[_round])
                progressed = True
                if len(chosen) == length:
                    rng.shuffle(chosen)
                    return chosen
        if not progressed:  # pragma: no cover - len(pool) >= length guards this
            raise TunnelFormationError("exhausted THA groups")
    raise AssertionError("unreachable")
