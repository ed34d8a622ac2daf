"""Immutable, picklable overlay captures shared by a sweep's trials.

Building an object overlay is copying its sorted ids (nodes are built
on their first decision), so a trial that needs a fresh system simply
bootstraps one.  What is still worth building once per sweep point is
what a bootstrap does not copy cheaply:

* a PNS build's proximity cell choices (fig6), captured with the ids
  in a :class:`NetworkSnapshot` and shared, never mutated, by every
  network restored from it;
* a :class:`~repro.perf.compact.CompactSnapshot` (scale-latency,
  scale-churn), which also bridges to a :class:`NetworkSnapshot` of
  its ids (:meth:`~repro.perf.compact.CompactOverlay.to_network_snapshot`).

:func:`base_snapshot` is the one lookup a trial makes for its base;
``run_trials(shared=...)`` ships the bases to worker processes.
"""

from __future__ import annotations

from typing import Callable

from repro.pastry.network import PastryNetwork
from repro.perf.parallel import shared_payload


class NetworkSnapshot:
    """Immutable, picklable capture of a :class:`PastryNetwork`: its
    sorted alive ids and down ids, and the built-once PNS cell choices
    (shared, never mutated)."""

    __slots__ = (
        "b_bits", "leaf_set_size", "membership_epoch",
        "sorted_alive", "dead", "pns_cells",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @classmethod
    def capture(cls, network: PastryNetwork) -> "NetworkSnapshot":
        return cls(
            b_bits=network.b_bits,
            leaf_set_size=network.leaf_set_size,
            membership_epoch=network.membership_epoch,
            sorted_alive=tuple(network.alive_ids),
            dead=frozenset(network.down_ids),
            pns_cells=network.pns_cells,
        )

    def restore(self, metrics=None, tracer=None) -> PastryNetwork:
        """An independent network resuming from the captured state."""
        net = PastryNetwork(
            b_bits=self.b_bits,
            leaf_set_size=self.leaf_set_size,
            metrics=metrics,
            tracer=tracer,
        )
        net._sorted_alive = list(self.sorted_alive)
        net._down = set(self.dead)
        net.membership_epoch = self.membership_epoch
        net.pns_cells = self.pns_cells
        return net


#: Process-local snapshot memo for :func:`base_snapshot`; bounded and
#: cleared wholesale (snapshots are large, tokens few).
_SNAPSHOT_CACHE: dict = {}
_SNAPSHOT_CACHE_LIMIT = 16


def base_snapshot(token, build: Callable[[], object]):
    """The base snapshot for ``token``: from the enclosing
    :func:`~repro.perf.parallel.run_trials` payload when it carries
    one, else built once per process and cached.

    Runners key the token by everything that determines the base
    overlay (seed, size, topology knobs); serial reps, same-process
    workers and every trial of a fan-out then share one build per
    distinct base, and trials stay callable outside ``run_trials``.
    """
    payload = shared_payload()
    if payload and token in payload:
        return payload[token]
    snap = _SNAPSHOT_CACHE.get(token)
    if snap is None:
        if len(_SNAPSHOT_CACHE) >= _SNAPSHOT_CACHE_LIMIT:
            _SNAPSHOT_CACHE.clear()
        snap = _SNAPSHOT_CACHE[token] = build()
    return snap
