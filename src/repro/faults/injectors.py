"""Deterministic fault injectors for both execution engines.

Two adapters share one vocabulary of faults:

* :class:`SyncFaultInjector` hooks the synchronous engine
  (:class:`repro.core.forwarding.TunnelForwarder`): per-message drop
  and corruption sampled on seeded streams, heal-able network
  partitions checked per overlay leg, and Byzantine hop behaviours
  (swallow the onion, corrupt a layer, serve a stale THA).
* :class:`SimNetFaultInjector` hooks the discrete-event fabric
  (:class:`repro.simnet.network.SimNetwork`): per-physical-message
  drop, extra delay, duplication, reordering (modelled as holding a
  message back past its successors) and payload corruption.

All sampling draws from :mod:`repro.util.rng` child streams, so a
chaos run with a fixed seed replays bit-identically; every injected
fault is counted and (optionally) recorded into a
:class:`repro.obs.EventTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import SeedSequenceFactory

#: Byzantine hop behaviours (tentpole: "drop or corrupt an onion
#: layer, serve a stale THA")
BYZANTINE_BEHAVIORS = ("drop-layer", "corrupt-layer", "stale-tha")


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class MessageFaultSpec:
    """Per-message fault probabilities (one logical message = one
    tunnel traversal in the synchronous engine, one physical send in
    the simnet fabric)."""

    drop: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    #: injected extra latency when a message is delayed
    delay_s: float = 0.05
    duplicate: float = 0.0
    reorder: float = 0.0
    #: hold-back applied to reordered messages (simnet layer)
    reorder_s: float = 0.02

    def __post_init__(self) -> None:
        for name in ("drop", "corrupt", "delay", "duplicate", "reorder"):
            _check_prob(name, getattr(self, name))
        if self.delay_s < 0 or self.reorder_s < 0:
            raise ValueError("injected delays must be >= 0")

    def any(self) -> bool:
        return any((self.drop, self.corrupt, self.delay,
                    self.duplicate, self.reorder))


@dataclass(frozen=True)
class ByzantineSpec:
    """A fraction of hop nodes misbehave, cycling through behaviours."""

    fraction: float = 0.0
    behaviors: tuple[str, ...] = BYZANTINE_BEHAVIORS

    def __post_init__(self) -> None:
        _check_prob("fraction", self.fraction)
        bad = set(self.behaviors) - set(BYZANTINE_BEHAVIORS)
        if bad:
            raise ValueError(f"unknown byzantine behaviors: {sorted(bad)}")
        if not self.behaviors:
            raise ValueError("byzantine behaviors must not be empty")


@dataclass
class MessageFault:
    """Per-message verdict for one synchronous tunnel traversal."""

    drop_at: int | None = None
    corrupt_at: int | None = None
    delay_s: float = 0.0

    @property
    def active(self) -> bool:
        return (self.drop_at is not None or self.corrupt_at is not None
                or self.delay_s > 0.0)


class _FaultCounters:
    """Shared bookkeeping: counts + optional obs plumbing."""

    def __init__(self, event_trace=None, metrics=None):
        self.counts: dict[str, int] = {}
        self.event_trace = event_trace
        self.metrics = metrics

    def note(self, what: str, **fields) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1
        if self.event_trace is not None:
            # ``kind`` is EventTrace.record's positional parameter;
            # remap the message-kind field so both can coexist.
            if "kind" in fields:
                fields["message"] = fields.pop("kind")
            self.event_trace.record(f"fault.{what}", **fields)
        if self.metrics is not None:
            self.metrics.counter(f"faults.{what}").inc()


class SyncFaultInjector(_FaultCounters):
    """Fault oracle consulted by the synchronous forwarding engine."""

    def __init__(
        self,
        spec: MessageFaultSpec | None = None,
        byzantine: ByzantineSpec | None = None,
        seeds: SeedSequenceFactory | None = None,
        event_trace=None,
        metrics=None,
    ):
        super().__init__(event_trace, metrics)
        self.spec = spec or MessageFaultSpec()
        self.byzantine = byzantine
        seeds = seeds or SeedSequenceFactory(0)
        self._msg_rng = seeds.pyrandom("messages")
        self._byz_rng = seeds.pyrandom("byzantine")
        #: node id -> behaviour for the misbehaving hop population
        self.byzantine_nodes: dict[int, str] = {}
        #: currently isolated node set (None = no partition)
        self._isolated: frozenset[int] | None = None
        #: virtual latency injected into sync traversals (reported,
        #: since the synchronous engine has no clock to charge it to)
        self.injected_delay_s = 0.0

    # -- partitions ----------------------------------------------------
    def set_partition(self, isolated) -> None:
        """Split the network: ``isolated`` cannot exchange messages
        with the rest until :meth:`heal_partition`."""
        self._isolated = frozenset(isolated)
        self.note("partition.split", size=len(self._isolated))

    def heal_partition(self) -> None:
        if self._isolated is not None:
            self.note("partition.heal", size=len(self._isolated))
        self._isolated = None

    def check_leg(self, src: int, dst: int) -> str | None:
        """Partition verdict for one overlay leg (None = deliverable)."""
        iso = self._isolated
        if iso is not None and (src in iso) != (dst in iso):
            self.note("partition.drop", src=src, dst=dst)
            return "partitioned link"
        return None

    # -- byzantine population ------------------------------------------
    def assign_byzantine(self, node_ids) -> dict[int, str]:
        """Deterministically flip a fraction of ``node_ids`` Byzantine."""
        self.byzantine_nodes.clear()
        if self.byzantine is None or self.byzantine.fraction <= 0.0:
            return self.byzantine_nodes
        pool = sorted(node_ids)
        count = round(self.byzantine.fraction * len(pool))
        victims = self._byz_rng.sample(pool, count) if count else []
        behaviors = self.byzantine.behaviors
        for i, nid in enumerate(victims):
            self.byzantine_nodes[nid] = behaviors[i % len(behaviors)]
        return self.byzantine_nodes

    def byzantine_action(self, node_id: int) -> str | None:
        """Behaviour of ``node_id`` when asked to serve a hop."""
        action = self.byzantine_nodes.get(node_id)
        if action is not None:
            self.note(f"byzantine.{action}", node=node_id)
        return action

    # -- per-message faults --------------------------------------------
    def draw_message(self, kind: str, legs: int) -> MessageFault | None:
        """Sample this message's fate over its ~``legs`` overlay legs."""
        spec = self.spec
        if not (spec.drop or spec.corrupt or spec.delay):
            return None
        fault = MessageFault()
        legs = max(1, legs)
        if spec.drop and self._msg_rng.random() < spec.drop:
            fault.drop_at = self._msg_rng.randrange(legs)
        if spec.corrupt and self._msg_rng.random() < spec.corrupt:
            fault.corrupt_at = self._msg_rng.randrange(legs)
        if spec.delay and self._msg_rng.random() < spec.delay:
            fault.delay_s = spec.delay_s
            self.injected_delay_s += spec.delay_s
            self.note("message.delay", kind=kind)
        return fault if fault.active else None


@dataclass
class SimVerdict:
    """Per-physical-message fate in the discrete-event fabric."""

    drop: bool = False
    extra_delay_s: float = 0.0
    duplicate: bool = False
    duplicate_gap_s: float = 0.0
    corrupt: bool = False


class SimNetFaultInjector(_FaultCounters):
    """Fault oracle consulted by :class:`repro.simnet.SimNetwork`.

    Injected drops are *silent* (UDP-style loss): the message simply
    never arrives, and no dead-neighbour timeout fires — transient
    loss must not poison routing tables the way real node death does.
    Pair lossy plans with a transmission deadline
    (:meth:`repro.core.emulation.TapEmulation.send_through_tunnel`'s
    ``deadline_s``) so initiators observe timeouts.
    """

    def __init__(
        self,
        spec: MessageFaultSpec | None = None,
        seeds: SeedSequenceFactory | None = None,
        event_trace=None,
        metrics=None,
    ):
        super().__init__(event_trace, metrics)
        self.spec = spec or MessageFaultSpec()
        seeds = seeds or SeedSequenceFactory(0)
        self._rng = seeds.pyrandom("simnet-messages")

    def on_message(self, src: int, dst: int, delay: float) -> SimVerdict | None:
        """Decide the fate of one physical send (None = untouched)."""
        spec = self.spec
        if not spec.any():
            return None
        verdict = SimVerdict()
        rng = self._rng
        if spec.drop and rng.random() < spec.drop:
            verdict.drop = True
            self.note("message.drop", src=src, dst=dst)
            return verdict
        if spec.delay and rng.random() < spec.delay:
            verdict.extra_delay_s += spec.delay_s
            self.note("message.delay", src=src, dst=dst)
        if spec.reorder and rng.random() < spec.reorder:
            # Reordering = holding this message back past successors.
            verdict.extra_delay_s += spec.reorder_s
            self.note("message.reorder", src=src, dst=dst)
        if spec.duplicate and rng.random() < spec.duplicate:
            verdict.duplicate = True
            verdict.duplicate_gap_s = spec.reorder_s
            self.note("message.duplicate", src=src, dst=dst)
        if spec.corrupt and rng.random() < spec.corrupt:
            verdict.corrupt = True
            self.note("message.corrupt", src=src, dst=dst)
        return verdict

    @staticmethod
    def corrupt_payload(payload):
        """Flip bits in the payload (best effort); returns the payload
        to deliver.

        An envelope object with a ``blob: bytes`` attribute (the
        emulation's onion carrier) is damaged in place and returned; a
        raw ``bytes`` payload is returned damaged; any other payload is
        returned intact (the fault is still counted by its note).
        """
        blob = getattr(payload, "blob", None)
        if isinstance(blob, bytes) and blob:
            payload.blob = bytes([blob[0] ^ 0xFF]) + blob[1:]
        elif isinstance(payload, bytes) and payload:
            payload = bytes([payload[0] ^ 0xFF]) + payload[1:]
        return payload


class StorageFaultInjector(_FaultCounters):
    """At-rest fault oracle for :class:`StorageFaultEvent` schedules.

    Operates on either PAST backend; the victims — (key, holder)
    pairs for bit-rot, holder nodes for lease
    skew — are sampled from the store's *current* placement state on a
    dedicated seeded stream, so a run replays bit-identically while
    still rotting whatever the churn schedule left in place.  Lease
    skew is a no-op on backends without a lease clock (plain
    replication has no ``set_clock_skew``) and is counted as skipped.
    """

    def __init__(self, seeds: SeedSequenceFactory | None = None,
                 event_trace=None, metrics=None):
        super().__init__(event_trace, metrics)
        seeds = seeds or SeedSequenceFactory(0)
        self._rng = seeds.pyrandom("storage-faults")

    def _share_pool(self, store) -> list[tuple[int, int]]:
        """All (key, live holder) pairs, in deterministic order."""
        return [
            (key, holder)
            for key in store.all_keys()
            for holder in sorted(store.holders(key))
            if store.network.is_alive(holder)
        ]

    def inject_bitrot(self, store, count: int) -> int:
        """Rot ``count`` sampled shares (fewer if the pool is small)."""
        pool = self._share_pool(store)
        if not pool or count <= 0:
            return 0
        victims = self._rng.sample(pool, min(count, len(pool)))
        rotted = 0
        for key, holder in sorted(victims):
            if store.corrupt_replica(holder, key):
                rotted += 1
                self.note("storage.bitrot", node=holder, key=key)
        return rotted

    def inject_lease_skew(self, store, count: int, epochs: int) -> int:
        """Skew ``count`` sampled live holders' lease clocks forward."""
        set_skew = getattr(store, "set_clock_skew", None)
        if set_skew is None:
            self.note("storage.skew_unsupported")
            return 0
        pool = sorted(
            {h for key in store.all_keys() for h in store.holders(key)
             if store.network.is_alive(h)}
        )
        if not pool or count <= 0:
            return 0
        victims = self._rng.sample(pool, min(count, len(pool)))
        for holder in sorted(victims):
            set_skew(holder, epochs)
            self.note("storage.lease_skew", node=holder, epochs=epochs)
        return len(victims)

    def apply_event(self, store, event) -> None:
        """Run one :class:`StorageFaultEvent` against ``store``."""
        if event.bitrot_shares:
            self.inject_bitrot(store, event.bitrot_shares)
        if event.skew_nodes:
            self.inject_lease_skew(store, event.skew_nodes,
                                   event.skew_epochs)
