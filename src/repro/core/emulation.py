"""Event-driven TAP execution over the discrete-event network.

The synchronous engine (:mod:`repro.core.forwarding`) walks tunnels as
a pure computation; this module runs the *same protocol* — literally:
the same :func:`repro.core.hop.match_reply` and
:func:`repro.core.hop.serve_hop` calls, in both directions — as timed
messages over :class:`repro.simnet.SimNetwork`.  What is its own is how
a message reaches the next node:

* every overlay routing step is one physical message with the link's
  propagation + serialization delay;
* dead next-hops are discovered by **timeout** (a round-trip charge),
  after which the waiting node repairs its routing state and re-sends
  — the deployed-system behaviour Figure 6's latency model abstracts;
* §5 IP hints become real direct sends, with the timeout-then-DHT
  fallback of the paper;
* a message the fabric duplicates (fault injection) travels on as two
  independent copies — each peels its own onion and keeps its own
  path — and the first copy to reach a verdict finishes the trace.

The emulation is cross-validated in the tests against the analytic
path model — on a failure-free overlay, the emulated end-to-end latency
of a transfer, forward or reply, equals
:func:`repro.simnet.transport.store_and_forward` over the link latencies
of the recorded path — and against the synchronous walk, scenario by
scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.hop import HopFailed, match_reply, serve_hop
from repro.core.node import TapNode
from repro.core.tunnel import Tunnel
from repro.crypto.onion import build_onion
from repro.past.replication import ReplicatedStore
from repro.pastry.network import PastryNetwork
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.simnet.topology import Topology

#: control-plane message size (headers, hop ids, key material)
CONTROL_BITS = 8 * 1024


@dataclass
class EmuTrace:
    """Observable record of one emulated tunnel transmission."""

    started_at: float
    finished_at: float | None = None
    delivered: bool = False
    failed_reason: str | None = None
    destination: int | None = None
    payload: bytes | None = None
    #: physical node sequence the message actually travelled; with
    #: ``timeouts`` and ``hint_failures`` the history of the copy that
    #: finished the trace (while in flight: of the message as sent)
    path: list[int] = field(default_factory=list)
    timeouts: int = 0
    hint_failures: int = 0
    on_done: Callable[["EmuTrace"], None] | None = None
    #: root :class:`repro.obs.Span` of this transmission (tracing only)
    span: object | None = None

    @property
    def latency(self) -> float:
        if self.finished_at is None:
            raise ValueError("transmission still in flight")
        return self.finished_at - self.started_at

    def _finish(self, now: float, delivered: bool, reason: str | None = None) -> None:
        if self.finished_at is not None:
            # Already finished (e.g. the deadline fired while a leg was
            # still in flight): first verdict wins, late events are void.
            return
        self.finished_at = now
        self.delivered = delivered
        self.failed_reason = reason
        if self.on_done is not None:
            self.on_done(self)


@dataclass
class _History:
    """What one copy of a message has accumulated on its way."""

    path: list[int]
    timeouts: int
    hint_failures: int


@dataclass
class _Envelope:
    """In-flight protocol message (the SimNetwork payload)."""

    kind: str  # "tunnel" / "reply" (onion toward hop key) | "exit" (payload toward dest)
    key: int  # DHT key currently being routed toward
    blob: bytes  # remaining onion (tunnel, reply) / application payload (exit)
    size_bits: float
    #: the transmission's one verdict, shared by every copy in flight
    trace: EmuTrace
    #: where this copy records its way: the trace itself for the message
    #: as sent, a private :class:`_History` for a duplicate the network made
    history: EmuTrace | _History
    #: a reply's plain payload, riding beside its onion (§4)
    payload: bytes | None = None
    via_hint: bool = False  # current leg is a direct hinted send
    #: sim time / source of the physical leg currently in flight
    leg_start: float = 0.0
    leg_from: int = 0

    def __copy__(self) -> "_Envelope":
        """The duplicate a faulty network makes (``SimNetwork.send``):
        the same onion state now, its own progress from here on."""
        mine = self.history
        return replace(
            self,
            history=_History(list(mine.path), mine.timeouts, mine.hint_failures),
        )


class TapEmulation:
    """Attach a TAP deployment to a discrete-event network and run it."""

    def __init__(
        self,
        network: PastryNetwork,
        store: ReplicatedStore,
        tap_registry: dict[int, TapNode],
        ip_index: dict[str, int],
        topology: Topology | None = None,
        simulator: Simulator | None = None,
        metrics=None,
        tracer=None,
    ):
        self.network = network
        self.store = store
        self.tap_registry = tap_registry
        self.ip_index = ip_index
        #: optional :class:`repro.obs.MetricsRegistry`
        self.metrics = metrics
        #: optional :class:`repro.obs.SpanTracer`; spans carry the
        #: simulated clock (``set_sim``), one leg span per physical send
        self.tracer = tracer
        self.simulator = simulator or Simulator()
        self.topology = topology or Topology(seed=0)
        self.net = SimNetwork(self.simulator, self.topology)
        self.net.on_drop = self._on_drop
        #: message-observation taps: callables ``(now, src, dst,
        #: size_bits)`` invoked on every physical delivery.  A local
        #: eavesdropper or malicious node subscribes here; it sees
        #: traffic metadata only (the payload is layer-encrypted).
        self.taps: list[Callable[[float, int, int, float], None]] = []
        #: content taps: ``(now, node_id, destination_id, size_bits)``
        #: invoked when a node peels an *exit* layer and thereby learns
        #: the destination (§6: a malicious node "can read messages
        #: addressed to nodes under its control").
        self.content_taps: list[Callable[[float, int, int, float], None]] = []
        for nid in network.alive_ids:
            self.net.attach(nid, self._handle)

    @classmethod
    def from_system(cls, system, topology: Topology | None = None) -> "TapEmulation":
        """Wrap a :class:`repro.core.system.TapSystem`."""
        return cls(
            system.network,
            system.store,
            system.tap_nodes,
            system.ip_index,
            topology=topology,
            metrics=getattr(system, "metrics", None),
            tracer=getattr(system, "tracer", None),
        )

    # ------------------------------------------------------------------
    # liveness bridge: keep SimNetwork in step with the overlay oracle
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int, repair: bool = True) -> None:
        """Crash a node in both the overlay and the message fabric."""
        self.network.fail(node_id)
        if repair:
            self.store.on_fail(node_id)
        self.net.fail(node_id)

    def revive_node(self, node_id: int) -> None:
        """Bring a node back in both the overlay and the message
        fabric, reconciling its stale replicas (resurrection guard)."""
        self.network.revive(node_id)
        self.store.on_revive(node_id)
        self.net.attach(node_id, self._handle)

    def install_faults(self, plan, seeds, event_trace=None, metrics=None):
        """Arm the message fabric with a fault plan's simnet injector.

        Pair lossy plans with ``send_through_tunnel``'s ``deadline_s``
        so silently dropped messages surface as initiator timeouts.
        Returns the installed injector.
        """
        injector = plan.simnet_injector(
            seeds, event_trace=event_trace,
            metrics=metrics if metrics is not None else self.metrics,
        )
        self.net.faults = injector
        return injector

    def clear_faults(self) -> None:
        self.net.faults = None

    def _conclude(
        self, env: _Envelope, now: float, delivered: bool, reason: str | None = None
    ) -> None:
        """Finish ``env``'s trace, which adopts the history of this copy."""
        trace, history = env.trace, env.history
        if history is not trace and trace.finished_at is None:
            trace.path = history.path
            trace.timeouts = history.timeouts
            trace.hint_failures = history.hint_failures
        self._finish_trace(trace, now, delivered, reason)

    def _finish_trace(
        self, trace: EmuTrace, now: float, delivered: bool, reason: str | None = None
    ) -> None:
        if trace.finished_at is not None:
            return
        trace._finish(now, delivered, reason)
        if trace.span is not None and self.tracer:
            trace.span.set_sim(trace.started_at, now)
            self.tracer.finish(
                trace.span,
                delivered=delivered,
                links=max(0, len(trace.path) - 1),
                timeouts=trace.timeouts,
                hint_failures=trace.hint_failures,
                error=reason,
            )
            trace.span = None
        m = self.metrics
        if m is None:
            return
        m.counter("emu.transmissions").inc()
        if delivered:
            m.counter("emu.delivered").inc()
            m.histogram("emu.latency_s").observe(trace.latency)
            m.histogram("emu.physical_hops").observe(max(0, len(trace.path) - 1))
        else:
            m.counter("emu.failed").inc()
        if trace.timeouts:
            m.counter("emu.timeouts").inc(trace.timeouts)
        if trace.hint_failures:
            m.counter("emu.hint_failures").inc(trace.hint_failures)

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def send_through_tunnel(
        self,
        initiator: TapNode,
        tunnel: Tunnel,
        destination_id: int,
        payload: bytes,
        size_bits: float | None = None,
        on_done: Callable[[EmuTrace], None] | None = None,
        deadline_s: float | None = None,
    ) -> EmuTrace:
        """Inject a tunnel transmission; returns its (live) trace.

        Run ``emulation.simulator.run()`` to drive it to completion.
        ``size_bits`` models the application payload size (e.g. the
        paper's 2 Mb file) independent of the literal bytes carried.
        ``deadline_s`` is the initiator's transmission timeout on the
        simulated clock: if the message has not been delivered by then
        the trace finishes failed (``deadline exceeded``) — the way an
        initiator observes a silently dropped message (see
        :meth:`install_faults`).
        """
        blob = build_onion(tunnel.onion_layers(), destination_id, payload)
        span = self.tracer.start_trace(
            "emu.request", observer="initiator",
            initiator=initiator.node_id, **tunnel.span_attrs(),
        ) if self.tracer else None
        return self._inject(
            "tunnel", span, initiator.node_id, tunnel.hops[0].hop_id, blob,
            tunnel.hint_ips[0] or "", payload, size_bits, on_done, deadline_s,
        )

    def send_reply_through_tunnel(
        self,
        responder_id: int,
        first_hop_id: int,
        reply_blob: bytes,
        payload: bytes,
        size_bits: float | None = None,
        on_done: Callable[[EmuTrace], None] | None = None,
        deadline_s: float | None = None,
    ) -> EmuTrace:
        """Inject a reply along a reply tunnel (§4); returns its trace.

        The responder knows only ``first_hop_id`` and the opaque
        ``reply_blob`` (:meth:`TunnelForwarder.send_reply`'s contract).
        The transmission ends at the node that is closest to the current
        identifier *and* waiting on it as a ``bid``: its
        :class:`~repro.core.node.PendingReply` is completed and its
        callback invoked with ``payload``, once.  ``size_bits``,
        ``on_done`` and ``deadline_s`` are as in
        :meth:`send_through_tunnel`.
        """
        span = self.tracer.start_trace(
            "emu.reply", observer="exit", responder=responder_id,
        ) if self.tracer else None
        return self._inject(
            "reply", span, responder_id, first_hop_id, reply_blob, "",
            payload, size_bits, on_done, deadline_s,
        )

    def _inject(
        self, kind: str, span, src: int, key: int, blob: bytes, hint_ip: str,
        payload: bytes, size_bits: float | None, on_done, deadline_s: float | None,
    ) -> EmuTrace:
        """Start a ``kind`` transmission at ``src``: a fresh trace under
        root ``span``, its one envelope, the deadline, the first
        physical step."""
        bits = size_bits if size_bits is not None else 8.0 * len(payload)
        trace = EmuTrace(started_at=self.simulator.now, on_done=on_done, span=span)
        trace.path.append(src)
        env = _Envelope(
            kind, key, blob, bits + CONTROL_BITS, trace, trace,
            # a request's payload is sealed inside its onion
            payload if kind == "reply" else None,
        )
        if deadline_s is not None:
            self.simulator.schedule(
                deadline_s, self._deadline_expired, trace
            )
        self._dispatch(src, env, hint_ip=hint_ip)
        return trace

    def _deadline_expired(self, trace: EmuTrace) -> None:
        if trace.finished_at is None:
            if self.metrics is not None:
                self.metrics.counter("emu.deadline_exceeded").inc()
            self._finish_trace(
                trace, self.simulator.now, False, "deadline exceeded"
            )

    def inject_cover_traffic(
        self,
        rng,
        messages: int,
        size_bits: float,
        over_seconds: float,
    ) -> list[EmuTrace]:
        """Schedule dummy point-to-point messages (the §2 trade-off).

        Each dummy is a single physical send between two random alive
        nodes at a uniform random time in ``[now, now + over_seconds]``,
        sized like real traffic.  The paper *declines* cover traffic for
        its bandwidth cost; this hook exists to quantify that decision
        (see the timing-attack bench).
        """
        traces = []
        alive = self.net.addresses
        for _ in range(messages):
            src, dst = rng.sample(alive, 2)
            trace = EmuTrace(started_at=self.simulator.now)
            env = _Envelope(
                kind="cover", key=dst, blob=b"", size_bits=size_bits,
                trace=trace, history=trace,
            )
            delay = rng.random() * over_seconds
            self.simulator.schedule(delay, self.net.send, src, dst, env, size_bits)
            traces.append(trace)
        return traces

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------
    def _dispatch(self, from_node: int, env: _Envelope, hint_ip: str = "") -> None:
        """Send an envelope one physical step toward its key."""
        if env.trace.finished_at is not None:
            return  # trace already concluded (deadline exceeded)
        if hint_ip:
            hinted = self.ip_index.get(hint_ip)
            if hinted is not None and hinted != from_node:
                env.via_hint = True
                env.leg_start = self.simulator.now
                env.leg_from = from_node
                self.net.send(from_node, hinted, env, env.size_bits)
                return
            env.history.hint_failures += 1
        env.via_hint = False
        nxt = self.network.next_hop(from_node, env.key)
        if nxt == from_node:
            self._deliver_local(from_node, env)
            return
        env.leg_start = self.simulator.now
        env.leg_from = from_node
        self.net.send(from_node, nxt, env, env.size_bits)

    def _handle(self, net: SimNetwork, src: int, dst: int, payload) -> None:
        env: _Envelope = payload
        for tap in self.taps:
            tap(self.simulator.now, src, dst, env.size_bits)
        if env.trace.finished_at is not None:
            return  # trace already concluded (deadline exceeded)
        if env.kind == "cover":
            # Dummy traffic: absorbed at the first recipient (it cannot
            # be distinguished from real traffic by outsiders, but it
            # carries no onion to process).
            self._conclude(env, self.simulator.now, True)
            return
        env.history.path.append(dst)
        if env.trace.span is not None and self.tracer:
            # one leg span per physical delivery, on the simulated clock
            self.tracer.add_span(
                "hint.direct" if env.via_hint else "dht.route",
                parent=env.trace.span,
                sim_start=env.leg_start, sim_end=self.simulator.now,
                observer="hop", src=env.leg_from, dst=dst, links=1,
            )
        if env.via_hint:
            env.via_hint = False
            # Hinted leg arrived: serve locally if we hold the anchor,
            # else fall back to DHT routing from here (§5).
            if self.store.storage_of(dst).contains(env.key):
                self._deliver_local(dst, env)
                return
            env.history.hint_failures += 1
        self._dispatch(dst, env)

    def _on_drop(self, sender: int, dead: int, env: _Envelope) -> None:
        """A message hit a dead node: its sender times out and retries.

        The timeout charge is one round-trip to the dead neighbour —
        the sender waited for an ack that never came.  The retry decides
        afresh, and no decision names a node the overlay knows is dead.
        """
        if env.trace.finished_at is not None:
            return  # trace already concluded (deadline exceeded)
        env.history.timeouts += 1
        if env.via_hint:
            env.via_hint = False
            env.history.hint_failures += 1
        delay = 2.0 * self.topology.latency(sender, dead)
        if env.trace.span is not None and self.tracer:
            # the round-trip the sender wasted waiting on the dead node
            self.tracer.add_span(
                "failover.repair", parent=env.trace.span,
                sim_start=env.leg_start, sim_end=self.simulator.now + delay,
                observer="hop", event="timeout", src=sender, links=1,
            )
        self.simulator.schedule(delay, self._dispatch, sender, env)

    # ------------------------------------------------------------------
    # TAP protocol logic at the responsible node
    # ------------------------------------------------------------------
    def _deliver_local(self, node_id: int, env: _Envelope) -> None:
        """``node_id`` is closest to ``env.key``: the destination takes
        an exit payload; an onion meets :mod:`repro.core.hop` — the
        initiator's pending ``bid`` first if it is a reply's, else one
        layer is served and the rest travels on."""
        now = self.simulator.now
        if env.kind == "exit":
            env.trace.destination = node_id
            env.trace.payload = env.blob
            self._conclude(env, now, True)
            return

        reply = env.kind == "reply"
        pending = match_reply(self.tap_registry, node_id, env.key) if reply else None
        if pending is not None:
            pending.completed = True
            env.trace.destination = node_id
            env.trace.payload = env.payload
            self._conclude(env, now, True)
            if pending.callback is not None:
                pending.callback(env.payload)
            return
        try:
            peeled = serve_hop(self.store, node_id, env.key, env.blob, reply)
        except HopFailed as exc:
            if exc.counter is not None and self.metrics is not None:
                self.metrics.counter(exc.counter).inc()
            self._conclude(env, now, False, str(exc))
            return
        if env.trace.span is not None and self.tracer:
            # instantaneous on the simulated clock (crypto is not part
            # of the latency model), still attributed to the trace
            self.tracer.add_span(
                "onion.peel", parent=env.trace.span,
                sim_start=now, sim_end=now,
                observer="hop", hop_node=node_id,
            )

        env.key = peeled.next_id
        env.blob = peeled.inner
        if peeled.is_exit:
            for tap in self.content_taps:
                tap(now, node_id, peeled.next_id, env.size_bits)
            env.kind = "exit"
            self._dispatch(node_id, env)
        else:
            self._dispatch(node_id, env, hint_ip=peeled.ip_hint)
