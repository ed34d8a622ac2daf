"""The tunneling engine: layered forwarding with replica fail-over.

This module walks messages through tunnels exactly as the deployed
system would:

* each hop is *located* by hopid — the message is routed (real Pastry
  routing over node-local state) to the node currently numerically
  closest to the hopid;
* that node looks up the THA **in its own local storage** (it holds a
  replica iff the replication manager placed one there) and peels one
  layer of encryption with the real symmetric key — the hop step of
  :mod:`repro.core.hop`, which this walk drives in a loop and
  :mod:`repro.core.emulation` drives from delivery events;
* if the original tunnel hop node failed, routing lands on the
  promoted replica candidate, which succeeds iff re-replication kept a
  live copy — TAP's fault-tolerance claim, exercised literally;
* with the §5 optimisation, the peeled layer carries an IP hint that is
  tried first, falling back to DHT routing when stale.

Reply traversal (§4) is the same walk — :meth:`TunnelForwarder._walk`
runs both — except termination: the last identifier is a ``bid``
recognised by the *initiator's* pending-reply table
(:func:`repro.core.hop.match_reply`), not by an exit tag —
intermediate hops cannot tell the difference.
:meth:`TunnelForwarder.round_trip` is the two composed: the §4
request/reply exchange every application runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.core.hop import HopFailed, match_reply, serve_hop
from repro.core.node import PendingReply, TapNode
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.crypto.onion import build_onion
from repro.crypto.onion import peel_layer  # noqa: F401 - peeled in repro.core.hop; perfbench's self-test reads this alias
from repro.past.replication import ReplicatedStore
from repro.pastry.network import PastryNetwork, RoutingError


class TunnelBroken(RuntimeError):
    """The message could not complete the tunnel (hop unreachable/lost)."""


def record_links(record: "HopRecord") -> int:
    """Physical links charged to one hop record.

    Path edges plus one for a timed-out hint probe (whose link never
    enters ``underlying_path``); a *stale* probe's link is already the
    first path edge, so it is not charged twice.
    """
    return max(0, len(record.underlying_path) - 1) + (
        1 if record.hint_timeout else 0
    )


def _settled(hop_span, record: "HopRecord") -> None:
    """Stamp a ``tap.hop`` span with the hop it turned out to be."""
    hop_span.set(
        hop_node=record.hop_node,
        links=record_links(record),
        via_hint=record.via_hint,
        promoted=record.promoted,
    )


@dataclass(slots=True)
class HopRecord:
    """Trace of locating and traversing one tunnel hop."""

    hop_id: int
    hop_node: int | None
    underlying_path: tuple[int, ...] = ()
    via_hint: bool = False
    #: the hint did not directly serve the hop (stale or dead)
    hint_failed: bool = False
    #: the hinted node was dead/unknown: the probe timed out and its
    #: link does not appear in ``underlying_path``
    hint_timeout: bool = False
    #: True when the node serving this hop is not the one that was the
    #: replica root when the tunnel was formed (fail-over happened).
    promoted: bool = False


@dataclass
class ForwardTrace:
    """Complete record of one tunnel traversal."""

    records: list[HopRecord] = field(default_factory=list)
    success: bool = False
    failure_reason: str | None = None
    destination: int | None = None
    delivered_payload: bytes | None = None
    #: underlying path of the final (tail -> destination) leg
    exit_path: tuple[int, ...] = ()

    @property
    def overlay_hops(self) -> int:
        """Tunnel hops traversed (the paper's tunnel length l)."""
        return len(self.records)

    @property
    def underlying_hops(self) -> int:
        """Total physical-link traversals, the latency driver of Fig. 6."""
        total = sum(record_links(r) for r in self.records)
        total += max(0, len(self.exit_path) - 1)
        return total


class Exchange(NamedTuple):
    """Everything observable about one :meth:`TunnelForwarder.round_trip`."""

    forward: ForwardTrace
    #: ``None`` when the responder sent nothing from the exit node
    reply: ForwardTrace | None
    #: what arrived at the ``bid``, if anything did
    received: bytes | None
    #: the tunnel the failure implicates: ``"forward"``, ``"reply"``, or
    #: ``None`` — success, or a responder with no answer (neither's fault)
    broken: str | None


class TunnelForwarder:
    """Walks onions through tunnels over live overlay state."""

    def __init__(
        self,
        network: PastryNetwork,
        store: ReplicatedStore,
        tap_registry: dict[int, TapNode],
        ip_index: dict[str, int] | None = None,
        metrics=None,
        event_trace=None,
        tracer=None,
    ):
        self.network = network
        self.store = store
        self.tap_registry = tap_registry
        #: simulated-IP -> node id (the §5 hint resolver)
        self.ip_index = ip_index if ip_index is not None else {}
        #: optional :class:`repro.obs.MetricsRegistry`
        self.metrics = metrics
        #: optional :class:`repro.obs.EventTrace` of per-hop events
        self.event_trace = event_trace
        #: optional :class:`repro.obs.SpanTracer` of causal span trees
        self.tracer = tracer
        #: optional :class:`repro.faults.SyncFaultInjector` — consulted
        #: per message/leg/hop when installed (see
        #: :meth:`repro.core.system.TapSystem.install_faults`)
        self.faults = None

    def _observe_trace(self, kind: str, trace: ForwardTrace) -> None:
        m = self.metrics
        if m is not None:
            m.counter(f"tap.{kind}.sends").inc()
            if trace.success:
                m.counter(f"tap.{kind}.delivered").inc()
                m.histogram(f"tap.{kind}.underlying_hops").observe(
                    trace.underlying_hops
                )
                m.histogram(f"tap.{kind}.overlay_hops").observe(
                    trace.overlay_hops
                )
            else:
                m.counter(f"tap.{kind}.broken").inc()
            for rec in trace.records:
                if rec.via_hint:
                    m.counter("tap.hint.hits").inc()
                elif rec.hint_timeout:
                    m.counter("tap.hint.timeouts").inc()
                elif rec.hint_failed:
                    m.counter("tap.hint.stale").inc()
                if rec.promoted:
                    m.counter("tap.hop.promotions").inc()
        if self.event_trace is not None:
            self.event_trace.record(
                f"tap.{kind}",
                success=trace.success,
                overlay_hops=trace.overlay_hops,
                underlying_hops=trace.underlying_hops,
                failure_reason=trace.failure_reason,
                hops=[
                    {
                        "hop_node": rec.hop_node,
                        "links": max(0, len(rec.underlying_path) - 1),
                        "via_hint": rec.via_hint,
                        "hint_failed": rec.hint_failed,
                        "hint_timeout": rec.hint_timeout,
                        "promoted": rec.promoted,
                    }
                    for rec in trace.records
                ],
            )

    # ------------------------------------------------------------------
    # hop location
    # ------------------------------------------------------------------
    def _locate_hop(
        self,
        from_node: int,
        hop_id: int,
        hint_ip: str,
        record: HopRecord,
    ) -> int:
        """Find the current tunnel hop node for ``hop_id``.

        Tries the IP hint first (§5), then Pastry routing.  Returns the
        node id that will process the hop; fills the trace record.
        """
        tr = self.tracer
        start = from_node
        if hint_ip:
            probe = tr.start_span("hint.probe", observer="hop",
                                  src=from_node, links=1) if tr else None
            hinted = self.ip_index.get(hint_ip)
            if hinted is not None and self.network.is_alive(hinted):
                if self.store.storage_of(hinted).contains(hop_id):
                    record.via_hint = True
                    record.underlying_path = (from_node, hinted)
                    if probe is not None:
                        tr.finish(probe, outcome="hit", hinted=hinted)
                    return hinted
                # Alive but no longer a replica holder: it forwards the
                # message into the DHT from where it sits.
                record.hint_failed = True
                start = hinted
                record.underlying_path = (from_node, hinted)
                if probe is not None:
                    tr.finish(probe, outcome="stale", hinted=hinted)
            else:
                # Dead or unknown: the probe times out; re-route from
                # the current hop node.
                record.hint_failed = True
                record.hint_timeout = True
                if probe is not None:
                    tr.finish(probe, outcome="timeout")
        try:
            path = self.network.route(start, hop_id)
        except RoutingError as exc:
            raise TunnelBroken(f"routing to hop {hop_id:#x} failed: {exc}") from exc
        if record.underlying_path:  # a stale probe's link, ending where the route starts
            path = record.underlying_path[:1] + path
        record.underlying_path = path
        return path[-1]

    def _peel_at(self, node_id: int, hop_id: int, blob: bytes, reply: bool = False):
        """The hop node's work (:func:`repro.core.hop.serve_hop`) under
        its ``onion.peel`` span, a failure counted and re-raised as
        :class:`TunnelBroken`."""
        tr = self.tracer
        span = tr.start_span("onion.peel", observer="hop",
                             hop_node=node_id) if tr else None
        try:
            return serve_hop(self.store, node_id, hop_id, blob, reply)
        except HopFailed as exc:
            if exc.counter is not None:  # a malformed layer did peel: span stays plain
                if span is not None:
                    span.set(outcome=exc.outcome)
                if self.metrics is not None:
                    self.metrics.counter(exc.counter).inc()
            raise TunnelBroken(str(exc)) from exc
        finally:
            if span is not None:
                tr.finish(span)

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    @staticmethod
    def _check_injected(
        faults, msg_fault, src: int, hop_node: int, index: int, kind: str
    ) -> None:
        """Apply installed fault verdicts to one located hop.

        Raises :class:`TunnelBroken` for partitioned legs, in-transit
        corruption scheduled for this leg, and Byzantine behaviour of
        the serving hop node — the same observable outcome (the
        initiator times out) a deployed system would see.
        """
        why = faults.check_leg(src, hop_node)
        if why:
            raise TunnelBroken(f"fault injected: {why} {src:#x}->{hop_node:#x}")
        if msg_fault is not None and msg_fault.corrupt_at == index:
            faults.note("message.corrupt", kind=kind, leg=index)
            raise TunnelBroken(
                f"fault injected: message corrupted on leg {index}"
            )
        byz = faults.byzantine_action(hop_node)
        if byz is not None:
            raise TunnelBroken(f"byzantine hop {hop_node:#x}: {byz}")

    # ------------------------------------------------------------------
    # traversal, both directions
    # ------------------------------------------------------------------
    def send(
        self,
        initiator: TapNode,
        tunnel: Tunnel,
        destination_id: int,
        payload: bytes,
        deliver: Callable[[int, bytes], None] | None = None,
        parent=None,
    ) -> ForwardTrace:
        """Send ``payload`` to ``destination_id`` through ``tunnel``.

        The exit payload is handed to ``deliver(responder_node_id,
        payload)`` if given; the trace always carries it too.  Raises
        nothing: failures are reported in the trace (like a deployed
        system, the initiator only observes a timeout).

        ``parent`` optionally attaches the traversal's span tree under
        a caller-owned span (session round trip, retrieval, ...).
        """
        blob = build_onion(tunnel.onion_layers(), destination_id, payload)
        tr = self.tracer
        span = tr.enter(
            "tap.forward", parent=parent, observer="initiator",
            initiator=initiator.node_id, **tunnel.span_attrs(),
        ) if tr else None
        return self._traverse(
            span, "forward", initiator.node_id, tunnel.hops[0].hop_id,
            tunnel.hint_ips[0] or "", blob, len(tunnel.hops) + 1,
            tunnel.formed_roots, None, deliver,
        )

    def send_reply(
        self,
        responder_id: int,
        first_hop_id: int,
        reply_blob: bytes,
        payload: bytes,
        max_hops: int = 32,
        parent=None,
        expected_roots: dict[int, int] | None = None,
    ) -> ForwardTrace:
        """Route a reply payload back along a reply tunnel (§4).

        The responder knows only ``first_hop_id`` (in the clear, §4)
        and the opaque ``reply_blob``.  Traversal ends when the node
        closest to the current identifier recognises it as one of its
        pending ``bid`` values — from the outside indistinguishable
        from one more hop.

        ``parent`` attaches the span tree under a caller-owned span.
        ``expected_roots`` maps hop ids to their formed-time replica
        roots (the reply tunnel's ``formed_roots``, known only to the
        initiator who formed it); when given, fail-over is recorded as
        ``promoted`` exactly as on the forward path.
        """
        tr = self.tracer
        span = tr.enter(
            "tap.reply", parent=parent, observer="exit",
            responder=responder_id,
        ) if tr else None
        return self._traverse(
            span, "reply", responder_id, first_hop_id, "", reply_blob,
            max_hops, expected_roots, payload, None,
        )

    def round_trip(
        self,
        initiator: TapNode,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
        capsule: tuple[int, bytes],
        destination_id: int,
        request: bytes,
        respond: Callable[[int, bytes], bytes | None],
    ) -> Exchange:
        """The §4 exchange: :meth:`send` ``request`` to
        ``destination_id``, :meth:`send_reply` the answer back.

        ``respond(node_id, payload)`` is the responder's work at the
        node the request surfaced at; the bytes it returns are walked
        down ``capsule`` (:meth:`ReplyTunnel.capsule` of
        ``reply_tunnel``) from there, ``None`` sends nothing.  The
        initiator awaits the ``bid`` exactly as long as the forward send
        runs — the reply walk happens inside it — so a late or replayed
        walk finds nothing, however the send ends; a ``bid`` someone is
        already awaiting is refused before anything is sent.
        """
        received: list[bytes] = []
        replies: list[ForwardTrace] = []

        def deliver(node_id: int, payload: bytes) -> None:
            answer = respond(node_id, payload)
            if answer is not None:
                replies.append(self.send_reply(node_id, *capsule, answer))

        initiator.register_pending(
            PendingReply(bid=reply_tunnel.bid, callback=received.append)
        )
        try:
            forward = self.send(
                initiator, forward_tunnel, destination_id, request, deliver
            )
        finally:
            initiator.release_pending(reply_tunnel.bid)
        reply = replies[0] if replies else None
        if not forward.success:
            broken = "forward"
        elif reply is not None and not (reply.success and received):
            broken = "reply"
        else:
            broken = None
        return Exchange(forward, reply, received[0] if received else None, broken)

    def _traverse(self, span, kind: str, *walk_args) -> ForwardTrace:
        """Run :meth:`_walk` under the traversal's root ``span`` (if
        any) and report the finished trace to metrics/events."""
        trace = ForwardTrace()
        try:
            self._walk(trace, kind, *walk_args)
            if span is not None:
                span.set(
                    success=trace.success,
                    overlay_hops=trace.overlay_hops,
                    links=trace.underlying_hops,
                )
                if trace.failure_reason:
                    span.set(error=trace.failure_reason)
        finally:
            if span is not None:
                self.tracer.exit(span)
        self._observe_trace(kind, trace)
        return trace

    def _walk(
        self,
        trace: ForwardTrace,
        kind: str,
        current: int,
        hop_id: int,
        hint_ip: str,
        blob: bytes,
        limit: int,
        roots: dict[int, int | None] | None,
        payload: bytes | None,
        deliver: Callable[[int, bytes], None] | None,
    ) -> None:
        """Walk ``blob`` hop by hop from ``current``, filling ``trace``.

        Per identifier: locate its hop node, apply installed fault
        verdicts, peel one layer there, move on.  The directions differ
        in how the walk *ends* — forward at the layer tagged EXIT, whose
        node routes the payload on to the destination; reply at the node
        holding a pending ``bid`` equal to the identifier, which has
        nothing to peel — and therefore in when a hop is settled (serving
        node and fail-over attributed): a reply hop on arrival, before it
        might turn out to be the initiator; a forward hop once it has
        peeled.
        """
        tr = self.tracer
        faults = self.faults
        reply = kind == "reply"
        # A reply walk traverses tunnel_length + 1 identifiers (the hops
        # plus the terminating bid); the responder cannot know the
        # length, so the drop leg is sampled over the typical walk.
        msg_fault = (
            faults.draw_message(kind, 4 if reply else limit)
            if faults is not None else None
        )
        for index in range(limit):
            record = HopRecord(hop_id, None)
            trace.records.append(record)
            hop_span = tr.enter(
                "tap.hop", observer="hop", hop_index=index
            ) if tr else None
            try:
                if msg_fault is not None and msg_fault.drop_at == index:
                    faults.note("message.drop", kind=kind, leg=index)
                    raise TunnelBroken(
                        f"fault injected: {'reply' if reply else 'message'} "
                        f"dropped on leg {index}"
                    )
                hop_node = self._locate_hop(current, hop_id, hint_ip, record)
                if not reply:
                    record.hop_node = hop_node
                if faults is not None:
                    self._check_injected(
                        faults, msg_fault, current, hop_node, index, kind
                    )
                if reply:
                    record.hop_node = hop_node
                if roots is not None:
                    formed_root = roots.get(hop_id)
                    if formed_root is not None and formed_root != hop_node:
                        record.promoted = True
                if reply:
                    if hop_span is not None:
                        _settled(hop_span, record)
                    pending = match_reply(self.tap_registry, hop_node, hop_id)
                    if pending is not None:
                        pending.completed = True
                        trace.success = True
                        trace.destination = hop_node
                        trace.delivered_payload = payload
                        if hop_span is not None:
                            # initiator-only knowledge; stripped from
                            # this hop-observer span on redacted export
                            hop_span.set(delivered=True, matched_bid=hop_id)
                        if pending.callback is not None:
                            pending.callback(payload)
                        return
                peeled = self._peel_at(hop_node, hop_id, blob, reply)
                if not reply:
                    if hop_span is not None:
                        _settled(hop_span, record)
                    if peeled.is_exit:
                        exit_path = self._exit_leg(trace, hop_node, peeled)
                        if hop_span is not None:
                            hop_span.set(
                                is_exit=True,
                                links=record_links(record) + len(exit_path) - 1,
                            )
                        if deliver is not None:
                            deliver(exit_path[-1], peeled.inner)
                        return
            except TunnelBroken as exc:
                trace.failure_reason = str(exc)
                if hop_span is not None:
                    hop_span.set(error=trace.failure_reason,
                                 links=record_links(record))
                return
            finally:
                if hop_span is not None:
                    tr.exit(hop_span)
            current = hop_node
            hop_id = peeled.next_id
            hint_ip = peeled.ip_hint
            blob = peeled.inner
        trace.failure_reason = (
            "reply exceeded max hops (fakeonion cycle?)" if reply
            else "onion deeper than tunnel length (malformed)"
        )

    def _exit_leg(self, trace: ForwardTrace, tail: int, peeled) -> tuple[int, ...]:
        """The forward walk's last leg: the tail routes the now-plain
        payload to the destination key; returns the leg's path."""
        trace.destination = peeled.next_id
        trace.delivered_payload = peeled.inner
        try:
            trace.exit_path = self.network.route(tail, peeled.next_id)
        except RoutingError as exc:
            raise TunnelBroken(f"exit routing failed: {exc}") from exc
        trace.success = True
        return trace.exit_path
