"""Long-standing anonymous sessions — the paper's motivating use case.

§1: "current tunneling techniques have a problem in maintaining
long-standing remote login sessions, if a node on a tunnel fails.
However, TAP can support long-standing remote login sessions in the
face of node failures."

A :class:`TapSession` is a bidirectional request/response channel from
an initiator to a server node:

* requests travel through the session's forward tunnel as
  ``seq ‖ body``; the reply tunnel blob never rides in the payload —
  it reaches the server side through the delivery closure, which
  answers down it;
* responses return over the session's reply tunnel to the initiator's
  ``bid``;
* the session *maintains itself*: failed round trips trigger a health
  probe of both tunnels and an automatic re-form of whichever is
  broken (fresh anchors, old ones deleted), then a retry — the
  behaviour that keeps an SSH-like session alive across hop-node
  churn.

The server side is a :class:`SessionServer`: an application callback
bound to an overlay node that turns request payloads into responses.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

from repro.core.node import PendingReply, TapNode
from repro.core.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientReply,
    anchors_reachable,
)
from repro.core.tunnel import ReplyTunnel, Tunnel
from repro.crypto.onion import build_reply_onion, make_fake_onion
from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_int,
)


@dataclass
class SessionStats:
    """Observable health record of one session."""

    requests: int = 0
    responses: int = 0
    failures: int = 0
    retries: int = 0
    tunnel_reforms: int = 0
    #: responses that needed at least one retry (recovered, not clean)
    recovered_responses: int = 0
    #: last-known-good fallbacks served in place of a hard failure
    #: (counted under ``failures``, not ``responses``)
    degraded_responses: int = 0
    #: hedged tunnel health probes launched after ambiguous failures
    health_probes: int = 0
    #: reforms driven by a tripped circuit breaker (route-around)
    proactive_reforms: int = 0
    breaker_trips: int = 0
    #: total (virtual) retry backoff waited, deterministic per seed
    backoff_wait_s: float = 0.0

    @property
    def availability(self) -> float:
        """Requests answered by a genuine round trip (retried or not)."""
        return self.responses / self.requests if self.requests else 1.0

    @property
    def effective_availability(self) -> float:
        """Requests answered *cleanly* — first attempt, no recovery.

        ``availability`` counts a retried-then-successful request as
        fully available; chaos reports use this property to separate
        clean round trips from recovered ones.
        """
        if not self.requests:
            return 1.0
        return (self.responses - self.recovered_responses) / self.requests


class SessionServer:
    """Application endpoint: answers session requests at its node."""

    def __init__(self, node_id: int, handler: Callable[[bytes], bytes]):
        self.node_id = node_id
        self.handler = handler
        self.served = 0

    def serve(self, payload: bytes) -> bytes | None:
        """Decode a request, run the application handler, return the
        encoded response (None if the request is malformed)."""
        try:
            seq_b, body = unpack_fields(payload, count=2)
            seq = unpack_int(seq_b, width=8)
        except SerializationError:
            return None
        self.served += 1
        return pack_fields(pack_int(seq, width=8), self.handler(body))


class TapSession:
    """A self-healing anonymous request/response channel."""

    def __init__(
        self,
        system,
        initiator: TapNode,
        server: SessionServer,
        tunnel_length: int = 3,
        use_hints: bool = False,
        max_retries: int = 2,
        policy: ResiliencePolicy | None = None,
    ):
        self.system = system
        self.initiator = initiator
        self.server = server
        self.tunnel_length = tunnel_length
        self.use_hints = use_hints
        self.max_retries = max_retries
        #: optional :class:`repro.core.resilience.ResiliencePolicy`;
        #: when set, :meth:`request` routes through
        #: :meth:`request_resilient` (backoff, breakers, hedged
        #: probes, graceful degradation) instead of the legacy
        #: reform-and-retry loop
        self.policy = policy
        self.stats = SessionStats()
        #: shares the system's :class:`repro.obs.SpanTracer` (if any),
        #: so round-trip spans nest under session.request roots
        self.tracer = getattr(system, "tracer", None)
        self._seq = 0
        self.forward: Tunnel = system.form_tunnel(
            initiator, tunnel_length, use_hints=use_hints
        )
        self.reply: ReplyTunnel = system.form_reply_tunnel(
            initiator, tunnel_length, use_hints=use_hints
        )
        self._fake_rng = system.seeds.pyrandom("session-fake", initiator.node_id)
        self._backoff_rng = system.seeds.pyrandom(
            "session-backoff", initiator.node_id
        )
        threshold = policy.breaker_threshold if policy else 3
        self._breakers = {
            "forward": CircuitBreaker(threshold),
            "reply": CircuitBreaker(threshold),
        }
        #: last successful response (the graceful-degradation fallback)
        self._last_known_good: bytes | None = None
        self._prober = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _reform(self, which: str) -> None:
        """Replace a broken tunnel with a fresh one (new anchors)."""
        tr = self.tracer
        cm = tr.span(
            "session.reform", observer="initiator",
            initiator=self.initiator.node_id, which=which,
        ) if tr else nullcontext()
        with cm:
            self.stats.tunnel_reforms += 1
            self.system.deploy_thas(self.initiator, count=self.tunnel_length)
            if which == "forward":
                self.system.retire_tunnel(self.initiator, self.forward)
                self.forward = self.system.form_tunnel(
                    self.initiator, self.tunnel_length, use_hints=self.use_hints
                )
            else:
                self.system.retire_tunnel(self.initiator, self.reply)
                self.reply = self.system.form_reply_tunnel(
                    self.initiator, self.tunnel_length, use_hints=self.use_hints
                )

    def _round_trip(
        self, body: bytes, seq: int, max_links: int | None = None
    ) -> tuple[bytes | None, str | None]:
        """One attempt: request out, response back.

        Returns ``(response, broken)``: on failure the response is
        ``None`` and ``broken`` names the tunnel the failure implicates
        (``"forward"``/``"reply"``, or ``None`` for a stale/malformed
        response that implicates neither).  The caller owns the repair
        decision — the legacy path reforms immediately, the policy
        path diagnoses via hedged probes first.
        """
        fake = make_fake_onion(self._fake_rng)
        first_reply_hop, reply_blob = build_reply_onion(
            self.reply.onion_layers(), self.reply.bid, fake
        )
        received: list[bytes] = []
        self.initiator.register_pending(
            PendingReply(bid=self.reply.bid, callback=received.append)
        )

        request = pack_fields(pack_int(seq, width=8), body)

        forward_broken = reply_broken = False

        def deliver(node_id: int, payload: bytes) -> None:
            nonlocal reply_broken
            if node_id != self.server.node_id:
                return  # request surfaced at the wrong node: dropped
            response = self.server.serve(payload)
            if response is None:
                return
            reply_trace = self.system.forwarder.send_reply(
                self.server.node_id, first_reply_hop, reply_blob, response,
                max_links=max_links,
            )
            reply_broken = not reply_trace.success

        try:
            trace = self.system.forwarder.send(
                self.initiator,
                self.forward,
                destination_id=self.server.node_id,
                payload=request,
                deliver=deliver,
                max_links=max_links,
            )
        finally:
            self.initiator.pending_replies.pop(self.reply.bid, None)
        forward_broken = not trace.success

        if forward_broken:
            return None, "forward"
        if reply_broken or not received:
            return None, "reply"
        try:
            seq_b, response_body = unpack_fields(received[0], count=2)
            if unpack_int(seq_b, width=8) != seq:
                return None, None  # stale/replayed response
        except SerializationError:
            return None, None
        return response_body, None

    # ------------------------------------------------------------------
    # resilience plumbing (policy mode)
    # ------------------------------------------------------------------
    def _probe_health(self) -> dict[str, bool]:
        """Hedged health probes: check both tunnels together.

        The forward tunnel gets a live loop-back probe through the
        real engine; the reply tunnel (whose ``bid`` a probe must not
        reveal) gets the initiator-local anchor-reachability check.
        """
        if self._prober is None:
            from repro.extensions.tunnel_probe import TunnelProber

            self._prober = TunnelProber(self.system)
        tr = self.tracer
        cm = tr.span(
            "session.probe", observer="initiator",
            initiator=self.initiator.node_id,
        ) if tr else nullcontext()
        with cm as span:
            forward_ok = self._prober.probe(
                self.initiator, self.forward
            ).functional
            reply_ok = anchors_reachable(
                self.system.network, self.system.store, self.reply.hops
            )
            self.stats.health_probes += 2
            if span is not None:
                span.set(forward=forward_ok, reply=reply_ok)
        return {"forward": forward_ok, "reply": reply_ok}

    def _handle_failure(
        self, broken: str | None, policy: ResiliencePolicy,
        reformed: list[str],
    ) -> None:
        """Diagnose one failed attempt and repair what it implicates.

        Probed-unhealthy tunnels are reformed immediately (reactive
        repair, the legacy behaviour).  Ambiguous failures — probes
        say healthy, so likely transient loss — only feed the
        breakers: retrying without churning tunnels is the right move,
        until consecutive mysteries trip a breaker and force a
        proactive route-around reform.
        """
        if policy.hedged_probes:
            health = self._probe_health()
            suspects = tuple(w for w, ok in health.items() if not ok)
        else:
            suspects = (broken,) if broken else ()
        for which in ("forward", "reply"):
            breaker = self._breakers[which]
            if suspects and which not in suspects:
                continue
            if breaker.record_failure():
                self.stats.breaker_trips += 1
            if which in suspects:
                self._reform(which)
                reformed.append(which)
                breaker.on_reform()
            elif breaker.state == "open" and policy.proactive_reform:
                self._reform(which)
                reformed.append(which)
                self.stats.proactive_reforms += 1
                breaker.on_reform()

    def request_resilient(self, body: bytes) -> ResilientReply:
        """Send one request under the session's resilience policy.

        Bounded retries with deterministic backoff, hedged health
        probes, per-tunnel circuit breaking with proactive reform, and
        (when ``policy.degraded_ok``) a last-known-good fallback with
        an explicit ``degraded`` flag instead of a hard failure.
        """
        policy = self.policy or ResiliencePolicy(max_retries=self.max_retries)
        self._seq += 1
        seq = self._seq
        self.stats.requests += 1
        tr = self.tracer
        cm = tr.span(
            "session.request", observer="initiator",
            initiator=self.initiator.node_id, seq=seq, policy=True,
        ) if tr else nullcontext()
        reformed: list[str] = []
        waited = 0.0
        with cm as span:
            for attempt in range(1 + policy.max_retries):
                if attempt:
                    self.stats.retries += 1
                    delay = policy.backoff_delay(attempt, self._backoff_rng)
                    waited += delay
                    self.stats.backoff_wait_s += delay
                response, broken = self._round_trip(
                    body, seq, max_links=policy.attempt_link_budget
                )
                if response is not None:
                    self.stats.responses += 1
                    if attempt:
                        self.stats.recovered_responses += 1
                    for breaker in self._breakers.values():
                        breaker.record_success()
                    self._last_known_good = response
                    if span is not None:
                        span.set(success=True, attempts=attempt + 1,
                                 recovered=attempt > 0)
                    return ResilientReply(
                        response, recovered=attempt > 0,
                        attempts=attempt + 1, waited_s=waited,
                        reformed=tuple(reformed),
                    )
                self._handle_failure(broken, policy, reformed)
            self.stats.failures += 1
            attempts = 1 + policy.max_retries
            if policy.degraded_ok and self._last_known_good is not None:
                self.stats.degraded_responses += 1
                if span is not None:
                    span.set(success=False, degraded=True, attempts=attempts)
                return ResilientReply(
                    self._last_known_good, degraded=True,
                    attempts=attempts, waited_s=waited,
                    reformed=tuple(reformed),
                )
            if span is not None:
                span.set(success=False, attempts=attempts)
            return ResilientReply(
                None, attempts=attempts, waited_s=waited,
                reformed=tuple(reformed),
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def request(self, body: bytes) -> bytes | None:
        """Send one request; retries (with tunnel repair) on failure.

        With a :class:`ResiliencePolicy` attached this delegates to
        :meth:`request_resilient` (note a degraded fallback surfaces
        here as stale-but-served bytes); without one it is the legacy
        reform-on-failure loop, byte-compatible with the pre-policy
        behaviour.
        """
        if self.policy is not None:
            return self.request_resilient(body).value
        self._seq += 1
        seq = self._seq
        self.stats.requests += 1
        tr = self.tracer
        cm = tr.span(
            "session.request", observer="initiator",
            initiator=self.initiator.node_id, seq=seq,
        ) if tr else nullcontext()
        with cm as span:
            for attempt in range(1 + self.max_retries):
                if attempt:
                    self.stats.retries += 1
                response, broken = self._round_trip(body, seq)
                if response is not None:
                    self.stats.responses += 1
                    if attempt:
                        self.stats.recovered_responses += 1
                    if span is not None:
                        span.set(success=True, attempts=attempt + 1)
                    return response
                if broken is not None:
                    self._reform(broken)
            self.stats.failures += 1
            if span is not None:
                span.set(success=False, attempts=1 + self.max_retries)
            return None

    def close(self, delete_anchors: bool = True) -> None:
        """Tear the session down, retiring (and deleting) its anchors."""
        self.system.retire_tunnel(self.initiator, self.forward, delete=delete_anchors)
        self.system.retire_tunnel(self.initiator, self.reply, delete=delete_anchors)
