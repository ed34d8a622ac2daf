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
from dataclasses import dataclass
from typing import Callable

from repro.core.node import TapNode
from repro.core.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientReply,
    anchors_reachable,
    run_attempts,
)
from repro.core.tunnel import ReplyTunnel, Tunnel
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
        policy: ResiliencePolicy = ResiliencePolicy.reactive(2),
    ):
        self.system = system
        self.initiator = initiator
        self.server = server
        #: how a failed round trip is retried and repaired; the default
        #: reforms whichever tunnel broke and retries, nothing more
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
        self._breakers = {"forward": CircuitBreaker(), "reply": CircuitBreaker()}
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
            if which == "forward":
                self.forward = self.system.reform_tunnel(self.initiator, self.forward)
            else:
                self.reply = self.system.reform_tunnel(self.initiator, self.reply)

    def _round_trip(
        self, body: bytes, seq: int
    ) -> tuple[bytes | None, str | None]:
        """One attempt: request out, response back.

        Returns ``(response, broken)``: on failure the response is
        ``None`` and ``broken`` names the tunnel the failure implicates
        (``"forward"``/``"reply"``, or ``None`` for a stale/malformed
        response that implicates neither).  :meth:`_handle_failure`
        owns the repair decision.
        """
        server = self.server

        def respond(node_id: int, payload: bytes) -> bytes | None:
            if node_id != server.node_id:
                return None  # request surfaced at the wrong node: dropped
            return server.serve(payload)

        ex = self.system.forwarder.round_trip(
            self.initiator, self.forward, self.reply,
            self.reply.capsule(self._fake_rng), server.node_id,
            pack_fields(pack_int(seq, width=8), body), respond,
        )
        if ex.received is None:
            # An initiator that hears nothing over an intact forward
            # tunnel cannot tell an absent server from a lost reply.
            return None, ex.broken or "reply"
        try:
            seq_b, response_body = unpack_fields(ex.received, count=2)
            if unpack_int(seq_b, width=8) != seq:
                return None, None  # stale/replayed response
        except SerializationError:
            return None, None
        return response_body, None

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

    def _handle_failure(self, broken: str | None) -> list[str]:
        """Diagnose one failed attempt and repair what it implicates;
        returns the tunnels reformed.

        A suspect tunnel — probed unhealthy, or on the reactive arm the
        one the attempt broke on — is reformed immediately
        (reactive repair).  Ambiguous failures — probes say healthy, so
        likely transient loss — only feed the breakers: retrying without
        churning tunnels is the right move, until consecutive mysteries
        trip a breaker and force a proactive route-around reform.  The
        reactive arm has nothing for a trip to drive, so its breakers
        are not fed.
        """
        resilient = self.policy.resilient
        if resilient:
            health = self._probe_health()
            suspects = tuple(w for w, ok in health.items() if not ok)
        else:
            suspects = (broken,) if broken else ()
        reformed: list[str] = []
        for which in ("forward", "reply"):
            if suspects and which not in suspects:
                continue
            breaker = self._breakers[which]
            if resilient and breaker.record_failure():
                self.stats.breaker_trips += 1
            proactive = which not in suspects and breaker.state == "open"
            if which in suspects or proactive:
                self._reform(which)
                self.stats.proactive_reforms += proactive
                reformed.append(which)
                breaker.on_reform()
        return reformed

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def request_resilient(self, body: bytes) -> ResilientReply:
        """Send one request under the session's resilience policy.

        Bounded retries (:func:`repro.core.resilience.run_attempts`),
        each failure diagnosed and repaired by :meth:`_handle_failure`,
        and (on the resilient arm) a last-known-good fallback
        with an explicit ``degraded`` flag instead of a hard failure.
        """
        self._seq += 1
        seq = self._seq
        stats = self.stats
        stats.requests += 1
        tr = self.tracer
        cm = tr.span(
            "session.request", observer="initiator",
            initiator=self.initiator.node_id, seq=seq,
        ) if tr else nullcontext()
        with cm as span:
            reply = run_attempts(
                self.policy, self._backoff_rng,
                lambda: self._round_trip(body, seq),
                self._handle_failure, self._last_known_good,
            )
            stats.retries += reply.attempts - 1
            stats.backoff_wait_s += reply.waited_s
            if reply.ok:
                stats.responses += 1
                stats.recovered_responses += reply.recovered
                for breaker in self._breakers.values():
                    breaker.record_success()
                self._last_known_good = reply.value
            else:
                stats.failures += 1
                stats.degraded_responses += reply.degraded
            if span is not None:
                span.set(success=reply.ok, attempts=reply.attempts,
                         recovered=reply.recovered, degraded=reply.degraded)
        return reply

    def request(self, body: bytes) -> bytes | None:
        """:meth:`request_resilient`, keeping only the bytes (note a
        degraded fallback surfaces here as stale-but-served bytes)."""
        return self.request_resilient(body).value

    def close(self, delete_anchors: bool = True) -> None:
        """Tear the session down, retiring (and deleting) its anchors."""
        self.system.retire_tunnel(self.initiator, self.forward, delete=delete_anchors)
        self.system.retire_tunnel(self.initiator, self.reply, delete=delete_anchors)
