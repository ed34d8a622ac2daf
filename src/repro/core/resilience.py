"""Initiator-side resilience policies for deployed-world faults.

The paper's fault story (§1, §4.2) is structural: tunnels named by
hopids survive hop-node failure because routing lands on a promoted
PAST replica.  A deployed initiator still needs *policy* on top of
that structure — lossy links, partitions and Byzantine hops produce
failures that replica fail-over alone cannot mask.  This module is
that policy layer, driven by
:meth:`repro.core.session.TapSession.request_resilient`:

* **bounded retries** (:func:`run_attempts`, the one attempt loop);

and, on the resilient arm only,

* exponential backoff with *deterministic* jitter (drawn from a
  :mod:`repro.util.rng` stream, so a chaos run replays bit-identically);
* a **per-tunnel circuit breaker** that trips after consecutive
  unattributed failures and routes around them via proactive tunnel
  reform;
* **hedged health probes** — on an ambiguous failure both tunnels are
  probed together rather than blindly reformed in sequence;
* **graceful degradation** — when every attempt fails, serve the
  last-known-good reply with an explicit ``degraded`` flag instead of
  surfacing a hard failure.

The reactive arm (:meth:`ResiliencePolicy.reactive`) reforms whichever
tunnel an attempt broke on and retries at once.

Everything here is pure initiator-local state: no global knowledge,
no wall clock, no hidden randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable


#: resilient-arm backoff before retry n: BASE_BACKOFF_S *
#: BACKOFF_FACTOR^(n-1), capped at MAX_BACKOFF_S, scaled by 1 +/- JITTER
BASE_BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 1.0
JITTER = 0.25
#: consecutive unattributed failures before a tunnel's breaker trips
BREAKER_THRESHOLD = 3
#: consecutive failures before a share holder's breaker opens
HOLDER_BREAKER_THRESHOLD = 2


@dataclass(frozen=True)
class ResiliencePolicy:
    """How many times an initiator retries, and on which arm (immutable,
    hashable).

    The resilient arm backs off, probes both tunnels on a failure,
    reforms proactively when a breaker trips and serves last-known-good
    on exhaustion; the defaults (3 retries) absorb ~5% message loss to
    better than 99% availability in the chaos plans shipped in
    :mod:`repro.faults.plan`.
    """

    #: bounded retries per request (attempts = 1 + max_retries)
    max_retries: int = 3
    #: the resilient arm; False is the reactive arm (:meth:`reactive`)
    resilient: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @classmethod
    def reactive(cls, max_retries: int) -> "ResiliencePolicy":
        """Reform whichever tunnel an attempt broke on and retry — no
        backoff, no probes, no proactive reform, no fallback.  The
        paper's structural fail-over plus the least an initiator can
        do: the session default, and with zero retries the chaos
        baseline."""
        return cls(max_retries, resilient=False)

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based), with jitter.

        The jitter is one draw from the caller's seeded stream, so two
        runs with the same seed wait identical (virtual) times; the
        reactive arm waits nothing and draws nothing.
        """
        if attempt < 1 or not self.resilient:
            return 0.0
        base = min(MAX_BACKOFF_S, BASE_BACKOFF_S * BACKOFF_FACTOR ** (attempt - 1))
        return base * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


class CircuitBreaker:
    """Consecutive-failure breaker guarding one tunnel.

    ``closed`` (healthy) → ``open`` after ``threshold`` consecutive
    failures → ``half-open`` once the tunnel has been reformed (the
    route-around) → back to ``closed`` on the next success.
    """

    def __init__(self, threshold: int = BREAKER_THRESHOLD):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0

    def record_failure(self) -> bool:
        """Count one failure; True iff the breaker tripped open now."""
        self.consecutive_failures += 1
        if self.state != "open" and self.consecutive_failures >= self.threshold:
            self.state = "open"
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = "closed"

    def on_reform(self) -> None:
        """The guarded tunnel was replaced: probe the new one."""
        self.state = "half-open"
        self.consecutive_failures = 0


@dataclass
class ResilientReply:
    """Outcome of one policy-managed request."""

    value: bytes | None
    #: the value is a last-known-good fallback, not a fresh round trip
    degraded: bool = False
    #: the round trip succeeded but needed at least one retry
    recovered: bool = False
    attempts: int = 1
    #: total (virtual) backoff waited across retries
    waited_s: float = 0.0
    #: tunnels reformed while serving this request
    reformed: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """A genuine, non-degraded response was obtained."""
        return self.value is not None and not self.degraded


def run_attempts(
    policy: ResiliencePolicy,
    rng: random.Random,
    attempt: Callable[[], tuple[bytes | None, str | None]],
    repair: Callable[[str | None], Iterable[str]],
    last_known_good: bytes | None = None,
) -> ResilientReply:
    """The one attempt loop: try, repair what broke, back off, retry.

    ``attempt() -> (value, broken)`` is one round trip: its value, or
    ``None`` and the tunnel the failure implicates (``"forward"`` /
    ``"reply"`` / ``None``).  ``repair(broken)`` runs after *every*
    failed attempt, the last included — the next request starts on
    repaired tunnels — and returns the tunnels it reformed.  On the
    resilient arm backoff jitter is drawn from ``rng`` before each
    retry and, when every attempt fails, ``last_known_good`` (if any)
    is served, flagged ``degraded``.
    """
    reformed: list[str] = []
    waited = 0.0
    attempts = 1 + policy.max_retries
    for n in range(attempts):
        if n:
            waited += policy.backoff_delay(n, rng)
        value, broken = attempt()
        if value is not None:
            return ResilientReply(
                value, recovered=n > 0, attempts=n + 1, waited_s=waited,
                reformed=tuple(reformed),
            )
        reformed.extend(repair(broken))
    degraded = policy.resilient and last_known_good is not None
    return ResilientReply(
        last_known_good if degraded else None, degraded=degraded,
        attempts=attempts, waited_s=waited, reformed=tuple(reformed),
    )


class ShareHolderHealth:
    """Per-share-holder circuit breakers for degraded reads.

    One :class:`CircuitBreaker` per holder node: holders whose breaker
    is open (they recently served corrupt or missing shares) are
    probed *last*, so repeated degraded reads converge onto the
    healthy subset without ever abandoning a holder outright — an
    open breaker only deprioritises, because in a k-of-n gather a
    recovered holder may be the difference between decode and loss.
    """

    def __init__(self):
        self.breakers: dict[int, CircuitBreaker] = {}

    def breaker(self, holder: int) -> CircuitBreaker:
        br = self.breakers.get(holder)
        if br is None:
            br = self.breakers[holder] = CircuitBreaker(HOLDER_BREAKER_THRESHOLD)
        return br

    def is_open(self, holder: int) -> bool:
        br = self.breakers.get(holder)
        return br is not None and br.state == "open"

    def order(self, holders: list[int]) -> list[int]:
        """Stable re-ordering: open-breaker holders sink to the end."""
        return sorted(holders, key=self.is_open)

    def record(self, holder: int, ok: bool) -> None:
        """Feed one probe outcome back into the holder's breaker."""
        if ok:
            self.breaker(holder).record_success()
        else:
            self.breaker(holder).record_failure()


def anchors_reachable(network, store, hops) -> bool:
    """Object-level tunnel health: every hop anchor is served by the
    node routing currently reaches.

    This is the initiator-local health check used for reply tunnels
    (which cannot be loop-probed without revealing the ``bid``): the
    initiator formed the tunnel, so it knows the hop ids and may ask
    its own overlay view whether each anchor is still reachable.
    """
    for tha in hops:
        root = network.closest_alive(tha.hop_id)
        if root is None or not store.storage_of(root).contains(tha.hop_id):
            return False
    return True
