"""End-to-end timing analysis (the §6 "case 2" attack).

An adversary controlling both the *first* and the *tail* tunnel hop
node of a tunnel can correlate a message entering the tunnel with the
corresponding exit toward the destination: same apparent size, exit
shortly after entry.  The paper argues the attack is weak in TAP —
the first hop cannot prove it is first — and declines cover traffic
despite it being the standard countermeasure, citing bandwidth cost.

This module quantifies both sides on the event-driven emulation:

* :class:`TimingAnalysisAdversary` subscribes to the emulation's
  message taps at its coalition's nodes and emits (initiator,
  destination) *claims* from size-and-window correlation;
* :func:`evaluate_claims` scores precision/recall against ground
  truth — run with and without cover traffic (and with size padding)
  to see what each defence buys and costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimingEvent:
    """One observed physical delivery at a coalition node."""

    time: float
    src: int
    dst: int
    size_bits: float


@dataclass(frozen=True)
class RevealEvent:
    """An exit layer peeled at a coalition node: destination learned."""

    time: float
    node: int
    destination_key: int
    size_bits: float


@dataclass(frozen=True)
class Claim:
    """The adversary's assertion: ``initiator`` talked to ``destination``."""

    initiator: int
    destination: int
    entry_time: float
    exit_time: float


@dataclass(frozen=True)
class TransmissionTruth:
    """Ground truth for one tunnel transmission (scoring only)."""

    initiator: int
    destination: int
    started_at: float
    finished_at: float


@dataclass
class TimingAnalysisAdversary:
    """Coalition that records traffic at its nodes and correlates.

    ``resolve_destination`` maps a revealed destination *key* to the
    node that will serve it — any DHT participant can compute this, so
    granting it to the adversary adds no power beyond §6's model.
    """

    malicious_ids: set[int]
    resolve_destination: "callable" = staticmethod(lambda key: key)
    events: list[TimingEvent] = field(default_factory=list)
    reveals: list[RevealEvent] = field(default_factory=list)

    def tap(self, now: float, src: int, dst: int, size_bits: float) -> None:
        """Metadata tap: wire into ``TapEmulation.taps``."""
        if dst in self.malicious_ids or src in self.malicious_ids:
            self.events.append(TimingEvent(now, src, dst, size_bits))

    def content_tap(self, now: float, node: int, destination_key: int, size_bits: float) -> None:
        """Exit-layer tap: wire into ``TapEmulation.content_taps``.

        Fires for every exit peel in the system; only coalition nodes'
        own peels are retained (honest nodes don't leak)."""
        if node in self.malicious_ids:
            self.reveals.append(RevealEvent(now, node, destination_key, size_bits))

    # ------------------------------------------------------------------
    def claims(self, window_seconds: float, size_tolerance_bits: float = 0.0) -> list[Claim]:
        """Correlate tunnel *entries* with *exit reveals*.

        An entry is a delivery **to** a coalition node from a
        non-coalition node — the sender is the initiator iff that
        coalition node happens to be the first hop (§6: "it can only
        guess that its immediate predecessor is the initiator"; with
        the §5 direct-send optimisation the physical predecessor *is*
        the previous hop or the initiator).  An exit reveal pins the
        destination exactly (the tail reads it).  Pairing is
        reveal-centric: for each reveal, the **earliest** unused entry
        of matching size within the window — the message touched the
        first coalition node before any later one, so the earliest
        touchpoint is the best initiator candidate.
        """
        entries = sorted(
            (
                e for e in self.events
                if e.dst in self.malicious_ids and e.src not in self.malicious_ids
            ),
            key=lambda e: e.time,
        )
        out: list[Claim] = []
        used: set[int] = set()
        for reveal in sorted(self.reveals, key=lambda e: e.time):
            for idx, entry in enumerate(entries):
                if idx in used:
                    continue
                if entry.time > reveal.time:
                    break
                if reveal.time - entry.time > window_seconds:
                    continue
                if abs(reveal.size_bits - entry.size_bits) > size_tolerance_bits:
                    continue
                out.append(
                    Claim(
                        entry.src,
                        self.resolve_destination(reveal.destination_key),
                        entry.time,
                        reveal.time,
                    )
                )
                used.add(idx)
                break
        return out


def evaluate_claims(
    claims: list[Claim],
    truths: list[TransmissionTruth],
) -> dict[str, float]:
    """Precision/recall of (initiator, destination) identification.

    A claim is correct iff some transmission matches both endpoints and
    the claim's entry/exit times fall inside that transmission's span.
    """
    def matches(claim: Claim, truth: TransmissionTruth) -> bool:
        return (
            claim.initiator == truth.initiator
            and claim.destination == truth.destination
            and truth.started_at - 1e-9 <= claim.entry_time
            and claim.exit_time <= truth.finished_at + 1e-9
        )

    correct = sum(
        1 for claim in claims if any(matches(claim, t) for t in truths)
    )
    identified = sum(
        1 for truth in truths if any(matches(c, truth) for c in claims)
    )
    return {
        "claims": float(len(claims)),
        "precision": correct / len(claims) if claims else 0.0,
        "recall": identified / len(truths) if truths else 0.0,
    }
