"""Causal span tracing: OpenTelemetry-style trees over TAP's hot paths.

A :class:`SpanTracer` issues trace/span ids and records *spans* —
named, timed intervals arranged in a tree: one trace per end-to-end
request (a tunnel send, a retrieval, a session round trip, an emulated
transmission), one child span per tunnel hop, and grandchildren for
the work a hop actually performs (``onion.peel``, ``dht.route``,
``hint.probe``, ``failover.repair``).  This is the attribution layer
the flat counters of :mod:`repro.obs.metrics` cannot provide: *where*
did one message's latency go?

Two time domains coexist:

* **wall clock** (``time.perf_counter``) — every span gets it for
  free; meaningful for the synchronous engine, where real computation
  (crypto, routing-table walks) is the cost;
* **simulated time** — spans whose cost is modelled (underlying-hop
  latency in Figure 6, the discrete-event emulation's clock) carry
  explicit ``sim_start``/``sim_end`` set via :meth:`Span.set_sim`;
  exports prefer the simulated domain when present.

Spans additionally carry a ``links`` attribute (physical-link count),
so simulated-cost attribution works even for wall-clock spans.

Context propagation is explicit: callers pass a parent :class:`Span`
(or :class:`SpanContext`) across layer boundaries.  Within one layer
the :meth:`SpanTracer.span` context manager maintains a current-span
stack, so nested substrates (e.g. ``PastryNetwork.route`` under a
forwarder hop span) attach to the right parent without threading a
context through every signature.

Disabled tracing is free: substrates hold ``tracer = None`` by default
and guard with one ``None``/truthiness check; ``None`` is the only way
to say "tracing off".

Export is Chrome trace-event JSON (``{"traceEvents": [...]}``) —
loadable in Perfetto or ``chrome://tracing`` — with each trace on its
own track and span/parent ids preserved in ``args`` so
:mod:`repro.obs.critical_path` can rebuild the trees.

**Redaction mode** keeps the exported format honest to TAP's threat
model: a span record at hop *i* may only name what an observer at that
hop sees.  Each span is tagged with an ``observer`` attribute
(``initiator`` / ``hop`` / ``exit``); redacted export strips the
attribute keys that viewpoint cannot know, so no single record links
the initiator to the responder (see :func:`redact_attrs`).  Trace ids
still correlate records of one request — redaction is about what each
*record* asserts, not about hiding that a request happened.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple


class SpanContext(NamedTuple):
    """The propagatable identity of a span (what crosses boundaries)."""

    trace_id: int
    span_id: int


class Span:
    """One named, timed node of a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start", "end", "sim_start", "sim_end", "attrs")

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.sim_start: float | None = None
        self.sim_end: float | None = None
        self.attrs: dict = {}

    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def set_sim(self, start: float, end: float) -> "Span":
        """Attach simulated-clock bounds (seconds); export prefers them."""
        self.sim_start = start
        self.sim_end = end
        return self

    @property
    def wall_duration(self) -> float:
        if self.end is None:
            raise ValueError("span not finished")
        return self.end - self.start

    @property
    def sim_duration(self) -> float | None:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    @property
    def duration(self) -> float:
        """Simulated duration when set, else wall-clock duration."""
        sim = self.sim_duration
        return sim if sim is not None else self.wall_duration


# ----------------------------------------------------------------------
# redaction (anonymity-aware export)
# ----------------------------------------------------------------------

#: attribute keys that identify the initiator side of a request
INITIATOR_KEYS = frozenset({"initiator", "bid", "delivered", "matched_bid"})
#: attribute keys that identify the responder side
RESPONDER_KEYS = frozenset({"destination", "responder", "fid"})
#: attribute keys that identify intermediate infrastructure
HOP_KEYS = frozenset({"hop_node", "hop_id", "path", "src", "hinted", "dst"})


def redact_attrs(observer: str | None, attrs: dict) -> dict:
    """Strip the attribute keys the span's viewpoint cannot know.

    * ``initiator`` spans keep initiator identity but lose responder
      and hop identities (the initiator only ever contacts hop 1);
    * ``exit`` spans keep responder and hop identities but lose the
      initiator's (the exit cannot see past the tail hop);
    * ``hop`` spans (and untagged spans, conservatively) keep only
      their own infrastructure view — and also lose termination
      markers like ``delivered``, preserving §4's property that a
      reply's last hop is indistinguishable from a relay.

    No surviving record carries both an initiator and a responder key.
    """
    if observer == "initiator":
        drop = RESPONDER_KEYS | HOP_KEYS
    elif observer == "exit":
        drop = INITIATOR_KEYS
    else:
        drop = INITIATOR_KEYS | RESPONDER_KEYS
    return {k: v for k, v in attrs.items() if k not in drop}


# ----------------------------------------------------------------------
# phase taxonomy (shared with repro.obs.critical_path)
# ----------------------------------------------------------------------

#: canonical latency-attribution phases, in report order
PHASES = ("crypto", "routing", "hint-probe", "repair", "other")

_PHASE_PREFIXES = (
    ("onion.", "crypto"),
    ("crypto.", "crypto"),
    ("hint.", "hint-probe"),
    ("dht.", "routing"),
    ("exit.", "routing"),
    ("pastry.", "routing"),
    ("failover.", "repair"),
    ("past.", "repair"),
    ("session.reform", "repair"),
)


def phase_of(name: str) -> str:
    """Map a span name to its latency-attribution phase."""
    for prefix, phase in _PHASE_PREFIXES:
        if name.startswith(prefix):
            return phase
    return "other"


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class SpanTracer:
    """Issues ids, times spans, keeps the finished-span ring.

    Ids are plain counters — deterministic, seed-free, and unique per
    tracer; anonymity lives in the *export redaction*, not in id
    unguessability (this is an observability artifact, not a wire
    protocol).
    """

    def __init__(self, capacity: int = 1 << 20, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("span capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self.finished: deque[Span] = deque(maxlen=capacity)
        #: total spans ever finished (>= len once the ring wrapped)
        self.completed = 0
        self._stack: list[Span] = []
        self._next_span = 0
        self._next_trace = 0

    # -- id plumbing ----------------------------------------------------
    def _new_ids(self, parent: SpanContext | None) -> tuple[int, int, int | None]:
        span_id = self._next_span
        self._next_span += 1
        if parent is None:
            trace_id = self._next_trace
            self._next_trace += 1
            return trace_id, span_id, None
        return parent.trace_id, span_id, parent.span_id

    @staticmethod
    def _resolve(parent) -> SpanContext | None:
        if parent is None:
            return None
        if isinstance(parent, Span):
            return parent.context()
        return SpanContext(*parent)

    def current(self) -> Span | None:
        """Innermost span opened via :meth:`enter` / the :meth:`span` context manager."""
        return self._stack[-1] if self._stack else None

    # -- span lifecycle -------------------------------------------------
    def start_trace(self, name: str, **attrs) -> Span:
        """Open a root span of a brand-new trace (ignores the stack)."""
        return self._start(name, None, attrs)

    def start_span(self, name: str, parent=None, **attrs) -> Span:
        """Open a span; ``parent=None`` attaches to the current stack
        span when one is open, else starts a new trace."""
        ctx = self._resolve(parent) if parent is not None else (
            self.current().context() if self._stack else None
        )
        return self._start(name, ctx, attrs)

    def _start(self, name: str, ctx: SpanContext | None, attrs: dict) -> Span:
        trace_id, span_id, parent_id = self._new_ids(ctx)
        span = Span(trace_id, span_id, parent_id, name, self._clock())
        if attrs:
            span.attrs.update(attrs)
        return span

    def finish(self, span: Span, **attrs) -> Span:
        """Close a span (idempotent end-time) and commit it to the ring."""
        if attrs:
            span.attrs.update(attrs)
        if span.end is None:
            span.end = self._clock()
        self.finished.append(span)
        self.completed += 1
        return span

    def enter(self, name: str, parent=None, **attrs) -> Span:
        """:meth:`start_span`, and the span is :meth:`current` — the
        implicit parent of whatever nested substrates open — until the
        matching :meth:`exit`."""
        s = self.start_span(name, parent=parent, **attrs)
        self._stack.append(s)
        return s

    def exit(self, span: Span, **attrs) -> Span:
        """Leave the innermost entered span and :meth:`finish` it."""
        self._stack.pop()
        return self.finish(span, **attrs)

    @contextmanager
    def span(self, name: str, parent=None, **attrs) -> Iterator[Span]:
        """:meth:`enter`/:meth:`exit` around a block."""
        s = self.enter(name, parent=parent, **attrs)
        try:
            yield s
        finally:
            self.exit(s)

    def add_span(
        self,
        name: str,
        parent=None,
        sim_start: float | None = None,
        sim_end: float | None = None,
        **attrs,
    ) -> Span:
        """Record an already-elapsed span in one call (used by the
        simulated-time instrumentation, where bounds are known)."""
        s = self.start_span(name, parent=parent, **attrs)
        if sim_start is not None and sim_end is not None:
            s.set_sim(sim_start, sim_end)
        s.end = s.start
        return self.finish(s)

    # -- access ---------------------------------------------------------
    def __bool__(self) -> bool:
        # Always truthy — without this, ``__len__`` would make an
        # *empty* tracer falsy and every ``if tracer:`` guard would
        # silently skip the first spans.
        return True

    def __len__(self) -> int:
        return len(self.finished)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.finished)

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring bound."""
        return self.completed - len(self.finished)

    def clear(self) -> None:
        self.finished.clear()
        self.completed = 0
        # id counters stay monotone so old exports never collide

    def absorb(self, spans: Iterable[Span]) -> int:
        """Adopt finished spans from another tracer (a parallel worker).

        Worker tracers allocate trace/span ids from their own counters,
        so the incoming ids are remapped by this tracer's current
        counters — parent links survive, and absorbing workers in trial
        order yields the same id assignment on every run.  Returns the
        number of spans absorbed.
        """
        span_base = self._next_span
        trace_base = self._next_trace
        max_span = -1
        max_trace = -1
        absorbed = 0
        for s in spans:
            remapped = Span(
                s.trace_id + trace_base,
                s.span_id + span_base,
                None if s.parent_id is None else s.parent_id + span_base,
                s.name,
                s.start,
            )
            remapped.end = s.end
            remapped.sim_start = s.sim_start
            remapped.sim_end = s.sim_end
            remapped.attrs = dict(s.attrs)
            self.finished.append(remapped)
            self.completed += 1
            absorbed += 1
            if s.span_id > max_span:
                max_span = s.span_id
            if s.trace_id > max_trace:
                max_trace = s.trace_id
        self._next_span = span_base + max_span + 1
        self._next_trace = trace_base + max_trace + 1
        return absorbed

    # -- export ---------------------------------------------------------
    def chrome_events(self, redact: bool = False) -> list[dict]:
        """Spans as Chrome trace-event dicts (``ph: "X"`` complete events).

        Wall-clock spans are re-based to the earliest wall start so
        timestamps are small; simulated spans use their own clock.
        Timestamps/durations are microseconds (floats allowed).
        """
        wall_epoch = min(
            (s.start for s in self.finished if s.sim_start is None),
            default=0.0,
        )
        events: list[dict] = []
        for s in self.finished:
            sim = s.sim_start is not None and s.sim_end is not None
            if sim:
                ts, dur = s.sim_start, s.sim_end - s.sim_start
            else:
                ts = s.start - wall_epoch
                dur = (s.end - s.start) if s.end is not None else 0.0
            observer = s.attrs.get("observer")
            attrs = redact_attrs(observer, s.attrs) if redact else dict(s.attrs)
            args = {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "clock": "sim" if sim else "wall",
                **attrs,
            }
            events.append({
                "name": s.name,
                "cat": phase_of(s.name),
                "ph": "X",
                "ts": ts * 1e6,
                "dur": dur * 1e6,
                "pid": 1,
                "tid": s.trace_id,
                "args": args,
            })
        return events

    def export_chrome(self, redact: bool = False) -> dict:
        return {
            "traceEvents": self.chrome_events(redact=redact),
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.spans",
                "redacted": redact,
                "dropped_spans": self.dropped,
            },
        }

    def to_json(self, redact: bool = False, indent: int | None = None) -> str:
        return json.dumps(self.export_chrome(redact=redact), indent=indent)

    def dump(self, path, redact: bool = False) -> int:
        """Write the Chrome trace JSON to ``path``; returns span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(redact=redact))
            fh.write("\n")
        return len(self.finished)
