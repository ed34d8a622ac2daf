"""Round trips through the tunnel engine whose every observable is pinned.

Each scenario builds the same seeded 150-node system, forms one forward
and one reply tunnel, perturbs the world (stale hints, failed roots,
lost anchors, an installed fault verdict) and then runs
one request whose delivery triggers the reply, the way ``TapSession``
does.  :func:`observe` returns what the engine let anyone see: both
``ForwardTrace`` objects field by field, the span tree (names, parent
links, attributes — no clocks), the ``tap.*`` event records and the
``tap.*``/``faults.*``/``pastry.route.*`` instruments.

``walk_pins.json`` holds that output as recorded on the commit *before*
``_send_impl``/``_send_reply_impl`` became one hop walk (4c3452a); the
tests in ``test_forwarding_spans.py`` and ``test_forwarding_properties.py``
compare against it.  To re-record on a checkout of the engine that is
to be the reference::

    PYTHONPATH=<that checkout>/src:. python -m tests.core.walk_scenarios \
        > tests/core/walk_pins.json
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from repro.core.node import PendingReply
from repro.core.system import TapSystem
from repro.crypto.onion import build_reply_onion, make_fake_onion
from repro.faults.injectors import MessageFaultSpec, SyncFaultInjector
from repro.obs import EventTrace, MetricsRegistry, SpanTracer
from repro.util.rng import SeedSequenceFactory

PINS = Path(__file__).with_name("walk_pins.json")
DESTINATION = 0x5EED << 96
VERDICTS = ("drop", "corrupt", "partition", "byzantine")


def full_underlying_path(trace) -> list[int]:
    """A ``ForwardTrace``'s node sequence end to end, junction nodes once:
    the physical path the emulator's envelope must retrace."""
    path: list[int] = []
    for seg in [*(rec.underlying_path for rec in trace.records), trace.exit_path]:
        if path and seg and path[-1] == seg[0]:
            seg = seg[1:]
        path.extend(seg)
    return path


class World:
    """A fresh system with alice's two tunnels formed and (unless
    ``observed`` is off) a tracer, event trace and registry attached."""

    def __init__(self, hints: bool = False, observed: bool = True):
        self.system = TapSystem.bootstrap(num_nodes=150, seed=5, replication_factor=3)
        self.alice = self.system.tap_node(self.system.random_node_id("alice"))
        self.system.deploy_thas(self.alice, count=12)
        self.forward = self.system.form_tunnel(self.alice, length=3, use_hints=hints)
        self.reply = self.system.form_reply_tunnel(self.alice, length=3, use_hints=hints)
        if observed:
            self.tracer = SpanTracer()
            self.events = EventTrace()
            self.metrics = MetricsRegistry()
            self.system.attach_observability(
                metrics=self.metrics, event_trace=self.events, tracer=self.tracer
            )
        self.tunnels = {"forward": self.forward, "reply": self.reply}
        #: per direction: the fault verdict installed just before that
        #: traversal starts
        self.verdicts = {"forward": None, "reply": None}
        self.pass_expected_roots = False

    # -- perturbations --------------------------------------------------
    def root(self, tunnel, index: int = 1) -> int:
        return self.system.network.closest_alive(tunnel.hops[index].hop_id)

    def evict_hinted(self, tunnel) -> None:
        """Push hop 1's hinted node out of the replica set: the hint is
        alive but stale."""
        for off in range(1, self.system.store.k + 1):
            self.system.join_node(tunnel.hops[1].hop_id + off)

    def lose_anchor(self, tunnel) -> None:
        holders = list(self.system.store.holders(tunnel.hops[1].hop_id))
        self.system.fail_nodes(holders, repair_after=False)

    def _arm(self, kind: str) -> None:
        verdict = self.verdicts[kind]
        if verdict is None:
            return
        spec = MessageFaultSpec(**{verdict: 1.0}) if verdict in ("drop", "corrupt") else None
        injector = SyncFaultInjector(
            spec, seeds=SeedSequenceFactory(4),  # drops/corrupts leg 1 of the walk
            event_trace=self.events, metrics=self.metrics,
        )
        if verdict == "partition":
            injector.set_partition({self.root(self.tunnels[kind])})
        elif verdict == "byzantine":
            injector.byzantine_nodes[self.root(self.tunnels[kind])] = "drop-layer"
        self.system.forwarder.faults = injector

    # -- the request ----------------------------------------------------
    def round_trip(self) -> dict:
        system, reply = self.system, self.reply
        first_hop, blob = build_reply_onion(
            reply.onion_layers(), reply.bid, make_fake_onion(random.Random(1))
        )
        received: list[bytes] = []
        self.alice.register_pending(PendingReply(
            bid=reply.bid, callback=received.append,
        ))
        traces = {"forward": None, "reply": None}
        roots = (
            {h.hop_id: h.meta.get("formed_root") for h in reply.hops}
            if self.pass_expected_roots else None
        )

        def deliver(node_id: int, payload: bytes) -> None:
            self._arm("reply")
            traces["reply"] = system.forwarder.send_reply(
                node_id, first_hop, blob, b"pong:" + payload,
                expected_roots=roots,
            )

        self._arm("forward")
        traces["forward"] = system.forwarder.send(
            self.alice, self.forward, DESTINATION, b"ping",
            deliver=deliver,
        )
        self.alice.pending_replies.pop(reply.bid, None)
        return {"traces": traces, "received": received}


def _evict_hinted(w: World) -> None:
    w.evict_hinted(w.forward)
    w.evict_hinted(w.reply)


def _fail_roots(w: World) -> None:
    w.system.fail_node(w.root(w.forward))
    w.system.fail_node(w.root(w.reply))


def _fail_roots_known_to_reply(w: World) -> None:
    _fail_roots(w)
    w.pass_expected_roots = True


#: name -> (hinted tunnels?, what is done to the world before the request)
SCENARIOS = {
    "basic": (False, lambda w: None),
    "hint_hit": (True, lambda w: None),
    "hint_stale": (True, _evict_hinted),
    "hint_timeout": (True, _fail_roots),
    "promoted": (False, _fail_roots_known_to_reply),
}
for _kind in ("forward", "reply"):
    SCENARIOS[f"anchor_lost_{_kind}"] = (
        False, lambda w, kind=_kind: w.lose_anchor(w.tunnels[kind]))
    for _verdict in VERDICTS:
        SCENARIOS[f"{_verdict}_{_kind}"] = (
            False, lambda w, kind=_kind, verdict=_verdict: w.verdicts.update({kind: verdict}))


def _plain(value):
    """JSON-ready: 128-bit ids as their leading hex digits, bytes as hex."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value if value < 1 << 64 else f"{value:#034x}"[:12]
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, dict):
        return {str(_plain(k)): _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value]


def _trace(trace) -> dict | None:
    if trace is None:
        return None
    out = dataclasses.asdict(trace)
    out["overlay_hops"] = trace.overlay_hops
    out["underlying_hops"] = trace.underlying_hops
    return out


@lru_cache(maxsize=None)
def observe(name: str) -> dict:
    """Run scenario ``name`` and return everything it let anyone see."""
    hints, perturb = SCENARIOS[name]
    world = World(hints)
    perturb(world)
    world.tracer.clear()
    first_event = world.events.recorded
    result = world.round_trip()

    spans = sorted(world.tracer.finished, key=lambda s: s.span_id)
    index = {span.span_id: i for i, span in enumerate(spans)}
    instruments = {
        key: snap["value"] if snap["type"] == "counter" else [snap["count"], snap["sum"]]
        for key, snap in world.metrics.snapshot().items()
        if key.startswith(("tap.", "faults.", "pastry.route."))
    }
    return json.loads(json.dumps(_plain({
        "forward": _trace(result["traces"]["forward"]),
        "reply": _trace(result["traces"]["reply"]),
        "received": result["received"],
        "spans": [
            [span.name, index.get(span.parent_id), span.attrs] for span in spans
        ],
        "events": [
            [event.kind, event.fields]
            for event in list(world.events)[first_event:]
        ],
        "metrics": instruments,
    })))


@lru_cache(maxsize=None)
def pinned() -> dict:
    return json.loads(PINS.read_text())


if __name__ == "__main__":
    json.dump({name: observe(name) for name in SCENARIOS}, sys.stdout,
              separators=(",", ":"), sort_keys=True)
    sys.stdout.write("\n")
