"""One hop step, two drivers: the emulator against the synchronous walk.

Both engines drive :func:`repro.core.hop.match_reply` and
:func:`repro.core.hop.serve_hop`; only how a message reaches the next
node differs.  Each test builds the *same* seeded
:class:`~tests.core.walk_scenarios.World` twice (a round trip mutates
it), runs one request-and-reply through ``TunnelForwarder`` in the
first and through ``TapEmulation`` in the second, and demands the same
payloads, destinations, callback count, physical paths, failure reasons
and ``tap.peel.*`` counters — plus, on the emulated side, a latency
equal to the Figure-6 formula over the recorded path wherever no
timeout was charged.

The fault-verdict scenarios of ``walk_scenarios`` are properties of
the synchronous driver (one verdict per traversal) and are pinned in
``test_forwarding_spans.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.emulation import CONTROL_BITS, TapEmulation
from repro.core.node import PendingReply
from repro.crypto.onion import build_onion, build_reply_onion, make_fake_onion
from repro.faults.injectors import MessageFaultSpec
from repro.faults.plan import FaultPlan
from repro.simnet.topology import Topology
from repro.util.rng import SeedSequenceFactory

from tests.conftest import crash_unnoticed, path_transfer_time
from tests.core.walk_scenarios import DESTINATION, SCENARIOS, World, full_underlying_path

#: the scenarios that are about what a hop node does
HOP_SCENARIOS = (
    "basic", "hint_hit", "hint_stale", "hint_timeout", "promoted",
    "anchor_lost_forward", "anchor_lost_reply",
)
REQUEST, REPLY = b"ping", b"pong:ping"


def emulated_round_trip(world: World, emu: TapEmulation) -> dict:
    """``World.round_trip`` through the event-driven engine: the
    forward transmission's delivery triggers the reply."""
    reply = world.reply
    first_hop, blob = build_reply_onion(
        reply.onion_layers(), reply.bid, make_fake_onion(random.Random(1))
    )
    received: list[bytes] = []
    world.alice.register_pending(PendingReply(bid=reply.bid, callback=received.append))
    traces = {"forward": None, "reply": None}

    def answer(forward) -> None:
        if forward.delivered:
            traces["reply"] = emu.send_reply_through_tunnel(
                forward.destination, first_hop, blob, b"pong:" + forward.payload
            )

    traces["forward"] = emu.send_through_tunnel(
        world.alice, world.forward, DESTINATION, REQUEST, on_done=answer
    )
    emu.simulator.run()
    pending = world.alice.pending_replies.pop(reply.bid)
    return {"traces": traces, "received": received, "completed": pending.completed}


def _peel_counters(world: World) -> dict:
    return {
        name: snap["value"] for name, snap in world.metrics.snapshot().items()
        if name.startswith("tap.peel.")
    }


def _peeled_at(world: World) -> list[int]:
    """Nodes that served a layer, in order (both engines span a peel)."""
    spans = sorted(world.tracer.finished, key=lambda s: s.span_id)
    return [s.attrs["hop_node"] for s in spans if s.name == "onion.peel"]


def assert_same_round_trip(perturb, hints=False, same_paths=True, perturb_emulator=None):
    """Run ``perturb``-ed twin worlds through both engines and compare
    everything either lets an endpoint see; returns the emulated result
    and the two worlds.  ``perturb_emulator(world, emu)``, if given,
    replaces ``perturb`` on the emulated side."""
    walked, emulated = World(hints), World(hints)
    perturb(walked)
    if perturb_emulator is None:
        perturb(emulated)
    topology = Topology(seed=5)
    emu = TapEmulation.from_system(emulated.system, topology=topology)
    if perturb_emulator is not None:
        perturb_emulator(emulated, emu)
    want = walked.round_trip()
    got = emulated_round_trip(emulated, emu)

    assert got["received"] == want["received"]  # the callback: same, at most once
    for kind, sent in (("forward", REQUEST), ("reply", REPLY)):
        walk, emu = want["traces"][kind], got["traces"][kind]
        if walk is None:  # the request never arrived: nothing to answer
            assert emu is None
            continue
        assert emu.delivered == walk.success
        assert emu.failed_reason == walk.failure_reason
        if same_paths:
            assert emu.path == full_underlying_path(walk)
        if emu.delivered:
            assert emu.payload == walk.delivered_payload == sent
            assert emu.destination == (walk.exit_path or full_underlying_path(walk))[-1]
            if not emu.timeouts:
                assert emu.latency == pytest.approx(path_transfer_time(
                    topology, emu.path, 8.0 * len(sent) + CONTROL_BITS,
                ), abs=1e-9)
    assert _peel_counters(emulated) == _peel_counters(walked)
    return got, walked, emulated


@pytest.mark.parametrize("name", HOP_SCENARIOS)
def test_round_trip_is_the_same_in_both_engines(name):
    hints, perturb = SCENARIOS[name]
    got, _, _ = assert_same_round_trip(perturb, hints)
    delivered = not name.startswith("anchor_lost")
    assert got["received"] == ([REPLY] if delivered else [])
    assert got["completed"] is delivered
    forward = got["traces"]["forward"]
    # a dead hinted node is found by timeout, a stale one by asking it
    assert forward.timeouts == (1 if name == "hint_timeout" else 0)
    assert forward.hint_failures == (1 if name in ("hint_stale", "hint_timeout") else 0)


def test_stale_leaf_differs_in_transport_only():
    """A dead next hop still in its neighbours' leaf sets is discovered
    on the way: the emulator times out, the overlay hears of the crash
    and the sender re-sends (a round trip charged), where the walk meets
    an overlay that already knows.  The physical paths may then
    legitimately differ, so this case compares the nodes that served
    the layers, the payloads and the reasons — not the paths."""
    def victims(world: World) -> tuple[int, int]:
        return world.root(world.forward), world.root(world.reply)

    def perturb(world: World) -> None:
        for victim in victims(world):
            world.system.fail_node(victim)

    def crash(world: World, emu: TapEmulation) -> None:
        for victim in victims(world):
            crash_unnoticed(emu, victim)

    got, walked, emulated = assert_same_round_trip(
        perturb, same_paths=False, perturb_emulator=crash
    )
    assert got["received"] == [REPLY]
    assert sum(t.timeouts for t in got["traces"].values()) >= 1
    assert _peeled_at(emulated) == _peeled_at(walked)


def test_fail_then_revive_through_the_emulator():
    """``TapEmulation.fail_node`` / ``revive_node`` keep overlay, store
    and fabric in step: the hop is served by the promoted replica while
    its root is down and by the root again once it is back — the nodes
    ``TapSystem.fail_node`` / ``revive_node`` give the walk."""
    walked, emulated = World(), World()
    emu = TapEmulation.from_system(emulated.system, topology=Topology(seed=5))
    victim = walked.root(walked.forward)
    assert victim == emulated.root(emulated.forward)

    walked.system.fail_node(victim)
    emu.fail_node(victim)
    down = emulated_round_trip(emulated, emu)
    want = walked.round_trip()
    assert down["received"] == want["received"] == [REPLY]
    assert victim not in down["traces"]["forward"].path
    assert down["traces"]["forward"].path == full_underlying_path(want["traces"]["forward"])

    walked.system.revive_node(victim)
    emu.revive_node(victim)
    back = emulated_round_trip(emulated, emu)
    want = walked.round_trip()
    assert back["received"] == want["received"] == [REPLY]
    assert victim in back["traces"]["forward"].path
    for kind in ("forward", "reply"):
        assert back["traces"][kind].path == full_underlying_path(want["traces"][kind])


def test_duplicated_reply_completes_the_pending_once():
    """Every physical send duplicated: copies of the reply reach the
    initiator again and again, the first completes the pending ``bid``
    and the rest find the trace finished."""
    clean = World().round_trip()["traces"]
    world = World()
    emu = TapEmulation.from_system(world.system, topology=Topology(seed=5))
    injector = emu.install_faults(
        FaultPlan(name="dup", messages=MessageFaultSpec(duplicate=1.0)),
        SeedSequenceFactory(1).spawn("f"),
    )
    got = emulated_round_trip(world, emu)
    assert got["received"] == [REPLY] and got["completed"]
    for kind in ("forward", "reply"):
        assert got["traces"][kind].path == full_underlying_path(clean[kind])
    links = sum(len(t.path) - 1 for t in got["traces"].values())
    assert injector.counts["message.duplicate"] >= links
    assert emu.net.delivered_count > links  # ... and the copies did arrive


@pytest.mark.parametrize("engine", ["walk", "emulator"])
def test_exit_layer_in_a_reply_onion_fails_closed(engine):
    """``serve_hop`` refuses an EXIT tag on the reply direction, so the
    guard holds for whichever engine drives it: neither routes the
    spliced layer on to the ``bid`` and delivers, both stop at the tail
    with the one reason."""
    world = World()
    reply = world.reply
    # a *forward* onion over the reply hops: RELAY, RELAY, EXIT(bid)
    blob = build_onion(reply.onion_layers(), reply.bid, b"fake")
    got: list[bytes] = []
    world.alice.register_pending(PendingReply(bid=reply.bid, callback=got.append))
    responder = world.system.network.closest_alive(DESTINATION)
    if engine == "walk":
        trace = world.system.forwarder.send_reply(
            responder, reply.hops[0].hop_id, blob, b"answer"
        )
        outcome = (trace.success, trace.failure_reason, full_underlying_path(trace)[-1])
        assert trace.delivered_payload is None
    else:
        emu = TapEmulation.from_system(world.system)
        trace = emu.send_reply_through_tunnel(
            responder, reply.hops[0].hop_id, blob, b"answer"
        )
        emu.simulator.run()
        outcome = (trace.delivered, trace.failed_reason, trace.path[-1])
        assert trace.payload is None and trace.destination is None
    assert outcome == (
        False, "EXIT-tagged layer inside a reply onion (malformed)",
        world.root(reply, index=2),
    )
    assert got == [] and not world.alice.pending_replies[reply.bid].completed
    assert _peel_counters(world) == {}  # malformed is neither lost nor undecryptable
