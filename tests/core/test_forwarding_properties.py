"""Property-based tests of the tunneling engine.

Hypothesis drives tunnel length, payload content, and failure
placement; the engine must uphold its invariants for every draw.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.forwarding import HopRecord
from repro.core.system import TapSystem
from tests.core.walk_scenarios import SCENARIOS, VERDICTS, World, observe, pinned

# Module-scoped systems: hypothesis replays many examples, so the
# overlay is built once and tunnels draw from a large anchor pool.


@pytest.fixture(scope="module")
def system():
    return TapSystem.bootstrap(num_nodes=200, seed=9001)


@pytest.fixture(scope="module")
def alice(system):
    node = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(node, count=40)
    return node


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    length=st.integers(min_value=1, max_value=5),
    payload=st.binary(min_size=0, max_size=2000),
    dest=st.integers(min_value=0, max_value=(1 << 128) - 1),
)
def test_any_tunnel_delivers_any_payload(system, alice, length, payload, dest):
    """Round-trip invariant: whatever goes in comes out, at the node
    numerically closest to the destination key, after exactly
    ``length`` overlay hops."""
    tunnel = system.form_tunnel(alice, length=length)
    try:
        delivered = []
        trace = system.forwarder.send(
            alice, tunnel, dest, payload,
            deliver=lambda nid, data: delivered.append((nid, data)),
        )
        assert trace.success, trace.failure_reason
        assert trace.overlay_hops == length
        assert delivered == [(system.network.closest_alive(dest), payload)]
        # every hop served by the current replica root of its anchor
        for rec, tha in zip(trace.records, tunnel.hops):
            assert rec.hop_node == system.network.closest_alive(tha.hop_id)
    finally:
        system.retire_tunnel(alice, tunnel)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    length=st.integers(min_value=2, max_value=4),
    hop_index=st.integers(min_value=0, max_value=3),
    payload=st.binary(min_size=1, max_size=200),
)
def test_single_hop_node_failure_never_breaks_tunnel(system, alice, length,
                                                     hop_index, payload):
    """For any hop position, killing the current hop node (with repair)
    leaves the tunnel functional — the Figure-2 guarantee at k=3."""
    tunnel = system.form_tunnel(alice, length=length)
    try:
        victim_hop = tunnel.hops[hop_index % length]
        root = system.network.closest_alive(victim_hop.hop_id)
        if root != alice.node_id:
            system.fail_node(root)
        trace = system.forwarder.send(alice, tunnel, 42, payload)
        assert trace.success, trace.failure_reason
        assert trace.delivered_payload == payload
    finally:
        system.retire_tunnel(alice, tunnel)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.binary(min_size=1, max_size=500))
def test_intermediate_hops_never_see_plaintext(system, alice, payload):
    """Layered encryption: the payload bytes must not appear in any
    intermediate representation of the onion."""
    import repro.crypto.onion as onion_mod
    from repro.crypto.onion import build_onion

    tunnel = system.form_tunnel(alice, length=3)
    try:
        blob = build_onion(tunnel.onion_layers(), 42, payload)
        # outermost blob
        if len(payload) >= 8:  # tiny payloads can collide by chance
            assert payload not in blob
        # after one peel (what hop 1 relays onward)
        peeled = onion_mod.peel_layer(tunnel.hops[0].anchor.key, blob)
        if len(payload) >= 8:
            assert payload not in peeled.inner
    finally:
        system.retire_tunnel(alice, tunnel)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_traces_match_the_two_loop_engine(name):
    """Every ``ForwardTrace``/``HopRecord`` field of both directions,
    ``exit_path``, ``failure_reason`` text and ``underlying_hops``, as
    recorded before the two traversal loops became one walk."""
    got, want = observe(name), pinned()[name]
    assert got["forward"] == want["forward"]
    assert got["reply"] == want["reply"]
    assert got["received"] == want["received"]


def test_pinned_failures_are_the_ones_named():
    pins = pinned()
    for verdict, text in zip(VERDICTS, ("dropped on leg 1", "corrupted on leg 1",
                                        "partitioned link", "byzantine hop")):
        assert text in pins[f"{verdict}_forward"]["forward"]["failure_reason"]
        assert pins[f"{verdict}_forward"]["reply"] is None
        assert text in pins[f"{verdict}_reply"]["reply"]["failure_reason"]
        assert pins[f"{verdict}_reply"]["received"] == []
    for name in ("promoted", "hint_timeout"):
        assert [r["promoted"] for r in pins[name]["forward"]["records"]] == [False, True, False]
    assert [r["promoted"] for r in pins["promoted"]["reply"]["records"]] == [
        False, True, False, False]
    for kind in ("forward", "reply"):
        assert not pins[f"anchor_lost_{kind}"][kind]["success"]


def test_untraced_walk_builds_no_span(monkeypatch):
    """With no tracer and no injector the walk does no span work at
    all, and a hop record is a fixed-layout object."""
    from repro.obs import spans

    world = World(hints=True, observed=False)

    def no_span(*args, **kwargs):
        raise AssertionError("a Span was built on an untraced walk")

    monkeypatch.setattr(spans.Span, "__init__", no_span)
    result = world.round_trip()
    assert result["traces"]["forward"].success and result["traces"]["reply"].success
    assert result["received"] == [b"pong:ping"]
    record = result["traces"]["forward"].records[0]
    assert isinstance(record, HopRecord) and not hasattr(record, "__dict__")
