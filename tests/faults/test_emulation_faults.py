"""Faults in the discrete-event fabric: silent loss, deadlines,
duplication/corruption — and the determinism of it all."""

import copy

import pytest

from repro.core.emulation import EmuTrace, TapEmulation, _Envelope
from repro.core.system import TapSystem
from repro.faults import named_plan
from repro.faults.injectors import MessageFaultSpec, SimVerdict
from repro.faults.plan import FaultPlan
from repro.simnet.topology import Topology
from repro.util.rng import SeedSequenceFactory


def _build(seed):
    system = TapSystem.bootstrap(num_nodes=150, seed=seed)
    alice = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(alice, count=10)
    emu = TapEmulation.from_system(system, topology=Topology(seed=5))
    return system, alice, emu


@pytest.fixture()
def setup():
    return _build(31)


def _drop_all_plan():
    return FaultPlan(name="drop-all", messages=MessageFaultSpec(drop=1.0))


class TestSilentLoss:
    def test_dropped_message_times_out_at_deadline(self, setup):
        system, alice, emu = setup
        emu.install_faults(_drop_all_plan(), SeedSequenceFactory(1).spawn("f"))
        tunnel = system.form_tunnel(alice, length=3)
        trace = emu.send_through_tunnel(
            alice, tunnel, 42, b"x", deadline_s=5.0
        )
        emu.simulator.run()
        assert not trace.delivered
        assert trace.failed_reason == "deadline exceeded"
        assert trace.finished_at == pytest.approx(5.0)

    def test_injected_drop_does_not_trigger_failure_discovery(self, setup):
        """Injected loss is silent (UDP-style): no dead-neighbour
        timeout fires, so routing tables stay untouched — transient
        loss must not be treated as node death."""
        system, alice, emu = setup
        emu.install_faults(_drop_all_plan(), SeedSequenceFactory(1).spawn("f"))
        tunnel = system.form_tunnel(alice, length=3)
        trace = emu.send_through_tunnel(
            alice, tunnel, 42, b"x", deadline_s=5.0
        )
        emu.simulator.run()
        assert trace.timeouts == 0  # the on_drop path never ran
        assert emu.net.dropped_count >= 1

    def test_no_deadline_leaves_trace_unfinished(self, setup):
        system, alice, emu = setup
        emu.install_faults(_drop_all_plan(), SeedSequenceFactory(1).spawn("f"))
        tunnel = system.form_tunnel(alice, length=3)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert trace.finished_at is None  # lost in the void, no timer

    def test_clean_run_beats_its_deadline(self, setup):
        system, alice, emu = setup
        tunnel = system.form_tunnel(alice, length=3)
        trace = emu.send_through_tunnel(
            alice, tunnel, 42, b"x", deadline_s=1e6
        )
        emu.simulator.run()
        assert trace.delivered
        assert trace.failed_reason is None

    def test_clear_faults_restores_delivery(self, setup):
        system, alice, emu = setup
        emu.install_faults(_drop_all_plan(), SeedSequenceFactory(1).spawn("f"))
        emu.clear_faults()
        tunnel = system.form_tunnel(alice, length=3)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert trace.delivered


class TestDelayAndDuplication:
    def test_injected_delay_slows_delivery(self):
        def run(with_faults):
            system = TapSystem.bootstrap(num_nodes=150, seed=31)
            al = system.tap_node(system.random_node_id("alice"))
            system.deploy_thas(al, count=10)
            emu = TapEmulation.from_system(system, topology=Topology(seed=5))
            if with_faults:
                plan = FaultPlan(
                    name="slow",
                    messages=MessageFaultSpec(delay=1.0, delay_s=0.5),
                )
                emu.install_faults(plan, SeedSequenceFactory(1).spawn("f"))
            tunnel = system.form_tunnel(al, length=3)
            trace = emu.send_through_tunnel(al, tunnel, 42, b"x")
            emu.simulator.run()
            assert trace.delivered
            return trace.latency

        assert run(True) > run(False)

    def test_duplicate_still_delivers_once_per_copy(self, setup):
        system, alice, emu = setup
        plan = FaultPlan(
            name="dup", messages=MessageFaultSpec(duplicate=1.0)
        )
        injector = emu.install_faults(plan, SeedSequenceFactory(1).spawn("f"))
        tunnel = system.form_tunnel(alice, length=2)
        trace = emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        assert trace.delivered
        assert injector.counts["message.duplicate"] >= 1
        # duplicates inflate the delivery count beyond the primary walk
        assert emu.net.delivered_count > len(trace.path) - 1


def _transfer(seed, spec=None, faults=None, deadline_s=None):
    """One L=3 transfer of a modelled 2 Mb message on a fresh system,
    under a fault ``spec`` (or a hand-made ``faults`` oracle)."""
    system, al, emu = _build(seed)
    if spec is not None:
        faults = FaultPlan(name="spec", messages=spec).simnet_injector(
            SeedSequenceFactory(1).spawn("f")
        )
    emu.net.faults = faults
    trace = emu.send_through_tunnel(
        al, system.form_tunnel(al, length=3), 42, b"x",
        size_bits=2e6, deadline_s=deadline_s,
    )
    emu.simulator.run()
    return trace, emu


class TestDuplicateIsACopy:
    """A duplicated message is two messages.  The envelope is mutable
    (key/blob/kind advance as layers are peeled, the path grows), so a
    duplicate that shared it let a late copy arriving at an early node
    be processed with the other copy's *later* onion state: paths of 64
    entries for a 6-link walk, and transfers that finished sooner than
    on a network duplicating nothing."""

    @pytest.fixture(scope="class", params=[31, 32, 33])
    def clean(self, request):
        trace, emu = _transfer(request.param)
        assert trace.delivered and emu.net.delivered_count == len(trace.path) - 1
        return request.param, trace

    @pytest.mark.parametrize("reorder_s", [0.001, 0.02, 0.5, 2.0])
    def test_duplication_alone_changes_nothing_the_initiator_sees(self, clean, reorder_s):
        seed, expected = clean
        trace, emu = _transfer(
            seed, MessageFaultSpec(duplicate=1.0, reorder_s=reorder_s)
        )
        assert trace.delivered
        assert trace.path == expected.path
        assert trace.latency == expected.latency
        assert (trace.timeouts, trace.hint_failures) == (0, 0)
        assert (trace.destination, trace.payload) == (expected.destination, b"x")
        # ... while the fabric did carry the copies
        assert emu.net.delivered_count > len(trace.path) - 1

    def test_trace_adopts_the_history_of_the_copy_that_finishes_it(self):
        """Hold the message as sent back by 5 s at every hop and let its
        duplicates run free: a duplicate made at the first hop finishes
        the trace while the original has barely left.  The trace must
        read that copy's whole walk, not the original's two nodes."""

        class HoldTheOriginal:
            """The oracle sees no payload, so it tells the copies apart
            by order: the copy made at the first hop runs ahead and is
            the first to send from every node it reaches; any later
            send from a node is the message as sent, or a copy of it."""

            def __init__(self):
                self.senders = set()

            def on_message(self, src, dst, delay):
                if self.senders and src not in self.senders:
                    self.senders.add(src)
                    return None
                self.senders.add(src)
                return SimVerdict(extra_delay_s=5.0, duplicate=True)

        expected, _ = _transfer(31)
        # every node sends once on the clean walk, so the copy that runs
        # ahead is never mistaken for a lagging one
        senders = expected.path[:-1]
        assert len(set(senders)) == len(senders)
        trace, emu = _transfer(31, faults=HoldTheOriginal())
        assert trace.delivered and trace.path == expected.path
        assert trace.latency == pytest.approx(expected.latency + 5.0)
        # the copies that arrived later were void: delivered, not processed
        assert emu.net.delivered_count > len(trace.path) - 1

    def test_unfinished_trace_shows_the_message_as_sent(self):
        """No copy finishes (deadline first): the live trace reads the
        primary's progress, exactly as without duplication."""
        clean, _ = _transfer(31, deadline_s=3.0)
        trace, _ = _transfer(31, MessageFaultSpec(duplicate=1.0), deadline_s=3.0)
        assert trace.failed_reason == clean.failed_reason == "deadline exceeded"
        assert trace.path == clean.path and len(trace.path) > 1

    def test_envelope_copy_forks_the_history_and_shares_the_verdict(self):
        trace = EmuTrace(started_at=0.0, path=[7], timeouts=1)
        env = _Envelope("tunnel", 9, b"onion", 64.0, trace, trace)
        assert env.history is trace  # the message as sent writes through
        twin = copy.copy(env)
        assert twin.trace is trace
        assert (twin.kind, twin.key, twin.blob, twin.size_bits) == ("tunnel", 9, b"onion", 64.0)
        twin.history.path.append(8)
        twin.history.timeouts += 1
        twin.key, twin.blob = 10, b"inner"
        assert (trace.path, trace.timeouts) == ([7], 1)
        assert (env.key, env.blob) == (9, b"onion")
        grandchild = copy.copy(twin)
        grandchild.history.path.append(9)
        assert twin.history.path == [7, 8]

    def test_duplicate_and_corrupt_damage_one_copy(self, setup):
        """The fabric damages the message it was handed; the twin is
        taken first and carries the intact onion."""
        system, alice, emu = setup
        emu.install_faults(
            FaultPlan(name="dc", messages=MessageFaultSpec(duplicate=1.0, corrupt=1.0)),
            SeedSequenceFactory(1).spawn("f"),
        )
        tunnel = system.form_tunnel(alice, length=3)
        first_stop = system.network.next_hop(alice.node_id, tunnel.hops[0].hop_id)
        assert first_stop != alice.node_id
        arrived = []
        emu.net.attach(first_stop, lambda net, src, dst, env: arrived.append((env, env.blob)))
        emu.send_through_tunnel(alice, tunnel, 42, b"x")
        emu.simulator.run()
        (damaged, blob1), (intact, blob2) = arrived
        assert damaged is not intact
        assert blob1[0] ^ blob2[0] == 0xFF and blob1[1:] == blob2[1:]
        assert intact.history is not damaged.history


class TestDeterminism:
    def test_same_seed_same_fault_pattern(self):
        def run():
            system = TapSystem.bootstrap(num_nodes=150, seed=31)
            al = system.tap_node(system.random_node_id("alice"))
            system.deploy_thas(al, count=10)
            emu = TapEmulation.from_system(system, topology=Topology(seed=5))
            injector = emu.install_faults(
                named_plan("flaky"), SeedSequenceFactory(9).spawn("f")
            )
            tunnel = system.form_tunnel(al, length=3)
            traces = [
                emu.send_through_tunnel(al, tunnel, 42, b"x", deadline_s=50.0)
                for _ in range(5)
            ]
            emu.simulator.run()
            return (
                [t.delivered for t in traces],
                [t.finished_at for t in traces],
                dict(injector.counts),
            )

        assert run() == run()
