"""Tests for the message-passing façade."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import MessageFaultSpec, SimNetFaultInjector
from repro.simnet import network as network_module
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.simnet.topology import Topology
from repro.util.rng import SeedSequenceFactory


@pytest.fixture()
def net():
    sim = Simulator()
    topo = Topology(seed=1, min_latency_s=0.05, max_latency_s=0.05,
                    bandwidth_bps=1000.0)
    return sim, SimNetwork(sim, topo)


class TestDelivery:
    def test_message_delivered_with_delay(self, net):
        sim, network = net
        inbox = []
        network.attach(1, lambda n, s, d, p: inbox.append((s, d, p, sim.now)))
        network.attach(2, lambda *a: None)
        network.send(2, 1, "hello", size_bits=100)
        sim.run()
        assert len(inbox) == 1
        src, dst, payload, when = inbox[0]
        assert (src, dst, payload) == (2, 1, "hello")
        assert when == pytest.approx(0.05 + 0.1)  # latency + 100/1000

    def test_self_send_instant(self, net):
        sim, network = net
        inbox = []
        network.attach(1, lambda n, s, d, p: inbox.append(sim.now))
        network.send(1, 1, "x")
        sim.run()
        assert inbox == [0.0]

    def test_delivery_order_respects_size(self, net):
        sim, network = net
        inbox = []
        network.attach(1, lambda n, s, d, p: inbox.append(p))
        network.attach(2, lambda *a: None)
        network.send(2, 1, "big", size_bits=10_000)
        network.send(2, 1, "small", size_bits=10)
        sim.run()
        assert inbox == ["small", "big"]

    def test_stats_counted(self, net):
        sim, network = net
        network.attach(1, lambda *a: None)
        network.attach(2, lambda *a: None)
        network.send(1, 2, "a", size_bits=8)
        network.send(1, 2, "b", size_bits=8)
        sim.run()
        assert network.delivered_count == 2
        assert network.bits_sent == 16


class TestDrops:
    def test_unknown_destination_dropped(self, net):
        sim, network = net
        network.attach(1, lambda *a: None)
        assert network.send(1, 99, "void") is None
        sim.run()
        assert (network.dropped_count, network.delivered_count) == (1, 0)

    def test_failed_node_drops(self, net):
        sim, network = net
        network.attach(1, lambda *a: None)
        network.attach(2, lambda *a: None)
        network.fail(2)
        network.send(1, 2, "x")
        sim.run()
        assert (network.dropped_count, network.delivered_count) == (1, 0)

    def test_failure_in_flight_drops(self, net):
        """Liveness is checked at delivery, not send — the race TAP's
        fail-over must survive."""
        sim, network = net
        network.attach(1, lambda *a: None)
        network.attach(2, lambda *a: None)
        network.send(1, 2, "x")
        network.fail(2)  # dies while message is in flight
        assert network.dropped_count == 0
        sim.run()
        assert (network.dropped_count, network.delivered_count) == (1, 0)

    def test_drop_callback(self, net):
        sim, network = net
        drops = []
        network.on_drop = lambda src, dst, payload: drops.append((src, dst, payload, sim.now))
        network.attach(1, lambda *a: None)
        network.send(1, 42, "x", size_bits=100)
        sim.run()
        assert drops == [(1, 42, "x", pytest.approx(0.05 + 0.1))]
        assert network.dropped_count == 1

    def test_revive_restores_delivery(self, net):
        sim, network = net
        inbox = []
        network.attach(1, lambda *a: None)
        network.attach(2, lambda n, s, d, p: inbox.append(p))
        network.fail(2)
        network.revive(2)
        network.send(1, 2, "back")
        sim.run()
        assert inbox == ["back"]

    def test_detach_removes(self, net):
        sim, network = net
        network.attach(1, lambda *a: None)
        network.detach(1)
        assert not network.is_alive(1)
        assert network.addresses == []


class TestAddresses:
    def test_alive_listing(self, net):
        _, network = net
        network.attach(1, lambda *a: None)
        network.attach(2, lambda *a: None)
        network.fail(2)
        assert network.addresses == [1]


class TestInputChecks:
    """A size is validated before anything is counted or scheduled, on
    every send — also the zero-delay send to oneself."""

    @pytest.mark.parametrize("size_bits", [-1, -0.5, float("nan"), float("-inf")])
    @pytest.mark.parametrize("dst", [1, 2], ids=["to self", "to a peer"])
    def test_bad_size_rejected_and_not_counted(self, net, dst, size_bits):
        sim, network = net
        network.attach(1, lambda *a: None)
        network.attach(2, lambda *a: None)
        network.send(1, 2, "fine", size_bits=8)
        with pytest.raises(ValueError):
            network.send(1, dst, "x", size_bits=size_bits)
        assert network.bits_sent == 8
        assert len(sim) == 1
        sim.run()
        assert network.delivered_count == 1

    def test_zero_size_is_a_size(self, net):
        sim, network = net
        network.attach(2, lambda *a: None)
        network.send(1, 2, "empty", size_bits=0)
        assert sim.run() == 0.05  # propagation only

    def test_model_that_yields_a_negative_latency_rejected(self, net):
        sim, network = net
        network.topology.latency = lambda a, b: -0.01
        with pytest.raises(ValueError):
            network.send(1, 2, "x")
        assert len(sim) == 0


class _CountingTopology(Topology):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.latency_calls = 0

    def latency(self, a, b):
        self.latency_calls += 1
        return super().latency(a, b)


class TestLinkTable:
    """The fabric's memo of link latencies: invisible in the delays,
    bounded, and owned by the fabric — not by the latency model."""

    @given(
        sends=st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11),
                      st.sampled_from([0, 1, 8 * 1024, 2_000_000, 1e9, 0.5])),
            min_size=1, max_size=60,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_delay_is_transfer_time_across_wraps_of_the_bound(self, sends, seed):
        topo = Topology(seed=seed)
        sim = Simulator()
        network = SimNetwork(sim, topo)
        arrivals = []
        for address in range(12):
            network.attach(address, lambda n, s, d, p: arrivals.append((p, sim.now)))
        expected = []
        with mock.patch.object(network_module, "LINK_TABLE_LIMIT", 4):
            for n, (src, dst, size_bits) in enumerate(sends):
                # both directions of the link, all sent at t=0: the
                # arrival time is the scheduled delay, bit for bit
                for a, b in ((src, dst), (dst, src)):
                    network.send(a, b, (n, a, b), size_bits=size_bits)
                    delay = 0.0 if a == b else (
                        topo.latency(a, b) + size_bits / topo.bandwidth_bps
                    )
                    expected.append(((n, a, b), delay))
                    assert len(network._link_latency) <= 4
        sim.run()
        assert sorted(arrivals) == sorted(expected)

    def test_a_reused_link_is_hashed_once(self):
        topo = _CountingTopology(seed=3)
        sim = Simulator()
        network = SimNetwork(sim, topo)
        for _ in range(50):
            network.send(1, 2, "x")
            network.send(2, 1, "y")
            network.send(1, 1, "self")
        assert topo.latency_calls == 2  # one per direction sent over
        assert set(network._link_latency) == {(1, 2), (2, 1)}

    def test_bound_clears_wholesale_and_refills(self):
        topo = _CountingTopology(seed=3)
        network = SimNetwork(Simulator(), topo)
        with mock.patch.object(network_module, "LINK_TABLE_LIMIT", 4):
            for dst in range(1, 5):
                network.send(0, dst, "x")
            assert len(network._link_latency) == 4
            network.send(0, 5, "x")  # the fifth link wraps the table
            assert set(network._link_latency) == {(0, 5)}
            network.send(0, 1, "x")  # forgotten, so asked again
        assert topo.latency_calls == 6

    def test_default_bound(self):
        assert network_module.LINK_TABLE_LIMIT == 1 << 16

    def test_latency_model_keeps_no_per_pair_state(self):
        """Compute over tabulate stays true of the topology: a PNS build
        probes pairs that never repeat and would only thrash a memo."""
        topo = Topology(seed=1)
        before = dict(vars(topo))
        for b in range(1, 200):
            topo.latency(0, b)
        assert vars(topo) == before
        assert set(before) == {"seed", "min_latency_s", "max_latency_s", "bandwidth_bps"}


class _Parcel:
    """A mutable payload, like the emulation's envelope."""

    def __init__(self, blob):
        self.blob = blob
        self.seen_by = []


class TestMessageRecord:
    """A message in flight is its delivery event and nothing else: the
    fabric keeps no record of it, so what a test can read is the
    counters, the handler's arguments and ``on_drop``'s."""

    def test_a_message_in_flight_is_one_heap_entry(self, net):
        sim, network = net
        network.attach(2, lambda *a: None)
        assert network.send(1, 2, b"x", size_bits=100) is None
        assert sim._heap == [(pytest.approx(0.15), 0, network._deliver, (1, 2, b"x"))]
        assert len(sim) == 1

    def test_injector_corrupts_what_the_handler_receives(self, net):
        sim, network = self._faulty(net, corrupt=1.0)
        inbox = []
        network.attach(2, lambda n, s, d, p: inbox.append(p))
        network.send(1, 2, b"\x00abc")
        sim.run()
        assert inbox == [b"\xffabc"]
        assert network.faults.counts == {"message.corrupt": 1}

    def _faulty(self, net, **spec):
        sim, network = net
        network.faults = SimNetFaultInjector(
            MessageFaultSpec(**spec), seeds=SeedSequenceFactory(1).spawn("s")
        )
        return sim, network

    def test_injected_drop_is_marked_and_counted(self, net):
        """An injected drop is noted by the injector at send time and
        counted by the fabric when its marker event fires at the
        arrival time; ``on_drop`` (dead-neighbour discovery) stays quiet."""
        sim, network = self._faulty(net, drop=1.0)
        drops = []
        network.on_drop = lambda *a: drops.append(a)
        network.attach(2, lambda *a: None)
        network.send(1, 2, "x", size_bits=100)
        assert network.faults.counts == {"message.drop": 1}
        assert network.dropped_count == 0 and len(sim) == 1
        assert sim.run() == pytest.approx(0.15)
        assert sim.processed_events == 1
        assert network.dropped_count == 1 and network.delivered_count == 0
        assert drops == []

    def test_clean_delivery_is_counted_once(self, net):
        sim, network = net
        arrivals = []
        network.attach(2, lambda n, s, d, p: arrivals.append((s, d, p, sim.now)))
        network.send(1, 2, "x", size_bits=100)
        sim.run()
        assert arrivals == [(1, 2, "x", pytest.approx(0.15))]
        assert (network.delivered_count, network.dropped_count, len(sim)) == (1, 0, 0)

    def test_duplicate_is_a_copy_of_a_mutable_payload(self, net):
        """What the first arrival does to its payload must not show in
        the second: two copies on a wire do not share memory."""
        sim, network = self._faulty(net, duplicate=1.0, reorder_s=0.5)
        arrivals = []

        def handler(n, src, dst, parcel):
            arrivals.append((sim.now, parcel, list(parcel.seen_by), parcel.blob))
            parcel.seen_by.append(dst)  # a *shallow* copy shares this list
            parcel.blob = b"peeled"

        network.attach(2, handler)
        sent = _Parcel(b"onion")
        network.send(1, 2, sent, size_bits=100)
        sim.run()
        (t1, first, _, blob1), (t2, second, _, blob2) = arrivals
        assert t2 - t1 == pytest.approx(0.5)
        assert first is sent and second is not sent
        assert blob1 == blob2 == b"onion"
        assert second.seen_by is first.seen_by  # shallow: the payload's own __copy__ decides

    def test_duplicate_and_corrupt_damage_one_copy(self, net):
        sim, network = self._faulty(net, duplicate=1.0, corrupt=1.0)
        blobs, raw = [], []
        network.attach(2, lambda n, s, d, p: blobs.append(p.blob))
        network.attach(3, lambda n, s, d, p: raw.append(p))
        network.send(1, 2, _Parcel(b"\x00abc"), size_bits=100)
        network.send(1, 3, b"\x00abc", size_bits=100)
        sim.run()
        assert sorted(blobs) == [b"\x00abc", b"\xffabc"]
        assert sorted(raw) == [b"\x00abc", b"\xffabc"]
