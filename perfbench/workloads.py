"""The benchmark's workloads.

Every workload is generated from the seed alone, drives the program
through its public API (``TapSystem``, ``TapSession``, ``TapEmulation``,
``CompactOverlay``), checks every output, and does a fixed amount of
work per segment so that two versions of the program are measured on
identical operations.  The ``why`` of each workload says which layers it
is meant to load; ``perfbench/README.md`` has the full table.

Load model: closed loop, one process, one thread.  The simulator is
synchronous, so "clients" are sessions/initiators served round-robin by
the single driver.  No real link is crossed — all network is simulated.
"""

from __future__ import annotations

import random
from collections import Counter
from time import perf_counter_ns

import numpy as np

from repro import TapSystem
from repro.core.emulation import CONTROL_BITS, TapEmulation
from repro.core.session import SessionServer, TapSession
from repro.pastry.node import PastryNode
from repro.perf import CompactOverlay
from repro.simnet import Topology

OVERLAY_NODES = 1_000
REPLICATION = 3


def _call(fn, *args):
    return fn(*args)


class Recorder:
    """Times the operations of one segment.

    ``op``/``batch`` time requests (one latency sample each; a batch's
    sample is its time divided by its size); ``event`` runs a membership
    event, which counts toward the segment's wall time but not toward
    request latency.  With a tracer, each becomes a root span.
    """

    def __init__(self, tracer=None):
        self.latencies_ns: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.events = 0
        self._request = tracer.wrap(_call, "core.request", root=True) if tracer else _call
        self._event = tracer.wrap(_call, "core.event", root=True) if tracer else _call

    def op(self, fn, *args):
        return self.batch(1, fn, *args)

    def batch(self, size: int, fn, *args):
        start = perf_counter_ns()
        out = self._request(fn, *args)
        self.latencies_ns.append((perf_counter_ns() - start) / size)
        self.attempted += size
        return out

    def event(self, fn, *args):
        self._event(fn, *args)
        self.events += 1

    def check(self, ok: bool, size: int = 1) -> None:
        if not ok:
            self.failed += size


class Workload:
    """One workload: ``setup()`` once, then ``segment(rec)`` repeatedly.

    ``segment`` runs ``segment_ops`` operations through ``rec``;
    ``take_counts`` then returns the exact counts of the work done
    since it was last called (ints only — the input of the work digest
    and of the count metrics).  Operation ``i`` of a run is the same
    for a given seed whatever the segment boundaries.
    """

    name = ""
    why = ""
    #: operations per timed segment (~0.37 s on the reference box) / in smoke mode
    ops = 0
    smoke_ops = 0
    #: application bytes one operation delivers (for goodput)
    payload_bytes = 0
    #: tracer targets beyond ``ledger.TARGETS``
    extra_targets: tuple = ()
    #: anchors deployed by ``setup`` (for ``core.deploy_us_per_tha``)
    deployed_thas = 0
    #: the ``TapSystem`` under test, if the workload has one: its
    #: ``attach_observability`` feeds the program's own counters into
    #: the traced pass
    system = None

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.segment_ops = self.smoke_ops if smoke else self.ops
        self.next_op = 0
        self.counts: Counter = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def segment(self, rec: Recorder) -> None:
        raise NotImplementedError

    def take_counts(self) -> dict[str, int]:
        counts, self.counts = self.counts, Counter()
        return dict(counts)

    def gauges(self) -> dict[str, float]:
        """Levels the workload reads off the program after a run."""
        return {}

    def install_trace(self, tracer) -> None:
        """Hook for spans that cannot be patched onto a class."""

    def remove_trace(self) -> None:
        pass



def _deploy_initiators(system, rng, count: int, anchors: int):
    """``count`` distinct initiators with ``anchors`` deployed THAs each,
    plus one more node id for a server/protected role."""
    picks = rng.sample(system.network.alive_ids, count + 1)
    nodes = [system.tap_node(nid) for nid in picks[1:]]
    for node in nodes:
        system.deploy_thas(node, anchors)
    return picks[0], nodes, count * anchors


class SessionSmall(Workload):
    name = "session_small"
    why = ("64 B requests over warm long-lived sessions: per-message fixed cost "
           "(key priming, HMAC, framing, peel bookkeeping) does the work, routing almost none")
    ops = 1_400
    smoke_ops = 80
    payload_bytes = 2 * 64
    sessions_count = 16
    #: one membership event per this many requests (0 = none)
    churn_every = 0

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.system = system = TapSystem.bootstrap(
            OVERLAY_NODES, seed=self.seed, replication_factor=REPLICATION
        )
        server_id, nodes, self.deployed_thas = _deploy_initiators(
            system, self.rng, self.sessions_count, 6)
        self.server = SessionServer(server_id, lambda body: body)
        self.sessions = [
            TapSession(system, node, self.server, tunnel_length=3) for node in nodes
        ]
        self.pads = [self.rng.randbytes(56) for _ in nodes]
        self.protected = {server_id} | {node.node_id for node in nodes}
        self.down: list[int] = []
        self.fails = 0
        self._totals_seen: Counter = Counter()
        # Tunnel traversal records are collected as they are returned
        # and counted after the segment, outside the timed region.
        self.traces: list = []
        forwarder = system.forwarder
        forwarder.send = self._collecting(forwarder.send)
        forwarder.send_reply = self._collecting(forwarder.send_reply)
        for session, pad in zip(self.sessions, self.pads):  # warm-up
            if session.request(bytes(8) + pad) != bytes(8) + pad:
                raise RuntimeError("warm-up request failed")
        for _ in range(60 if self.churn_every else 0):
            # reach the steady 50-down population before timing
            self._membership_event(Recorder())
            self.sessions[0].request(bytes(8) + self.pads[0])
        self.take_counts()

    def _collecting(self, fn):
        def collecting(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.traces.append(trace)
            return trace
        return collecting

    def take_counts(self) -> dict[str, int]:
        traces, self.traces = self.traces, []
        stats = [session.stats for session in self.sessions]
        totals = Counter(
            retries=sum(s.retries for s in stats),
            reforms=sum(s.tunnel_reforms for s in stats),
            served=self.server.served,
        )
        self.counts.update(
            totals - self._totals_seen,
            links=sum(t.underlying_hops for t in traces),
            overlay_hops=sum(t.overlay_hops for t in traces),
            promotions=sum(r.promoted for t in traces for r in t.records),
        )
        self._totals_seen = totals
        return super().take_counts()

    def _membership_event(self, rec: Recorder) -> None:
        """Fail one node (repair on), or revive the oldest once 50 are
        down.  Every 4th victim is the current root of a live tunnel
        hop, so replica promotion is exercised."""
        system = self.system
        self.counts["events"] += 1
        if len(self.down) >= 50:
            rec.event(system.revive_node, self.down.pop(0))
            return
        rng = self.rng
        self.fails += 1
        victim = None
        if self.fails % 4 == 0:
            session = self.sessions[rng.randrange(len(self.sessions))]
            roots = sorted(
                {system.network.replica_candidates(hop, 1)[0]
                 for hop in session.forward.hop_ids + session.reply.hop_ids}
                - self.protected
            )
            if roots:
                victim = roots[rng.randrange(len(roots))]
        alive = system.network.alive_ids
        while victim is None or victim in self.protected:
            victim = alive[rng.randrange(len(alive))]
        rec.event(system.fail_node, victim, True)
        self.down.append(victim)
        self.counts["victims_xor"] ^= victim & 0xFFFFFFFF

    def segment(self, rec: Recorder) -> None:
        sessions, pads = self.sessions, self.pads
        every = self.churn_every
        for index in range(self.next_op, self.next_op + self.segment_ops):
            if every and index % every == 0:
                self._membership_event(rec)
            slot = index % len(sessions)
            body = index.to_bytes(8, "big") + pads[slot]
            rec.check(rec.op(sessions[slot].request, body) == body)
        self.next_op += self.segment_ops


class SessionChurn(SessionSmall):
    name = "session_churn"
    why = ("session_small plus a fail/revive every 10 requests: every event turns the "
           "membership epoch, so route memos are cold, PAST repair runs and hops fail over")
    ops = 280
    smoke_ops = 40
    churn_every = 10


class RetrieveBulk(Workload):
    name = "retrieve_bulk"
    why = ("256 KiB (the paper's 2 Mb) anonymous file retrievals: bulk symmetric crypto and "
           "per-request RSA keygen dominate; routing and framing are noise")
    ops = 16
    smoke_ops = 4
    file_bytes = 256 * 1024
    payload_bytes = file_bytes

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.system = system = TapSystem.bootstrap(
            OVERLAY_NODES, seed=self.seed, replication_factor=REPLICATION
        )
        _, nodes, self.deployed_thas = _deploy_initiators(system, rng, 8, 6)
        self.clients = [
            (node, system.form_tunnel(node, 3), system.form_reply_tunnel(node, 3))
            for node in nodes
        ]
        self.files = [rng.randbytes(self.file_bytes) for _ in range(16)]
        self.fids = [system.publish(content) for content in self.files]
        for slot, client in enumerate(self.clients):  # warm-up
            result = system.retrieve(client[0], self.fids[slot], client[1], client[2])
            if not result.success:
                raise RuntimeError(f"warm-up retrieval failed: {result.failure_reason}")

    def segment(self, rec: Recorder) -> None:
        retrieve = self.system.retrieve
        links = overlay = 0
        for index in range(self.next_op, self.next_op + self.segment_ops):
            node, forward, reply = self.clients[index % len(self.clients)]
            which = (index + index // 16) % len(self.files)
            result = rec.op(retrieve, node, self.fids[which], forward, reply)
            ok = result.success and result.content == self.files[which]
            rec.check(ok)
            if ok:
                links += result.total_underlying_hops
                overlay += result.forward_trace.overlay_hops + result.reply_trace.overlay_hops
        self.next_op += self.segment_ops
        self.counts.update(links=links, overlay_hops=overlay)


class EmuTransfer(Workload):
    name = "emu_transfer"
    why = ("2 Mb sends hop by hop through the simnet event queue (fig6 method), L=3 basic and "
           "L=5 hinted tunnels: the only place scheduler/dispatch cost and the hint path show")
    batch = 64
    ops = 11 * batch
    smoke_ops = 2 * batch
    #: modelled message size (the paper's 2 Mb); the bytes really carried are few
    size_bits = 2_000_000.0
    payload_bytes = 64
    extra_targets = (("pastry.next_hop", PastryNode, "next_hop", None),)

    def setup(self) -> None:
        self.rng = rng = random.Random(self.seed)
        self.system = system = TapSystem.bootstrap(
            OVERLAY_NODES, seed=self.seed, replication_factor=REPLICATION
        )
        _, nodes, self.deployed_thas = _deploy_initiators(system, rng, 16, 8)
        # message m uses initiator m % 16, on its basic or its hinted tunnel
        self.routes = [(node, system.form_tunnel(node, 3)) for node in nodes]
        self.routes += [(node, system.form_tunnel(node, 5, use_hints=True)) for node in nodes]
        self.topology = Topology(self.seed)
        self.emu = TapEmulation.from_system(system, self.topology)
        self.node_ids = system.network.alive_ids
        self.link_latency: dict[tuple[int, int], float] = {}
        self.max_queue = 0
        self._send_batch(self._jobs(0))  # warm-up

    def gauges(self) -> dict[str, float]:
        return {"simnet.max_queue_len": self.max_queue}

    def install_trace(self, tracer) -> None:
        # The fabric holds bound handlers captured when the emulation
        # was built; re-attach them wrapped so their time is not read
        # as the scheduler's.
        handler = tracer.wrap(self.emu._handle, "core.emu_handle")
        for address in self.emu.net.addresses:
            self.emu.net.attach(address, handler)

    def remove_trace(self) -> None:
        for address in self.emu.net.addresses:
            self.emu.net.attach(address, self.emu._handle)

    def _jobs(self, first: int):
        jobs = []
        for message in range(first, first + self.batch):
            node, tunnel = self.routes[message % len(self.routes)]
            dest = self.node_ids[self.rng.randrange(len(self.node_ids))]
            jobs.append((node, tunnel, dest, message.to_bytes(8, "big") * 8))
        return jobs

    def _send_batch(self, jobs):
        send = self.emu.send_through_tunnel
        size_bits = self.size_bits
        traces = [
            send(node, tunnel, dest, payload, size_bits)
            for node, tunnel, dest, payload in jobs
        ]
        simulator = self.emu.simulator
        self.max_queue = max(self.max_queue, len(simulator))
        simulator.run()
        return traces

    def _analytic_latency(self, path: list[int]) -> float:
        """``path_transfer_time`` (store-and-forward), with the pure
        per-link latencies memoised so the check stays cheap."""
        memo = self.link_latency
        total = 0.0
        for link in zip(path, path[1:]):
            latency = memo.get(link)
            if latency is None:
                latency = memo[link] = self.topology.latency(*link)
            total += latency
        serial = (self.size_bits + CONTROL_BITS) / self.topology.bandwidth_bps
        return total + (len(path) - 1) * serial

    def segment(self, rec: Recorder) -> None:
        links = timeouts = hint_failures = 0
        events_before = self.emu.simulator.processed_events
        for first in range(self.next_op, self.next_op + self.segment_ops, self.batch):
            jobs = self._jobs(first)
            traces = rec.batch(self.batch, self._send_batch, jobs)
            for (_, _, dest, payload), trace in zip(jobs, traces):
                ok = (
                    trace.delivered
                    and trace.destination == dest
                    and trace.payload == payload
                    and abs(trace.latency - self._analytic_latency(trace.path)) < 1e-6
                )
                rec.check(ok)
                links += len(trace.path) - 1
                timeouts += trace.timeouts
                hint_failures += trace.hint_failures
        self.next_op += self.segment_ops
        self.counts.update(
            links=links, timeouts=timeouts, hint_failures=hint_failures,
            sim_events=self.emu.simulator.processed_events - events_before,
        )


class ScaleTunnels(Workload):
    name = "scale_tunnels"
    why = ("1,024 L=3 tunnels per round on a 100,000-node compact overlay with 1 % failed: the "
           "array/packet plane does all the work, crypto and object routing none")
    nodes = 100_000
    batch = 1_024
    ops = 14 * batch
    smoke_ops = 2 * batch
    tunnel_length = 3
    payload_bytes = 0

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.snapshot = CompactOverlay.random(self.nodes, seed=self.seed).snapshot()
        self.overlay = None
        self._round(*self._inputs())  # warm-up

    def _inputs(self):
        rng, batch = self.rng, self.batch
        failed = rng.choice(self.nodes, self.nodes // 100, replace=False)
        sources = rng.integers(0, self.nodes - len(failed), size=batch)
        words = rng.integers(0, 2**64, size=(2, batch, self.tunnel_length + 1), dtype=np.uint64)
        return failed, sources, words

    def _round(self, failed, sources, words):
        overlay = self.snapshot.restore()
        overlay.fail_positions(failed)
        src = overlay.alive_positions()[sources]
        hops = self.tunnel_length
        key_hi = np.ascontiguousarray(words[0, :, hops])
        key_lo = np.ascontiguousarray(words[1, :, hops])
        tunnels = overlay.route_tunnels(
            src, words[0, :, :hops], words[1, :, :hops], key_hi, key_lo
        )
        replicas = overlay.replica_positions(key_hi, key_lo, REPLICATION)
        return overlay, tunnels, replicas

    def gauges(self) -> dict[str, float]:
        return {"perf.scratch_mib": self.overlay.scratch_nbytes / 2**20}

    def segment(self, rec: Recorder) -> None:
        hops = legs = 0
        for _ in range(self.segment_ops // self.batch):
            overlay, tunnels, replicas = rec.batch(self.batch, self._round, *self._inputs())
            ordered = np.sort(replicas, axis=1)
            ok = (
                bool(tunnels.success.all())
                and bool(overlay.alive[replicas].all())
                and bool((ordered[:, 1:] != ordered[:, :-1]).all())
                # the exit leg must stop at the key's replica root
                and bool((replicas[:, 0] == tunnels.dest_pos).all())
            )
            rec.check(ok, self.batch)
            hops += int(tunnels.hops.sum())
            legs += tunnels.leg_hops.size
            self.overlay = overlay
        self.next_op += self.segment_ops
        self.counts.update(hops=hops, legs=legs)


WORKLOADS = {
    cls.name: cls
    for cls in (SessionSmall, RetrieveBulk, SessionChurn, EmuTransfer, ScaleTunnels)
}
