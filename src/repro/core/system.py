"""TapSystem: the public façade tying all substrates together.

A :class:`TapSystem` owns one Pastry overlay, one replicated store and
the TAP state of every participating node, and exposes the operations
a TAP user performs: deploy anchors, form tunnels, send messages,
retrieve files — plus the membership events (fail/leave/join) that
drive the fault-tolerance experiments.
"""

from __future__ import annotations

from repro.core.deploy import ThaDeployer
from repro.core.forwarding import ForwardTrace, TunnelForwarder
from repro.core.node import TapNode
from repro.core.retrieval import AnonymousRetrieval, RetrievalResult
from repro.core.tunnel import ReplyTunnel, Tunnel, select_scattered
from repro.past.replication import ReplicatedStore
from repro.pastry.network import PastryNetwork
from repro.pastry.node import ip_for_id
from repro.util.ids import random_id
from repro.util.rng import SeedSequenceFactory


class TapSystem:
    """One simulated TAP deployment.

    Build one with :meth:`bootstrap` (fresh random overlay) or wrap
    pre-built substrates with the constructor.
    """

    def __init__(
        self,
        network: PastryNetwork,
        store: ReplicatedStore,
        seeds: SeedSequenceFactory,
        metrics=None,
        event_trace=None,
        tracer=None,
    ):
        self.network = network
        self.store = store
        self.seeds = seeds
        self.tap_nodes: dict[int, TapNode] = {}
        # ip_for_id is the single source of node IPs, so the hint index
        # is derivable from the ids alone: the alive ids, then the down
        self.ip_index: dict[str, int] = {
            ip_for_id(nid): nid for nid in [*network.alive_ids, *sorted(network.down_ids)]
        }
        self.forwarder = TunnelForwarder(network, store, self.tap_nodes, self.ip_index)
        self.deployer = ThaDeployer(network, store, seeds.pyrandom("deployer"))
        self.retrieval = AnonymousRetrieval(
            self.forwarder, store, seeds.pyrandom("retrieval")
        )
        self._form_rng = seeds.pyrandom("tunnel-form")
        self.metrics = None
        self.event_trace = None
        self.tracer = None
        #: set by :meth:`enable_auditing`
        self.auditor = None
        #: raise on audit violations (vs. collect in auditor.history)
        self.audit_strict = True
        if metrics is not None or event_trace is not None or tracer is not None:
            self.attach_observability(metrics, event_trace, tracer)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bootstrap(
        cls,
        num_nodes: int,
        seed: int = 0,
        replication_factor: int = 3,
        b_bits: int = 4,
        leaf_set_size: int = 16,
        overlay_seed: int | None = None,
        metrics=None,
        event_trace=None,
        tracer=None,
    ) -> "TapSystem":
        """Random overlay of ``num_nodes`` with correct initial state.

        ``overlay_seed`` draws the node ids from a *different* root
        seed than the system's behavioural streams: ``bootstrap(n,
        seed=rep, overlay_seed=base)`` gives every repetition ``rep``
        of a sweep point the same overlay and its own behaviour.
        """
        seeds = SeedSequenceFactory(seed)
        id_seeds = seeds if overlay_seed is None else SeedSequenceFactory(overlay_seed)
        id_rng = id_seeds.pyrandom("node-ids")
        ids = set()
        while len(ids) < num_nodes:
            ids.add(random_id(id_rng))
        network = PastryNetwork.build(ids, b_bits=b_bits, leaf_set_size=leaf_set_size)
        store = ReplicatedStore(network, replication_factor)
        return cls(
            network, store, seeds,
            metrics=metrics, event_trace=event_trace, tracer=tracer,
        )

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------
    def attach_observability(
        self, metrics=None, event_trace=None, tracer=None
    ) -> None:
        """Thread a :class:`repro.obs.MetricsRegistry`,
        :class:`repro.obs.EventTrace` and/or
        :class:`repro.obs.SpanTracer` through every substrate."""
        if metrics is not None:
            self.metrics = metrics
            self.network.metrics = metrics
            self.store.metrics = metrics
            self.forwarder.metrics = metrics
            metrics.gauge("pastry.population").set(self.network.size)
        if event_trace is not None:
            self.event_trace = event_trace
            self.forwarder.event_trace = event_trace
        if tracer is not None:
            self.tracer = tracer
            self.network.tracer = tracer
            self.store.tracer = tracer
            self.forwarder.tracer = tracer

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, plan, protected=()):
        """Arm the synchronous engine with a fault plan's injector.

        ``protected`` node ids are exempt from Byzantine assignment
        (chaos runs keep initiators/servers honest: the faults under
        test are in the network, not the endpoints).  Returns the
        installed :class:`repro.faults.injectors.SyncFaultInjector`.
        """
        injector = plan.sync_injector(
            self.seeds.spawn("faults", plan.name),
            event_trace=self.event_trace, metrics=self.metrics,
        )
        if plan.byzantine is not None:
            exempt = set(protected)
            injector.assign_byzantine(
                [i for i in self.network.alive_ids if i not in exempt]
            )
        self.forwarder.faults = injector
        return injector

    def enable_auditing(self, strict: bool = True):
        """Run an :class:`repro.obs.InvariantAuditor` after every
        membership event this system performs.

        ``strict`` raises :class:`repro.obs.InvariantViolationError` on
        the first violation; otherwise reports accumulate in
        ``self.auditor.history``.  Returns the auditor.
        """
        from repro.obs.audit import InvariantAuditor

        self.auditor = InvariantAuditor(
            self.network, self.store, metrics=self.metrics
        )
        self.audit_strict = strict
        return self.auditor

    def _audit(self, context: str) -> None:
        if self.auditor is None:
            return
        if self.audit_strict:
            self.auditor.assert_clean(context)
        else:
            self.auditor.run(context)

    # ------------------------------------------------------------------
    # node access
    # ------------------------------------------------------------------
    def tap_node(self, node_id: int) -> TapNode:
        """TAP participant state for an overlay node (created lazily);
        ``KeyError`` for an id the overlay never registered."""
        tap = self.tap_nodes.get(node_id)
        if tap is None:
            if not self.network.is_registered(node_id):
                raise KeyError(node_id)
            tap = TapNode(node_id, self.seeds.pyrandom("tap-node", node_id))
            self.tap_nodes[node_id] = tap
        return tap

    def random_node_id(self, label: object = "pick") -> int:
        """A uniformly random alive node id (deterministic per label)."""
        rng = self.seeds.pyrandom("random-node", label)
        ids = self.network.alive_ids
        return ids[rng.randrange(len(ids))]

    # ------------------------------------------------------------------
    # THA deployment
    # ------------------------------------------------------------------
    def deploy_thas(
        self,
        owner: TapNode,
        count: int,
        max_attempts: int = 5,
    ):
        """Generate and anonymously deploy ``count`` fresh anchors.

        Relay candidates are all alive TAP-capable nodes.  The paper
        suggests 3–5 anchors per deployment session; larger counts
        simply use longer bootstrap paths (or call repeatedly).
        """
        thas = [owner.new_tha() for _ in range(count)]
        candidates = [
            self.tap_node(nid)
            for nid in self._relay_candidate_ids(owner, count * 4)
        ]
        return self.deployer.deploy(owner, thas, candidates, max_attempts)

    def _relay_candidate_ids(self, owner: TapNode, want: int) -> list[int]:
        rng = self.seeds.pyrandom("relay-candidates", owner.node_id, len(owner.owned_thas))
        ids = [i for i in self.network.alive_ids if i != owner.node_id]
        if len(ids) <= want:
            return ids
        return rng.sample(ids, want)

    # ------------------------------------------------------------------
    # tunnel formation
    # ------------------------------------------------------------------
    def form_tunnel(
        self,
        owner: TapNode,
        length: int,
        use_hints: bool = False,
        now: float = 0.0,
    ) -> Tunnel:
        """Form a forward tunnel from the owner's deployed anchors (§3.5)."""
        return self._form(owner, length, use_hints, now, reply=False)

    def form_reply_tunnel(
        self,
        owner: TapNode,
        length: int,
        use_hints: bool = False,
        now: float = 0.0,
    ) -> ReplyTunnel:
        """Form a reply tunnel ending at a ``bid`` owned by the initiator."""
        return self._form(owner, length, use_hints, now, reply=True)

    def _form(self, owner: TapNode, length: int, use_hints: bool, now: float, reply: bool):
        tr = self.tracer
        kind = {"reply": True} if reply else {}
        span = tr.start_span(
            "tunnel.form", observer="initiator",
            initiator=owner.node_id, length=length, hints=use_hints, **kind,
        ) if tr else None
        hops = self._claim_hops(owner, length)
        hints: list[str | None] = [None] * length
        if use_hints:
            hints = [self._resolve_hint(owner, h.hop_id) for h in hops]
        bid = owner.make_bid(self.network.alive_ids) if reply else None
        if span is not None:
            tr.finish(span)
        if reply:
            return ReplyTunnel(hops=hops, hint_ips=hints, formed_at=now, bid=bid)
        return Tunnel(hops=hops, hint_ips=hints, formed_at=now)

    def reform_tunnel(self, owner: TapNode, tunnel: Tunnel) -> Tunnel:
        """Replace a broken tunnel with one of the same kind, length
        and hinting over freshly deployed anchors; the old tunnel's
        anchors are released."""
        self.deploy_thas(owner, count=tunnel.length)
        self.retire_tunnel(owner, tunnel)
        return self._form(
            owner, tunnel.length, any(tunnel.hint_ips), 0.0,
            reply=isinstance(tunnel, ReplyTunnel),
        )

    def _claim_hops(self, owner: TapNode, length: int):
        """Select scattered anchors and mark them as belonging to a
        tunnel — §4 requires request and reply tunnels to be disjoint,
        so anchors in active tunnels are never reselected."""
        hops = select_scattered(
            owner.deployed_thas(), length, self._form_rng, self.network.b_bits
        )
        for tha in hops:
            tha.in_use = True
            tha.meta["formed_root"] = self.network.closest_alive(tha.hop_id)
        return hops

    def retire_tunnel(self, owner: TapNode, tunnel: Tunnel, delete: bool = False) -> None:
        """Release a tunnel's anchors for reuse, optionally deleting
        them from the DHT (presenting the owner's PW proofs)."""
        for tha in tunnel.hops:
            tha.in_use = False
            if delete:
                self.deployer.delete(owner, tha)

    def _resolve_hint(self, owner: TapNode, hop_id: int) -> str:
        """Footnote-3 cache: map a hopid to its hop node's current IP."""
        root = self.network.closest_alive(hop_id)
        ip = ip_for_id(root)
        owner.hint_cache[hop_id] = (ip, root)
        return ip

    # ------------------------------------------------------------------
    # messaging / retrieval
    # ------------------------------------------------------------------
    def send(
        self,
        initiator: TapNode,
        tunnel: Tunnel,
        destination_id: int,
        payload: bytes,
    ) -> ForwardTrace:
        return self.forwarder.send(initiator, tunnel, destination_id, payload)

    def publish(self, content: bytes, name: bytes | None = None) -> int:
        return self.retrieval.publish(content, name)

    def retrieve(
        self,
        initiator: TapNode,
        fid: int,
        forward_tunnel: Tunnel,
        reply_tunnel: ReplyTunnel,
    ) -> RetrievalResult:
        return self.retrieval.retrieve(initiator, fid, forward_tunnel, reply_tunnel)

    # ------------------------------------------------------------------
    # membership events (keep overlay + storage in lock-step)
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int, repair: bool = True) -> None:
        """Crash a node; re-replicate its objects if ``repair``."""
        self.network.fail(node_id)
        if repair:
            self.store.on_fail(node_id)
            self._audit(f"fail {node_id:#x}")

    def fail_nodes(self, node_ids, repair_after: bool = True) -> None:
        """Simultaneous mass failure (Figure 2's model).

        All nodes drop *before* any repair runs — objects whose entire
        replica set is inside the failed set are lost, exactly the
        paper's simultaneous-failure scenario.
        """
        node_ids = list(node_ids)
        for nid in node_ids:
            self.network.fail(nid)
        if repair_after:
            for nid in node_ids:
                self.store.on_fail(nid)
            self._audit(f"mass-fail x{len(node_ids)}")

    def join_node(self, node_id: int) -> TapNode:
        self.network.join(node_id)
        self.ip_index[ip_for_id(node_id)] = node_id
        self.store.on_join(node_id)
        self._audit(f"join {node_id:#x}")
        return self.tap_node(node_id)

    def revive_node(self, node_id: int) -> TapNode:
        """Bring a failed node back, reconciling its stale replicas.

        The revived node drops local objects the holder index no
        longer attributes to it (deleted or handed-off while it was
        away — resurrection guard) and adopts the replicas it is now
        responsible for, like a fresh join.
        """
        self.network.revive(node_id)
        self.store.on_revive(node_id)
        self._audit(f"revive {node_id:#x}")
        return self.tap_node(node_id)

    # ------------------------------------------------------------------
