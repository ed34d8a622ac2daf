"""The Pastry overlay: membership, routing, join/leave/failure.

The network object plays two roles found in FreePastry's simulator:

* global oracle for membership: the sorted alive ids plus the set of
  registered ids that are down.  Every node's routing state is read
  from the alive ids on demand — its leaf set is its window of the
  ring order (:meth:`PastryNetwork.leaves`, the stand-in for Pastry's
  maintenance protocol) and its routing cells the smallest alive ids
  of their prefix classes, or on a PNS network the nearest of the
  first few (:meth:`PastryNetwork.cell`) — so no node
  ever references a dead one, and a membership event only stamps the
  nodes whose window it changed;
* the per-hop *routing* itself, which walks each node's forwarding
  decision (:meth:`PastryNode.decision`) from the source to the key's
  root.  A :class:`PastryNode` holds only its memoised decisions and
  is built on its first one, so building an overlay of N ids builds
  no node and a route builds only the nodes on its path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from repro.pastry.bulk import bucket_bounds, leaf_reach, leaf_window
from repro.pastry.constants import DEFAULT_B_BITS, DEFAULT_LEAF_SET_SIZE
from repro.pastry.node import PastryNode, class_key
from repro.util.ids import ID_BITS, closest_in_sorted, id_digit, shared_prefix_digits


#: How many ids of a prefix class, from its smallest alive one up, a
#: PNS cell chooses among (FreePastry samples a bounded candidate set).
PNS_SAMPLE = 16


class RoutingError(RuntimeError):
    """Raised when a route cannot be completed (dead source, hop limit)."""


class PastryNetwork:
    """Membership + routing fabric of a Pastry overlay."""

    #: Safety valve against routing livelock; generous compared to the
    #: ~log_16 N hops a healthy overlay needs.
    MAX_HOPS = 256

    def __init__(
        self,
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
        metrics=None,
        tracer=None,
    ):
        if ID_BITS % b_bits != 0:
            raise ValueError(f"b={b_bits} must divide {ID_BITS}")
        if leaf_set_size < 2 or leaf_set_size % 2 != 0:
            raise ValueError("leaf-set capacity must be an even number >= 2")
        self.b_bits = b_bits
        self.leaf_set_size = leaf_set_size
        self._sorted_alive: list[int] = []
        #: registered ids that are not alive (failed, not yet revived)
        self._down: set[int] = set()
        #: ``node id -> PastryNode``, each built on the node's first
        #: decision (:meth:`_node`)
        self._nodes: dict[int, PastryNode] = {}
        #: PNS builds only: the ``(a, b) -> latency`` callable a cell
        #: choice minimises (see :meth:`cell`)
        self.proximity = None
        #: bumped on every alive-set change; lets derived views (e.g.
        #: :class:`repro.past.ReplicatedStore` replica-set caches) test
        #: staleness with one integer compare instead of subscribing
        self.membership_epoch = 0
        #: ``class_key(digits, prefix) -> epoch`` of the last membership
        #: event that changed the smallest alive id with that
        #: ``digits``-digit prefix, and ``class_key(…, whole=True)`` of
        #: the last event among those ids.  A cell decision holds while
        #: its class's smallest id is unchanged; a decision that read
        #: more of a class (the rare-case scan, a PNS choice) while
        #: nothing in it changed.
        self._class_epochs: dict[int, int] = {}
        #: ``(src, key) -> [path, stamps, epoch last validated]``, the
        #: path being the tuple :meth:`route` hands out.  A route is a
        #: pure function of the decisions of the nodes on its path, so
        #: an entry outlives any membership event that leaves
        #: those decisions alone: ``stamps`` holds, per path node, the
        #: node and its window epoch and the class its decision read
        #: with that class's stamp (see :meth:`_stamps_hold`).
        #: Bounded by ROUTE_CACHE_LIMIT.
        self._route_cache: dict[tuple[int, int], list] = {}
        # A pure function of the alive set: valid for one membership
        # epoch (same contract as the store's replica_set memoisation).
        self._closest_cache: dict[int, int] = {}
        self._closest_cache_epoch = -1
        #: optional :class:`repro.obs.MetricsRegistry`
        self.metrics = metrics
        #: ``(registry, pastry.route.count, pastry.route.hops)`` and
        #: ``(registry, pastry.route.cache_hits)``: each route's
        #: instruments, resolved on first use under the attached registry
        self._route_meters = self._hit_meter = (None, None)
        #: optional :class:`repro.obs.SpanTracer`; ``route`` is the one
        #: creator of ``dht.route`` spans (parented via the stack)
        self.tracer = tracer

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        node_ids: Iterable[int],
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
        proximity=None,
        metrics=None,
        tracer=None,
    ) -> "PastryNetwork":
        """Omniscient bootstrap: correct state for every node at once.

        Nothing but the sorted ids is built: leaf windows and routing
        cells are read from them, and nodes on their first decision.

        ``proximity`` enables FreePastry-style proximity neighbour
        selection (PNS): a callable ``(a, b) -> latency`` (e.g.
        :meth:`repro.simnet.Topology.latency`); each routing cell is
        then the topologically nearest of the first :data:`PNS_SAMPLE`
        alive ids of its prefix class, read on demand like any other
        cell.  Any member of the class is a *correct* entry — PNS only
        changes which one, for shorter physical routes (visible in the
        Figure-6 latencies).
        """
        net = cls(
            b_bits=b_bits,
            leaf_set_size=leaf_set_size,
            metrics=metrics,
            tracer=tracer,
        )
        net._sorted_alive = sorted(set(node_ids))
        net.proximity = proximity
        return net

    @classmethod
    def over_sorted(
        cls,
        sorted_ids: Sequence[int],
        b_bits: int = DEFAULT_B_BITS,
        leaf_set_size: int = DEFAULT_LEAF_SET_SIZE,
    ) -> "PastryNetwork":
        """A network whose alive ids are ``sorted_ids`` as given: an
        ascending, duplicate-free sequence, adopted with no sort and no
        copy.  Membership events write the sequence, so on a read-only
        one (:meth:`repro.perf.compact.CompactOverlay.twin`) they
        raise."""
        net = cls(b_bits=b_bits, leaf_set_size=leaf_set_size)
        net._sorted_alive = sorted_ids
        return net

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def alive_ids(self) -> list[int]:
        """Ascending ids of alive nodes (shared, do not mutate)."""
        return self._sorted_alive

    @property
    def down_ids(self) -> set[int]:
        """Registered ids that are not alive (shared, do not mutate)."""
        return self._down

    @property
    def size(self) -> int:
        return len(self._sorted_alive)

    def is_alive(self, node_id: int) -> bool:
        ids = self._sorted_alive
        pos = bisect_left(ids, node_id)
        return pos < len(ids) and ids[pos] == node_id

    def is_registered(self, node_id: int) -> bool:
        """Has ``node_id`` ever entered the overlay (alive or down)?"""
        return node_id in self._down or self.is_alive(node_id)

    def first_alive_in(self, lower: int, upper: int) -> int | None:
        """The smallest alive id in ``[lower, upper)``, if any — for a
        prefix class, its canonical routing-cell entry."""
        ids = self._sorted_alive
        pos = bisect_left(ids, lower)
        if pos < len(ids) and ids[pos] < upper:
            return ids[pos]
        return None

    def join(self, node_id: int, bootstrap_id: int | None = None) -> None:
        """A node enters the overlay.

        The newcomer's join message routes its own id via
        ``bootstrap_id`` (default: the alive node with the lowest id);
        an overlay that cannot carry it refuses the newcomer and leaves
        the membership as it was.  Then the newcomer is indexed alive,
        which enters it into the leaf windows around it.  A newcomer
        under a down id starts afresh: the old node object and what it
        memoised are dropped.
        """
        if self.is_alive(node_id):
            raise ValueError(f"node {node_id:#x} already in the overlay")
        if self._sorted_alive:
            if bootstrap_id is None:
                bootstrap_id = self._sorted_alive[0]
            try:
                self.route(bootstrap_id, node_id)
            except RoutingError as exc:
                raise RoutingError(f"join route failed: {exc}") from exc
        self._down.discard(node_id)
        self._nodes.pop(node_id, None)
        self._enter(node_id, "pastry.joins")

    def fail(self, node_id: int) -> None:
        """Crash a node.  The nodes whose window held it, and the node
        itself (its window empties, so every decision it memoised is
        void), are stamped with the new epoch; no cell needs repair, it
        is read from the alive ids."""
        ids = self._sorted_alive
        pos = bisect_left(ids, node_id)
        if pos == len(ids) or ids[pos] != node_id:
            return
        del ids[pos]
        self._down.add(node_id)
        self._turn_epoch(
            node_id, ids[pos - 1] if pos else None, ids[pos] if pos < len(ids) else None
        )
        node = self._nodes.get(node_id)
        if node is not None:
            node.window_epoch = self.membership_epoch
        if self.metrics is not None:
            self.metrics.counter("pastry.fails").inc()
            self.metrics.gauge("pastry.population").set(self.size)
        half = self.leaf_set_size // 2
        self._count_repair(self._stamp_windows(pos - half, pos + half))

    def revive(self, node_id: int) -> None:
        """Bring a failed node back: it and the ring neighbours whose
        window it re-entered are stamped, which leaves the overlay as a
        fresh :meth:`build` of the alive ids would be."""
        if node_id not in self._down:
            return
        self._down.remove(node_id)
        self._enter(node_id, "pastry.revives")

    def _enter(self, node_id: int, counter: str) -> None:
        """Index an alive ``node_id`` and stamp the windows of it and its
        ``reach`` ring neighbours on each side."""
        ids = self._sorted_alive
        pos = bisect_left(ids, node_id)
        ids.insert(pos, node_id)
        self._turn_epoch(
            node_id, ids[pos - 1] if pos else None, ids[pos + 1] if pos + 1 < len(ids) else None
        )
        if self.metrics is not None:
            self.metrics.counter(counter).inc()
            self.metrics.gauge("pastry.population").set(self.size)
        reach = leaf_reach(len(ids), self.leaf_set_size)
        self._count_repair(self._stamp_windows(pos - reach, pos + reach + 1))

    def _turn_epoch(self, node_id: int, pred: int | None, succ: int | None) -> None:
        """Bump the membership epoch and stamp it on what the event can
        have changed for a memoised decision: each prefix class of
        ``node_id`` as a whole, and each class whose smallest alive id
        it becomes or was — ``node_id`` heads its ``d``-digit class iff
        its sort predecessor ``pred`` shares fewer than ``d`` digits
        with it.

        Classes more than one digit deeper than its longest prefix
        shared with ``pred`` or ``succ`` hold it alone, and no decision
        reads them: a decision reads a class that holds a live node
        sharing all but the class's last digit (a failed node's window
        empties, voiding its memo).
        """
        self.membership_epoch += 1
        epoch = self.membership_epoch
        epochs = self._class_epochs
        b = self.b_bits
        below = 0 if pred is None else shared_prefix_digits(node_id, pred, b)
        above = 0 if succ is None else shared_prefix_digits(node_id, succ, b)
        for digits in range(min(ID_BITS // b, max(below, above) + 1) + 1):
            head = class_key(digits, node_id >> (ID_BITS - b * digits))
            epochs[head | 1] = epoch
            if digits > below:
                epochs[head] = epoch

    def _stamp_windows(self, lo: int, hi: int) -> int:
        """Stamp the current epoch on the nodes at ring positions ``lo``
        .. ``hi - 1`` (indices wrap; each node once), the ones whose
        leaf window the event changed.  A node not built yet has
        memoised nothing and is skipped.  Returns how many windows
        changed."""
        ids = self._sorted_alive
        n = len(ids)
        first = max(lo, hi - n)
        nodes = self._nodes
        epoch = self.membership_epoch
        for idx in range(first, hi):
            node = nodes.get(ids[idx % n])
            if node is not None:
                node.window_epoch = epoch
        return hi - first

    def _count_repair(self, stamped: int) -> None:
        if self.metrics is not None:
            self.metrics.counter("pastry.repair.leaf_sets_reloaded").inc(stamped)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    #: Size valve of the route and closest-node caches, each cleared
    #: wholesale when exceeded — the only bound on a memoised route's
    #: lifetime besides a failed validation.
    ROUTE_CACHE_LIMIT = 65536

    def closest_alive(self, key: int) -> int:
        """Id of the alive node numerically closest to ``key`` (oracle).

        Memoised per membership epoch — a pure function of the alive
        set, recomputed only after membership changes.
        """
        if not self._sorted_alive:
            raise RoutingError("no alive nodes")
        if self._closest_cache_epoch != self.membership_epoch:
            self._closest_cache.clear()
            self._closest_cache_epoch = self.membership_epoch
        root = self._closest_cache.get(key)
        if root is None:
            root = closest_in_sorted(self._sorted_alive, key, 1)[0]
            if len(self._closest_cache) >= self.ROUTE_CACHE_LIMIT:
                self._closest_cache.clear()
            self._closest_cache[key] = root
        return root

    def replica_candidates(self, key: int, k: int) -> list[int]:
        """The k alive nodes numerically closest to ``key`` (oracle)."""
        if not self._sorted_alive:
            raise RoutingError("no alive nodes")
        return closest_in_sorted(self._sorted_alive, key, min(k, len(self._sorted_alive)))

    # ------------------------------------------------------------------
    # per-node routing state, read from the alive ids
    # ------------------------------------------------------------------
    def leaves(self, node_id: int) -> list[int]:
        """The leaf set of ``node_id``, ascending: its window of the
        alive ids (``[]`` unless it is alive)."""
        ids = self._sorted_alive
        pos = bisect_left(ids, node_id)
        if pos == len(ids) or ids[pos] != node_id:
            return []
        return leaf_window(ids, pos, leaf_reach(len(ids), self.leaf_set_size))

    def cell(self, node_id: int, row: int, col: int) -> int | None:
        """Routing-table cell ``(row, col)`` of ``node_id``: the smallest
        alive id of the cell's prefix class, or on a PNS network the one
        nearest ``node_id`` of the class's first :data:`PNS_SAMPLE`
        (ties toward the smaller id); ``None`` if the class is empty or
        ``col`` is the node's own digit (not a cell)."""
        if col == id_digit(node_id, row, self.b_bits):
            return None
        lower, upper = bucket_bounds(node_id, row, col, self.b_bits)
        if self.proximity is None:
            return self.first_alive_in(lower, upper)
        ids = self._sorted_alive
        pos = bisect_left(ids, lower)
        pool = [c for c in ids[pos:pos + PNS_SAMPLE] if c < upper]
        return min(pool, key=lambda c: (self.proximity(node_id, c), c), default=None)

    def cells(self, node_id: int, first_row: int = 0) -> dict[tuple[int, int], int]:
        """Every populated cell of ``node_id`` in rows ``first_row`` and
        deeper.  Rows past the longest prefix the node shares with a
        sort neighbour are provably empty, so they are not visited."""
        b = self.b_bits
        ids = self._sorted_alive
        pos = bisect_left(ids, node_id)
        after = pos + 1 if pos < len(ids) and ids[pos] == node_id else pos
        depth = max(
            (shared_prefix_digits(node_id, ids[p], b) for p in (pos - 1, after)
             if 0 <= p < len(ids)),
            default=-1,
        )
        out = {}
        for row in range(first_row, min(ID_BITS // b, depth + 1)):
            for col in range(1 << b):
                entry = self.cell(node_id, row, col)
                if entry is not None:
                    out[row, col] = entry
        return out

    def _node(self, node_id: int) -> PastryNode:
        """The node object of ``node_id``, built on first use."""
        node = self._nodes.get(node_id)
        if node is None:
            node = self._nodes[node_id] = PastryNode(node_id, self)
        return node

    def next_hop(self, node_id: int, key: int) -> int:
        """One per-hop decision of node ``node_id`` for ``key``
        (:meth:`PastryNode.next_hop`); ``node_id`` itself means local
        delivery."""
        return self._node(node_id).next_hop(key)

    def decide(self, node_id: int, key: int) -> int:
        """The decision :meth:`next_hop` would take with no memo — what
        the invariant auditor holds every memoised hop to."""
        return self._node(node_id)._decide(key)[0]

    def served_hops(self, node_id: int) -> list[tuple[int, int]]:
        """``(key, next hop)`` of every memoised decision of ``node_id``
        that :meth:`next_hop` would serve now (none before it decides)."""
        node = self._nodes.get(node_id)
        return [] if node is None else [(key, hit[0]) for key, hit in node.served_memo()]

    def route(self, src_id: int, key: int) -> tuple[int, ...]:
        """The path of ``key`` from ``src_id``, one node decision per
        hop: the node ids traversed, source first and the key's root
        last.  A memoised path comes back as the very tuple the memo
        stores.  Raises :class:`RoutingError` when the source is not
        alive or the walk exceeds :attr:`MAX_HOPS`."""
        if self.metrics is None and not self.tracer:
            return self._route_impl(src_id, key)
        tr = self.tracer
        span = tr.start_span("dht.route", observer="hop",
                             src=src_id) if tr else None
        try:
            path = self._route_impl(src_id, key)
        except RoutingError as exc:
            if span is not None:
                tr.finish(span, success=False, error=str(exc))
            raise
        if span is not None:
            tr.finish(span, success=True, links=len(path) - 1, dst=path[-1])
        m = self.metrics
        if m is not None:
            meters = self._route_meters
            if meters[0] is not m:
                meters = self._route_meters = (
                    m, m.counter("pastry.route.count"), m.histogram("pastry.route.hops"))
            meters[1].inc()
            meters[2].observe(len(path) - 1)
        return path

    def _stamps_hold(self, stamps) -> bool:
        """Would every node on a memoised path decide as it did?  Yes
        while each still has the window epoch and class stamp its
        decision was taken under.  A node's window epoch moves when it
        fails, and epochs only increase, so neither a dead node nor the
        fresh node built after a ``join`` under a reused id can pass for
        the one the route crossed."""
        epochs = self._class_epochs
        for node, window_epoch, cls, stamp in stamps:
            if node.window_epoch != window_epoch or (
                cls is not None and epochs.get(cls, 0) != stamp
            ):
                return False
        return True

    def _revalidated(self, memo_key: tuple[int, int], entry: list) -> list | None:
        """A memoised route met after an epoch turn: re-stamped with the
        current epoch if its stamps hold, else dropped (``None``)."""
        m = self.metrics
        if not self._stamps_hold(entry[1]):
            del self._route_cache[memo_key]
            if m is not None:
                m.counter("pastry.route.cache_stale").inc()
            return None
        entry[2] = self.membership_epoch
        if m is not None:
            m.counter("pastry.route.cache_revalidated").inc()
        return entry

    def _route_impl(self, src_id: int, key: int) -> tuple[int, ...]:
        # Routes are memoised per (src, key).  Within the epoch an entry
        # was last validated in, a hit is one integer compare; after an
        # epoch turn it is served only if its stamps still hold, and
        # dropped otherwise.  A hit needs no liveness test: only a live
        # source memoises, and its failure stamps its own window epoch,
        # which voids every entry it holds.
        cache = self._route_cache
        memo_key = (src_id, key)
        entry = cache.get(memo_key)
        if entry is not None and entry[2] != self.membership_epoch:
            entry = self._revalidated(memo_key, entry)
        if entry is not None:
            m = self.metrics
            if m is not None:
                meter = self._hit_meter
                if meter[0] is not m:
                    meter = self._hit_meter = (m, m.counter("pastry.route.cache_hits"))
                meter[1].inc()
            return entry[0]
        if not self.is_alive(src_id):
            raise RoutingError(f"source {src_id:#x} is not alive")

        node_of = self._node
        path = [src_id]
        stamps = []
        current = node_of(src_id)
        for _ in range(self.MAX_HOPS):
            nxt, cls, stamp = current.decision(key)
            stamps.append((current, current.window_epoch, cls, stamp))
            if nxt == current.node_id:
                if len(cache) >= self.ROUTE_CACHE_LIMIT:
                    cache.clear()
                path = tuple(path)
                cache[memo_key] = [path, tuple(stamps), self.membership_epoch]
                return path
            path.append(nxt)
            current = node_of(nxt)
        raise RoutingError(f"route to {key:#x} exceeded {self.MAX_HOPS} hops")
