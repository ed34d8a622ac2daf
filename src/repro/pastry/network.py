"""The Pastry overlay: node registry, routing, join/leave/failure.

The network object plays two roles found in FreePastry's simulator:

* global oracle for *constructing* overlays (omniscient bootstrap and
  leaf-set repair — stand-ins for the maintenance protocol traffic);
* the per-hop *routing* itself, which uses only each node's local
  state (leaf set + routing table), discovering failures hop by hop
  exactly as a real deployment would.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.pastry.bulk import (
    adjacent_prefix_depths,
    leaf_reach,
    leaf_window,
    node_prefix,
    proximity_pools,
    smallest_id_buckets,
)
from repro.pastry.constants import DEFAULT_B_BITS, DEFAULT_LEAF_SET_SIZE
from repro.pastry.node import PastryNode
from repro.util.ids import (
    ID_BITS,
    closest_in_sorted,
    id_digit,
    ring_distance,
    shared_prefix_digits,
)


class RoutingError(RuntimeError):
    """Raised when a route cannot be completed (all candidates dead)."""


@dataclass
class RouteResult:
    """Outcome of routing a key from a source node.

    ``path`` lists the node ids traversed, source first and the node
    that accepted responsibility for the key last.  ``failures``
    counts dead next-hops discovered (and routed around) on the way.
    """

    key: int
    path: list[int]
    success: bool
    failures: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def hops(self) -> int:
        """Number of overlay hops actually taken."""
        return max(0, len(self.path) - 1)

    @property
    def destination(self) -> int:
        return self.path[-1]


class PastryNetwork:
    """Registry + routing fabric for a set of :class:`PastryNode`."""

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
        self.b_bits = b_bits
        self.leaf_set_size = leaf_set_size
        self.nodes: dict[int, PastryNode] = {}
        self._sorted_alive: list[int] = []
        #: bumped on every alive-set change; lets derived views (e.g.
        #: :class:`repro.past.ReplicatedStore` replica-set caches) test
        #: staleness with one integer compare instead of subscribing
        self.membership_epoch = 0
        #: reverse reference index ``entry -> {owner ids}``, built
        #: lazily on the first departure repair and maintained by the
        #: ``on_add`` hooks of every leaf set / routing table.  Superset
        #: semantics: owners that have since evicted the entry are
        #: pruned by a membership check at repair time.
        self._referrers: dict[int, set[int]] | None = None
        #: ``(src, key) -> [path, stamps, epoch last validated]``.  A
        #: route is a pure function of the local state of the nodes on
        #: its path, so an entry outlives any membership event that
        #: leaves those nodes alone: ``stamps`` holds, per path node,
        #: the node object with its leaf-set and routing-table versions
        #: (see :meth:`_revalidated`).  Bounded by ROUTE_CACHE_LIMIT.
        self._route_cache: dict[tuple[int, int], list] = {}
        # A pure function of the alive set: valid for one membership
        # epoch (same contract as the store's replica_set memoisation).
        self._closest_cache: dict[int, int] = {}
        self._closest_cache_epoch = -1
        #: optional :class:`repro.obs.MetricsRegistry`
        self.metrics = metrics
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
        proximity_sample: int = 16,
        metrics=None,
        tracer=None,
    ) -> "PastryNetwork":
        """Omniscient bootstrap: correct state for every node at once.

        ``proximity`` enables FreePastry-style proximity neighbour
        selection (PNS): a callable ``(a, b) -> latency`` (e.g.
        :meth:`repro.simnet.Topology.latency`); each routing-table cell
        is then filled with the topologically nearest of up to
        ``proximity_sample`` candidates instead of a deterministic
        default.  Any qualifying candidate yields a *correct* table —
        PNS only changes which one, trading build time for shorter
        physical routes (visible in the Figure-6 latencies).
        """
        net = cls(
            b_bits=b_bits,
            leaf_set_size=leaf_set_size,
            metrics=metrics,
            tracer=tracer,
        )
        ids = sorted(set(node_ids))
        if not ids:
            return net
        net._sorted_alive = list(ids)
        for nid in ids:
            net.nodes[nid] = PastryNode(nid, b_bits, leaf_set_size)

        # Leaf sets in one pass: the half closest ids in each ring
        # direction are exactly the index neighbours in sorted order,
        # so every leaf set is read as a window of ``ids`` — the same
        # read repair makes after a fail or a revive.  The
        # window/bucket builders live in repro.pastry.bulk, shared with
        # the compact engine.
        net._reload_leaf_sets(0, len(ids))

        # Routing tables from prefix buckets: bucket (row, prefix, digit)
        # keeps the smallest qualifying id for determinism.  Nodes that
        # share an r-digit prefix form a contiguous run in sorted order,
        # so each node's deepest populated row is bounded by its shared
        # prefix with its sort neighbours — no need to visit all 32 rows.
        rows = ID_BITS // b_bits
        max_shared = adjacent_prefix_depths(ids, b_bits)
        if proximity is None:
            # Deterministic default: the smallest qualifying id per cell.
            buckets = smallest_id_buckets(ids, max_shared, b_bits)

            def cell_entry(owner: int, key: tuple[int, int, int]) -> int | None:
                return buckets.get(key)

        else:
            # PNS: keep a bounded candidate pool per cell, pick the
            # topologically nearest per owner.
            pools = proximity_pools(ids, max_shared, b_bits, proximity_sample)

            def cell_entry(owner: int, key: tuple[int, int, int]) -> int | None:
                pool = pools.get(key)
                if not pool:
                    return None
                return min(pool, key=lambda cand: (proximity(owner, cand), cand))

        # A bucket (row, prefix, digit) entry shares exactly ``row``
        # digits with every owner of that prefix and differs at digit
        # ``row``, so its cell is (row, digit) by construction — the
        # table is filled directly, skipping per-add prefix arithmetic.
        for idx, nid in enumerate(ids):
            table = net.nodes[nid].routing_table
            for row in range(min(rows, max_shared[idx] + 1)):
                prefix = node_prefix(nid, row, b_bits)
                own_digit = id_digit(nid, row, b_bits)
                for digit in range(1 << b_bits):
                    if digit == own_digit:
                        continue
                    entry = cell_entry(nid, (row, prefix, digit))
                    if entry is not None:
                        table.install_cell(row, digit, entry)
        return net

    # ------------------------------------------------------------------
    # snapshot / fork (repro.perf.snapshot)
    # ------------------------------------------------------------------
    def snapshot(self):
        """Immutable, picklable copy of the whole overlay state.

        Returns a :class:`repro.perf.snapshot.NetworkSnapshot`; restore
        any number of independent networks from it with
        :meth:`~repro.perf.snapshot.NetworkSnapshot.restore`.
        """
        from repro.perf.snapshot import NetworkSnapshot

        return NetworkSnapshot.capture(self)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def alive_ids(self) -> list[int]:
        """Ascending ids of alive nodes (shared, do not mutate)."""
        return self._sorted_alive

    @property
    def size(self) -> int:
        return len(self._sorted_alive)

    def __iter__(self) -> Iterator[PastryNode]:
        return iter(self.nodes.values())

    def is_alive(self, node_id: int) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def _mark_alive(self, node_id: int) -> None:
        pos = bisect_left(self._sorted_alive, node_id)
        if pos >= len(self._sorted_alive) or self._sorted_alive[pos] != node_id:
            insort(self._sorted_alive, node_id)
            self.membership_epoch += 1

    def _mark_dead(self, node_id: int) -> None:
        pos = bisect_left(self._sorted_alive, node_id)
        if pos < len(self._sorted_alive) and self._sorted_alive[pos] == node_id:
            del self._sorted_alive[pos]
            self.membership_epoch += 1

    def join(self, node_id: int, bootstrap_id: int | None = None) -> PastryNode:
        """Incremental Pastry join protocol.

        The newcomer routes its own id via ``bootstrap_id`` (default:
        the alive node with the lowest id), copies the leaf set of the
        numerically closest node, takes routing-table rows from the
        nodes along the join route, and announces itself to every node
        it learned about.
        """
        previous = self.nodes.get(node_id)
        if previous is not None and previous.alive:
            raise ValueError(f"node {node_id:#x} already in the overlay")
        newcomer = PastryNode(node_id, self.b_bits, self.leaf_set_size)
        self.nodes[node_id] = newcomer
        self._attach_ref_hooks(newcomer)

        if not self._sorted_alive:  # first node: trivially joined
            self._mark_alive(node_id)
            return newcomer

        if bootstrap_id is None:
            bootstrap_id = self._sorted_alive[0]
        try:
            result = self.route(bootstrap_id, node_id)
            if not result.success:
                raise RoutingError("join route failed; overlay too damaged")
        except BaseException:
            # A failed join leaves the registry as it found it: the
            # dead node a re-join would have replaced keeps its record.
            if previous is None:
                del self.nodes[node_id]
            else:
                self.nodes[node_id] = previous
            raise

        # Row i of the routing table comes from the i-th node on the
        # join route (it shares at least i digits with the newcomer).
        for depth, hop_id in enumerate(result.path):
            hop = self.nodes[hop_id]
            shared = shared_prefix_digits(hop_id, node_id, self.b_bits)
            for row in range(min(depth, shared) + 1):
                for entry in hop.routing_table.row_entries(row).values():
                    if self.is_alive(entry):
                        newcomer.routing_table.add(entry)
            newcomer.routing_table.add(hop_id)

        closest = self.nodes[result.destination]
        newcomer.leaf_set.add_all(
            m for m in closest.leaf_set.members | {closest.node_id} if self.is_alive(m)
        )

        self._mark_alive(node_id)
        # Announce arrival to everyone the newcomer learned about.
        for other_id in newcomer.known_nodes():
            other = self.nodes.get(other_id)
            if other is not None and other.alive:
                other.learn([node_id])
        if self.metrics is not None:
            self.metrics.counter("pastry.joins").inc()
            self.metrics.gauge("pastry.population").set(self.size)
        return newcomer

    def fail(self, node_id: int) -> None:
        """Crash a node and repair every reference to it (the stand-in
        for Pastry's maintenance protocol)."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            return
        node.alive = False
        self._mark_dead(node_id)
        if self.metrics is not None:
            self.metrics.counter("pastry.fails").inc()
            self.metrics.gauge("pastry.population").set(self.size)
        self._repair_after_departure(node_id)

    def revive(self, node_id: int) -> None:
        """Bring a failed node back into the overlay.

        The returning node's state is stale: peers that died while it
        was away still populate its leaf set and routing table, and no
        live node remembers it.  Repair (the maintenance protocol
        stand-in) reconciles both sides: the stale references are
        dropped and repaired, the node and its ring neighbours enter
        each other's routing tables where a cell is free, and its leaf
        set and theirs are re-read from the sorted alive ids.
        """
        node = self.nodes.get(node_id)
        if node is None or node.alive:
            return
        node.alive = True
        self._mark_alive(node_id)
        if self.metrics is not None:
            self.metrics.counter("pastry.revives").inc()
            self.metrics.gauge("pastry.population").set(self.size)
        self._repair_after_revival(node_id)

    def _repair_after_revival(self, node_id: int) -> None:
        """Reconcile a revived node's stale state with the overlay."""
        node = self.nodes[node_id]
        refilled = 0
        for stale in [m for m in node.known_nodes() if not self.is_alive(m)]:
            refilled += self._forget_and_refill(node, stale)
        ids = self._sorted_alive
        n = len(ids)
        pos = bisect_left(ids, node_id)
        reach = leaf_reach(n, self.leaf_set_size)
        # The node and each ring neighbour offer themselves for each
        # other's routing table: same row both ways, incumbents stay.
        b = self.b_bits
        for off in range(1, reach + 1):
            for neighbour_id in (ids[(pos + off) % n], ids[(pos - off) % n]):
                row = shared_prefix_digits(node_id, neighbour_id, b)
                self._fill_if_vacant(node, row, id_digit(neighbour_id, row, b), neighbour_id)
                self._fill_if_vacant(
                    self.nodes[neighbour_id], row, id_digit(node_id, row, b), node_id
                )
        # The revived node's own window and the windows it re-entered.
        reloaded = self._reload_leaf_sets(pos - reach, pos + reach + 1)
        self._count_repair(reloaded, refilled)

    # ------------------------------------------------------------------
    # the referrer index (who references whom)
    # ------------------------------------------------------------------
    def _note_reference(self, owner_id: int, target_id: int) -> None:
        """``on_add`` hook installed on every leaf set / routing table:
        record that ``owner_id`` may now reference ``target_id``."""
        refs = self._referrers
        if refs is not None:
            refs.setdefault(target_id, set()).add(owner_id)

    def _attach_ref_hooks(self, node: PastryNode) -> None:
        node.leaf_set.on_add = self._note_reference
        node.routing_table.on_add = self._note_reference

    def _build_referrer_index(self) -> dict[int, set[int]]:
        """One full scan building ``entry -> {owners}``; every node is
        hooked so subsequent additions keep the index a superset of the
        true reference relation (evictions are pruned lazily)."""
        refs: dict[int, set[int]] = {}
        self._referrers = refs
        for nid, node in self.nodes.items():
            for target in node.leaf_set.members:
                refs.setdefault(target, set()).add(nid)
            for target in node.routing_table.entries:
                refs.setdefault(target, set()).add(nid)
            self._attach_ref_hooks(node)
        return refs

    def _repair_after_departure(self, dead_id: int) -> None:
        """Refill leaf sets and routing cells that referenced the dead node.

        Stands in for Pastry's repair protocols: leaf-set repair asks
        the furthest leaf on the depleted side for its leaf set;
        routing-table repair asks row neighbours for a replacement
        entry.  We refill from the global sorted list — the state those
        protocols provably converge to: every referrer forgets the dead
        id and refills the cell it vacated, then the |L|/2 alive nodes
        on each side of the vacated ring position — the holders of a
        canonical overlay — re-read their leaf sets as windows of it.

        Referrers come from the lazily-built reverse index rather than
        a full-ring scan, so one departure costs O(referrers + |L|²),
        not O(N) — the index is a superset, pruned here by the same
        membership checks the scan performed, and it also reaches the
        holders outside the window, whose routing tables reference the
        dead node.
        """
        ids = self._sorted_alive
        if not ids:
            return
        refs = self._referrers
        if refs is None:
            refs = self._build_referrer_index()
        refilled = 0
        for nid in refs.pop(dead_id, ()):
            node = self.nodes.get(nid)
            if node is None:
                continue
            if not node.alive:
                # A dead holder keeps its stale reference and comes back
                # with it if both are revived: it stays indexed.
                self._note_reference(nid, dead_id)
            elif dead_id in node.routing_table or dead_id in node.leaf_set:
                refilled += self._forget_and_refill(node, dead_id)
        pos = bisect_left(ids, dead_id)
        half = self.leaf_set_size // 2
        reloaded = self._reload_leaf_sets(pos - half, pos + half)
        self._count_repair(reloaded, refilled)

    def _reload_leaf_sets(self, lo: int, hi: int) -> int:
        """Re-read, from the sorted alive ids, the leaf sets of the nodes
        at ring positions ``lo`` .. ``hi - 1`` (indices wrap; each node
        once) and tell the referrer index what each window gained.
        Returns how many leaf sets were re-read."""
        ids = self._sorted_alive
        n = len(ids)
        reach = leaf_reach(n, self.leaf_set_size)
        refs = self._referrers
        first = max(lo, hi - n)
        for idx in range(first, hi):
            idx %= n
            owner_id = ids[idx]
            gained = self.nodes[owner_id].leaf_set.reload(leaf_window(ids, idx, reach))
            if refs is not None:
                for target in gained:
                    refs.setdefault(target, set()).add(owner_id)
        return hi - first

    def _count_repair(self, reloaded: int, refilled: int) -> None:
        m = self.metrics
        if m is not None:
            m.counter("pastry.repair.leaf_sets_reloaded").inc(reloaded)
            m.counter("pastry.repair.cells_refilled").inc(refilled)

    def _forget_and_refill(self, node: PastryNode, dead_id: int) -> bool:
        """Drop a dead node from local state and repair the vacated
        routing cell with another alive node of the same prefix class;
        True if a replacement was installed."""
        table = node.routing_table
        cell = node.forget(dead_id)
        if cell is None:
            # Held in the leaf set alone (or not at all): the cell the
            # dead id would have occupied is still filled if vacant.
            cell = table.cell_for(dead_id)
            if cell is None or table.lookup(*cell) is not None:
                return False
        replacement = self._find_node_for_cell(node.node_id, *cell)
        if replacement is None:
            return False
        table.install_cell(*cell, replacement)
        self._note_reference(node.node_id, replacement)
        return True

    def _fill_if_vacant(self, node: PastryNode, row: int, col: int, entry: int) -> bool:
        """Install ``entry``, whose cell in ``node``'s table is
        ``(row, col)``, unless the cell has an incumbent."""
        table = node.routing_table
        if table.lookup(row, col) is not None:
            return False
        table.install_cell(row, col, entry)
        self._note_reference(node.node_id, entry)
        return True

    def _find_node_for_cell(self, owner_id: int, row: int, col: int) -> int | None:
        """Any alive node sharing ``row`` digits with the owner and
        having digit ``col`` next — i.e. a valid entry for that cell.
        Nodes of one prefix class are contiguous in sorted id order."""
        b = self.b_bits
        shift = ID_BITS - b * (row + 1)
        owner_prefix = owner_id >> (shift + b)
        lo = ((owner_prefix << b) | col) << shift
        pos = bisect_left(self._sorted_alive, lo)
        if pos < len(self._sorted_alive) and (self._sorted_alive[pos] >> shift) == (lo >> shift):
            return self._sorted_alive[pos]
        return None

    def discover_failure(self, observer_id: int, dead_id: int) -> None:
        """An observer timed out contacting ``dead_id``: drop it from
        the observer's local state and repair the vacated cell.  Used
        by the event-driven emulation, where failures are discovered
        by timeout rather than by the oracle."""
        observer = self.nodes.get(observer_id)
        if observer is not None:
            self._forget_and_refill(observer, dead_id)

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

    def next_hop(self, node_id: int, key: int) -> int:
        """One per-hop decision of node ``node_id`` for ``key``
        (:meth:`PastryNode.next_hop`); ``node_id`` itself means local
        delivery."""
        return self.nodes[node_id].next_hop(key)

    def route(self, src_id: int, key: int) -> RouteResult:
        """Route ``key`` from ``src_id`` using only local node state.

        Dead next-hops are discovered on contact: the current node
        forgets them, refills the vacated cell and decides again,
        mirroring timeout-and-reroute in a deployment.  Repair at every
        ``fail`` and ``revive`` leaves no dead reference behind, so only
        state edited past the network meets one.
        """
        if self.metrics is None and not self.tracer:
            return self._route_impl(src_id, key)
        tr = self.tracer
        span = tr.start_span("dht.route", observer="hop",
                             src=src_id) if tr else None
        try:
            result = self._route_impl(src_id, key)
        except RoutingError as exc:
            if span is not None:
                tr.finish(span, success=False, error=str(exc))
            raise
        if span is not None:
            tr.finish(
                span,
                success=result.success,
                links=result.hops,
                failures=result.failures,
                dst=result.destination,
            )
        m = self.metrics
        if m is not None:
            m.counter("pastry.route.count").inc()
            m.histogram("pastry.route.hops").observe(result.hops)
            if result.failures:
                m.counter("pastry.route.dead_hops").inc(result.failures)
            if not result.success:
                m.counter("pastry.route.failed").inc()
        return result

    def _revalidated(self, memo_key: tuple[int, int], entry: list) -> list | None:
        """A memoised route met after an epoch turn: re-stamped with the
        current epoch if every node it crossed is alive and carries the
        leaf-set and routing-table versions it was stamped with — i.e.
        an uncached walk would take the same decisions hop for hop —
        else dropped (``None``).  A stamp holds the node *object*, so
        the fresh node ``join`` installs under a reused id (versions
        restart at 0) cannot pass for the one the route crossed:
        ``join`` only ever replaces a dead node's object, and ``revive``
        reaches registered objects only, so the replaced one stays dead."""
        m = self.metrics
        for node, leaf_version, table_version in entry[1]:
            if (
                not node.alive
                or node.leaf_set.version != leaf_version
                or node.routing_table._version != table_version
            ):
                del self._route_cache[memo_key]
                if m is not None:
                    m.counter("pastry.route.cache_stale").inc()
                return None
        entry[2] = self.membership_epoch
        if m is not None:
            m.counter("pastry.route.cache_revalidated").inc()
        return entry

    def _route_impl(self, src_id: int, key: int) -> RouteResult:
        src = self.nodes.get(src_id)
        if src is None or not src.alive:
            raise RoutingError(f"source {src_id:#x} is not alive")

        # A clean route is a pure function of the local state of the
        # nodes on its path, and repair leaves that state without dead
        # references (the one in-route mutation trigger), so clean
        # routes are memoised per (src, key).  Within the epoch an entry
        # was last validated in, a hit is one integer compare; after an
        # epoch turn it is served only if its stamps still hold, and
        # dropped otherwise.  Routes that discovered failures are never
        # cached.
        cache = self._route_cache
        memo_key = (src_id, key)
        entry = cache.get(memo_key)
        if entry is not None and entry[2] != self.membership_epoch:
            entry = self._revalidated(memo_key, entry)
        if entry is not None:
            if self.metrics is not None:
                self.metrics.counter("pastry.route.cache_hits").inc()
            return RouteResult(key, list(entry[0]), True, 0)

        path = [src_id]
        failures = 0
        current = src
        for _ in range(self.MAX_HOPS):
            while True:
                nxt = current.next_hop(key)
                if nxt == current.node_id:
                    if failures == 0:
                        if len(cache) >= self.ROUTE_CACHE_LIMIT:
                            cache.clear()
                        stamps = tuple(
                            (node, node.leaf_set.version, node.routing_table._version)
                            for node in map(self.nodes.__getitem__, path)
                        )
                        cache[memo_key] = [list(path), stamps, self.membership_epoch]
                    return RouteResult(key, path, True, failures)
                if self.is_alive(nxt):
                    break
                # Discovered a dead neighbour: drop it from everything
                # next_hop reads, repair the vacated cell, and ask again.
                failures += 1
                self._forget_and_refill(current, nxt)
            path.append(nxt)
            current = self.nodes[nxt]
        return RouteResult(key, path, False, failures, meta={"reason": "hop-limit"})
