"""Copy-on-write snapshot/fork for the overlay + storage stack.

Experiment runners pay a full ``TapSystem.bootstrap`` per repetition —
N node-state constructions just to reach the first TAP message.  Every
repetition of one sweep point starts from the *same* overlay, so the
construction can be amortised: build one base system, capture an
immutable :class:`SystemSnapshot`, and :meth:`~SystemSnapshot.fork` an
independent system per trial.

Semantics
---------
* A snapshot is **immutable and picklable**: the captured overlay is
  its registry order, the sorted alive ids and the dead ids (every
  other piece of node state is read from the alive ids), plus a PNS
  build's cell choices; stored objects are plain tuples/dicts of ints
  and bytes.  Both are safe to ship to ``ProcessPoolExecutor`` workers
  (see ``run_trials(shared=...)``).
* A fork is **independent**: nodes are built lazily on first access
  (:class:`_LazyNodes`), each a fresh object — mutations in one fork
  are invisible to the snapshot, the base system and every other fork.
* A fork is **equivalent** to a fresh build: ``TapSystem.bootstrap(n,
  seed=rep, overlay_seed=base).rows_digest == SystemSnapshot.fork`` of
  the base snapshot with ``seed=rep`` — the property the fork-equivalence
  tests pin byte-for-byte, including after fail/revive/join cycles.

Epoch bookkeeping carries over verbatim: the restored network resumes
at the captured ``membership_epoch``, so downstream epoch-keyed caches
(replica-set memo) behave exactly as they would on the base system; a
materialised node starts with an empty ``next_hop`` memo, which only
ever holds what its own state decides.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable

from repro.past.replication import ReplicatedStore
from repro.past.storage import StoredObject
from repro.pastry.network import PastryNetwork
from repro.pastry.node import PastryNode
from repro.perf.parallel import shared_payload
from repro.util.rng import SeedSequenceFactory


class _LazyNodes(dict):
    """``node_id -> PastryNode`` of a restored network, each node built
    on first access.

    A node carries nothing the network cannot re-read but its alive
    flag: its leaf window and cells are read from the network's current
    sorted alive ids.  Iteration yields the snapshot's node order
    followed by ids registered after the fork, so code that walks
    ``network.nodes`` sees what it would on a fresh build.  Ids are
    never deleted from an overlay's registry.
    """

    def __init__(self, snap: "NetworkSnapshot", network: PastryNetwork):
        super().__init__()
        self._snap = snap
        self._network = network
        #: ids registered after the fork, in registration order
        self._extra: list[int] = []

    def _captured(self, node_id) -> bool:
        snap = self._snap
        ids = snap.sorted_alive
        pos = bisect_left(ids, node_id)
        return (pos < len(ids) and ids[pos] == node_id) or node_id in snap.dead

    def __missing__(self, node_id: int) -> PastryNode:
        if not self._captured(node_id):
            raise KeyError(node_id)
        node = PastryNode(node_id, self._network)
        node.alive = node_id not in self._snap.dead
        super().__setitem__(node_id, node)
        return node

    def __contains__(self, node_id) -> bool:
        return super().__contains__(node_id) or self._captured(node_id)

    def __setitem__(self, node_id, node) -> None:
        if node_id not in self:
            self._extra.append(node_id)
        super().__setitem__(node_id, node)

    def get(self, node_id, default=None):
        try:
            return self[node_id]
        except KeyError:
            return default

    def __len__(self) -> int:
        return len(self._snap.order) + len(self._extra)

    def __iter__(self):
        yield from self._snap.order
        yield from self._extra

    def keys(self):
        return list(self)

    def values(self):
        return [self[nid] for nid in self]

    def items(self):
        return [(nid, self[nid]) for nid in self]


class NetworkSnapshot:
    """Immutable, picklable capture of a :class:`PastryNetwork`: its
    registry order, sorted alive ids and dead ids, and the built-once
    PNS cell choices (shared, never mutated)."""

    __slots__ = (
        "b_bits", "leaf_set_size", "membership_epoch",
        "order", "sorted_alive", "dead", "pns_cells",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @classmethod
    def capture(cls, network: PastryNetwork) -> "NetworkSnapshot":
        order = tuple(network.nodes)
        return cls(
            b_bits=network.b_bits,
            leaf_set_size=network.leaf_set_size,
            membership_epoch=network.membership_epoch,
            order=order,
            sorted_alive=tuple(network.alive_ids),
            dead=frozenset(order).difference(network.alive_ids),
            pns_cells=network.pns_cells,
        )

    def restore(self, metrics=None, tracer=None) -> PastryNetwork:
        """An independent network resuming from the captured state.

        O(1) in the network size besides copying the alive ids: nodes
        materialise on first access, so a fork that only routes through
        a few hundred nodes never pays for the rest.
        """
        net = PastryNetwork(
            b_bits=self.b_bits,
            leaf_set_size=self.leaf_set_size,
            metrics=metrics,
            tracer=tracer,
        )
        net._sorted_alive = list(self.sorted_alive)
        net.membership_epoch = self.membership_epoch
        net.pns_cells = self.pns_cells
        net.nodes = _LazyNodes(self, net)
        return net


class StoreSnapshot:
    """Immutable, picklable capture of a :class:`ReplicatedStore`."""

    __slots__ = ("k", "objects", "storage_keys", "holders")

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @classmethod
    def capture(cls, store: ReplicatedStore) -> "StoreSnapshot":
        objects = {}
        storage_keys = {}
        for nid, storage in store.storages.items():
            keys = tuple(storage.keys())
            if not keys:
                continue
            storage_keys[nid] = keys
            for key in keys:
                if key not in objects:
                    obj = storage.lookup(key)
                    objects[key] = (
                        obj.value, obj.delete_proof_hash, tuple(obj.meta.items())
                    )
        return cls(
            k=store.k,
            objects=objects,
            storage_keys=storage_keys,
            holders={
                key: tuple(sorted(slots))
                for key, slots in store._index.items()
            },
        )

    def restore(self, network: PastryNetwork, metrics=None, tracer=None) -> ReplicatedStore:
        store = ReplicatedStore(network, self.k, metrics=metrics, tracer=tracer)
        # One fresh StoredObject per key, shared by its holders — the
        # same aliasing ``ReplicatedStore._place`` produces, but never
        # shared with the base store or any sibling fork.
        copies = {
            key: StoredObject(key, value, proof, dict(meta))
            for key, (value, proof, meta) in self.objects.items()
        }
        for nid, keys in self.storage_keys.items():
            storage = store.storage_of(nid)
            for key in keys:
                storage.insert(copies[key], overwrite=True)
        store._index = {key: dict.fromkeys(h, 0) for key, h in self.holders.items()}
        store._sorted_keys = sorted(store._index)
        return store


class SystemSnapshot:
    """Picklable capture of a whole :class:`~repro.core.TapSystem`."""

    __slots__ = ("network", "store")

    def __init__(self, network: NetworkSnapshot, store: StoreSnapshot):
        self.network = network
        self.store = store

    @classmethod
    def capture(cls, system) -> "SystemSnapshot":
        if system.tap_nodes:
            raise ValueError(
                "snapshot a system before creating TAP state: per-node "
                "rng streams and anchor state are not capturable"
            )
        return cls(
            NetworkSnapshot.capture(system.network),
            StoreSnapshot.capture(system.store),
        )

    def fork(self, seed: int, metrics=None, event_trace=None, tracer=None):
        """An independent :class:`~repro.core.TapSystem` on a fork of
        the captured substrates, with fresh seed streams rooted at
        ``seed`` — equivalent to ``TapSystem.bootstrap(n, seed=seed,
        overlay_seed=<base seed>)`` byte for byte."""
        from repro.core.system import TapSystem

        network = self.network.restore()
        store = self.store.restore(network)
        return TapSystem(
            network, store, SeedSequenceFactory(seed),
            metrics=metrics, event_trace=event_trace, tracer=tracer,
        )


#: Process-local snapshot memo for :func:`base_snapshot`; bounded and
#: cleared wholesale (snapshots are large, tokens few).
_SNAPSHOT_CACHE: dict = {}
_SNAPSHOT_CACHE_LIMIT = 16


def base_snapshot(token, build: Callable[[], "SystemSnapshot"]):
    """The base snapshot for ``token``: from the enclosing
    :func:`~repro.perf.parallel.run_trials` payload when it carries
    one, else built once per process and cached.

    Runners key the token by everything that determines the base
    system (seed, size, topology knobs); serial reps, same-process
    workers and every trial of a fan-out then share one bootstrap per
    distinct base, and trials stay callable outside ``run_trials``.
    """
    payload = shared_payload()
    if payload and token in payload:
        return payload[token]
    snap = _SNAPSHOT_CACHE.get(token)
    if snap is None:
        if len(_SNAPSHOT_CACHE) >= _SNAPSHOT_CACHE_LIMIT:
            _SNAPSHOT_CACHE.clear()
        snap = _SNAPSHOT_CACHE[token] = build()
    return snap
