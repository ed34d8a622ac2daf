"""Shared fixtures for the test-suite.

Networks are expensive to build, so module-scoped fixtures provide
read-only overlays; tests that mutate membership build their own
(small) systems via the factory fixtures.
"""

from __future__ import annotations

import os
import pathlib
import random

import numpy as np
import pytest

from repro.core.system import TapSystem
from repro.crypto.symmetric import SymmetricKey
from repro.past.storage import StoredObject
from repro.pastry.network import PastryNetwork
from repro.perf.compact import CompactOverlay
from repro.perf.packet import BatchRouteResult, TunnelBatchResult
from repro.simnet.topology import Topology
from repro.simnet.transport import store_and_forward
from repro.util.rng import SeedSequenceFactory
from repro.util.serialize import pack_fields

#: ``make audit`` sets TAP_AUDIT=1: every TapSystem built through the
#: fixtures then runs the repro.obs invariant auditor after each
#: membership event and fails the test on the first violation.
AUDIT_ENABLED = os.environ.get("TAP_AUDIT", "").strip() not in ("", "0")


def series(rows: list[dict], x: str, y: str, scheme_key: str = "scheme") -> dict[str, list[tuple]]:
    """Group rows into per-scheme (x, y) series — one per plotted line."""
    out: dict[str, list[tuple]] = {}
    for row in rows:
        name = str(row.get(scheme_key, "value"))
        out.setdefault(name, []).append((row[x], row[y]))
    for points in out.values():
        points.sort()
    return out


def path_latency(topology: Topology, path: list[int]) -> float:
    """Sum of ``topology``'s propagation delays along consecutive path
    elements."""
    return sum(topology.latency(u, v) for u, v in zip(path, path[1:]))


def path_transfer_time(topology: Topology, path: list[int], size_bits: float) -> float:
    """The emulation tests' analytic reference: the store-and-forward
    time to move ``size_bits`` along ``path`` (node addresses, source
    first) over ``topology``'s links; a one-node path costs zero."""
    if not path:
        raise ValueError("path must contain at least the source")
    return store_and_forward(
        [topology.latency(u, v) for u, v in zip(path, path[1:])],
        size_bits, topology.bandwidth_bps,
    )


def _maybe_audited(system: TapSystem) -> TapSystem:
    if AUDIT_ENABLED:
        system.enable_auditing(strict=True)
    return system


@pytest.fixture()
def seeds() -> SeedSequenceFactory:
    return SeedSequenceFactory(1234)


@pytest.fixture()
def rng(seeds) -> random.Random:
    return seeds.pyrandom("test")


def build_network(num_nodes: int, seed: int = 99, **kwargs) -> PastryNetwork:
    rng = random.Random(seed)
    ids = set()
    while len(ids) < num_nodes:
        ids.add(rng.getrandbits(128))
    return PastryNetwork.build(ids, **kwargs)


def erasure_invariants(store) -> list[str]:
    """An ``ErasureStore``'s invariant violations (empty == healthy):
    the live holders of every key are exactly its intended n closest,
    hold n distinct share indices, and every share verifies against
    its hash tree."""
    problems: list[str] = []
    for key in store.all_keys():
        live = {h: i for h, i in store._index.get(key, {}).items()
                if store.network.is_alive(h)}
        intended = set(store.replica_set(key))
        if set(live) != intended:
            problems.append(f"key {key:#x}: holders {sorted(live)} != intended {sorted(intended)}")
        if len(set(live.values())) != len(live):
            problems.append(f"key {key:#x}: duplicate share indices")
        for holder in live:
            share = store.stored_share(holder, key)
            if share is None or not share.verify():
                problems.append(f"key {key:#x}: holder {holder:#x} has no sound share")
    return problems


def crash_unnoticed(emu, victim: int) -> None:
    """Crash ``victim`` in an emulation's message fabric only: every
    leaf set that holds it keeps it stale until a message to it times
    out, and the timeout is what tells the overlay and the store (as a
    maintenance protocol's probe would).  The overlay repairs at each
    ``fail`` it hears of, so this is how a test makes a message meet a
    dead hop on the way."""
    emu.net.fail(victim)
    on_drop = emu.net.on_drop

    def noticed(src, dst, payload) -> None:
        if emu.network.is_alive(dst):
            emu.network.fail(dst)
            emu.store.on_fail(dst)
        on_drop(src, dst, payload)

    emu.net.on_drop = noticed


@pytest.fixture(scope="session")
def digest_sheet() -> dict[str, str]:
    """The ``rows digest`` lines of the committed ``results/DIGESTS.txt``,
    as ``{experiment: digest}`` (``fig2``, ``fig4a``, ``tradeoff``, ...)."""
    sheet = pathlib.Path(__file__).resolve().parent.parent / "results" / "DIGESTS.txt"
    digests = {}
    for line in sheet.read_text().splitlines():
        name, sep, digest = line.partition(" rows digest: ")
        if sep:
            digests[name] = digest
    return digests


def _joined(parts, names):
    return [np.concatenate([getattr(part, name) for part in parts])
            for name in names]


def _joined_routes(parts) -> BatchRouteResult:
    """One ``BatchRouteResult`` of consecutive ``parts``.  A part's
    trail stops once all its packets have settled, so it is held at
    its last entry (a repeat ends a path) while longer ones go on."""
    depth = max(len(part._trail) for part in parts)
    trail = [
        np.concatenate([part._trail[min(t, len(part._trail) - 1)]
                        for part in parts])
        for t in range(depth)
    ]
    return BatchRouteResult(
        parts[0]._overlay,
        *_joined(parts, ("key_hi", "key_lo", "src_pos", "dest_pos", "hops",
                         "success")),
        trail,
    )


def _joined_tunnels(parts) -> TunnelBatchResult:
    return TunnelBatchResult(
        *_joined(parts, ("leg_hops", "hops", "success", "dest_pos"))
    )


@pytest.fixture()
def route_in_windows(monkeypatch):
    """``route_in_windows(size)`` makes every ``CompactOverlay.route_many``
    and ``route_tunnels`` call from here on route its batch as
    consecutive windows of at most ``size`` rows (all of them when
    ``size`` is None) and join the parts, as a caller that splits its
    batches would.  A result that does not move under it depends on no
    packet's batch-mates.  Fork workers inherit the patch."""

    def windowed(size):
        for name, join in (("route_many", _joined_routes),
                           ("route_tunnels", _joined_tunnels)):
            whole = getattr(CompactOverlay, name)

            def split(self, *columns, whole=whole, join=join):
                rows = len(columns[0])
                if size is None or rows <= size:
                    return whole(self, *columns)
                return join([
                    whole(self, *(column[start:start + size]
                                  for column in columns))
                    for start in range(0, rows, size)
                ])

            monkeypatch.setattr(CompactOverlay, name, split)

    return windowed


@pytest.fixture(scope="module")
def network200() -> PastryNetwork:
    """A read-only 200-node overlay (do not mutate membership!)."""
    return build_network(200)


@pytest.fixture()
def small_network() -> PastryNetwork:
    """A fresh 60-node overlay safe to mutate."""
    return build_network(60, seed=7)


@pytest.fixture()
def tap_system() -> TapSystem:
    """A fresh 150-node TAP system safe to mutate."""
    return _maybe_audited(
        TapSystem.bootstrap(num_nodes=150, seed=5, replication_factor=3)
    )


@pytest.fixture()
def network_factory():
    return build_network


@pytest.fixture()
def key_inits(monkeypatch) -> list[bytes]:
    """The key bytes of every ``SymmetricKey`` constructed from here on
    (``clear()`` it to start counting later)."""
    calls: list[bytes] = []
    original = SymmetricKey.__init__

    def counting(self, key_bytes):
        calls.append(key_bytes)
        original(self, key_bytes)

    monkeypatch.setattr(SymmetricKey, "__init__", counting)
    return calls


def rot_tha_key(system: TapSystem, node_id: int, hop_id: int) -> StoredObject:
    """Flip one bit of ``K`` in ``node_id``'s replica of anchor
    ``hop_id``.  The value still decodes, to a wrong key, so the hop
    fails at decryption; ``corrupt_replica`` flips the length prefix
    instead, and that value does not decode at all (the hop reports
    the anchor lost).  Returns the healthy object."""
    storage = system.store.storage_of(node_id)
    stored = storage.lookup(hop_id)
    value = stored.value
    rotten = value[:4] + bytes([value[4] ^ 0x01]) + value[5:]
    storage.insert(
        StoredObject(hop_id, rotten, stored.delete_proof_hash, stored.meta),
        overwrite=True,
    )
    return stored


def seal_short_key_answer(body: bytes, response_key, rng: random.Random) -> bytes:
    """A responder's ``seal_answer`` that wraps a 4-byte ``K_f`` — any
    bytes may travel under the ``K_I`` it is handed, and four are no
    key."""
    return pack_fields(b"not sealed", response_key.encrypt(b"k_f!", rng))
