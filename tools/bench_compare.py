#!/usr/bin/env python
"""Benchmark baseline harness: pinned micro/macro suite + regression gate.

Runs a fixed suite of micro benchmarks (seal/open throughput, HMAC,
onion build+peel, serialization) and macro benchmarks (a Figure-6 leg,
an N-node overlay build, one Figure-2 Monte-Carlo rep), then records
``{git sha, timestamp, median ns/op, ops/s}`` per benchmark in
``BENCH_core.json`` and compares against the baseline stored in the
same file.

The committed ``BENCH_core.json`` is the repo's performance
trajectory: ``baseline`` pins the numbers a change is judged against,
``current`` holds the latest run, and ``speedup`` is
``baseline.median_ns / current.median_ns`` per benchmark (>1 means
faster than the baseline).

Usage::

    python tools/bench_compare.py                  # run, compare, update 'current'
    python tools/bench_compare.py --quick          # micro suite only, loose 2x gate
    python tools/bench_compare.py --write-baseline # (re)pin the baseline to this run
    python tools/bench_compare.py --check-only     # compare without rewriting the file

Exit codes: 0 ok, 1 regression beyond ``--threshold``, 2 baseline
missing (CI treats that as a failure so the trajectory cannot silently
disappear).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_OUT = REPO_ROOT / "BENCH_core.json"


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def time_op(fn, *, min_time_s: float = 0.15, repeats: int = 5) -> float:
    """Median ns/op over ``repeats`` calibrated batches of ``fn``."""
    # Calibrate the batch size so one batch takes >= min_time_s / repeats.
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time_s / repeats or n >= 1 << 20:
            break
        n = max(n * 2, int(n * (min_time_s / repeats) / max(elapsed, 1e-9)))
    samples = [elapsed / n]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n)
    return statistics.median(samples) * 1e9


def measure_bytes(fn) -> int:
    """Peak Python-heap bytes of one ``fn()`` call (``tracemalloc``).

    NumPy routes array allocations through the ``PyDataMem`` hooks, so
    this sees scratch arrays and temporaries too.  Measured on its own
    (untimed) call — tracemalloc's bookkeeping would distort ns/op.
    """
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def peak_rss_bytes() -> int | None:
    """The process's high-water RSS in bytes (Linux: ru_maxrss KiB)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return rss * 1024 if sys.platform.startswith("linux") else rss


# ----------------------------------------------------------------------
# the pinned suite
# ----------------------------------------------------------------------
def bench_crypto_seal_1k():
    from repro.crypto.symmetric import SymmetricKey

    key = SymmetricKey(b"bench-key-0123456789abcdef")
    payload = bytes(range(256)) * 4  # 1024 B
    nonce = b"\x07" * 8
    return lambda: key.seal(payload, nonce=nonce)


def bench_crypto_open_1k():
    from repro.crypto.symmetric import SymmetricKey

    key = SymmetricKey(b"bench-key-0123456789abcdef")
    sealed = key.seal(bytes(range(256)) * 4, nonce=b"\x07" * 8)
    return lambda: key.open(sealed)


def bench_crypto_seal_64():
    from repro.crypto.symmetric import SymmetricKey

    key = SymmetricKey(b"bench-key-0123456789abcdef")
    payload = b"m" * 64
    nonce = b"\x07" * 8
    return lambda: key.seal(payload, nonce=nonce)


def bench_crypto_hmac_1k():
    from repro.crypto.symmetric import _hmac_sha256

    msg = b"h" * 1024
    return lambda: _hmac_sha256(b"bench-mac-key", msg)


def bench_crypto_rsa_keygen_512():
    """One op is 32 key pairs from 32 fixed seeds: a prime search is a
    geometric draw (~89 candidates per prime), so a single seed would
    time its luck, not the code."""
    import random

    from repro.crypto.asymmetric import RsaKeyPair

    return lambda: [
        RsaKeyPair.generate(random.Random(seed), bits=512) for seed in range(32)
    ]


def bench_crypto_rsa_decrypt_512():
    """The private operation plus opening a 16-byte hybrid payload."""
    import random

    from repro.crypto.asymmetric import RsaKeyPair

    pair = RsaKeyPair.generate(random.Random(512), bits=512)
    wrapped = pair.public.encrypt(b"k" * 16, random.Random(1))
    return lambda: pair.decrypt(wrapped)


def bench_onion_build_l5():
    from repro.crypto.onion import OnionLayer, build_onion
    from repro.crypto.symmetric import SymmetricKey

    layers = [
        OnionLayer(1000 + i, SymmetricKey(bytes([i + 1]) * 16))
        for i in range(5)
    ]
    payload = b"p" * 256
    return lambda: build_onion(layers, 77, payload)


def bench_onion_peel_l5():
    from repro.crypto.onion import OnionLayer, build_onion, peel_layer
    from repro.crypto.symmetric import SymmetricKey

    keys = [SymmetricKey(bytes([i + 1]) * 16) for i in range(5)]
    layers = [OnionLayer(1000 + i, keys[i]) for i in range(5)]
    blob = build_onion(layers, 77, b"p" * 256)

    def peel_all():
        b = blob
        for k in keys:
            b = peel_layer(k, b).inner
        return b

    return peel_all


def bench_serialize_roundtrip():
    from repro.util.serialize import pack_fields, unpack_fields

    fields = [b"R", b"\x01" * 16, b"10.0.0.1", b"inner" * 64]
    blob = pack_fields(*fields)
    return lambda: unpack_fields(blob, count=4)


def bench_fig6_leg():
    from repro.experiments.config import Fig6Config
    from repro.experiments.fig6_latency import run_fig6

    config = Fig6Config(
        network_sizes=(100,), tunnel_lengths=(3,),
        transfers_per_size=5, num_seeds=1,
    )
    return lambda: run_fig6(config)


def bench_pastry_join_200():
    from repro.pastry.network import PastryNetwork
    from repro.util.ids import random_id
    from repro.util.rng import make_pyrandom

    rng = make_pyrandom(2004, "bench-join")
    ids = set()
    while len(ids) < 200:
        ids.add(random_id(rng))
    return lambda: PastryNetwork.build(ids)


def bench_fig2_rep():
    from repro.experiments.config import Fig2Config
    from repro.experiments.fig2_failures import run_fig2

    config = Fig2Config(
        num_nodes=1_000, num_tunnels=500, num_seeds=1,
        failure_fractions=(0.1, 0.3, 0.5),
    )
    return lambda: run_fig2(config)


def _bench_ids_1000() -> set[int]:
    from repro.util.ids import random_id
    from repro.util.rng import make_pyrandom

    rng = make_pyrandom(2004, "bench-bootstrap")
    ids: set[int] = set()
    while len(ids) < 1000:
        ids.add(random_id(rng))
    return ids


def bench_pastry_bootstrap_1000():
    from repro.pastry.network import PastryNetwork

    ids = _bench_ids_1000()
    return lambda: PastryNetwork.build(ids)


def bench_pastry_route_churn_1000():
    """One op = 1 fail + 1 revive + 128 fixed ``(src, key)`` routes on an
    N=1,000 overlay: what the route memo is worth when the membership
    epoch turns between visits to the same routes."""
    from repro.pastry.network import PastryNetwork
    from repro.util.rng import make_pyrandom

    ids = sorted(_bench_ids_1000())
    net = PastryNetwork.build(ids)
    rng = make_pyrandom(2004, "bench-route-churn")
    pairs = [(rng.choice(ids), rng.getrandbits(128)) for _ in range(128)]
    sources = {src for src, _ in pairs}
    victims = [nid for nid in ids if nid not in sources]

    def churn_and_route():
        victim = rng.choice(victims)
        net.fail(victim)
        net.revive(victim)
        for src, key in pairs:
            net.route(src, key)

    return churn_and_route


def _bench_repair_cycle(make_store):
    """One op = ``fail`` + ``on_fail`` + ``revive`` + ``on_revive`` of
    one fixed holder (the fullest) on a 300-node overlay storing 200
    objects: the membership-repair path of a storage backend, through
    its public surface only."""
    from repro.pastry.network import PastryNetwork
    from repro.util.ids import random_id
    from repro.util.rng import make_pyrandom

    rng = make_pyrandom(2004, "bench-repair-cycle")
    ids: set[int] = set()
    while len(ids) < 300:
        ids.add(random_id(rng))
    net = PastryNetwork.build(ids)
    store = make_store(net)
    for _ in range(200):
        store.insert(random_id(rng), rng.randbytes(64))
    victim = max(sorted(store.storages), key=lambda n: len(store.storages[n]))

    def repair_cycle():
        net.fail(victim)
        store.on_fail(victim)
        net.revive(victim)
        store.on_revive(victim)

    return repair_cycle


def bench_past_repair_cycle_300():
    from repro.past.replication import ReplicatedStore

    return _bench_repair_cycle(lambda net: ReplicatedStore(net, 3))


def bench_erasure_repair_cycle_300():
    from repro.past.erasure import ErasureStore

    return _bench_repair_cycle(lambda net: ErasureStore(net, 2, 4))


def bench_simnet_send_deliver_10k():
    """One op = 10,000 sends, in batches of 64 with a ``run()`` after
    each, over 2,000 fixed links of a 3,000-address fabric with no-op
    handlers: what one message costs the event plane alone (link delay,
    one heap entry pushed and popped — the message in flight is that
    entry, no handle and no record — and dispatch) when links are
    reused the way overlay traffic reuses them."""
    from repro.simnet import Simulator, SimNetwork, Topology
    from repro.util.rng import make_pyrandom

    rng = make_pyrandom(2004, "bench-simnet")
    simulator = Simulator()
    net = SimNetwork(simulator, Topology(seed=2004))
    for address in range(3_000):
        net.attach(address, lambda net, src, dst, payload: None)
    links = [tuple(rng.sample(range(3_000), 2)) for _ in range(2_000)]
    sends = [links[rng.randrange(2_000)] for _ in range(10_000)]
    batches = [sends[i:i + 64] for i in range(0, len(sends), 64)]

    def send_and_deliver():
        for batch in batches:
            for src, dst in batch:
                net.send(src, dst, b"", 2_000_000.0)
            simulator.run()

    return send_and_deliver


def bench_emu_transfer_64():
    """One op = 64 L=3 transmissions of a modelled 2 Mb message, sent
    together and run to completion, through a prebuilt 1,000-node
    :class:`TapEmulation` (the build is excluded): Figure 6's method
    with the event plane, routing, storage and the cipher in their
    real proportions — ``fig6.leg`` is dominated by its system build."""
    from repro.core.emulation import TapEmulation
    from repro.core.system import TapSystem
    from repro.simnet import Topology
    from repro.util.rng import make_pyrandom

    rng = make_pyrandom(2004, "bench-emu")
    system = TapSystem.bootstrap(1_000, seed=2004)
    ids = system.network.alive_ids
    routes = []
    for node_id in rng.sample(ids, 8):
        node = system.tap_node(node_id)
        system.deploy_thas(node, count=6)
        routes.append((node, system.form_tunnel(node, 3)))
    jobs = [routes[i % 8] + (rng.choice(ids),) for i in range(64)]
    emu = TapEmulation.from_system(system, Topology(seed=2004))

    def transfer_64():
        traces = [
            emu.send_through_tunnel(node, tunnel, dest, b"x" * 64, 2_000_000.0)
            for node, tunnel, dest in jobs
        ]
        emu.simulator.run()
        assert all(trace.delivered for trace in traces)

    return transfer_64


MICRO = {
    "crypto.seal_1k": bench_crypto_seal_1k,
    "crypto.open_1k": bench_crypto_open_1k,
    "crypto.seal_64": bench_crypto_seal_64,
    "crypto.hmac_1k": bench_crypto_hmac_1k,
    "crypto.rsa_keygen_512": bench_crypto_rsa_keygen_512,
    "crypto.rsa_decrypt_512": bench_crypto_rsa_decrypt_512,
    "onion.build_l5": bench_onion_build_l5,
    "onion.peel_l5": bench_onion_peel_l5,
    "serialize.unpack4": bench_serialize_roundtrip,
}

#: Object-overlay construction, what every trial pays to start from a
#: fresh overlay; gated in CI via the quick suite.
BUILD = {
    "pastry.bootstrap_1000": bench_pastry_bootstrap_1000,
}

MACRO = {
    "fig6.leg": bench_fig6_leg,
    "simnet.send_deliver_10k": bench_simnet_send_deliver_10k,
    "emu.transfer_64": bench_emu_transfer_64,
    "pastry.join_200": bench_pastry_join_200,
    "pastry.route_churn_1000": bench_pastry_route_churn_1000,
    "past.repair_cycle_300": bench_past_repair_cycle_300,
    "erasure.repair_cycle_300": bench_erasure_repair_cycle_300,
    "fig2.rep": bench_fig2_rep,
}


def bench_pastry_bootstrap_100k():
    from repro.perf.compact import CompactOverlay

    return lambda: CompactOverlay.random(100_000, seed=2004)


def bench_compact_churn_100k():
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    snap = CompactOverlay.random(100_000, seed=2004).snapshot()
    rng = SeedSequenceFactory(2004).numpy("bench-churn")
    u64_max = np.iinfo(np.uint64).max
    key_hi = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    victims = rng.choice(100_000, size=1_000, replace=False)

    def churn_round():
        overlay = snap.restore()
        overlay.fail_positions(victims)
        return overlay.replica_positions(key_hi, key_lo, 3)

    return churn_round


def bench_compact_churn_100k_telemetry():
    """The churn round again, with the sampled telemetry attached.

    Mirrors what one scale-churn round pays when a MetricsRegistry is
    threaded through: the overlay's membership instrumentation, the
    per-round counters/gauges, and a 256-value histogram sample.
    Gated against ``compact.churn_100k`` from the *same run* via
    :data:`OVERHEAD_PAIRS` so machine noise cancels.
    """
    import numpy as np

    from repro.obs import MetricsRegistry
    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    snap = CompactOverlay.random(100_000, seed=2004).snapshot()
    rng = SeedSequenceFactory(2004).numpy("bench-churn")
    u64_max = np.iinfo(np.uint64).max
    key_hi = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    victims = rng.choice(100_000, size=1_000, replace=False)
    tel = SeedSequenceFactory(2004).numpy("bench-telemetry")
    sample_idx = np.sort(tel.choice(2_000, size=256, replace=False))

    def churn_round():
        metrics = MetricsRegistry()
        overlay = snap.restore()
        overlay.instrument(metrics)
        overlay.fail_positions(victims)
        positions = overlay.replica_positions(key_hi, key_lo, 3)
        metrics.counter("scale.churn.rounds").inc()
        metrics.counter("scale.churn.failed_nodes").inc(len(victims))
        metrics.gauge("scale.alive_fraction").set(overlay.num_alive / 100_000)
        metrics.histogram("scale.replica.overlap").observe_many(
            positions[sample_idx, 0].tolist()
        )
        return positions

    return churn_round


#: 10^5-node compact-engine benchmarks: the array bootstrap and a full
#: restore + fail-1% + 2k-replica-query round — the per-trial cost of
#: the scale-churn experiment, gated in CI via the quick suite.
SCALE = {
    "pastry.bootstrap_100k": bench_pastry_bootstrap_100k,
    "compact.churn_100k": bench_compact_churn_100k,
    "compact.churn_100k_telemetry": bench_compact_churn_100k_telemetry,
}


def _route_setup():
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    overlay = CompactOverlay.random(100_000, seed=2004)
    rng = SeedSequenceFactory(2004).numpy("bench-route")
    u64_max = np.iinfo(np.uint64).max
    alive = np.flatnonzero(overlay.alive)
    src = rng.choice(alive, size=512)
    key_hi = rng.integers(0, u64_max, size=512, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=512, dtype=np.uint64)
    return overlay, src, key_hi, key_lo, rng


def bench_compact_route_100k():
    """Scalar baseline: 16 cold twin walks per call (one op = 16 routes)."""
    overlay, src, key_hi, key_lo, _ = _route_setup()
    pairs = [
        (
            (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]]),
            (int(key_hi[i]) << 64) | int(key_lo[i]),
        )
        for i in range(ROUTE_UNITS["compact.route_100k"])
    ]
    return lambda: [overlay.route(s, k) for s, k in pairs]


def bench_compact_route_many_100k():
    """Batched plane: 512 routes advanced in lockstep per call."""
    overlay, src, key_hi, key_lo, _ = _route_setup()
    return lambda: overlay.route_many(src, key_hi, key_lo)


def bench_compact_tunnel_batch_100k():
    """128 three-hop tunnels (4 legs each) built + routed per call."""
    import numpy as np

    overlay, src, key_hi, key_lo, rng = _route_setup()
    u64_max = np.iinfo(np.uint64).max
    tunnels = 128
    hop_hi = rng.integers(0, u64_max, size=(tunnels, 3), dtype=np.uint64)
    hop_lo = rng.integers(0, u64_max, size=(tunnels, 3), dtype=np.uint64)
    return lambda: overlay.route_tunnels(
        src[:tunnels], hop_hi, hop_lo, key_hi[:tunnels], key_lo[:tunnels]
    )


#: batched packet-plane benchmarks at 10^5 nodes; one *op* is a whole
#: call, so ROUTE_UNITS records how many end-to-end routes each call
#: performs (tunnel legs count per-leg routes)
ROUTE = {
    "compact.route_100k": bench_compact_route_100k,
    "compact.route_many_100k": bench_compact_route_many_100k,
    "compact.tunnel_batch_100k": bench_compact_tunnel_batch_100k,
}


def bench_pastry_bootstrap_1m():
    from repro.perf.compact import CompactOverlay

    return lambda: CompactOverlay.random(1_000_000, seed=2004)


def bench_compact_churn_1m():
    """One scale-churn-style round at 10^6: restore the base snapshot,
    fail 10k nodes, merge-insert 5k joiners, query 2k replica sets."""
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    snap = CompactOverlay.random(1_000_000, seed=2004).snapshot()
    rng = SeedSequenceFactory(2004).numpy("bench-churn-1m")
    u64_max = np.iinfo(np.uint64).max
    key_hi = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=2_000, dtype=np.uint64)
    victims = rng.choice(1_000_000, size=10_000, replace=False)
    join_hi = rng.integers(0, u64_max, size=5_000, dtype=np.uint64)
    join_lo = rng.integers(0, u64_max, size=5_000, dtype=np.uint64)
    joiners = [
        (int(h) << 64) | int(l)
        for h, l in zip(join_hi.tolist(), join_lo.tolist())
    ]

    def churn_round():
        overlay = snap.restore()
        overlay.fail_positions(victims)
        overlay.join(joiners)
        return overlay.replica_positions(key_hi, key_lo, 3)

    return churn_round


def _route_setup_1m():
    import numpy as np

    from repro.perf.compact import CompactOverlay
    from repro.util.rng import SeedSequenceFactory

    overlay = CompactOverlay.random(1_000_000, seed=2004)
    rng = SeedSequenceFactory(2004).numpy("bench-route-1m")
    u64_max = np.iinfo(np.uint64).max
    alive = overlay.alive_positions()
    src = rng.choice(alive, size=4096)
    key_hi = rng.integers(0, u64_max, size=4096, dtype=np.uint64)
    key_lo = rng.integers(0, u64_max, size=4096, dtype=np.uint64)
    return overlay, src, key_hi, key_lo


def bench_route_throughput_1m():
    """4096 chunked routes per call at 10^6 nodes; setup proves the
    chunked batch is digest-identical to the unchunked one."""
    import numpy as np

    overlay, src, key_hi, key_lo = _route_setup_1m()
    flat = overlay.route_many(src[:512], key_hi[:512], key_lo[:512])
    chunked = overlay.route_many(src[:512], key_hi[:512], key_lo[:512],
                                 chunk_size=97)
    assert (
        np.array_equal(flat.dest_pos, chunked.dest_pos)
        and np.array_equal(flat.hops, chunked.hops)
        and np.array_equal(flat.success, chunked.success)
    ), "chunked route_many diverged from unchunked at 10^6"
    return lambda: overlay.route_many(src, key_hi, key_lo, chunk_size=1_024)


def bench_compact_route_1m():
    """Scalar baseline at 10^6: 16 cold twin walks per call."""
    overlay, src, key_hi, key_lo = _route_setup_1m()
    pairs = [
        (
            (int(overlay.hi[src[i]]) << 64) | int(overlay.lo[src[i]]),
            (int(key_hi[i]) << 64) | int(key_lo[i]),
        )
        for i in range(ROUTE_UNITS["compact.route_1m"])
    ]
    return lambda: [overlay.route(s, k) for s, k in pairs]


#: the million-node group: opt-in via TAP_BENCH_SCALE_1M=1 (each setup
#: bootstraps a 10^6 ring) and skipped loudly on low-memory machines
SCALE_1M = {
    "pastry.bootstrap_1m": bench_pastry_bootstrap_1m,
    "compact.churn_1m": bench_compact_churn_1m,
    "route.throughput_1m": bench_route_throughput_1m,
    "compact.route_1m": bench_compact_route_1m,
}

#: peak-RSS ceiling for the 10^6 operating point (acceptance gate)
SCALE_1M_MAX_RSS = 2 * 1024**3

ROUTE_UNITS = {
    "compact.route_100k": 16,
    "compact.route_many_100k": 512,
    "compact.tunnel_batch_100k": 128 * 4,
    "route.throughput_1m": 4096,
    "compact.route_1m": 16,
}

#: batched -> (scalar, min per-route speedup): same-run relative gate,
#: normalised by ROUTE_UNITS — the vectorised plane must stay at least
#: this many times faster per route than the scalar route, a cold walk
#: of ``CompactOverlay.twin()`` (PastryNode's rule over the id words).
#: Four ``--quick`` runs on a 2-CPU box, CPython 3.11.7, read x47–95,
#: x46–81 and (three runs) x47–84 for the three pairs below
BATCH_PAIRS = {
    "compact.route_many_100k": ("compact.route_100k", 20.0),
    # 128 tunnels x 4 legs: the same 512 routes per call, held to the
    # same floor — it is cleared only while the legs route as one
    # front (one after the other, 128-packet legs are dispatch-bound
    # and sit near x17)
    "compact.tunnel_batch_100k": ("compact.route_100k", 20.0),
    "route.throughput_1m": ("compact.route_1m", 15.0),
}

#: groups whose results carry a ``bytes_per_op`` column (tracemalloc
#: peak of one call); compared warn-only against the baseline
BYTES_BENCHMARKS = set(SCALE) | set(ROUTE) | set(SCALE_1M)


def scale_1m_status() -> tuple[bool, str]:
    """Whether the SCALE-1M group should run, and why not if not.

    Opt-in via ``TAP_BENCH_SCALE_1M=1``; even then, skipped (loudly,
    never silently) when the machine advertises under 4 GiB available
    — the group bootstraps several 10^6 rings back to back.
    """
    if os.environ.get("TAP_BENCH_SCALE_1M", "") not in ("1", "true", "yes"):
        return False, "TAP_BENCH_SCALE_1M not set"
    min_bytes = 4 * 1024**3
    try:
        meminfo = pathlib.Path("/proc/meminfo").read_text()
        for line in meminfo.splitlines():
            if line.startswith("MemAvailable:"):
                available = int(line.split()[1]) * 1024
                if available < min_bytes:
                    return False, (
                        f"only {available / 1024**3:.1f} GiB available "
                        f"(< {min_bytes / 1024**3:.0f} GiB)"
                    )
                break
    except OSError:
        pass  # no /proc (macOS): trust the env knob
    return True, ""

#: instrumented -> (bare, max ratio): same-run pairs gated on relative
#: cost, independent of the recorded baseline (noise cancels because
#: both members run back to back on the same machine state)
OVERHEAD_PAIRS = {
    "compact.churn_100k_telemetry": ("compact.churn_100k", 1.05),
}


def run_suite(quick: bool, only: set[str] | None = None) -> dict[str, dict]:
    suite = (
        {**MICRO, **BUILD, **SCALE, **ROUTE}
        if quick
        else {**MICRO, **BUILD, **SCALE, **ROUTE, **MACRO}
    )
    enabled, reason = scale_1m_status()
    if enabled:
        suite.update(SCALE_1M)
    else:
        # never a silent skip: the trajectory reader must be able to
        # tell "not run" from "mysteriously missing"
        print(f"  scale-1m group SKIPPED: {reason}")
    if only is not None:
        suite = {name: fn for name, fn in suite.items() if name in only}
    results: dict[str, dict] = {}
    for name, setup in suite.items():
        fn = setup()
        fn()  # warm caches / JIT-less sanity check
        median_ns = time_op(fn)
        results[name] = {
            "median_ns": round(median_ns, 1),
            "ops_per_s": round(1e9 / median_ns, 2),
        }
        if name in BYTES_BENCHMARKS:
            results[name]["bytes_per_op"] = measure_bytes(fn)
        if name in SCALE_1M:
            rss = peak_rss_bytes()
            if rss is not None:
                results[name]["peak_rss_bytes"] = rss
        extra = ""
        if "bytes_per_op" in results[name]:
            extra = f"  {results[name]['bytes_per_op'] / 1024**2:8.1f} MiB/op"
        print(f"  {name:24s} {median_ns:14,.0f} ns/op "
              f"({results[name]['ops_per_s']:12,.1f} ops/s){extra}")
    if not quick and only is None:
        results.update(wallclock_suite())
    return results


def scale_1m_failures(results: dict[str, dict]) -> list[str]:
    """Same-run gate: the 10^6 operating point must fit the memory
    budget (``SCALE_1M_MAX_RSS`` peak RSS, acceptance criterion)."""
    failures: list[str] = []
    for name in ("pastry.bootstrap_1m", "compact.churn_1m"):
        rss = results.get(name, {}).get("peak_rss_bytes")
        if rss is None:
            continue
        verdict = "ok" if rss <= SCALE_1M_MAX_RSS else "FAIL"
        print(f"  scale-1m rss {name}: {rss / 1024**3:.2f} GiB "
              f"(max {SCALE_1M_MAX_RSS / 1024**3:.0f} GiB) {verdict}")
        if rss > SCALE_1M_MAX_RSS:
            failures.append(
                f"{name}: peak RSS {rss / 1024**3:.2f} GiB over the "
                f"{SCALE_1M_MAX_RSS / 1024**3:.0f} GiB million-node budget"
            )
    return failures


def bytes_regressions(baseline: dict, current: dict,
                      max_ratio: float = 1.25) -> list[str]:
    """Warn-only memory trajectory: ``bytes_per_op`` vs baseline.

    Returns the offending names (for the caller to print); never fails
    the gate — allocation footprints move with numpy versions and the
    point is visibility, not flakiness.
    """
    warnings: list[str] = []
    base_results = baseline.get("results", {})
    for name, cur in current.get("results", {}).items():
        cur_bytes = cur.get("bytes_per_op")
        base_bytes = base_results.get(name, {}).get("bytes_per_op")
        if not cur_bytes or not base_bytes:
            continue
        if cur_bytes > base_bytes * max_ratio:
            warnings.append(
                f"{name}: {cur_bytes / 1024**2:.1f} MiB/op vs baseline "
                f"{base_bytes / 1024**2:.1f} MiB/op "
                f"(x{cur_bytes / base_bytes:.2f}, warn at x{max_ratio:.2f})"
            )
    return warnings


def overhead_failures(results: dict[str, dict]) -> list[str]:
    """Same-run pair gate: instrumented vs bare, per OVERHEAD_PAIRS."""
    failures: list[str] = []
    for inst, (bare, max_ratio) in OVERHEAD_PAIRS.items():
        if inst not in results or bare not in results:
            continue
        ratio = results[inst]["median_ns"] / results[bare]["median_ns"]
        verdict = "ok" if ratio <= max_ratio else "FAIL"
        print(f"  overhead {inst} / {bare}: x{ratio:.3f} "
              f"(max x{max_ratio:.2f}) {verdict}")
        if ratio > max_ratio:
            failures.append(
                f"{inst}: x{ratio:.3f} over {bare}, "
                f"telemetry overhead gate is x{max_ratio:.2f}"
            )
    return failures


def batch_speedup_failures(results: dict[str, dict]) -> list[str]:
    """Same-run pair gate: batched vs scalar per-route cost.

    Normalised by :data:`ROUTE_UNITS` (routes per call) so the two
    members compare per route regardless of their batch sizes; like
    :func:`overhead_failures`, both sides come from this run, so
    machine noise cancels and no baseline is needed.
    """
    failures: list[str] = []
    for fast, (slow, min_ratio) in BATCH_PAIRS.items():
        if fast not in results or slow not in results:
            continue
        per_fast = results[fast]["median_ns"] / ROUTE_UNITS[fast]
        per_slow = results[slow]["median_ns"] / ROUTE_UNITS[slow]
        ratio = per_slow / per_fast
        verdict = "ok" if ratio >= min_ratio else "FAIL"
        print(f"  batch speedup {fast} vs {slow}: x{ratio:.1f}/route "
              f"(min x{min_ratio:.0f}) {verdict}")
        if ratio < min_ratio:
            failures.append(
                f"{fast}: only x{ratio:.1f} per route over {slow}, "
                f"batch-speedup gate is x{min_ratio:.0f}"
            )
    return failures


def wallclock_suite() -> dict[str, dict]:
    """Serial vs parallel wall-clock of one experiment (informational).

    Recorded as seconds (``median_ns`` is the whole-run time) so the
    parallel-executor payoff is part of the tracked trajectory.
    """
    from repro.experiments.config import Fig6Config
    from repro.experiments.fig6_latency import run_fig6

    config = Fig6Config(
        network_sizes=(100, 200), tunnel_lengths=(3,),
        transfers_per_size=10, num_seeds=4,
    )
    out: dict[str, dict] = {}
    for label, workers in (("fig6.wall_serial", 1), ("fig6.wall_workers4", 4)):
        start = time.perf_counter()
        run_fig6(config, workers=workers)
        elapsed = time.perf_counter() - start
        out[label] = {
            "median_ns": round(elapsed * 1e9, 1),
            "ops_per_s": round(1.0 / elapsed, 4),
        }
        print(f"  {label:24s} {elapsed:14.3f} s/run (workers={workers})")
    return out


# ----------------------------------------------------------------------
# baseline file plumbing
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp(results: dict, label: str) -> dict:
    return {
        "label": label,
        "git_sha": git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        # Wall-clock entries for --workers N only mean something when N
        # cores exist; record how many this run actually had.
        "cpus": os.cpu_count(),
        # the whole run's high-water RSS — the context for every
        # per-benchmark peak_rss_bytes entry
        "peak_rss_bytes": peak_rss_bytes(),
        "results": results,
    }


def compare(
    baseline: dict,
    current: dict,
    threshold: float,
    previous_speedup: dict | None = None,
    allow_new: bool = False,
) -> tuple[dict, list[str]]:
    """Per-benchmark speedups plus the list of gate failures.

    A benchmark present in the baseline but absent from this run (a
    ``--quick`` run skips the MACRO group, a renamed benchmark drops
    out entirely) is never silently dropped from the report: it warns
    loudly on stderr and carries the previously recorded speedup
    entry forward, explicitly marked stale.

    The reverse — a benchmark this run emits that the baseline has
    never seen — **fails** the gate unless ``allow_new``: a new entry
    joining the trajectory with no baseline number is an untracked
    claim, so it must be adopted deliberately, not slipped in.
    """
    speedup: dict[str, float] = {}
    failures: list[str] = []
    base_cpus = baseline.get("cpus")
    cur_cpus = current.get("cpus")
    if base_cpus is not None and cur_cpus is not None and base_cpus != cur_cpus:
        print(
            f"warning: baseline ran on {base_cpus} cpus, this run on "
            f"{cur_cpus} — wall-clock comparisons are not like-for-like",
            file=sys.stderr,
        )
    base_results = baseline["results"]
    new = sorted(set(current["results"]) - set(base_results))
    if new:
        if allow_new:
            print(
                f"note: adopting {len(new)} benchmark(s) new to the "
                f"baseline: {', '.join(new)}",
                file=sys.stderr,
            )
            for name in new:
                speedup[name] = 1.0
        else:
            failures.append(
                f"benchmark(s) absent from baseline: {', '.join(new)} — "
                f"rerun with --allow-new to adopt them deliberately"
            )
    for name, cur in current["results"].items():
        base = base_results.get(name)
        if base is None:
            continue
        ratio = base["median_ns"] / cur["median_ns"]
        speedup[name] = round(ratio, 3)
        if cur["median_ns"] > base["median_ns"] * threshold:
            failures.append(
                f"{name}: {cur['median_ns']:,.0f} ns/op vs baseline "
                f"{base['median_ns']:,.0f} ns/op "
                f"(x{1 / ratio:.2f} slower, threshold x{threshold:.2f})"
            )
    missing = sorted(set(base_results) - set(current["results"]))
    if missing:
        print(
            f"warning: {len(missing)} baseline benchmark(s) not measured "
            f"in this run: {', '.join(missing)} — their trajectory "
            f"entries are carried forward, not refreshed",
            file=sys.stderr,
        )
        for name in missing:
            prev = (previous_speedup or {}).get(name)
            if prev is not None:
                speedup[name] = prev
    return speedup, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="benchmark record file (default BENCH_core.json)")
    parser.add_argument("--quick", action="store_true",
                        help="micro suite only (CI smoke; default gate x2)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="fail if median ns/op exceeds baseline*X "
                             "(default 1.5, or 2.0 with --quick)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="pin this run as the new baseline")
    parser.add_argument("--check-only", action="store_true",
                        help="compare but leave the record file untouched")
    parser.add_argument("--allow-new", action="store_true",
                        help="adopt benchmarks absent from the baseline "
                             "into it (without this, a new benchmark "
                             "name fails the gate)")
    parser.add_argument("--overhead-only", action="store_true",
                        help="run only the OVERHEAD_PAIRS benchmarks and "
                             "gate the instrumented/bare ratio (no "
                             "baseline needed, file untouched)")
    parser.add_argument("--label", default="current",
                        help="label stored with this run")
    args = parser.parse_args(argv)

    threshold = args.threshold
    if threshold is None:
        threshold = 2.0 if args.quick else 1.5

    if args.overhead_only:
        suite = {**MICRO, **BUILD, **SCALE, **MACRO}
        print(f"bench_compare: telemetry overhead gate at {git_sha()}")
        results: dict[str, dict] = {}
        for inst, (bare, _max) in OVERHEAD_PAIRS.items():
            pair = {}
            for name in (bare, inst):
                fn = suite[name]()
                fn()  # warm
                pair[name] = fn
            # Alternate timing passes and keep each side's best median:
            # one-off process warmup (page faults, allocator growth)
            # then biases neither member of the ratio.
            for _ in range(2):
                for name, fn in pair.items():
                    ns = time_op(fn)
                    cur = results.get(name)
                    if cur is None or ns < cur["median_ns"]:
                        results[name] = {
                            "median_ns": round(ns, 1),
                            "ops_per_s": round(1e9 / ns, 2),
                        }
        for name, res in results.items():
            print(f"  {name:28s} {res['median_ns']:14,.0f} ns/op")
        failures = overhead_failures(results)
        if failures:
            print("\nTELEMETRY OVERHEAD GATE FAILED:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\ntelemetry overhead gate ok")
        return 0

    print(f"bench_compare: running {'micro' if args.quick else 'full'} suite "
          f"at {git_sha()}")
    results = run_suite(args.quick)
    current = stamp(results, args.label)

    record: dict = {}
    if args.out.exists():
        record = json.loads(args.out.read_text())

    if args.write_baseline:
        record = {
            "schema": 1,
            "baseline": stamp(results, args.label or "baseline"),
            "current": current,
            "speedup": {name: 1.0 for name in results},
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"pinned new baseline ({len(results)} benchmarks) -> {args.out}")
        return 0

    baseline = record.get("baseline")
    if baseline is None:
        print(f"error: no baseline recorded in {args.out}; "
              f"run with --write-baseline first", file=sys.stderr)
        return 2

    speedup, failures = compare(baseline, current, threshold,
                                previous_speedup=record.get("speedup"),
                                allow_new=args.allow_new)
    failures.extend(overhead_failures(results))
    failures.extend(batch_speedup_failures(results))
    failures.extend(scale_1m_failures(results))
    for warning in bytes_regressions(baseline, current):
        print(f"warning: bytes_per_op regression: {warning}",
              file=sys.stderr)
    print(f"\nvs baseline '{baseline['label']}' @ {baseline['git_sha']}:")
    for name in sorted(speedup):
        stale = "" if name in results else "  (carried, not measured this run)"
        print(f"  {name:24s} x{speedup[name]:.2f} "
              f"{'faster' if speedup[name] >= 1 else 'slower'}{stale}")

    if not args.check_only:
        if args.allow_new:
            # adopt new entries into the baseline so future runs gate
            # against this run's numbers
            for name in set(current["results"]) - set(baseline["results"]):
                baseline["results"][name] = current["results"][name]
        record.update({
            "schema": 1,
            "current": current,
            "speedup": speedup,
        })
        record.setdefault("baseline", baseline)
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"updated {args.out}")

    if failures:
        print("\nREGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nregression gate ok (threshold x{threshold:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
