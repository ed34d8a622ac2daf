"""Substrate microbenchmarks: the hot paths the experiments lean on.

These are classic pytest-benchmark timing runs (many rounds), profiling
the layers per the HPC guide workflow — measure before optimising:

* Pastry routing decisions over a built overlay;
* the compact overlay's replica table (``CompactOverlay.replica_positions``
  on a figure ring of 64-bit ids as high words: a two-word search plus
  a k-step merge);
* symmetric seal/open (one op per tunnel hop per message);
* full 5-hop onion build + peel.
"""

import random

import numpy as np
import pytest

from repro.analysis.idspace import draw_unique_ids
from repro.crypto.onion import OnionLayer, build_onion, peel_layer
from repro.crypto.symmetric import SymmetricKey
from repro.experiments.ring import figure_ring
from repro.pastry.network import PastryNetwork
from repro.util.ids import random_id


@pytest.fixture(scope="module")
def overlay():
    rng = random.Random(42)
    ids = {rng.getrandbits(128) for _ in range(2_000)}
    net = PastryNetwork.build(ids)
    return net, sorted(ids)


def test_bench_pastry_route(benchmark, overlay):
    net, ids = overlay
    rng = random.Random(7)
    sources = [ids[rng.randrange(len(ids))] for _ in range(64)]
    keys = [random_id(rng) for _ in range(64)]
    state = {"i": 0}

    def route_one():
        i = state["i"] = (state["i"] + 1) % 64
        return net.route(sources[i], keys[i])

    path = benchmark(route_one)
    assert path[-1] == net.closest_alive(keys[state["i"]])


def test_bench_overlay_build(benchmark):
    rng = random.Random(9)
    ids = [rng.getrandbits(128) for _ in range(1_000)]

    net = benchmark(PastryNetwork.build, ids)
    assert net.size == 1_000


def test_bench_replica_table(benchmark):
    rng = np.random.default_rng(1)
    overlay, _, _ = figure_ring(10_000, rng)
    keys = draw_unique_ids(25_000, rng)
    zeros = np.zeros_like(keys)

    table = benchmark(overlay.replica_positions, keys, zeros, 3)
    assert table.shape == (25_000, 3)


def test_bench_symmetric_seal_open(benchmark):
    key = SymmetricKey(b"0123456789abcdef")
    payload = b"x" * 1024

    def roundtrip():
        return key.open(key.seal(payload))

    assert benchmark(roundtrip) == payload


def test_bench_onion_five_hops(benchmark):
    keys = [SymmetricKey(bytes([i + 1]) * 16) for i in range(5)]
    layers = [OnionLayer(1000 + i, k) for i, k in enumerate(keys)]
    payload = b"m" * 512

    def build_and_peel():
        blob = build_onion(layers, 77, payload)
        for k in keys[:-1]:
            blob = peel_layer(k, blob).inner
        return peel_layer(keys[-1], blob)

    final = benchmark(build_and_peel)
    assert final.is_exit and final.inner == payload
