"""Figure-level cross-validation: vectorised pipeline vs live objects.

The primitive-level bridge (`tests/analysis/test_idspace.py`) proves
replica sets agree; these tests close the loop at the *experiment*
level: the exact per-hop survival/disclosure booleans that Figure 2
and Figure 3 aggregate must be identical whether computed from the
figure ring's replica table or by interrogating a live overlay with
real stored objects.
"""

import numpy as np
import pytest

from repro.analysis.idspace import draw_unique_ids
from repro.experiments.fig3_collusion import corruption_fraction
from repro.past.replication import ReplicatedStore
from repro.pastry.network import PastryNetwork
from repro.perf.compact import CompactOverlay

N_NODES = 120
N_HOPS = 60  # 20 tunnels x length 3
K = 3


@pytest.fixture(scope="module")
def common_world():
    """One id population + hop keys, materialised both ways."""
    rng = np.random.default_rng(515)
    ids64 = np.sort(draw_unique_ids(N_NODES, rng))
    keys64 = draw_unique_ids(N_HOPS, rng)

    # the figures' ring: 64-bit ids and keys as high words
    overlay = CompactOverlay(ids64, np.zeros_like(ids64),
                             np.ones(N_NODES, dtype=bool))
    table = overlay.replica_positions(keys64, np.zeros_like(keys64), K)

    network = PastryNetwork.build([int(i) << 64 for i in ids64])
    store = ReplicatedStore(network, replication_factor=K)
    for key in keys64:
        store.insert(int(key) << 64, b"anchor")
    return rng, ids64, keys64, table, network, store


class TestFig2PipelineAgreement:
    def test_per_hop_survival_identical(self, common_world):
        rng, ids64, keys64, table, network, store = common_world
        failed = np.zeros(N_NODES, dtype=bool)
        failed[rng.choice(N_NODES, size=N_NODES // 3, replace=False)] = True

        vector_ok = (~failed[table]).any(axis=1)

        # Object level: simultaneous failure, no repair (Figure 2).
        for idx in np.flatnonzero(failed):
            network.fail(int(ids64[idx]) << 64)
        try:
            for key, expected in zip(keys64, vector_ok):
                key128 = int(key) << 64
                alive_holders = [
                    h for h in store.holders(key128) if network.is_alive(h)
                ]
                object_ok = bool(alive_holders) and (
                    network.closest_alive(key128) in alive_holders
                )
                assert object_ok == bool(expected), hex(key128)
        finally:
            for idx in np.flatnonzero(failed):
                network.revive(int(ids64[idx]) << 64)

    def test_aggregate_rates_match(self, common_world):
        rng, ids64, keys64, table, network, store = common_world
        failed = np.zeros(N_NODES, dtype=bool)
        failed[rng.choice(N_NODES, size=N_NODES // 4, replace=False)] = True
        vector_rate = float((~failed[table]).any(axis=1).mean())
        for idx in np.flatnonzero(failed):
            network.fail(int(ids64[idx]) << 64)
        try:
            object_rate = np.mean([
                bool([
                    h for h in store.holders(int(k) << 64)
                    if network.is_alive(h)
                ])
                for k in keys64
            ])
        finally:
            for idx in np.flatnonzero(failed):
                network.revive(int(ids64[idx]) << 64)
        assert object_rate == pytest.approx(vector_rate)


class TestFig3PipelineAgreement:
    def test_per_hop_disclosure_identical(self, common_world):
        rng, ids64, keys64, table, network, store = common_world
        malicious_idx = rng.choice(N_NODES, size=N_NODES // 5, replace=False)
        flags = np.zeros(N_NODES, dtype=bool)
        flags[malicious_idx] = True
        vector_disclosed = flags[table].any(axis=1)

        malicious_ids = {int(ids64[i]) << 64 for i in malicious_idx}
        object_disclosed = [
            bool(store.holders(int(key) << 64) & malicious_ids)
            for key in keys64
        ]
        assert object_disclosed == vector_disclosed.tolist()
        # and the figure's aggregate over tunnels of length 3
        tunnels = np.reshape(object_disclosed, (-1, 3)).all(axis=1)
        assert corruption_fraction(flags, table, N_HOPS // 3, 3) == tunnels.mean()
