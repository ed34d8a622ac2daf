"""Figure-level cross-validation: vectorised pipeline vs live objects.

The primitive-level bridge (`tests/analysis/test_idspace.py`) proves
replica sets agree; these tests close the loop at the *experiment*
level: the exact per-hop survival/disclosure booleans that Figure 2
and Figure 3 aggregate must be identical whether computed by the NumPy
model or by interrogating a live overlay with real stored objects.
"""

import numpy as np
import pytest

from repro.analysis.idspace import IdSpaceModel
from repro.past.replication import ReplicatedStore
from repro.pastry.network import PastryNetwork

N_NODES = 120
N_HOPS = 60  # 20 tunnels x length 3
K = 3


@pytest.fixture(scope="module")
def common_world():
    """One id population + hop keys, materialised both ways."""
    rng = np.random.default_rng(515)
    ids64 = np.sort(IdSpaceModel.draw_unique_ids(N_NODES, rng))
    keys64 = IdSpaceModel.draw_unique_ids(N_HOPS, rng)

    model = IdSpaceModel(ids64)

    network = PastryNetwork.build([int(i) << 64 for i in ids64])
    store = ReplicatedStore(network, replication_factor=K)
    for key in keys64:
        store.insert(int(key) << 64, b"anchor")
    return rng, ids64, keys64, model, network, store


class TestFig2PipelineAgreement:
    def test_per_hop_survival_identical(self, common_world):
        rng, ids64, keys64, model, network, store = common_world
        failed = np.zeros(N_NODES, dtype=bool)
        failed[rng.choice(N_NODES, size=N_NODES // 3, replace=False)] = True

        vector_ok = model.any_survivor(keys64, K, failed)

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
        rng, ids64, keys64, model, network, store = common_world
        failed = np.zeros(N_NODES, dtype=bool)
        failed[rng.choice(N_NODES, size=N_NODES // 4, replace=False)] = True
        vector_rate = float(model.any_survivor(keys64, K, failed).mean())
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
        rng, ids64, keys64, model, network, store = common_world
        malicious_idx = rng.choice(N_NODES, size=N_NODES // 5, replace=False)
        flags = np.zeros(N_NODES, dtype=bool)
        flags[malicious_idx] = True
        flagged_model = IdSpaceModel(model.ids, flags)

        vector_disclosed = flagged_model.any_malicious_holder(keys64, K)

        malicious_ids = {int(ids64[i]) << 64 for i in malicious_idx}
        for key, expected in zip(keys64, vector_disclosed):
            holders = store.holders(int(key) << 64)
            assert bool(holders & malicious_ids) == bool(expected)
