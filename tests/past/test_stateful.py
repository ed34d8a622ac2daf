"""Hypothesis stateful testing of the overlay + placement invariants.

One machine, run over each storage backend on the shared placement
core (3-copy replication, 1-of-3 and 2-of-4 eager erasure coding): a
random interleaving of joins, failures, inserts and deletes must never
violate:

* the alive-id list matches per-node liveness flags;
* every stored object's live holders are exactly the closest alive
  nodes (after the corresponding repair hook ran), and every coded
  share verifies;
* routing from any alive node reaches the numerically closest node;
* objects with at least one surviving holder remain fetchable with
  their original value; deletion requires the right password.

This is the strongest correctness net over the substrate: hypothesis
explores operation orders no hand-written scenario covers.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.crypto.hashing import hash_password
from repro.past.erasure import ErasureStore
from repro.past.replication import ReplicatedStore
from repro.pastry.network import PastryNetwork
from repro.util.ids import random_id
from tests.conftest import erasure_invariants

MIN_ALIVE = 12  # keep the overlay routable (> leaf-set half + margin)


class ReplicationMachine(RuleBasedStateMachine):
    @staticmethod
    def make_store(network):
        return ReplicatedStore(network, replication_factor=3)

    def exists(self, key: int) -> bool:
        return self.store.exists(key)

    def problems(self) -> list[str]:
        return self.store.verify_invariants()

    def __init__(self):
        super().__init__()
        self.rng = random.Random(0xC0FFEE)
        self.expected: dict[int, bytes] = {}  # key -> value for live objects
        self.passwords: dict[int, bytes] = {}

    @initialize()
    def setup(self):
        ids = {random_id(self.rng) for _ in range(30)}
        self.network = PastryNetwork.build(ids)
        self.store = self.make_store(self.network)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    @rule(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def insert_object(self, seed):
        key = random_id(random.Random(seed))
        if self.exists(key) or key in self.expected:
            return
        value = f"value-{seed}".encode()
        pw = f"pw-{seed}".encode()
        self.store.insert(key, value, delete_proof_hash=hash_password(pw))
        self.expected[key] = value
        self.passwords[key] = pw

    @rule(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def join_node(self, seed):
        new_id = random_id(random.Random(seed ^ 0xABCDEF))
        if self.network.is_registered(new_id):
            return
        self.network.join(new_id)
        self.store.on_join(new_id)

    @precondition(lambda self: self.network.size > MIN_ALIVE)
    @rule(pick=st.integers(min_value=0, max_value=10**9))
    def fail_node(self, pick):
        victim = self.network.alive_ids[pick % self.network.size]
        holders_lost = {
            key for key in self.expected
            if set(self.store.holders(key))
            & {h for h in self.store.holders(key) if self.network.is_alive(h)}
            == {victim}
        }
        self.network.fail(victim)
        self.store.on_fail(victim)
        # Objects whose last live holder was the victim are gone.
        for key in list(self.expected):
            if not self.exists(key):
                del self.expected[key]
                self.passwords.pop(key, None)
        del holders_lost

    @precondition(lambda self: bool(self.expected))
    @rule(pick=st.integers(min_value=0, max_value=10**9))
    def delete_object(self, pick):
        keys = sorted(self.expected)
        key = keys[pick % len(keys)]
        assert self.store.delete(key, self.passwords[key])
        del self.expected[key]
        del self.passwords[key]

    @precondition(lambda self: bool(self.expected))
    @rule(pick=st.integers(min_value=0, max_value=10**9))
    def delete_with_wrong_password_fails(self, pick):
        keys = sorted(self.expected)
        key = keys[pick % len(keys)]
        assert not self.store.delete(key, b"not-the-password")
        assert self.store.fetch(key).value == self.expected[key]

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def alive_list_consistent(self):
        alive = self.network.alive_ids
        assert alive == sorted(alive)
        assert not self.network.down_ids.intersection(alive)

    @invariant()
    def replica_sets_are_k_closest(self):
        problems = self.problems()
        assert problems == [], problems

    @invariant()
    def objects_fetchable_with_original_value(self):
        for key, value in self.expected.items():
            assert self.store.fetch(key).value == value

    @invariant()
    def routing_reaches_closest(self):
        if self.network.size == 0:
            return
        src = self.network.alive_ids[0]
        key = random_id(random.Random(self.network.size))
        path = self.network.route(src, key)
        assert path[-1] == self.network.closest_alive(key)


class Erasure1of3Machine(ReplicationMachine):
    @staticmethod
    def make_store(network):
        return ErasureStore(network, 1, 3)

    def exists(self, key: int) -> bool:
        """Decodable right now: at least k shares on live holders."""
        live = [h for h in self.store.holders(key) if self.network.is_alive(h)]
        return len(live) >= self.store.k

    def problems(self) -> list[str]:
        return erasure_invariants(self.store)


class Erasure2of4Machine(Erasure1of3Machine):
    @staticmethod
    def make_store(network):
        return ErasureStore(network, 2, 4)


for _machine in (ReplicationMachine, Erasure1of3Machine, Erasure2of4Machine):
    _machine.TestCase.settings = settings(
        max_examples=12, stateful_step_count=25, deadline=None,
        derandomize=True,
    )
TestReplicationStateful = ReplicationMachine.TestCase
TestErasure1of3Stateful = Erasure1of3Machine.TestCase
TestErasure2of4Stateful = Erasure2of4Machine.TestCase
