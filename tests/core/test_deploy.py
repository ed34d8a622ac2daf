"""Tests for anonymous THA deployment and deletion (§3.3–§3.4)."""

import pytest

from repro.core.deploy import DeploymentError, select_prefix_diverse
from repro.core.tha import tha_value_decode
from repro.pastry.node import ip_for_id
from repro.util.serialize import pack_fields


@pytest.fixture()
def system(tap_system):
    return tap_system


@pytest.fixture()
def owner(system):
    return system.tap_node(system.random_node_id("owner"))


class TestDeployment:
    def test_anchors_land_on_replica_sets(self, system, owner):
        report = system.deploy_thas(owner, count=4)
        assert len(report.deployed) == 4
        for tha in report.deployed:
            assert tha.deployed
            holders = system.store.holders(tha.hop_id)
            assert holders == set(system.store.replica_set(tha.hop_id))
            stored = system.store.fetch(tha.hop_id)
            decoded = tha_value_decode(tha.hop_id, stored.value)
            assert (decoded.hop_id, decoded.key.key_bytes, decoded.pw_hash) == (
                tha.hop_id, tha.anchor.key.key_bytes, tha.anchor.pw_hash)

    def test_owner_not_on_bootstrap_path(self, system, owner):
        report = system.deploy_thas(owner, count=3)
        for path in report.relay_paths:
            assert owner.node_id not in path

    def test_relay_paths_prefix_diverse(self, system, owner):
        report = system.deploy_thas(owner, count=3)
        for path in report.relay_paths:
            prefixes = [
                ip_for_id(nid).split(".")[0] for nid in path
            ]
            assert len(set(prefixes)) == len(prefixes)

    def test_dead_relay_aborts_then_retries(self, system, owner):
        """§3.3: a dead bootstrap relay aborts the session; the node
        retries over a fresh path until deployment succeeds."""
        thas = [owner.new_tha() for _ in range(2)]
        candidates = [
            system.tap_node(nid)
            for nid in system.network.alive_ids[:20]
            if nid != owner.node_id
        ]
        # Kill one candidate *after* selection pools are built: patch
        # the deployer to observe aborts by killing the first chosen
        # relay just before processing.
        deployer = system.deployer
        original = deployer._relay_process
        killed = {}

        def sabotage(relay, blob):
            if not killed:
                killed["victim"] = relay.node_id
                system.network.fail(relay.node_id)
                system.store.on_fail(relay.node_id)
                raise DeploymentError("relay died mid-path")
            return original(relay, blob)

        deployer._relay_process = sabotage
        try:
            report = deployer.deploy(owner, thas, candidates, max_attempts=5)
        finally:
            deployer._relay_process = original
        assert report.aborted_paths == 1
        assert report.attempts == 2
        assert all(t.deployed for t in thas)

    def test_gives_up_after_max_attempts(self, system, owner):
        thas = [owner.new_tha()]
        candidates = [
            system.tap_node(nid)
            for nid in system.network.alive_ids[:10]
            if nid != owner.node_id
        ]
        deployer = system.deployer

        def always_fail(relay, blob):
            raise DeploymentError("network hates you")

        original = deployer._relay_process
        deployer._relay_process = always_fail
        try:
            with pytest.raises(DeploymentError):
                deployer.deploy(owner, thas, candidates, max_attempts=3)
        finally:
            deployer._relay_process = original
        assert not thas[0].deployed

    def test_empty_batch_rejected(self, system, owner):
        with pytest.raises(ValueError):
            system.deployer.deploy(owner, [], [], max_attempts=1)


def _flip_last_byte(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 1])


class TestMalformedLayer:
    """§3.3's bootstrap onion fails closed: a layer that does not open
    or parse at its relay aborts the path, it does not escape deploy."""

    @pytest.fixture()
    def relays(self, system, owner):
        return [
            system.tap_node(nid)
            for nid in system.network.alive_ids[:3]
            if nid != owner.node_id
        ][:2]

    @pytest.mark.parametrize("kind, reason", [
        ("flipped", "payload authentication failed"),
        ("truncated", "ciphertext shorter than RSA block"),
        ("other-relay", "payload authentication failed"),
        ("mis-framed", "expected 4 fields"),
    ])
    def test_relay_process_raises_deployment_error(
        self, system, owner, relays, kind, reason
    ):
        deployer = system.deployer
        relay, other = relays
        tha = owner.new_tha()
        blob = {
            "flipped": lambda: _flip_last_byte(
                deployer._build_bootstrap_onion([relay], [tha])
            ),
            "truncated": lambda: bytes(10),
            "other-relay": lambda: deployer._build_bootstrap_onion([other], [tha]),
            "mis-framed": lambda: relay.keypair.public.encrypt(
                pack_fields(b"junk"), deployer.rng
            ),
        }[kind]()
        with pytest.raises(DeploymentError, match=reason) as info:
            deployer._relay_process(relay, blob)
        assert f"{relay.node_id:#x}" in str(info.value)
        assert not system.store.exists(tha.hop_id)

    def test_tampered_onion_aborts_then_retries(self, system, owner):
        thas = [owner.new_tha() for _ in range(2)]
        candidates = [
            system.tap_node(nid)
            for nid in system.network.alive_ids[:20]
            if nid != owner.node_id
        ]
        deployer = system.deployer
        original = deployer._build_bootstrap_onion
        built = []

        def tamper_first(relays, batch):
            blob = original(relays, batch)
            built.append(blob)
            return _flip_last_byte(blob) if len(built) == 1 else blob

        deployer._build_bootstrap_onion = tamper_first
        try:
            report = deployer.deploy(owner, thas, candidates, max_attempts=5)
        finally:
            deployer._build_bootstrap_onion = original
        assert report.aborted_paths == 1
        assert report.attempts == 2
        assert report.deployed == thas
        assert all(t.deployed and system.store.exists(t.hop_id) for t in thas)


class TestDeletion:
    def test_owner_can_delete(self, system, owner):
        report = system.deploy_thas(owner, count=2)
        tha = report.deployed[0]
        assert system.deployer.delete(owner, tha)
        assert not system.store.exists(tha.hop_id)
        assert tha not in owner.owned_thas

    def test_non_owner_cannot_delete(self, system, owner):
        """§3.4: without PW the THA is undeletable; replica holders
        only ever see H(PW)."""
        report = system.deploy_thas(owner, count=1)
        tha = report.deployed[0]
        assert not system.store.delete(tha.hop_id, b"guess")
        assert not system.store.delete(tha.hop_id, tha.anchor.pw_hash)
        assert system.store.exists(tha.hop_id)


class TestPrefixDiverseSelection:
    def test_distinct_prefixes_when_available(self, system):
        nodes = [system.tap_node(nid) for nid in system.network.alive_ids[:40]]
        rng = system.seeds.pyrandom("sel-test")
        chosen = select_prefix_diverse(nodes, 5, rng)
        prefixes = [n.ip.split(".")[0] for n in chosen]
        assert len(set(prefixes)) == 5

    def test_not_enough_candidates(self, system):
        nodes = [system.tap_node(system.network.alive_ids[0])]
        with pytest.raises(DeploymentError):
            select_prefix_diverse(nodes, 2, system.seeds.pyrandom("x"))

    def test_relaxation_fills_count(self, system):
        # Force duplicate prefixes by reusing the same node object list.
        base = [system.tap_node(nid) for nid in system.network.alive_ids[:3]]
        rng = system.seeds.pyrandom("relax")
        chosen = select_prefix_diverse(base * 2, 3, rng)
        assert len(chosen) == 3

    def test_count_validation(self, system):
        with pytest.raises(ValueError):
            select_prefix_diverse([], 0, system.seeds.pyrandom("x"))
