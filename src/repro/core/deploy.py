"""Anonymous THA deployment and deletion (§3.3–§3.4).

Before forming its first tunnel a node must place THAs into the DHT
*without linking them to itself*.  It builds an Onion-Routing path over
a prefix-diverse set of peers (Tarzan-style selection by IP prefix),
wraps one store-instruction per relay in that relay's public key, and
each relay performs the PAST insert for "its" THA.  If any relay on
the bootstrap path is dead, or a layer does not open and parse at its
relay, the whole deployment aborts and is retried over a fresh path —
the paper argues this is acceptable because deployment is not
performance-critical.

Deletion presents the password ``PW``; replica holders hash it and
compare with the stored ``H(PW)`` (§3.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.node import TapNode
from repro.core.puzzles import PuzzlePolicy
from repro.core.tha import OwnedTha, tha_value_decode, tha_value_encode
from repro.past.replication import ReplicatedStore, ReplicationError
from repro.pastry.network import PastryNetwork
from repro.util.serialize import pack_fields, pack_int, unpack_fields, unpack_int


class DeploymentError(RuntimeError):
    """Raised when deployment keeps failing after retries."""


@dataclass
class DeploymentReport:
    """Outcome of one deployment call."""

    deployed: list[OwnedTha] = field(default_factory=list)
    attempts: int = 0
    aborted_paths: int = 0
    relay_paths: list[list[int]] = field(default_factory=list)


def select_prefix_diverse(
    candidates: list[TapNode],
    count: int,
    rng: random.Random,
) -> list[TapNode]:
    """Tarzan-style relay selection: distinct IP first-octet prefixes.

    Falls back to allowing duplicate prefixes only when fewer distinct
    prefixes exist than relays requested.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if len(candidates) < count:
        raise DeploymentError(
            f"need {count} relay candidates, have {len(candidates)}"
        )
    pool = list(candidates)
    rng.shuffle(pool)
    chosen: list[TapNode] = []
    seen_prefixes: set[str] = set()
    for node in pool:
        prefix = node.ip.split(".", 1)[0]
        if prefix not in seen_prefixes:
            chosen.append(node)
            seen_prefixes.add(prefix)
            if len(chosen) == count:
                return chosen
    for node in pool:  # relax: prefixes exhausted
        if node not in chosen:
            chosen.append(node)
            if len(chosen) == count:
                return chosen
    raise DeploymentError("relay selection exhausted candidates")


class ThaDeployer:
    """Deploys and deletes THAs through bootstrap onion paths."""

    def __init__(
        self,
        network: PastryNetwork,
        store: ReplicatedStore,
        rng: random.Random,
        puzzle_policy: PuzzlePolicy | None = None,
    ):
        self.network = network
        self.store = store
        self.rng = rng
        #: §3.3 anti-flooding charge; disabled by default (the paper's
        #: evaluated configuration)
        self.puzzle_policy = puzzle_policy or PuzzlePolicy(difficulty=0)

    # ------------------------------------------------------------------
    # onion construction: one RSA layer per relay, one THA per relay
    # ------------------------------------------------------------------
    def _build_bootstrap_onion(
        self,
        relays: list[TapNode],
        thas: list[OwnedTha],
    ) -> bytes:
        """Innermost layer last: each relay sees (its THA, next blob)."""
        assert len(relays) == len(thas)
        blob = b""
        for relay, tha in zip(reversed(relays), reversed(thas)):
            # The deployer pays the CPU charge per anchor (§3.3); the
            # proof travels with the store instruction.
            nonce = self.puzzle_policy.charge(tha.hop_id)
            plain = pack_fields(
                pack_int(tha.hop_id),
                tha_value_encode(tha.anchor),
                pack_int(nonce, width=8),
                blob,
            )
            blob = relay.keypair.public.encrypt(plain, self.rng)
        return blob

    def _relay_process(self, relay: TapNode, blob: bytes) -> bytes:
        """One relay's work: decrypt its layer and insert its THA.

        The relay performs the DHT insert on the owner's behalf; the
        delete guard travels inside the value (``H(PW)``), so the store
        can enforce §3.4 without knowing the owner.  A layer that does
        not open or parse — tampered, truncated, wrapped for another
        relay, mis-framed — fails closed as a :class:`DeploymentError`,
        which aborts the path like a dead relay does.
        """
        try:
            plain = relay.keypair.decrypt(blob)
            hop_id_bytes, value, nonce_bytes, rest = unpack_fields(plain, count=4)
            hop_id = unpack_int(hop_id_bytes)
            nonce = unpack_int(nonce_bytes, width=8)
            anchor = tha_value_decode(hop_id, value)
        except ValueError as exc:  # RsaError, SerializationError, a bad anchor
            raise DeploymentError(
                f"malformed bootstrap layer at relay {relay.node_id:#x}: {exc}"
            ) from exc
        if not self.puzzle_policy.admit(hop_id, nonce):
            raise DeploymentError(
                f"puzzle proof rejected for hop {hop_id:#x} "
                f"(difficulty {self.puzzle_policy.difficulty})"
            )
        try:
            self.store.insert(hop_id, value, delete_proof_hash=anchor.pw_hash)
        except ReplicationError:
            # A previous aborted path already placed this THA; the
            # re-insert is idempotent as long as the value matches.
            existing = self.store.fetch(hop_id)
            if existing.value != value:
                raise
        return rest

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def deploy(
        self,
        owner: TapNode,
        thas: list[OwnedTha],
        relay_candidates: list[TapNode],
        max_attempts: int = 5,
    ) -> DeploymentReport:
        """Deploy anchors over a fresh onion path, retrying on dead relays."""
        if not thas:
            raise ValueError("nothing to deploy")
        report = DeploymentReport()
        remaining = [t for t in thas if not t.deployed]
        while remaining:
            if report.attempts >= max_attempts:
                raise DeploymentError(
                    f"deployment failed after {report.attempts} attempts; "
                    f"{len(remaining)} THAs undeployed"
                )
            report.attempts += 1
            batch = list(remaining)
            candidates = [
                c for c in relay_candidates
                if c.node_id != owner.node_id and self.network.is_alive(c.node_id)
            ]
            relays = select_prefix_diverse(candidates, len(batch), self.rng)
            report.relay_paths.append([r.node_id for r in relays])
            blob = self._build_bootstrap_onion(relays, batch)
            try:
                for relay in relays:
                    if not self.network.is_alive(relay.node_id):
                        raise DeploymentError("relay died mid-path")
                    blob = self._relay_process(relay, blob)
            except (DeploymentError, ReplicationError):
                # Abort the whole path (paper: retry with another path).
                report.aborted_paths += 1
                continue
            for tha in batch:
                tha.deployed = True
                report.deployed.append(tha)
            remaining = [t for t in remaining if not t.deployed]
        return report

    def delete(self, owner: TapNode, tha: OwnedTha) -> bool:
        """Delete a deployed anchor by presenting its password (§3.4)."""
        ok = self.store.delete(tha.hop_id, tha.pw)
        if ok:
            tha.deployed = False
            owner.discard_tha(tha)
        return ok
