"""Per-node object storage.

Each overlay node owns one :class:`Storage`.  Objects are immutable
once inserted (PAST semantics); deletion requires the proof the
inserter registered (TAP's ``H(PW)`` mechanism, §3.4).
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import hash_password


class StorageError(KeyError):
    """Raised on missing keys or rejected operations."""


@dataclass(frozen=True)
class StoredObject:
    """An immutable stored value plus its deletion guard.

    ``delete_proof_hash`` is ``H(PW)``: deletion succeeds only for a
    caller presenting the preimage ``PW``.  ``None`` means undeletable
    (plain PAST files).
    """

    key: int
    value: Any
    delete_proof_hash: bytes | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def may_delete(self, proof: bytes | None) -> bool:
        """Deletion guard check: constant-time and fail-closed.

        Any malformed input — missing guard, empty or mistyped proof,
        a bit-rotted ``delete_proof_hash`` that is no longer a byte
        string — denies deletion rather than raising: a corrupted
        replica must never turn the §3.4 delete protocol into a crash
        or, worse, an accept.  The digest comparison itself is
        constant-time so holders leak no prefix-match timing signal
        about ``H(PW)``.
        """
        expected = self.delete_proof_hash
        if not isinstance(expected, (bytes, bytearray)) or not expected:
            return False
        if not isinstance(proof, (bytes, bytearray)) or not proof:
            return False
        try:
            presented = hash_password(bytes(proof))
        except (TypeError, ValueError):
            return False
        return hmac.compare_digest(bytes(presented), bytes(expected))


class Storage:
    """Key-value store of one node, with insert/lookup/delete."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._objects: dict[int, StoredObject] = {}

    def insert(self, obj: StoredObject, overwrite: bool = False) -> None:
        """Store an object; PAST rejects silent overwrites by default."""
        if not overwrite and obj.key in self._objects:
            existing = self._objects[obj.key]
            if existing != obj:
                raise StorageError(f"key {obj.key:#x} already bound to a different object")
            return
        self._objects[obj.key] = obj

    def lookup(self, key: int) -> StoredObject:
        try:
            return self._objects[key]
        except KeyError:
            raise StorageError(f"key {key:#x} not stored on node {self.node_id:#x}") from None

    def contains(self, key: int) -> bool:
        return key in self._objects

    def delete(self, key: int, proof: bytes | None) -> bool:
        """Remove an object iff the proof matches its guard (§3.4)."""
        obj = self._objects.get(key)
        if obj is None:
            return False
        if not obj.may_delete(proof):
            return False
        del self._objects[key]
        return True

    def drop(self, key: int) -> None:
        """Administrative removal (replica hand-off), no proof needed."""
        self._objects.pop(key, None)

    def keys(self) -> list[int]:
        return list(self._objects)
