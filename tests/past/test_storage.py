"""Tests for per-node storage and the H(PW) delete guard."""

import pytest

from repro.crypto.hashing import hash_password
from repro.past.storage import Storage, StorageError, StoredObject


@pytest.fixture()
def storage() -> Storage:
    return Storage(node_id=0xABC)


class TestInsertLookup:
    def test_roundtrip(self, storage):
        obj = StoredObject(key=1, value=b"v")
        storage.insert(obj)
        assert storage.lookup(1) is obj
        assert storage.contains(1)

    def test_missing_key_raises(self, storage):
        with pytest.raises(StorageError):
            storage.lookup(99)

    def test_reinsert_identical_is_idempotent(self, storage):
        obj = StoredObject(key=1, value=b"v")
        storage.insert(obj)
        storage.insert(StoredObject(key=1, value=b"v"))
        assert storage.keys() == [1]

    def test_conflicting_insert_rejected(self, storage):
        storage.insert(StoredObject(key=1, value=b"v"))
        with pytest.raises(StorageError):
            storage.insert(StoredObject(key=1, value=b"other"))

    def test_overwrite_flag(self, storage):
        storage.insert(StoredObject(key=1, value=b"v"))
        storage.insert(StoredObject(key=1, value=b"new"), overwrite=True)
        assert storage.lookup(1).value == b"new"

    def test_keys_and_iter(self, storage):
        storage.insert(StoredObject(key=1, value=b"a"))
        storage.insert(StoredObject(key=2, value=b"b"))
        assert sorted(storage.keys()) == [1, 2]
        assert {storage.lookup(k).value for k in storage.keys()} == {b"a", b"b"}


class TestDeleteGuard:
    def test_delete_with_correct_pw(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        assert storage.delete(1, b"pw")
        assert not storage.contains(1)

    def test_delete_with_wrong_pw_rejected(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        assert not storage.delete(1, b"nope")
        assert storage.contains(1)

    def test_delete_with_hash_instead_of_preimage_rejected(self, storage):
        """Knowing H(PW) (which every replica holder does) must not
        allow deletion — that's the whole point of storing the hash
        (§3.4)."""
        h = hash_password(b"pw")
        storage.insert(StoredObject(1, b"v", h))
        assert not storage.delete(1, h)

    def test_undeletable_object(self, storage):
        storage.insert(StoredObject(1, b"v", delete_proof_hash=None))
        assert not storage.delete(1, b"anything")

    def test_delete_missing_key(self, storage):
        assert not storage.delete(42, b"pw")

    def test_none_proof_rejected(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        assert not storage.delete(1, None)

    def test_drop_is_unconditional(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        storage.drop(1)
        assert not storage.contains(1)

    def test_drop_missing_is_noop(self, storage):
        storage.drop(5)


class TestMayDeleteFailsClosed:
    """A corrupted replica must never turn the §3.4 delete check into
    a crash (or an accept): every malformed guard/proof denies."""

    def test_bitrotted_proof_hash_denies(self, storage):
        h = hash_password(b"pw")
        rotted = bytes([h[0] ^ 0x01]) + h[1:]
        storage.insert(StoredObject(1, b"v", rotted))
        assert not storage.delete(1, b"pw")
        assert storage.contains(1)

    def test_truncated_proof_hash_denies(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")[:-5]))
        assert not storage.delete(1, b"pw")

    def test_empty_proof_hash_denies(self, storage):
        storage.insert(StoredObject(1, b"v", b""))
        assert not storage.delete(1, b"pw")

    def test_non_bytes_proof_hash_denies(self, storage):
        for garbage in ("stringified", 12345, ["list"]):
            obj = StoredObject(1, b"v", garbage)  # type: ignore[arg-type]
            assert not obj.may_delete(b"pw")

    def test_empty_proof_denies_without_raising(self, storage):
        """hash_password rejects empty passwords with ValueError; the
        guard must swallow that, not propagate it."""
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        assert not storage.delete(1, b"")

    def test_non_bytes_proof_denies(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        obj = storage.lookup(1)
        assert not obj.may_delete("pw")  # type: ignore[arg-type]
        assert not obj.may_delete(42)  # type: ignore[arg-type]

    def test_bytearray_proof_accepted(self, storage):
        storage.insert(StoredObject(1, b"v", hash_password(b"pw")))
        assert storage.delete(1, bytearray(b"pw"))


class TestStoredObject:
    def test_pw_hash_validation(self):
        obj = StoredObject(1, b"v", hash_password(b"x"))
        assert obj.may_delete(b"x")
        assert not obj.may_delete(b"y")
        assert not obj.may_delete(None)

    def test_frozen(self):
        obj = StoredObject(1, b"v")
        with pytest.raises(AttributeError):
            obj.value = b"mutated"  # type: ignore[misc]
