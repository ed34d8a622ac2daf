"""Tests for hashing: id derivation, hopids, password proofs."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    derive_hopid,
    hash_password,
    random_key,
    random_password,
    sha1_id,
    sha256_bytes,
)
from repro.past.storage import StoredObject
from repro.util.ids import ID_SPACE


class TestSha1Id:
    def test_in_id_space(self):
        assert 0 <= sha1_id(b"x") < ID_SPACE

    def test_deterministic(self):
        assert sha1_id(b"a", b"b") == sha1_id(b"a", b"b")

    def test_separator_prevents_concatenation_ambiguity(self):
        assert sha1_id(b"ab", b"c") != sha1_id(b"a", b"bc")

    def test_distinct_inputs_distinct_outputs(self):
        outs = {sha1_id(str(i).encode()) for i in range(1000)}
        assert len(outs) == 1000


class TestSha256Bytes:
    def test_32_bytes(self):
        assert len(sha256_bytes(b"x")) == 32

    def test_separated(self):
        assert sha256_bytes(b"ab", b"c") != sha256_bytes(b"a", b"bc")


class TestDeriveHopid:
    def test_deterministic(self):
        assert derive_hopid(b"node", b"key", 5) == derive_hopid(b"node", b"key", 5)

    def test_timestamp_varies_output(self):
        assert derive_hopid(b"node", b"key", 1) != derive_hopid(b"node", b"key", 2)

    def test_hkey_varies_output(self):
        """Without hkey an attacker could link hopids by recomputation
        over all known node identifiers (§3.2)."""
        assert derive_hopid(b"node", b"k1", 1) != derive_hopid(b"node", b"k2", 1)

    def test_node_identifier_varies_output(self):
        assert derive_hopid(b"n1", b"key", 1) != derive_hopid(b"n2", b"key", 1)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            derive_hopid(b"", b"key", 1)
        with pytest.raises(ValueError):
            derive_hopid(b"node", b"", 1)
        with pytest.raises(ValueError):
            derive_hopid(b"node", b"key", -1)

    def test_no_collisions_across_nodes(self):
        """The generation mechanism exists to avoid collisions (§3.2)."""
        hopids = {
            derive_hopid(f"node{n}".encode(), b"secret", t)
            for n in range(50)
            for t in range(20)
        }
        assert len(hopids) == 1000


def _guarded(stored_hash) -> StoredObject:
    """An object whose §3.4 delete guard is ``stored_hash``."""
    return StoredObject(1, b"v", stored_hash)


class TestPasswords:
    """The proof-of-ownership check is ``StoredObject.may_delete``."""

    @given(pw=st.binary(min_size=1, max_size=64))
    def test_verify_accepts_correct(self, pw):
        assert _guarded(hash_password(pw)).may_delete(pw)

    def test_verify_rejects_wrong(self):
        assert not _guarded(hash_password(b"right")).may_delete(b"wrong")

    def test_verify_rejects_empty(self):
        assert not _guarded(hash_password(b"right")).may_delete(b"")

    def test_hash_rejects_empty(self):
        with pytest.raises(ValueError):
            hash_password(b"")

    def test_hash_is_not_identity(self):
        """Only H(PW) is stored so holders cannot learn PW (§3.4)."""
        assert hash_password(b"secret") != b"secret"

    def test_verify_fails_closed_on_malformed_stored_hash(self):
        """A bit-rotted or mistyped stored hash denies, never raises."""
        assert not _guarded(None).may_delete(b"pw")
        assert not _guarded("text").may_delete(b"pw")
        assert not _guarded(hash_password(b"pw")[:-3]).may_delete(b"pw")

    def test_verify_accepts_bytearray_hash(self):
        assert _guarded(bytearray(hash_password(b"pw"))).may_delete(b"pw")


class TestRandomMaterial:
    def test_key_length(self):
        assert len(random_key(random.Random(0))) == 16
        assert len(random_key(random.Random(0), nbytes=32)) == 32

    def test_password_reproducible_per_seed(self):
        assert random_password(random.Random(1)) == random_password(random.Random(1))

    def test_key_and_password_draw_from_stream(self):
        rng = random.Random(1)
        assert random_key(rng) != random_key(rng)
