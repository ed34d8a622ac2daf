"""Tests for length-prefixed serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.serialize import (
    SerializationError,
    pack_fields,
    pack_int,
    unpack_fields,
    unpack_int,
)


class TestFieldsRoundtrip:
    @given(fields=st.lists(st.binary(max_size=200), max_size=8))
    def test_roundtrip(self, fields):
        blob = pack_fields(*fields)
        assert unpack_fields(blob) == fields

    @given(fields=st.lists(st.binary(max_size=50), min_size=1, max_size=5))
    def test_roundtrip_with_count(self, fields):
        blob = pack_fields(*fields)
        assert unpack_fields(blob, count=len(fields)) == fields

    def test_count_mismatch_rejected(self):
        blob = pack_fields(b"a", b"b")
        with pytest.raises(SerializationError):
            unpack_fields(blob, count=3)
        with pytest.raises(SerializationError):
            unpack_fields(blob, count=1)

    def test_truncated_length_prefix(self):
        with pytest.raises(SerializationError):
            unpack_fields(b"\x00\x00")

    def test_field_overrunning_buffer(self):
        bad = (100).to_bytes(4, "big") + b"short"
        with pytest.raises(SerializationError):
            unpack_fields(bad)

    def test_empty_buffer_is_zero_fields(self):
        assert unpack_fields(b"") == []


class TestInts:
    @given(value=st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_128(self, value):
        assert unpack_int(pack_int(value)) == value

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            pack_int(-1)

    def test_overflow_rejected(self):
        with pytest.raises(SerializationError):
            pack_int(1 << 128, width=16)

    def test_wrong_width_rejected(self):
        with pytest.raises(SerializationError):
            unpack_int(b"\x00" * 15)

    def test_custom_width(self):
        assert unpack_int(pack_int(300, width=2), width=2) == 300
