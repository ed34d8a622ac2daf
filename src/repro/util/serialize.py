"""Minimal length-prefixed binary serialization.

TAP's layered (onion) encryption operates on opaque byte strings, so
the message formats in :mod:`repro.crypto.onion` and
:mod:`repro.core.messages` need a deterministic, self-delimiting
encoding.  We use 4-byte big-endian length prefixes — simple, explicit
and endianness-stable across platforms.
"""

from __future__ import annotations

_LEN_BYTES = 4
_MAX_FIELD = (1 << (8 * _LEN_BYTES)) - 1


class SerializationError(ValueError):
    """Raised when a byte buffer does not decode as expected."""


def pack_fields(*fields: bytes) -> bytes:
    """Concatenate several length-prefixed byte strings.

    One join over interleaved prefixes and fields: each field is copied
    once, into the result.
    """
    parts = []
    for data in fields:
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError(f"expected bytes, got {type(data).__name__}")
        if len(data) > _MAX_FIELD:
            raise SerializationError(f"field of {len(data)} bytes exceeds 4-byte length prefix")
        parts.append(len(data).to_bytes(_LEN_BYTES, "big"))
        parts.append(data)
    return b"".join(parts)


def unpack_fields_view(buffer, count: int | None = None) -> list[memoryview]:
    """Decode consecutive length-prefixed fields without copying.

    Returns :class:`memoryview` slices into ``buffer`` (bytes,
    bytearray, or another memoryview) — for large buffers of which
    only some fields are kept.  The views keep ``buffer`` alive; call
    :func:`unpack_fields` instead when the fields must outlive it as
    independent byte strings.

    With ``count=None`` decodes until the buffer is exhausted; with an
    explicit count, raises :class:`SerializationError` if the buffer
    holds a different number of fields or has trailing garbage.
    """
    view = memoryview(buffer)
    fields: list[memoryview] = []
    offset = 0
    total = len(view)
    while offset < total:
        if offset + _LEN_BYTES > total:
            raise SerializationError("truncated length prefix")
        length = int.from_bytes(view[offset : offset + _LEN_BYTES], "big")
        offset += _LEN_BYTES
        if offset + length > total:
            raise SerializationError("field overruns buffer")
        fields.append(view[offset : offset + length])
        offset += length
        if count is not None and len(fields) > count:
            raise SerializationError(f"more than {count} fields present")
    if count is not None and len(fields) != count:
        raise SerializationError(f"expected {count} fields, found {len(fields)}")
    return fields


def unpack_fields(buffer: bytes, count: int | None = None) -> list[bytes]:
    """Decode consecutive length-prefixed fields as independent bytes.

    Same framing and error behaviour as :func:`unpack_fields_view`,
    but each field is an independent byte string (and the loop slices
    ``buffer`` directly — for small fields that is faster than going
    through intermediate memoryviews).
    """
    fields: list[bytes] = []
    offset = 0
    total = len(buffer)
    while offset < total:
        if offset + _LEN_BYTES > total:
            raise SerializationError("truncated length prefix")
        length = int.from_bytes(buffer[offset : offset + _LEN_BYTES], "big")
        offset += _LEN_BYTES
        if offset + length > total:
            raise SerializationError("field overruns buffer")
        fields.append(bytes(buffer[offset : offset + length]))
        offset += length
        if count is not None and len(fields) > count:
            raise SerializationError(f"more than {count} fields present")
    if count is not None and len(fields) != count:
        raise SerializationError(f"expected {count} fields, found {len(fields)}")
    return fields


def pack_int(value: int, width: int = 16) -> bytes:
    """Fixed-width big-endian unsigned int (default fits a 128-bit id)."""
    if value < 0:
        raise SerializationError("cannot pack negative int")
    try:
        return int(value).to_bytes(width, "big")
    except OverflowError as exc:
        raise SerializationError(f"{value} does not fit in {width} bytes") from exc


def unpack_int(data: bytes, width: int = 16) -> int:
    """Inverse of :func:`pack_int`; checks the width."""
    if len(data) != width:
        raise SerializationError(f"expected {width} bytes, got {len(data)}")
    return int.from_bytes(data, "big")
