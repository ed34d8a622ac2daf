"""Shared low-level utilities: id arithmetic, RNG plumbing, serialization.

These helpers underpin every substrate in the reproduction.  They are
deliberately dependency-free (stdlib + numpy only) and fully
deterministic: all randomness flows through explicitly seeded
generators created by :mod:`repro.util.rng`.
"""

from repro.util.ids import (
    ID_BITS,
    ID_SPACE,
    ring_distance,
    closest_ids,
    closest_index,
    random_id,
    shared_prefix_digits,
    id_digit,
)
from repro.util.rng import SeedSequenceFactory, derive_seed, make_rng, make_pyrandom
from repro.util.serialize import (
    pack_fields,
    unpack_fields,
    unpack_fields_view,
    pack_int,
    unpack_int,
    SerializationError,
)

__all__ = [
    "ID_BITS",
    "ID_SPACE",
    "ring_distance",
    "closest_ids",
    "closest_index",
    "random_id",
    "shared_prefix_digits",
    "id_digit",
    "SeedSequenceFactory",
    "derive_seed",
    "make_rng",
    "make_pyrandom",
    "pack_fields",
    "unpack_fields",
    "unpack_fields_view",
    "pack_int",
    "unpack_int",
    "SerializationError",
]
