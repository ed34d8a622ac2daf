"""Tests for ``_modexp``, RSA's modular exponentiation: ``BN_mod_exp`` of
the libcrypto hashlib links from ``_NATIVE_MODEXP_BITS`` up, the builtin
``pow`` below and wherever that library cannot be bound."""

import os
import platform
import random
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import asymmetric
from repro.crypto.asymmetric import _NATIVE_MODEXP_BITS, RsaKeyPair, _modexp
from tests.crypto import test_vectors

#: odd moduli of ``_NATIVE_MODEXP_BITS`` bits (libcrypto's) and one bit fewer (``pow``'s)
AT = (1 << (_NATIVE_MODEXP_BITS - 1)) + 1
BELOW = (1 << (_NATIVE_MODEXP_BITS - 1)) - 1


@st.composite
def modexp_args(draw):
    """Odd moduli of 2 to 1,024 bits, half of them within two bits of
    the threshold; bases up to 4n with 0, 1 and n - 1 drawn often;
    exponents up to n², with 0 and 1 drawn often."""
    bits = draw(st.one_of(
        st.integers(2, 1024),
        st.integers(_NATIVE_MODEXP_BITS - 2, _NATIVE_MODEXP_BITS + 2),
    ))
    n = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    base = draw(st.one_of(st.sampled_from((0, 1, n - 1)), st.integers(0, 4 * n)))
    exp = draw(st.one_of(st.sampled_from((0, 1)), st.integers(0, n * n)))
    return base, exp, n


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception's type is the outcome
        return type(exc)


def test_native_kernel_is_bound_on_linux_cpython():
    """On Linux CPython hashlib links OpenSSL, so the native path must
    bind: a silent fallback to ``pow`` would make every benchmark time
    the slow kernel."""
    if sys.platform != "linux" or platform.python_implementation() != "CPython":
        pytest.skip("the native binding is required on Linux CPython only")
    assert asymmetric._BN is not None
    assert asymmetric._modexp is not pow


@given(modexp_args())
@example((5, 3, AT))
@example((AT + 5, 3, AT))
@example((AT - 1, 2, AT))
@example((2, AT - 2, AT))
@example((2, BELOW - 2, BELOW))
@example((7, 0, AT))
@example((0, 0, AT))
@example((0, 1, AT))
def test_equals_pow(args):
    assert _modexp(*args) == pow(*args)


@pytest.mark.parametrize("args", [
    (3, -1, AT),             # a negative exponent inverts
    (2, -1, AT + 1),         # even modulus: 2 has no inverse, ValueError
    (-5, 7, AT),             # a negative base
    (5, 7, -AT),             # a negative modulus
    (5, 7, 0),               # a zero modulus, ValueError
    (5, 7, 1),
    (True, 7, AT),
    (2.0, 7, AT),            # non-integers, TypeError
    (2, 7.0, AT),
    (2, 7, float(AT)),
    (2, 7, float(BELOW)),
])
def test_out_of_domain_matches_pow(args):
    assert _outcome(_modexp, *args) == _outcome(pow, *args)


def test_failed_bn_call_raises():
    """Fail closed: ``BN_mod_exp`` refuses a zero modulus, and the
    ``errcheck`` turns its 0 status into an exception."""
    if asymmetric._BN is None:
        pytest.skip("no libcrypto bound")
    ctx_new, ctx_free, bin2bn, bn_new, bn_free, mod_exp, _ = asymmetric._BN
    ctx, zero, r = ctx_new(), bn_new(), bn_new()
    base, exp = bin2bn(b"\x02", 1, None), bin2bn(b"\x03", 1, None)
    try:
        with pytest.raises(RuntimeError, match="BN_mod_exp"):
            mod_exp(r, base, exp, zero, ctx)
    finally:
        for bn in (r, zero, exp, base):
            bn_free(bn)
        ctx_free(ctx)


def test_two_threads_agree_with_pow():
    """Each call owns its ``BN``s and ``BN_CTX`` and ctypes drops the GIL
    around each libcrypto call, so two threads interleave inside it."""
    def mixed(seed: int):
        rng = random.Random(seed)
        for i in range(2000):
            bits = (64, _NATIVE_MODEXP_BITS, 256, 512)[i % 4]
            n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            yield rng.getrandbits(bits + 8), rng.getrandbits(bits), n

    mismatches, done = [], []

    def worker(seed: int):
        for args in mixed(seed):
            if _modexp(*args) != pow(*args):
                mismatches.append(args)
        done.append(seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [1, 2]
    assert mismatches == []


def _rss_kib() -> int:
    """Resident set size now.  Not ``ru_maxrss``: Linux carries the
    peak across ``fork`` and ``exec``, so the suite's own peak would
    hide a leak there, even in a fresh child process."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def test_fifty_thousand_calls_leak_nothing():
    """Every ``BN`` and the ``BN_CTX`` are freed: 50,000 native calls
    grow the resident set by under 1 MiB (leaking the result ``BN``
    alone grows it by ~2.5 MiB)."""
    if sys.platform != "linux" or asymmetric._BN is None:
        pytest.skip("reads /proc/self/statm of the native path")
    rng = random.Random(5)
    args = [(rng.getrandbits(520), rng.getrandbits(256), rng.getrandbits(256) | 1 | 1 << 255)
            for _ in range(100)]
    for i in range(2000):
        _modexp(*args[i % 100])
    before = _rss_kib()
    for i in range(50000):
        _modexp(*args[i % 100])
    assert _rss_kib() - before < 1024


def test_pow_binding_draws_the_pinned_keys(monkeypatch):
    """The fallback binding is the builtin ``pow``; with it ``generate``
    draws ``test_keygen_vector``'s exact key, and the same 512-bit keys
    as the native path, which then decrypt alike."""
    native = [RsaKeyPair.generate(random.Random(seed), 512) for seed in range(3)]
    monkeypatch.setattr(asymmetric, "_modexp", pow)
    test_vectors.TestRsaDeterminism().test_keygen_vector()
    fallback = [RsaKeyPair.generate(random.Random(seed), 512) for seed in range(3)]
    assert [k.public.n for k in fallback] == [k.public.n for k in native]
    c = native[0].public.n // 3
    assert fallback[0]._private_op(c) == native[0]._private_op(c)
