"""Tests for RSA's native kernel: ``_modexp`` and ``_pocklington`` run in
a per-thread workspace on the libcrypto hashlib links from
``_NATIVE_MODEXP_BITS`` up, on the builtin ``pow`` below and wherever
that library cannot be bound."""

import math
import os
import platform
import random
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import asymmetric
from repro.crypto.asymmetric import (
    _NATIVE_MODEXP_BITS,
    RsaKeyPair,
    _modexp,
    _pocklington,
    _proved_prime,
)
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


def _pow_pocklington(n: int, f: int) -> bool:
    """Pocklington's criterion by its definition, on the builtin ``pow``."""
    z = pow(2, (n - 1) // f, n)
    return pow(z, f, n) == 1 and math.gcd(z - 1, n) == 1


def _probable_prime(n: int) -> bool:
    return all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7, 11))


def _gcd_rejects(bits: int, f: int = 3) -> tuple[int, int]:
    """The least probable prime ``n = 2tf + 1`` of ``bits`` bits with
    ``2^(2t) ≡ 1 (mod n)``: its test passes the Fermat half and fails
    the gcd half.  For ``f = 3`` about a third of such primes qualify."""
    n = (1 << (bits - 1)) // (2 * f) * (2 * f) + 1
    while not (_probable_prime(n) and pow(2, (n - 1) // f, n) == 1):
        n += 2 * f
    return n, f


#: one Fermat-passes, gcd-rejects case per size, on either side of the
#: crossover and at keygen's top level
_GCD_REJECTS = {bits: _gcd_rejects(bits)
                for bits in (_NATIVE_MODEXP_BITS - 1, _NATIVE_MODEXP_BITS, 256)}


def _sieved_candidates(bits: int, count: int, seed: int = 0) -> list[tuple[int, int]]:
    """``count`` candidates ``(n, f)`` as keygen's search makes them at
    one level: ``n = 2tf + 1`` of ``bits`` bits over a proved prime
    ``f`` with ``(f + 1)² > n``, ``t`` stepped by one, those that pass
    the sieve.  About one in ten is prime at 256 bits."""
    rng = random.Random(seed)
    f = _proved_prime((bits + 1) // 2 + 1, rng)
    n = (rng.getrandbits(bits) | 3 << (bits - 2)) // (2 * f) * (2 * f) + 1
    cases = []
    while len(cases) < count:
        if asymmetric._sieve_prime(n):
            cases.append((n, f))
        n += 2 * f
    return cases


@st.composite
def pocklington_args(draw):
    """``(n, f)`` with ``n = 2tf + 1`` over a prime ``f``: ``n`` of 8 to
    300 bits, half of them within two bits of the crossover, and stepped
    on to a probable prime half the time; ``f`` a small prime (the gcd
    half rejects about one prime ``n`` in ``f``) or a proved prime of up
    to half ``n``'s bits."""
    bits = draw(st.one_of(
        st.integers(8, 300),
        st.integers(_NATIVE_MODEXP_BITS - 2, _NATIVE_MODEXP_BITS + 2),
    ))
    f = draw(st.one_of(
        st.sampled_from((3, 5, 7, 11, 13)),
        st.builds(lambda f_bits, seed: _proved_prime(f_bits, random.Random(seed)),
                  st.integers(3, bits // 2 + 1), st.integers(0, 2**32)),
    ))
    step = 2 * f
    t = draw(st.integers(-(-(1 << (bits - 1)) // step), ((1 << bits) - 2) // step))
    n = step * t + 1
    if draw(st.booleans()):
        while not _probable_prime(n):
            n += step
    return n, f


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
    assert isinstance(asymmetric._workspace(), asymmetric._Workspace)


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


@given(pocklington_args())
@example(_GCD_REJECTS[_NATIVE_MODEXP_BITS - 1])
@example(_GCD_REJECTS[_NATIVE_MODEXP_BITS])
@example(_GCD_REJECTS[256])
def test_pocklington_equals_its_definition(args):
    assert _pocklington(*args) == _pow_pocklington(*args)


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


def test_failed_bn_call_raises(monkeypatch):
    """Fail closed: every status the workspace reads is checked where it
    is returned.  Each libcrypto call, stubbed to report failure (a 0
    status, a NULL pointer), makes ``_modexp`` or ``_pocklington`` raise
    ``RuntimeError`` rather than return a value, and so does a
    ``BN_new`` or ``BN_MONT_CTX_new`` that fails while a thread makes
    its workspace."""
    if asymmetric._BN is None:
        pytest.skip("no libcrypto bound")
    lib = asymmetric._BN
    # the Fermat half passes, so the test reaches its gcd half
    n, f = _GCD_REJECTS[_NATIVE_MODEXP_BITS]
    calls = [
        (_modexp, pow, (2, AT - 2, AT), ("BN_bin2bn", "BN_mod_exp", "BN_bn2binpad")),
        (_pocklington, _pow_pocklington, (n, f),
         ("BN_bin2bn", "BN_MONT_CTX_set", "BN_mod_exp_mont_word", "BN_mod_exp_mont",
          "BN_sub_word", "BN_gcd")),
    ]
    for fn, reference, args, names in calls:
        for name in names:
            with monkeypatch.context() as stubbed:
                stubbed.setattr(lib, name, lambda *_: 0)
                with pytest.raises(RuntimeError, match="libcrypto"):
                    fn(*args)
        assert fn(*args) == reference(*args)

    raised = []

    def first_native_call():
        try:
            _modexp(2, 3, AT)
        except RuntimeError as exc:
            raised.append(exc)

    for name in ("BN_new", "BN_MONT_CTX_new"):
        with monkeypatch.context() as stubbed:
            stubbed.setattr(lib, name, lambda: None)
            thread = threading.Thread(target=first_native_call)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert len(raised) == 2


def _run_two_threads(worker):
    """``worker(seed)`` on two threads at once, under a short switch
    interval so that they interleave; the seeds that finished."""
    done = []

    def run(seed: int):
        worker(seed)
        done.append(seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return sorted(done)


def test_two_threads_agree_with_pow():
    """Each thread has its own workspace and ctypes drops the GIL around
    each libcrypto call, so two threads interleave inside it."""
    def mixed(seed: int):
        rng = random.Random(seed)
        for i in range(2000):
            bits = (64, _NATIVE_MODEXP_BITS, 256, 512)[i % 4]
            n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            yield rng.getrandbits(bits + 8), rng.getrandbits(bits), n

    mismatches = []

    def worker(seed: int):
        for args in mixed(seed):
            if _modexp(*args) != pow(*args):
                mismatches.append(args)

    assert _run_two_threads(worker) == [1, 2]
    assert mismatches == []


def test_two_threads_agree_on_pocklington():
    """The same for whole Pocklington tests: each thread's sequence runs
    on its own ``BN``s, so neither sees the other's operands."""
    cases = [case for bits in (_NATIVE_MODEXP_BITS - 1, _NATIVE_MODEXP_BITS, 129, 256)
             for case in _sieved_candidates(bits, 150)]
    expected = {case: _pow_pocklington(*case) for case in cases}
    assert any(expected.values()) and not all(expected.values())
    mismatches = []

    def worker(seed: int):
        order = random.Random(seed).sample(cases, len(cases))
        for _ in range(4):
            for case in order:
                if _pocklington(*case) != expected[case]:
                    mismatches.append(case)

    assert _run_two_threads(worker) == [1, 2]
    assert mismatches == []


def _rss_kib() -> int:
    """Resident set size now.  Not ``ru_maxrss``: Linux carries the
    peak across ``fork`` and ``exec``, so the suite's own peak would
    hide a leak there, even in a fresh child process."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def test_fifty_thousand_calls_leak_nothing():
    """A call allocates nothing it keeps: 50,000 native calls on one
    workspace grow the resident set by under 1 MiB (leaking one ``BN``
    per call grows it by ~2.5 MiB)."""
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


def test_thousand_threads_free_their_workspaces():
    """A workspace is freed when its thread ends: 1,000 short-lived
    threads, one after another, each making one and running one native
    Pocklington test, grow the resident set by under 1 MiB."""
    if sys.platform != "linux" or asymmetric._BN is None:
        pytest.skip("reads /proc/self/statm of the native path")
    n, f = _GCD_REJECTS[256]

    def threads(count: int):
        for _ in range(count):
            thread = threading.Thread(target=_pocklington, args=(n, f))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()

    threads(100)
    before = _rss_kib()
    threads(1000)
    assert _rss_kib() - before < 1024


def test_pow_binding_draws_the_pinned_keys(monkeypatch):
    """Where libcrypto is not bound both kernels are the builtin
    ``pow``; then ``generate`` draws ``test_keygen_vector``'s exact key,
    and the same 512-bit keys as the native path, which then decrypt
    alike."""
    native = [RsaKeyPair.generate(random.Random(seed), 512) for seed in range(3)]
    monkeypatch.setattr(asymmetric, "_BN", None)
    test_vectors.TestRsaDeterminism().test_keygen_vector()
    fallback = [RsaKeyPair.generate(random.Random(seed), 512) for seed in range(3)]
    assert [k.public.n for k in fallback] == [k.public.n for k in native]
    c = native[0].public.n // 3
    assert fallback[0]._private_op(c) == native[0]._private_op(c)
