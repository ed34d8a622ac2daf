"""Tests for the authenticated tunnel-layer cipher (AES-256-GCM)."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.crypto import symmetric
from repro.crypto.symmetric import _TAG_BYTES, CipherError, SymmetricKey


class TestSealOpen:
    @given(plaintext=st.binary(max_size=500))
    def test_roundtrip(self, plaintext):
        key = SymmetricKey(b"0123456789abcdef")
        assert key.open(key.seal(plaintext)) == plaintext

    def test_distinct_key_instances_interoperate(self):
        a = SymmetricKey(b"0123456789abcdef")
        b = SymmetricKey(b"0123456789abcdef")
        assert b.open(a.seal(b"msg")) == b"msg"

    def test_wrong_key_rejected(self):
        a = SymmetricKey(b"0123456789abcdef")
        b = SymmetricKey(b"fedcba9876543210")
        with pytest.raises(CipherError):
            b.open(a.seal(b"msg"))

    def test_tampered_ciphertext_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(b"payload"))
        sealed[14] ^= 0x01  # a ciphertext byte: the nonce is bytes 0-11
        with pytest.raises(CipherError):
            key.open(bytes(sealed))

    def test_tampered_tag_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(b"payload"))
        sealed[-1] ^= 0x01
        with pytest.raises(CipherError):
            key.open(bytes(sealed))

    def test_tag_with_only_its_first_byte_flipped_rejected(self):
        """The other end of the tag from ``test_tampered_tag_rejected``:
        15 of 16 bytes right is still a mismatch."""
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(b"payload"))
        sealed[-_TAG_BYTES] ^= 0x80
        with pytest.raises(CipherError):
            key.open(bytes(sealed))

    def test_truncated_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        with pytest.raises(CipherError):
            key.open(b"short")

    def test_nonces_differ_between_seals(self):
        key = SymmetricKey(b"0123456789abcdef")
        s1 = key.seal(b"same")
        s2 = key.seal(b"same")
        assert s1 != s2  # deterministic counter nonce advances

    def test_explicit_nonce_reproducible(self):
        key = SymmetricKey(b"0123456789abcdef")
        n = b"\x00" * 12
        assert key.seal(b"m", nonce=n) == key.seal(b"m", nonce=n)

    def test_bad_nonce_length_rejected(self):
        key = SymmetricKey(b"0123456789abcdef")
        for nonce in (b"short", b"\x00" * 8, b"\x00" * 13, bytearray(11),
                      memoryview(b"\x00" * 13)):
            with pytest.raises(ValueError):
                key.seal(b"m", nonce=nonce)

    def test_overhead_constant(self):
        key = SymmetricKey(b"0123456789abcdef")
        for size in (0, 1, 100, 1000):
            assert len(key.seal(b"x" * size)) == size + SymmetricKey.overhead()

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")

    def test_empty_plaintext(self):
        key = SymmetricKey(b"0123456789abcdef")
        assert key.open(key.seal(b"")) == b""

    @given(
        plaintext=st.binary(min_size=1, max_size=64),
        flip=st.integers(min_value=0, max_value=7),
    )
    def test_any_single_bit_flip_detected(self, plaintext, flip):
        key = SymmetricKey(b"0123456789abcdef")
        sealed = bytearray(key.seal(plaintext, nonce=b"\x01" * 12))
        byte = flip % len(sealed)
        sealed[byte] ^= 1 << (flip % 8)
        with pytest.raises(CipherError):
            key.open(bytes(sealed))


class TestNativeContext:
    """A key owns one libcrypto cipher context: made and keyed once,
    never shared, freed exactly once, every status checked."""

    @pytest.mark.parametrize("duplicate", (copy.copy, copy.deepcopy, pickle.dumps))
    def test_copy_and_pickle_raise(self, duplicate):
        """A copy would share the context (and repeat the nonces), so
        copying and pickling raise ``TypeError``."""
        key = SymmetricKey(b"0123456789abcdef")
        with pytest.raises(TypeError, match="cannot be copied or pickled"):
            duplicate(key)
        assert key.open(key.seal(b"still mine")) == b"still mine"

    def test_failed_init_frees_cleanly(self, monkeypatch):
        """A key whose ``__init__`` raised, before or after it made its
        context, is collected without an unraisable error."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(ValueError):
            SymmetricKey(b"short")
        for name, failed in (("EVP_CIPHER_CTX_new", lambda: None),
                             ("EVP_CipherInit_ex", lambda *_: 0)):
            with monkeypatch.context() as stubbed:
                stubbed.setattr(symmetric._LIBCRYPTO, name, failed)
                with pytest.raises(RuntimeError, match="libcrypto"):
                    SymmetricKey(b"0123456789abcdef")
        gc.collect()
        assert unraisable == []

    def test_keys_alive_at_exit_free_cleanly(self):
        """Keys still referenced at interpreter exit, one in a cycle,
        are freed during teardown without an error."""
        probe = (
            "from repro.crypto.symmetric import SymmetricKey\n"
            "kept = SymmetricKey(b'0123456789abcdef')\n"
            "cycle = [SymmetricKey(b'fedcba9876543210')]\n"
            "cycle.append(cycle)\n"
            "kept.seal(b'x')\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.parametrize("name, fake, open_raises", [
        ("EVP_CipherInit_ex", lambda *_: 0, RuntimeError),
        ("EVP_CipherUpdate", lambda *_: 0, RuntimeError),
        # reports success but writes one byte short
        ("EVP_CipherUpdate", lambda ctx, out, written, data, length:
            setattr(written._obj, "value", length - 1) or 1, RuntimeError),
        ("EVP_CIPHER_CTX_ctrl", lambda *_: 0, RuntimeError),
        # on open a failed Final is a tag that did not verify
        ("EVP_CipherFinal_ex", lambda *_: 0, CipherError),
        # reports success but claims to have written a byte
        ("EVP_CipherFinal_ex", lambda ctx, out, written:
            setattr(written._obj, "value", 1) or 1, RuntimeError),
    ], ids=("init-fails", "update-fails", "update-short", "ctrl-fails",
            "final-fails", "final-writes"))
    def test_failed_native_call_raises(self, name, fake, open_raises, monkeypatch):
        """Fail closed: a failed status or a wrong output length raises
        from ``seal`` and ``open`` instead of returning bytes —
        ``RuntimeError``, or ``CipherError`` where ``open``'s ``Final``
        reports that the tag did not verify."""
        key = SymmetricKey(b"0123456789abcdef")
        sealed = key.seal(b"payload")
        with monkeypatch.context() as stubbed:
            stubbed.setattr(symmetric._LIBCRYPTO, name, fake)
            with pytest.raises(RuntimeError, match="libcrypto"):
                key.seal(b"payload")
            with pytest.raises(open_raises):
                key.open(sealed)
        assert key.open(sealed) == b"payload"

    def test_length_past_c_int_raises(self):
        """``EVP_CipherUpdate`` takes a C ``int``: a message of 2**31
        bytes or more raises ``ValueError`` before any native call
        rather than being truncated (a stand-in reports the length, so
        nothing that large is allocated)."""
        class Huge:
            def __len__(self):
                return (1 << 31) + SymmetricKey.overhead()

        key = SymmetricKey(b"0123456789abcdef")
        with pytest.raises(ValueError, match="exceeds"):
            key.seal(Huge())
        with pytest.raises(ValueError, match="exceeds"):
            key.open(Huge())
        counter = key._nonce_counter
        assert key.open(key.seal(b"x")) == b"x"
        assert key._nonce_counter == counter + 1

    @pytest.mark.parametrize("exported", (False, True), ids=("no-evp", "null-cipher"))
    def test_libcrypto_without_aes_gcm_fails_the_import(self, exported, monkeypatch):
        """Where hashlib's library lacks the ``EVP_*`` functions, or its
        ``EVP_aes_256_gcm`` returns NULL, loading it raises ``ImportError``
        saying why; there is no fallback cipher."""
        names = ("EVP_aes_256_gcm", "EVP_CIPHER_CTX_new", "EVP_CIPHER_CTX_free",
                 "EVP_CipherInit_ex", "EVP_CipherUpdate", "EVP_CipherFinal_ex",
                 "EVP_CIPHER_CTX_ctrl")

        class Library:
            def __init__(self, path):
                if exported:
                    for name in names:
                        setattr(self, name, lambda *_: None)

        monkeypatch.setattr(symmetric.ctypes, "CDLL", Library)
        with pytest.raises(ImportError, match="AES-256-GCM"):
            symmetric._load_libcrypto()

    def test_keys_on_two_threads_stay_apart(self):
        """Each thread seals and opens under keys of its own; ctypes
        drops the GIL inside libcrypto, so the calls interleave, and
        every result equals the same key's result on one thread."""
        messages = [bytes([i]) * (i * 37 % 600) for i in range(200)]
        results = {}

        def run(seed: int):
            key = SymmetricKey(bytes([seed]) * 16)
            sealed = [key.seal(m) for m in messages]
            opened = [key.open(s) for s in sealed]
            results[seed] = (sealed, opened)

        expected = {}
        for seed in (1, 2):
            run(seed)
            expected[seed] = results.pop(seed)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for seed in (1, 2):
            assert results[seed] == expected[seed]
            assert expected[seed][1] == messages
