"""PAE interface tests, parametrized over both backends."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.crypto.pae import (
    PAE_KEY_BYTES,
    PAE_OVERHEAD_BYTES,
    LibraryPae,
    PurePythonPae,
    pae_gen,
)
from repro.exceptions import AuthenticationError, CryptoError


def test_roundtrip(any_pae):
    key = pae_gen(rng=HmacDrbg(b"k"))
    blob = any_pae.encrypt(key, b"Jessica")
    assert any_pae.decrypt(key, blob) == b"Jessica"


def test_probabilistic_encryption(any_pae):
    """Equal plaintexts yield different ciphertexts (fresh IV per call)."""
    key = pae_gen(rng=HmacDrbg(b"k"))
    blob1 = any_pae.encrypt(key, b"Jessica")
    blob2 = any_pae.encrypt(key, b"Jessica")
    assert blob1 != blob2
    assert any_pae.decrypt(key, blob1) == any_pae.decrypt(key, blob2)


def test_ciphertext_length_constant_overhead(any_pae):
    key = pae_gen(rng=HmacDrbg(b"k"))
    for plaintext in (b"", b"x", b"a" * 100):
        blob = any_pae.encrypt(key, plaintext)
        assert len(blob) == len(plaintext) + PAE_OVERHEAD_BYTES
        assert len(blob) == any_pae.ciphertext_length(len(plaintext))


def test_wrong_key_rejected(any_pae):
    key1 = pae_gen(rng=HmacDrbg(b"k1"))
    key2 = pae_gen(rng=HmacDrbg(b"k2"))
    blob = any_pae.encrypt(key1, b"secret")
    with pytest.raises(AuthenticationError):
        any_pae.decrypt(key2, blob)


def test_tampering_rejected(any_pae):
    key = pae_gen(rng=HmacDrbg(b"k"))
    blob = bytearray(any_pae.encrypt(key, b"secret"))
    blob[14] ^= 0x01  # flip a ciphertext bit
    with pytest.raises(AuthenticationError):
        any_pae.decrypt(key, bytes(blob))


def test_short_blob_rejected(any_pae):
    key = pae_gen(rng=HmacDrbg(b"k"))
    with pytest.raises(AuthenticationError):
        any_pae.decrypt(key, b"short")


def test_bad_key_size_rejected(any_pae):
    with pytest.raises(CryptoError):
        any_pae.encrypt(b"short", b"v")
    with pytest.raises(CryptoError):
        any_pae.decrypt(b"short", bytes(64))


def test_aad_binding(any_pae):
    key = pae_gen(rng=HmacDrbg(b"k"))
    blob = any_pae.encrypt(key, b"v", aad=b"col=FName")
    assert any_pae.decrypt(key, blob, aad=b"col=FName") == b"v"
    with pytest.raises(AuthenticationError):
        any_pae.decrypt(key, blob, aad=b"col=LName")


def test_operation_counters(any_pae):
    key = pae_gen(rng=HmacDrbg(b"k"))
    any_pae.reset_counters()
    blob = any_pae.encrypt(key, b"v")
    any_pae.decrypt(key, blob)
    any_pae.decrypt(key, blob)
    assert any_pae.encrypt_count == 1
    assert any_pae.decrypt_count == 2


def test_pae_gen_key_size():
    assert len(pae_gen()) == PAE_KEY_BYTES
    assert len(pae_gen(rng=HmacDrbg(b"s"))) == PAE_KEY_BYTES
    with pytest.raises(CryptoError):
        pae_gen(256)


def test_backends_interoperate():
    """A blob sealed by the pure backend opens under the library backend."""
    try:
        library = LibraryPae(rng=HmacDrbg(b"l"))
    except CryptoError:  # pragma: no cover
        pytest.skip("cryptography library not available")
    pure = PurePythonPae(rng=HmacDrbg(b"p"))
    key = pae_gen(rng=HmacDrbg(b"k"))
    assert library.decrypt(key, pure.encrypt(key, b"cross")) == b"cross"
    assert pure.decrypt(key, library.encrypt(key, b"ssorc")) == b"ssorc"


@settings(max_examples=25, deadline=None)
@given(plaintext=st.binary(max_size=64), aad=st.binary(max_size=16))
def test_roundtrip_property_pure_backend(plaintext: bytes, aad: bytes):
    pae = PurePythonPae(rng=HmacDrbg(b"prop"))
    key = pae_gen(rng=HmacDrbg(b"k"))
    assert pae.decrypt(key, pae.encrypt(key, plaintext, aad), aad) == plaintext


def test_library_open_matches_pure_backend():
    """Single and batch opens of the library backend return exactly what the
    pure backend returns, for blobs sealed by either backend."""
    try:
        library = LibraryPae(rng=HmacDrbg(b"l"))
    except CryptoError:  # pragma: no cover
        pytest.skip("cryptography library not available")
    pure = PurePythonPae(rng=HmacDrbg(b"p"))
    key = pae_gen(rng=HmacDrbg(b"k"))
    plaintexts = [b"", b"x", b"sixteen-byte-msg", bytes(range(200))]
    for aad in (b"", b"column"):
        blobs = [pure.encrypt(key, p, aad) for p in plaintexts] + library.encrypt_many(
            key, plaintexts, aad
        )
        expected = plaintexts + plaintexts
        assert [library.decrypt(key, blob, aad) for blob in blobs] == expected
        assert [pure.decrypt(key, blob, aad) for blob in blobs] == expected
        assert library.decrypt_many(key, blobs, aad) == expected
        assert pure.decrypt_many(key, blobs, aad) == expected


@pytest.mark.parametrize(
    "bit",
    [0, 11 * 8 + 7, 12 * 8, 15 * 8 + 3, -16 * 8, -1],
    ids=["iv-first", "iv-last", "ct-first", "ct-mid", "tag-first", "tag-last"],
)
def test_one_bit_flip_rejected_single_and_batch(any_pae, bit):
    key = pae_gen(rng=HmacDrbg(b"k"))
    good = any_pae.encrypt(key, b"sixteen-byte-msg")
    blob = bytearray(good)
    position = bit // 8 if bit >= 0 else len(blob) + bit // 8
    blob[position] ^= 1 << (bit % 8)
    with pytest.raises(AuthenticationError):
        any_pae.decrypt(key, bytes(blob))
    with pytest.raises(AuthenticationError):
        any_pae.decrypt_many(key, [good, bytes(blob)])
