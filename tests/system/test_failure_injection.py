"""Failure injection: tampering and corruption across the stack.

The paper's PAE gives confidentiality + integrity + authenticity per value,
and the storage layer adds a whole-file integrity check. These tests verify
that every tampering path is *detected* — and document the one that is not:
the plaintext attribute vector, which EncDBDB (like the paper) deliberately
leaves outside the authenticated envelope.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EncDBDBSystem
from repro.exceptions import AuthenticationError, StorageError


@pytest.fixture
def system() -> EncDBDBSystem:
    system = EncDBDBSystem.create(seed=123)
    system.execute("CREATE TABLE t (name ED1 VARCHAR(10), score ED9 INTEGER)")
    system.execute(
        "INSERT INTO t VALUES ('alpha', 1), ('beta', 2), ('gamma', 3)"
    )
    system.merge("t")  # move everything into a main store
    return system


def _flip_byte(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]


def test_tampered_dictionary_tail_detected(system):
    """Flipping one ciphertext bit in the dictionary fails the GCM tag."""
    column = system.server.catalog.table("t").column("name")
    dictionary = column.main_build.dictionary
    dictionary.tail = _flip_byte(dictionary.tail, len(dictionary.tail) // 2)
    with pytest.raises(AuthenticationError):
        system.query("SELECT name FROM t WHERE name >= 'a'")


def test_tampered_delta_blob_detected(system):
    system.execute("INSERT INTO t VALUES ('delta', 4)")
    column = system.server.catalog.table("t").column("name")
    column.delta_blobs[0] = _flip_byte(column.delta_blobs[0], 20)
    with pytest.raises(AuthenticationError):
        system.query("SELECT name FROM t WHERE name >= 'a'")


def test_tampered_rotation_offset_detected():
    system = EncDBDBSystem.create(seed=124)
    system.execute("CREATE TABLE r (v ED2 VARCHAR(5))")
    system.execute("INSERT INTO r VALUES ('a'), ('b'), ('c')")
    column = system.server.catalog.table("r").column("v")
    dictionary = column._delta_dictionary  # delta is ED9: no offset there
    system.merge("r")  # main store is ED2 with an encrypted offset
    main_dictionary = column.main_build.dictionary
    assert main_dictionary.enc_rnd_offset is not None
    main_dictionary.enc_rnd_offset = _flip_byte(main_dictionary.enc_rnd_offset, 5)
    with pytest.raises(AuthenticationError):
        system.query("SELECT v FROM r WHERE v = 'a'")


def test_swapped_result_blob_detected_at_proxy(system):
    """A malicious server substituting a blob from another column fails the
    proxy's decryption (per-column keys)."""
    original = system.server.execute_select

    def substitute(plan):
        result = original(plan)
        score_build = system.server.catalog.table("t").column("score").partition_builds[0]
        foreign_blob = score_build.dictionary.entries_at(score_build.attribute_vector[:1])[0]
        for column in result.columns.values():
            if column.encrypted and column.values:
                column.values[0] = foreign_blob
        return result

    system.server.execute_select = substitute
    try:
        with pytest.raises(AuthenticationError):
            system.query("SELECT name FROM t WHERE name >= 'a'")
    finally:
        system.server.execute_select = original


def test_corrupted_database_file_detected(tmp_path, system):
    path = tmp_path / "db.encdbdb"
    system.save(path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))

    from repro.columnstore.storage import load_database

    with pytest.raises(StorageError):
        load_database(path)


def test_truncated_database_file_detected(tmp_path, system):
    path = tmp_path / "db.encdbdb"
    system.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])

    from repro.columnstore.storage import load_database

    with pytest.raises(StorageError):
        load_database(path)


def test_not_a_database_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"definitely not a database")

    from repro.columnstore.storage import load_database

    with pytest.raises(StorageError):
        load_database(path)


def test_attribute_vector_tampering_is_undetected_by_design(system):
    """Known limitation (matches the paper): AV entries are plaintext
    integers outside the authenticated envelope, so swapping two of them
    silently permutes results. Integrity of the *values* still holds — the
    returned blobs decrypt fine — but row association can be altered by the
    honest-but-curious-turned-active server. The paper's attacker model is
    passive (§3.2), so this is out of scope there too."""
    column = system.server.catalog.table("t").column("name")
    av = column.main_build.attribute_vector
    av[0], av[1] = int(av[1]), int(av[0])
    result = system.query("SELECT name FROM t WHERE name >= 'a' ORDER BY name")
    # No exception: values decrypt, but rows were silently reassociated.
    assert sorted(r[0] for r in result) == ["alpha", "beta", "gamma"]


def test_imposter_proxy_key_cannot_read(system):
    """A proxy with a wrong master key cannot decrypt results."""
    from repro.client.proxy import Proxy
    from repro.crypto.drbg import HmacDrbg
    from repro.crypto.pae import default_pae, pae_gen

    imposter = Proxy(
        system.server,
        pae_gen(rng=HmacDrbg(b"wrong-key")),
        default_pae(rng=HmacDrbg(b"p")),
    )
    imposter.register_schema("t", system.server.catalog.table("t").specs)
    with pytest.raises(AuthenticationError):
        imposter.execute("SELECT name FROM t WHERE name != 'zzz'")
