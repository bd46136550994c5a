"""The encrypted dictionary data structure (paper §5).

Following the MonetDB integration, each dictionary is split into a
*dictionary head* of fixed-size offsets (ordered according to the selected
encrypted dictionary) and a *dictionary tail* holding the variable-length
PAE blobs. The split supports variable-length values while enabling an
efficient binary search over the head. The whole structure lives in
**untrusted** memory; the enclave loads single entries on demand, which is
why the required enclave memory is constant and independent of ``|D|``.

The same layout with raw value bytes instead of PAE blobs backs PlainDBDB
(``encrypted=False``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.columnstore.dictionary import attribute_vector_bytes_per_entry
from repro.columnstore.types import ValueType
from repro.encdict.options import EncryptedDictionaryKind

#: Fixed size of one dictionary-head slot (an offset into the tail).
HEAD_ENTRY_BYTES = 8


@dataclass
class EncryptedDictionary:
    """Head/tail encrypted dictionary plus its column metadata.

    ``enc_rnd_offset`` is the PAE-encrypted rotation offset attached by
    ``EncDB 2/5/8``; it is ``None`` for the other kinds. The query
    evaluation engine enriches the structure with the table/column names the
    enclave needs to derive ``SKD`` (paper §4.2 step 7).
    """

    kind: EncryptedDictionaryKind | None
    value_type: ValueType
    table_name: str
    column_name: str
    offsets: np.ndarray  # int64, len = entries + 1; entry i = tail[o[i]:o[i+1]]
    tail: bytes
    enc_rnd_offset: bytes | None = None
    encrypted: bool = True
    #: Server-side partition bookkeeping: which main-store partition of the
    #: column this dictionary backs (−1 = the ED9 delta store). Deliberately
    #: NOT registered on the wire (``net/protocol.py``) — partition layout
    #: is assigned by the server and must not cross the network.
    partition_id: int = 0
    #: Which column-key epoch the blobs are encrypted under (online key
    #: rotation, ``repro.migrate``). Epoch 0 is the original column key.
    #: Like ``partition_id`` this is server-side bookkeeping and is not
    #: registered on the wire — owner-shipped builds are always epoch 0.
    key_epoch: int = 0
    #: Lazily materialized ``offsets.tolist()``: plain-int indexing is far
    #: cheaper than numpy scalar indexing on the per-probe hot path.
    _offsets_list: list | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_blobs(
        cls,
        blobs: list[bytes],
        *,
        kind: EncryptedDictionaryKind | None,
        value_type: ValueType,
        table_name: str,
        column_name: str,
        enc_rnd_offset: bytes | None = None,
        encrypted: bool = True,
        partition_id: int = 0,
        key_epoch: int = 0,
    ) -> "EncryptedDictionary":
        offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
        np.cumsum([len(blob) for blob in blobs], out=offsets[1:])
        return cls(
            kind=kind,
            value_type=value_type,
            table_name=table_name,
            column_name=column_name,
            offsets=offsets,
            tail=b"".join(blobs),
            enc_rnd_offset=enc_rnd_offset,
            encrypted=encrypted,
            partition_id=partition_id,
            key_epoch=key_epoch,
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def entry(self, index: int) -> bytes:
        """The raw (encrypted) blob of dictionary entry ``index``."""
        offsets = self._offsets_list
        if offsets is None:
            offsets = self._offsets_list = self.offsets.tolist()
        if not 0 <= index < len(offsets) - 1:
            raise IndexError(f"dictionary index {index} out of range 0..{len(self)-1}")
        return self.tail[offsets[index]:offsets[index + 1]]

    def entries_at(self, indices: np.ndarray) -> list[bytes]:
        """The raw blobs of the entries ``indices``, in that order."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and (indices.min() < 0 or indices.max() >= len(self)):
            raise IndexError(f"dictionary index out of range 0..{len(self)-1}")
        tail = self.tail
        return [
            tail[start:end]
            for start, end in zip(
                self.offsets[indices].tolist(), self.offsets[indices + 1].tolist()
            )
        ]

    def entries(self) -> Iterator[bytes]:
        """Iterate over all blobs (used by the linear unsorted search)."""
        for index in range(len(self)):
            yield self.entry(index)

    # ------------------------------------------------------------------
    # Storage accounting (paper Table 6)
    # ------------------------------------------------------------------
    def head_bytes(self) -> int:
        return len(self) * HEAD_ENTRY_BYTES

    def tail_bytes(self) -> int:
        return len(self.tail)

    def storage_bytes(self) -> int:
        extra = len(self.enc_rnd_offset) if self.enc_rnd_offset else 0
        return self.head_bytes() + self.tail_bytes() + extra

    def attribute_vector_bytes(self, av_length: int) -> int:
        """Packed size of an attribute vector referencing this dictionary."""
        return av_length * attribute_vector_bytes_per_entry(max(len(self), 1))
