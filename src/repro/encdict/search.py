"""``EnclDictSearch``: the dictionary searches that run inside the enclave.

This module is part of the reproduction's trusted computing base (see
DESIGN.md §10). It deliberately contains *only* the search logic; the enclave
program in :mod:`repro.encdict.enclave_app` wires it to ecalls and key
material.

Three search families correspond to the order options:

- **sorted** (ED1/ED4/ED7): one leftmost and one rightmost binary search
  (Algorithm 1), returning a single ValueID range.
- **rotated** (ED2/ED5/ED8): the special binary search of Algorithm 3 in the
  ``(ENCODE(v) - ENCODE(D[0])) mod N`` shifted space, whose probe sequence
  does not trivially reveal the rotation offset, followed by the
  postprocessing of Algorithm 2. Up to two ValueID ranges are returned; a
  single range is padded with a ``(-1, -1)`` dummy so the attribute-vector
  search always sees two (as the paper does). The published pseudocode
  leaves two corner cases open ("special handling for brevity"): a rotation
  offset of 0, and duplicates of ``D[0]``'s value wrapping around the array
  end for the smoothing/hiding kinds (the ED5 corner case of §4.1). Both are
  handled here; the duplicate-wrap case needs ``rndOffset`` to classify
  zero-shift probes, which is exactly why Algorithm 2 decrypts
  ``encRndOffset`` inside the enclave.
- **unsorted** (ED3/ED6/ED9): a linear scan over all entries (Algorithm 4),
  returning an explicit ValueID list.

All comparisons happen on order-preserving ordinals
(:meth:`~repro.columnstore.types.ValueType.ordinal`), so one code path
serves VARCHAR and INTEGER columns. Every entry access decrypts one blob
loaded from untrusted memory and is charged to the cost model; enclave
memory use is constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.columnstore.types import ValueType
from repro.crypto.pae import Pae
from repro.encdict import kernels
from repro.encdict.dictionary import EncryptedDictionary
from repro.encdict.options import EncryptedDictionaryKind, OrderOption
from repro.exceptions import QueryError
from repro.sgx.costs import CostModel

#: The dummy range the rotated search uses to pad single-range results.
DUMMY_RANGE = (-1, -1)

#: Cache-key sentinel for a partition's packed-ordinal array. A string can
#: never collide with the ``bytes`` ciphertext blobs the per-entry keys end
#: in, and the key shares the ``(table, column, partition, epoch)`` prefix,
#: so partition-granular invalidation and ``group_usage`` accounting work
#: unchanged. The full key also carries the dictionary's length and first
#: ciphertext blob: PAE IVs are draw-unique, so — exactly like the
#: blob-keyed entry cache — a different dictionary under the same name can
#: never be served another dictionary's packed ordinals.
PACKED_SENTINEL = "packed-ordinals"

#: Serialized width of one ordinal bound. 40 bytes fit the largest ordinal a
#: supported column domain can produce (a VARCHAR(255)-scale ordinal far
#: exceeds 64 bits), so both bounds of a search range are fixed-width and the
#: ciphertext length cannot leak the queried values' magnitudes.
ORDINAL_BOUND_BYTES = 40

#: Serialized width of a whole :class:`OrdinalRange` (both bounds).
SEARCH_RANGE_BYTES = 2 * ORDINAL_BOUND_BYTES


@dataclass(frozen=True)
class OrdinalRange:
    """A closed search range in ordinal space.

    The proxy normalizes every filter (equality, open/half-open/closed
    ranges, exclusive bounds) to a closed ordinal interval before
    encryption, exploiting that column domains are finite and discrete:
    ``v > x`` is ``v >= x + 1`` in ordinal space.
    """

    low: int
    high: int

    @property
    def is_empty(self) -> bool:
        return self.low > self.high

    def to_bytes(self) -> bytes:
        low = self.low.to_bytes(ORDINAL_BOUND_BYTES, "big", signed=True)
        high = self.high.to_bytes(ORDINAL_BOUND_BYTES, "big", signed=True)
        return low + high

    @classmethod
    def from_bytes(cls, data: bytes) -> "OrdinalRange":
        if len(data) != SEARCH_RANGE_BYTES:
            raise QueryError("malformed search-range payload")
        return cls(
            int.from_bytes(data[:ORDINAL_BOUND_BYTES], "big", signed=True),
            int.from_bytes(data[ORDINAL_BOUND_BYTES:], "big", signed=True),
        )


@dataclass
class SearchResult:
    """Outcome of ``EnclDictSearch``: ValueID ranges or an explicit list."""

    ranges: tuple[tuple[int, int], ...] = ()
    vids: tuple[int, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.vids and all(r == DUMMY_RANGE for r in self.ranges)

    def matched_vid_count(self) -> int:
        from_ranges = sum(
            high - low + 1 for low, high in self.ranges if (low, high) != DUMMY_RANGE
        )
        return from_ranges + len(self.vids)


@dataclass
class CachedEntry:
    """One memoized decryption: plaintext, decoded value, lazy ordinal.

    ``ordinal`` starts as ``None`` and is backfilled on first use; the entry
    is cached by reference, so the backfill persists and repeated binary
    searches skip both the decryption *and* the ``ENCODE`` computation.
    """

    plaintext: bytes
    value: object
    ordinal: int | None = None


def cached_entry_footprint(blob: bytes, plaintext: bytes) -> int:
    """Bytes one cache entry is charged for: key blob + plaintext + decoded
    value and bookkeeping overhead (a fixed conservative constant)."""
    return len(blob) + 2 * len(plaintext) + 64


class DictionaryAccessor:
    """Loads, authenticates and decodes dictionary entries for the searches.

    For an encrypted dictionary this decrypts with the per-column key; for
    the PlainDBDB baseline (``encrypted=False``) it only deserializes. Every
    access is charged to the cost model, and the probe sequence is recorded
    so tests can assert access-pattern properties.

    When an :class:`~repro.sgx.cache.EnclaveLruCache` is attached, decrypted
    entries are memoized per ``(table, column, epoch, ciphertext)``. Keying
    by the ciphertext blob itself makes a stale hit structurally impossible
    — a different blob is a different key — while the epoch (bumped by the
    enclave on every write ecall) bounds the lifetime of dead entries after
    re-encryption. Cache hits skip the PAE decryption (and its cost-model
    charge) but are still recorded in the probe log and charged as untrusted
    loads, so the access pattern the server observes is unchanged.
    """

    def __init__(
        self,
        dictionary: EncryptedDictionary,
        *,
        key: bytes | None,
        pae: Pae | None,
        cost_model: CostModel | None = None,
        cache=None,
        cache_epoch: int = 0,
    ) -> None:
        if dictionary.encrypted and (key is None or pae is None):
            raise QueryError("encrypted dictionary requires a key and PAE backend")
        self._dictionary = dictionary
        self._key = key
        self._pae = pae
        self._cost = cost_model
        self._cache = cache
        self._cache_epoch = cache_epoch
        # Cache-key prefix, built once: every probe of this accessor shares
        # the same (table, column, partition, epoch) tuple. Partitions of
        # one column carry independent dictionaries, so their cached
        # plaintext must never collide — and keying by partition lets the
        # enclave invalidate exactly the partition a write touched.
        self._cache_prefix = (
            dictionary.table_name,
            dictionary.column_name,
            getattr(dictionary, "partition_id", 0),
            cache_epoch,
        )
        self._packed: object | None = None  # numpy array once attached
        self.probes: list[int] = []

    def __len__(self) -> int:
        return len(self._dictionary)

    @property
    def value_type(self) -> ValueType:
        return self._dictionary.value_type

    def _decrypt_blob(self, blob: bytes) -> CachedEntry:
        """Decrypt + decode one ciphertext blob, through the cache if any."""
        cache = self._cache
        if cache is not None:
            cache_key = self._cache_prefix + (blob,)
            cached = cache.get(cache_key)
            if cached is not None:
                return cached
        plaintext = self._pae.decrypt(self._key, blob)
        if self._cost is not None:
            self._cost.record_decryption(len(blob))
        entry = CachedEntry(plaintext, self._dictionary.value_type.from_bytes(plaintext))
        if cache is not None:
            cache.put(cache_key, entry, cached_entry_footprint(blob, plaintext))
        return entry

    @property
    def packed(self):
        """The attached packed-ordinal array, or ``None``."""
        return self._packed

    def charge_probes(self, count: int) -> None:
        """Charge ``count`` probes (one untrusted load + one comparison
        each) in a single locked update — the batched equivalent of the
        per-probe charge in :meth:`ordinal`."""
        cost = self._cost
        if cost is not None and count > 0:
            with cost._lock:
                cost.untrusted_loads += count
                cost.comparisons += count

    def packed_ordinals(self, *, fill: bool):
        """The partition's packed-ordinal array, via the enclave cache.

        Returns the array when it is already resident (or already attached
        to this accessor); with ``fill=True`` a missing array is built by
        decrypting the whole dictionary once (every entry charged to the
        cost model, exactly like a cold linear scan) and cached under the
        partition's key prefix. ``fill=False`` never decrypts — the
        logarithmic searches use the packed array opportunistically but
        must not trade their O(log n) decryption count for an O(n) fill.
        """
        if self._packed is not None:
            return self._packed
        cache = self._cache
        cache_key = None
        if cache is not None:
            dictionary = self._dictionary
            n = len(dictionary)
            cache_key = self._cache_prefix + (
                PACKED_SENTINEL,
                n,
                dictionary.entry(0) if n else b"",
            )
            packed = cache.get(cache_key)
            if packed is not None:
                self._packed = packed
                return packed
        if not fill:
            return None
        packed = self._fill_packed()
        if cache is not None:
            cache.put(cache_key, packed, kernels.packed_footprint(packed))
        self._packed = packed
        return packed

    def _fill_packed(self):
        """Decrypt-once: every entry's ordinal, packed into one array.

        Charges one decryption per entry (the same logical count a cold
        scalar linear scan pays) in a single locked cost-model update, and
        decrypts through the PAE batch API so the whole partition reuses
        one cipher context.
        """
        dictionary = self._dictionary
        value_type = dictionary.value_type
        blobs = [dictionary.entry(i) for i in range(len(dictionary))]
        if not dictionary.encrypted:
            plaintexts = blobs
        else:
            plaintexts = self._pae.decrypt_many(self._key, blobs)
            if self._cost is not None:
                self._cost.record_decryption_batch(
                    len(blobs), sum(len(blob) for blob in blobs)
                )
        return kernels.pack_ordinals(
            [value_type.ordinal(value_type.from_bytes(p)) for p in plaintexts]
        )

    def ordinal(self, index: int) -> int:
        """``ENCODE`` of entry ``index`` (one comparison-ready integer)."""
        packed = self._packed
        if packed is not None:
            # Packed fast path: the plaintext ordinal is enclave-resident,
            # so no decryption happens — but the probe is still logged and
            # charged as a load + comparison, the same contract as an
            # entry-cache hit (module docstring of repro.sgx.cache).
            self.probes.append(index)
            self.charge_probes(1)
            return int(packed[index])
        self.probes.append(index)
        blob = self._dictionary.entry(index)
        cost = self._cost
        if cost is not None:
            # Inlined record_untrusted_load()/record_comparison() under one
            # lock acquisition: this is the hottest line of every search
            # (once per probe), and the counters stay lock-disciplined.
            with cost._lock:
                cost.untrusted_loads += 1
                cost.comparisons += 1
        if not self._dictionary.encrypted:
            return self._dictionary.value_type.ordinal(
                self._dictionary.value_type.from_bytes(blob)
            )
        entry = self._decrypt_blob(blob)
        if entry.ordinal is None:
            entry.ordinal = self._dictionary.value_type.ordinal(entry.value)
        return entry.ordinal

    def rotation_offset(self) -> int:
        """Decrypt ``encRndOffset`` (Algorithm 2 line 3)."""
        blob = self._dictionary.enc_rnd_offset
        if blob is None:
            raise QueryError("dictionary carries no rotation offset")
        if not self._dictionary.encrypted:
            return int.from_bytes(blob, "big")
        if self._cache is not None:
            cache_key = self._cache_prefix + (blob,)
            cached = self._cache.get(cache_key)
            if cached is not None:
                return cached.value
        plaintext = self._pae.decrypt(self._key, blob)
        if self._cost is not None:
            self._cost.record_decryption(len(blob))
        offset = int.from_bytes(plaintext, "big")
        if self._cache is not None:
            self._cache.put(
                cache_key,
                CachedEntry(plaintext, offset),
                cached_entry_footprint(blob, plaintext),
            )
        return offset


# ----------------------------------------------------------------------
# Shared binary-search helpers (half-open interval [low, high))
# ----------------------------------------------------------------------


def _leftmost(low: int, high: int, below_target: Callable[[int], bool]) -> int:
    """First index in ``[low, high)`` where ``below_target`` turns False."""
    while low < high:
        mid = (low + high) // 2
        if below_target(mid):
            low = mid + 1
        else:
            high = mid
    return low


def search_sorted(accessor: DictionaryAccessor, search: OrdinalRange) -> SearchResult:
    """``EnclDictSearch`` for ED1/ED4/ED7 (Algorithm 1).

    A leftmost binary search locates where the range starts, a rightmost
    one where it ends; duplicates from frequency smoothing/hiding are
    handled inherently.
    """
    n = len(accessor)
    if n == 0 or search.is_empty:
        return SearchResult(ranges=(DUMMY_RANGE, DUMMY_RANGE))
    vid_min = _leftmost(0, n, lambda i: accessor.ordinal(i) < search.low)
    vid_max = _leftmost(0, n, lambda i: accessor.ordinal(i) <= search.high) - 1
    if vid_min > vid_max:
        return SearchResult(ranges=(DUMMY_RANGE, DUMMY_RANGE))
    return SearchResult(ranges=((vid_min, vid_max), DUMMY_RANGE))


def search_unsorted(accessor: DictionaryAccessor, search: OrdinalRange) -> SearchResult:
    """``EnclDictSearch`` for ED3/ED6/ED9 (Algorithm 4): linear scan.

    With a packed-ordinal array attached the scan is one boolean-mask
    kernel (:func:`repro.encdict.kernels.unsorted_scan`); results, the
    probe log, and the logical cost charges (one untrusted load + one
    comparison per entry) are identical to the scalar loop, which remains
    below as the reference oracle.
    """
    if search.is_empty:
        return SearchResult(vids=())
    packed = accessor.packed
    if packed is not None:
        n = len(accessor)
        accessor.probes.extend(range(n))
        accessor.charge_probes(n)
        return SearchResult(
            vids=kernels.unsorted_scan(packed, search.low, search.high)
        )
    vids = tuple(
        index
        for index in range(len(accessor))
        if search.low <= accessor.ordinal(index) <= search.high
    )
    return SearchResult(vids=vids)


def search_rotated(accessor: DictionaryAccessor, search: OrdinalRange) -> SearchResult:
    """``EnclDictSearch`` for ED2/ED5/ED8 (Algorithms 2 and 3).

    Works in the shifted ordinal space ``c(i) = (ENCODE(D[i]) - r) mod N``
    with ``r = ENCODE(D[0])``, in which the rotated dictionary is sorted
    except for a possible run of ``D[0]``-duplicates wrapped to the array
    end. The plaintext matches are exactly the entries whose shifted ordinal
    lies in the circular interval ``[t_s, t_e]`` (the mod-N shift is a
    bijection preserving circular intervals), yielding one or two physical
    ValueID ranges.
    """
    n = len(accessor)
    if n == 0 or search.is_empty:
        return SearchResult(ranges=(DUMMY_RANGE, DUMMY_RANGE))

    modulus = accessor.value_type.domain_size
    # Algorithm 2 line 3: the rotation offset is decrypted inside the
    # enclave on every query (it is needed for the duplicate-wrap corner
    # case below, and decrypting unconditionally keeps the access pattern
    # query-independent and authenticates the stored offset).
    rnd_offset = accessor.rotation_offset()
    reference = accessor.ordinal(0)  # r = ENCODE(PAE_Dec(SKD, eD[0]))
    t_start_value = (search.low - reference) % modulus
    t_end_value = (search.high - reference) % modulus

    def shifted(index: int) -> int:
        return (accessor.ordinal(index) - reference) % modulus

    # Locate the trailing run of D[0]-duplicates wrapped past the rotation
    # point (the ED5/ED8 corner case). It exists only when the last entry
    # equals D[0]'s value, and then starts within [rndOffset, n).
    trailing_start = n
    if n > 1:
        # Probe the last entry unconditionally so the probe prefix stays
        # independent of the secret offset.
        last_entry_wraps = shifted(n - 1) == 0
        if rnd_offset > 0 and last_entry_wraps:
            trailing_start = _leftmost(rnd_offset, n, lambda i: shifted(i) != 0)

    # Within [0, trailing_start) the shifted sequence is non-decreasing:
    # zeros (D[0]-duplicates), then strictly greater shifted ordinals.
    sorted_end = trailing_start
    first_at_or_above_start = _leftmost(
        0, sorted_end, lambda i: shifted(i) < t_start_value
    )
    last_at_or_below_end = (
        _leftmost(0, sorted_end, lambda i: shifted(i) <= t_end_value) - 1
    )

    ranges: list[tuple[int, int]] = []
    has_trailing = trailing_start < n
    if t_start_value == 0:
        # The range starts exactly at D[0]'s value: the leading duplicates
        # (and any prefix of larger matches) match, plus the whole trailing
        # run.
        ranges.append((0, last_at_or_below_end))
        if has_trailing:
            ranges.append((trailing_start, n - 1))
    elif t_start_value <= t_end_value:
        # No wrap in shifted space: at most one contiguous physical range.
        if first_at_or_above_start <= last_at_or_below_end:
            ranges.append((first_at_or_above_start, last_at_or_below_end))
    else:
        # Wrap: the plaintext range contains D[0]'s value, so the lower part
        # always matches from index 0; the upper part (values >= range
        # start) runs to the end of the array if it exists.
        ranges.append((0, last_at_or_below_end))
        if first_at_or_above_start < sorted_end:
            ranges.append((first_at_or_above_start, n - 1))
        elif has_trailing:
            ranges.append((trailing_start, n - 1))

    while len(ranges) < 2:
        ranges.append(DUMMY_RANGE)
    return SearchResult(ranges=tuple(ranges[:2]))


_SEARCHERS = {
    OrderOption.SORTED: search_sorted,
    OrderOption.ROTATED: search_rotated,
    OrderOption.UNSORTED: search_unsorted,
}


class DictionarySearcher:
    """Dispatches ``EnclDictSearch`` by encrypted-dictionary kind.

    With ``vectorized=True`` (the fast path's default) each search first
    tries the partition's packed-ordinal array: the unsorted family fills
    it eagerly (decrypt-once, then the boolean-mask kernel — its cold cost
    already equals a full decrypt pass), while the logarithmic sorted and
    rotated searches attach it only when already resident, keeping their
    O(log n) decryption profile intact. ``vectorized=False`` is the scalar
    reference path the paper figures are reproduced against.
    """

    def __init__(
        self,
        pae: Pae,
        cost_model: CostModel | None = None,
        cache=None,
        *,
        vectorized: bool = True,
    ) -> None:
        self._pae = pae
        self._cost = cost_model
        self._cache = cache
        self._vectorized = vectorized

    def search(
        self,
        dictionary: EncryptedDictionary,
        search: OrdinalRange,
        *,
        key: bytes | None,
        cache_epoch: int = 0,
    ) -> SearchResult:
        kind = dictionary.kind
        order = kind.order if kind is not None else OrderOption.SORTED
        accessor = DictionaryAccessor(
            dictionary,
            key=key,
            pae=self._pae,
            cost_model=self._cost,
            cache=self._cache,
            cache_epoch=cache_epoch,
        )
        if self._vectorized and len(dictionary) > 0 and not search.is_empty:
            accessor.packed_ordinals(fill=order is OrderOption.UNSORTED)
        return _SEARCHERS[order](accessor, search)


def plain_search(
    dictionary: EncryptedDictionary,
    search: OrdinalRange,
    *,
    kind: EncryptedDictionaryKind | None = None,
    cost_model: CostModel | None = None,
) -> SearchResult:
    """PlainDBDB's dictionary search: same algorithms, no enclave, no PAE."""
    accessor = DictionaryAccessor(dictionary, key=None, pae=None, cost_model=cost_model)
    effective_kind = kind if kind is not None else dictionary.kind
    order = effective_kind.order if effective_kind is not None else OrderOption.SORTED
    return _SEARCHERS[order](accessor, search)
