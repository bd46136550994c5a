"""The query evaluation engine that runs at the (untrusted) DBaaS provider.

Evaluates plans against the column store: every range filter becomes a
dictionary search — through the enclave for encrypted columns, locally for
plaintext ones — followed by the untrusted attribute-vector search; AND/OR
nodes intersect/unite the RecordID sets; validity bits drop deleted rows;
and the result renderer reconstructs the requested columns (paper §4.2
steps 6-13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.columnstore.catalog import Catalog
from repro.columnstore.column import EncryptedStoredColumn, PlainStoredColumn
from repro.columnstore.dictionary import DictionaryEncodedColumn
from repro.columnstore.partition import DEFAULT_PARTITION_ROWS, PartitionMap
from repro.columnstore.table import Table
from repro.exceptions import QueryError
from repro.runtime import map_on_build_pool
from repro.sgx.cache import FastPathConfig
from repro.sgx.enclave import EnclaveHost
from repro.sql.planner import (
    AggregatePushdown,
    DeletePlan,
    EncryptedRangeFilter,
    FilterNode,
    FilterPlan,
    JoinSelectPlan,
    MergePlan,
    OrderPushdown,
    PrefixFilter,
    RangeFilter,
    SelectPlan,
    pushdown_request,
)
from repro.sql.result import (
    AggregateFrames,
    PushdownSelectResult,
    ResultColumn,
    RoutingDecision,
    ServerResult,
    code_dtype,
)


@dataclass
class MergeStats:
    """What one incremental merge actually did (layout-level counters).

    ``partitions_rebuilt`` counts enclave rebuilds per partition slot, not
    per column — every column of the table rebuilds the same slots, since
    all columns share one partition layout.
    """

    table: str = ""
    partitions_total: int = 0
    partitions_kept: int = 0
    partitions_rebuilt: int = 0
    partitions_dropped: int = 0
    tail_partitions_added: int = 0
    delta_rows_merged: int = 0
    rows_after: int = 0


def _replace_decision(
    decisions: tuple, clause: str, pushed: bool, reason: str
) -> tuple:
    return tuple(
        RoutingDecision(clause, pushed, reason)
        if decision.clause == clause
        else decision
        for decision in decisions
    )


def _padded_frames(real_frames: int) -> int:
    """Mirror of the enclave's power-of-two frame-count padding (cost gate
    and EXPLAIN only — the enclave pads for real)."""
    return 1 << (max(1, real_frames) - 1).bit_length()


def _assemble_segments(
    segment_lists: dict[str, list], row_count: int
) -> list[dict]:
    """Zip per-column ordinal segments into ``aggregate_groups`` arguments.

    All columns of a table share one partition layout, so the per-column
    segment lists from :meth:`EncryptedStoredColumn.ordinal_segments` over
    the same RecordIDs are row-aligned; a mismatch means a concurrent
    layout change and aborts the query rather than misgrouping.
    """
    if not segment_lists:
        return [{"group": None, "rows": row_count, "measures": {}}]
    lengths = {len(segments) for segments in segment_lists.values()}
    if len(lengths) != 1:
        raise QueryError("ordinal segments are misaligned across columns")
    (count,) = lengths
    assembled = []
    for index in range(count):
        group_ref = (
            segment_lists["__group__"][index]
            if "__group__" in segment_lists
            else None
        )
        measures = {
            name: segments[index]
            for name, segments in segment_lists.items()
            if name != "__group__"
        }
        if group_ref is not None:
            rows = len(group_ref[1])
        else:
            rows = len(next(iter(measures.values()))[1])
        for name, (_dictionary, vids) in measures.items():
            if len(vids) != rows:
                raise QueryError(
                    f"ordinal segments of {name!r} are misaligned"
                )
        assembled.append(
            {"group": group_ref, "rows": rows, "measures": measures}
        )
    return assembled


def _dictionary_encode(
    record_ids: np.ndarray,
    attribute_vectors: Sequence[np.ndarray],
    dictionary_sizes: Sequence[int],
    delta_rows: int,
    fetch: Callable[[int, np.ndarray], list],
) -> tuple[list, np.ndarray | None]:
    """Dictionary-encode the rows ``record_ids`` of one column snapshot.

    Stores are the main partitions in order, then the delta store at index
    ``len(attribute_vectors)``. Main row ``r`` of store ``s`` holds entry
    ``attribute_vectors[s][r]`` of that store's dictionary; every delta row
    is its own entry. ``fetch(s, entries)`` returns the values of entries of
    store ``s``. Returns ``(values, codes)``: the distinct values in
    first-occurrence row order and the row -> value codes, ``None`` when
    every row is distinct.
    """
    rids = np.asarray(record_ids, dtype=np.int64)
    starts = np.cumsum([0, *map(len, attribute_vectors)])
    bases = np.cumsum([0, *dictionary_sizes])
    if len(rids) and (rids.min() < 0 or rids.max() >= starts[-1] + delta_rows):
        raise QueryError("RecordID out of range")
    # A row's key is its store's dictionary base plus its entry, so keys
    # are equal exactly when two rows reference the same dictionary entry.
    stores = np.searchsorted(starts, rids, side="right") - 1
    keys = np.empty(len(rids), dtype=np.int64)
    for store in np.unique(stores).tolist():
        rows = stores == store
        local = rids[rows] - starts[store]
        if store < len(attribute_vectors):
            local = attribute_vectors[store][local]
        keys[rows] = bases[store] + local
    unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ordered = unique[order]
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    codes = rank[inverse]
    entry_stores = stores[first[order]]
    used_stores = np.unique(entry_stores).tolist()
    if len(used_stores) == 1 and used_stores[0] < len(attribute_vectors):
        # The entries of one partition dictionary hold distinct values.
        (store,) = used_stores
        values = fetch(store, ordered - bases[store])
    else:
        values = [None] * len(ordered)
        for store in used_stores:
            positions = np.flatnonzero(entry_stores == store)
            fetched = fetch(store, ordered[positions] - bases[store])
            for position, value in zip(positions.tolist(), fetched):
                values[position] = value
        # Entries of different stores may still hold equal values (each
        # plaintext partition has its own dictionary, delta rows none).
        index: dict = {}
        remap = [index.setdefault(value, len(index)) for value in values]
        if len(index) < len(values):
            values = list(index)
            codes = np.asarray(remap, dtype=np.int64)[codes]
    if len(values) == len(rids):
        return values, None
    return values, codes.astype(code_dtype(len(values)))


class Executor:
    """Evaluates (already proxy-encrypted) plans on the column store."""

    def __init__(
        self,
        catalog: Catalog,
        enclave_host: EnclaveHost | None,
        *,
        fastpath: FastPathConfig | None = None,
    ) -> None:
        self._catalog = catalog
        self._host = enclave_host
        # A bare Executor keeps the paper-faithful one-ecall-per-filter
        # behaviour; EncDBDBServer passes its (default-enabled) config down.
        self.fastpath = fastpath if fastpath is not None else FastPathConfig.disabled()
        #: Layout-level counters of the most recent :meth:`merge`.
        self.last_merge_stats: MergeStats | None = None

    def _scan_workers(self) -> int:
        """Workers a scan may fan out over (``runtime.dispatch_decision``
        decides per scan whether it does); one on the paper-faithful path."""
        return self.fastpath.scan_max_workers if self.fastpath.enabled else 1

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def filter_record_ids(self, table: Table, plan: FilterPlan | None) -> np.ndarray:
        """Evaluate a filter tree to the set of matching, valid RecordIDs."""
        if plan is None:
            return table.all_valid_rids()
        # Per-query state: batched enclave results keyed by filter leaf, and
        # a scan-mask cache shared by all filters on this query's columns.
        prepared = self._prepare_encrypted_searches(table, plan)
        scan_cache = {} if self.fastpath.enabled else None
        return table.filter_valid(self._evaluate(table, plan, prepared, scan_cache))

    def _collect_encrypted_leaves(
        self, plan: FilterPlan, leaves: list[EncryptedRangeFilter]
    ) -> None:
        if isinstance(plan, FilterNode):
            for child in plan.children:
                self._collect_encrypted_leaves(child, leaves)
        elif isinstance(plan, EncryptedRangeFilter):
            leaves.append(plan)

    def _prepare_encrypted_searches(
        self, table: Table, plan: FilterPlan
    ) -> dict[int, list] | None:
        """Run every encrypted dictionary search of a plan in ONE ecall.

        Collects the ``(dictionary, τ)`` requests of all encrypted filter
        leaves (main and delta stores) and issues a single
        ``dict_search_batch`` boundary crossing, returning a map from leaf
        identity to its labeled :class:`SearchResult`\\ s. Returns ``None``
        — meaning "use the per-leaf slow path" — when the fast path is off, no
        enclave is attached, or the plan needs at most one search anyway.
        """
        if not self.fastpath.enabled or self._host is None:
            return None
        leaves: list[EncryptedRangeFilter] = []
        self._collect_encrypted_leaves(plan, leaves)
        if not leaves:
            return None
        requests = []  # flat [(dictionary, tau), ...] for the ecall
        slots = []  # parallel [(leaf_id, store_label), ...]
        for leaf in leaves:
            column = table.column(leaf.column)
            if not isinstance(column, EncryptedStoredColumn):
                raise QueryError(
                    f"encrypted filter for plaintext column {leaf.column!r}"
                )
            for label, dictionary, tau in column.search_requests(leaf.tau):
                requests.append((dictionary, tau))
                slots.append((id(leaf), label))
        if len(requests) < 2:
            # Nothing to amortize: a single search stays on dict_search.
            return None
        results = self._host.ecall("dict_search_batch", requests)
        prepared: dict[int, list] = {id(leaf): [] for leaf in leaves}
        for (leaf_id, label), result in zip(slots, results):
            prepared[leaf_id].append((label, result))
        return prepared

    def _evaluate(
        self,
        table: Table,
        plan: FilterPlan,
        prepared: dict[int, list] | None = None,
        scan_cache: dict | None = None,
    ) -> np.ndarray:
        if isinstance(plan, FilterNode):
            child_sets = [
                self._evaluate(table, child, prepared, scan_cache)
                for child in plan.children
            ]
            if plan.operator == "NOT":
                if len(child_sets) != 1:
                    raise QueryError("NOT takes exactly one operand")
                return self._complement(table, child_sets[0])
            if plan.operator == "AND":
                combined = child_sets[0]
                for rids in child_sets[1:]:
                    combined = np.intersect1d(combined, rids, assume_unique=True)
                return combined
            if plan.operator == "OR":
                return np.union1d(
                    child_sets[0],
                    child_sets[1]
                    if len(child_sets) == 2
                    else np.concatenate(child_sets[1:]),
                )
            raise QueryError(f"unknown filter operator {plan.operator!r}")
        if isinstance(plan, RangeFilter):
            return self._evaluate_plain(table, plan)
        if isinstance(plan, PrefixFilter):
            return self._evaluate_prefix(table, plan)
        if isinstance(plan, EncryptedRangeFilter):
            return self._evaluate_encrypted(table, plan, prepared, scan_cache)
        raise QueryError(f"unknown filter node {type(plan).__name__}")

    def _evaluate_plain(self, table: Table, plan: RangeFilter) -> np.ndarray:
        column = table.column(plan.column)
        if not isinstance(column, PlainStoredColumn):
            raise QueryError(
                f"plaintext filter reached encrypted column {plan.column!r}; "
                "the proxy must encrypt it first"
            )
        matches = column.search_filter(
            plan.low, plan.low_inclusive, plan.high, plan.high_inclusive
        )
        if plan.negated:
            return self._complement(table, matches)
        return matches

    def _evaluate_prefix(self, table: Table, plan: PrefixFilter) -> np.ndarray:
        column = table.column(plan.column)
        if not isinstance(column, PlainStoredColumn):
            raise QueryError(
                f"plaintext prefix filter reached encrypted column "
                f"{plan.column!r}; the proxy must encrypt it first"
            )
        matches = column.search_prefix(plan.prefix)
        if plan.negated:
            return self._complement(table, matches)
        return matches

    def _evaluate_encrypted(
        self,
        table: Table,
        plan: EncryptedRangeFilter,
        prepared: dict[int, list] | None = None,
        scan_cache: dict | None = None,
    ) -> np.ndarray:
        column = table.column(plan.column)
        if not isinstance(column, EncryptedStoredColumn):
            raise QueryError(
                f"encrypted filter for plaintext column {plan.column!r}"
            )
        if self._host is None:
            raise QueryError("no enclave available for encrypted columns")
        max_workers = self._scan_workers()
        if prepared is not None and id(plan) in prepared:
            matches = column.record_ids_from_results(
                prepared[id(plan)],
                cost_model=self._host.cost_model,
                max_workers=max_workers,
                scan_cache=scan_cache,
            )
        else:
            matches = column.search_tau(
                plan.tau,
                self._host,
                max_workers=max_workers,
                scan_cache=scan_cache,
            )
        if plan.negated:
            return self._complement(table, matches)
        return matches

    @staticmethod
    def _complement(table: Table, matches: np.ndarray) -> np.ndarray:
        universe = np.arange(table.row_count, dtype=np.int64)
        return np.setdiff1d(universe, matches, assume_unique=False)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def select(self, plan: SelectPlan) -> ServerResult:
        table = self._catalog.table(plan.table)
        record_ids = self.filter_record_ids(table, plan.filter)
        return self._render_rows(plan, table, record_ids)

    def _render_column(
        self, table: Table, name: str, record_ids: np.ndarray
    ) -> ResultColumn:
        column = table.column(name)
        if isinstance(column, PlainStoredColumn):
            parts = list(column.partitions)
            delta_values = list(column.delta_values)

            def fetch_plain(store: int, entries: np.ndarray) -> list:
                source = parts[store].dictionary if store < len(parts) else delta_values
                return [source[entry] for entry in entries.tolist()]

            values, codes = _dictionary_encode(
                record_ids,
                [part.attribute_vector for part in parts],
                [len(part.dictionary) for part in parts],
                len(delta_values),
                fetch_plain,
            )
            return ResultColumn(table.name, name, False, values, codes)
        builds, delta_blobs, key_epoch = column.render_view()

        def fetch_blobs(store: int, entries: np.ndarray) -> list:
            if store < len(builds):
                return builds[store].dictionary.entries_at(entries)
            return [delta_blobs[entry] for entry in entries.tolist()]

        values, codes = _dictionary_encode(
            record_ids,
            [build.attribute_vector for build in builds],
            [len(build.dictionary) for build in builds],
            len(delta_blobs),
            fetch_blobs,
        )
        return ResultColumn(table.name, name, True, values, codes, key_epoch)

    # ------------------------------------------------------------------
    # Analytics pushdown (PR 9)
    # ------------------------------------------------------------------
    def select_pushdown(self, plan: SelectPlan) -> PushdownSelectResult:
        """One SELECT through the cost-based pushdown router.

        Filters run exactly as in :meth:`select`; what changes is what ships
        back. Aggregates/GROUP BY go through the ``aggregate_groups`` ecall
        and return padded group frames; an eligible ORDER BY + LIMIT sorts
        the attribute vector in ordinal space and ships only the top rows;
        everything else — including every structural or cost fallback — is
        the unchanged row-shipping path, with the decision attached.
        """
        table = self._catalog.table(plan.table)
        decisions, request = pushdown_request(plan, self._catalog)
        if request is not None and self._host is None:
            decisions = _replace_decision(
                decisions, decisions[0].clause, False, "no enclave attached"
            )
            request = None
        if request is None:
            return PushdownSelectResult(
                decisions=decisions, rows=self.select(plan)
            )
        record_ids = self.filter_record_ids(table, plan.filter)
        if isinstance(request, AggregatePushdown):
            return self._select_aggregate_pushdown(
                plan, table, decisions, request, record_ids
            )
        return self._select_order_pushdown(
            plan, table, decisions, request, record_ids
        )

    def explain_pushdown(self, plan: SelectPlan) -> tuple:
        """The routing decisions :meth:`select_pushdown` would make, without
        executing. The cost gate runs on the table's live row count — the
        static stand-in for the post-filter cardinality EXPLAIN cannot know."""
        table = self._catalog.table(plan.table)
        decisions, request = pushdown_request(plan, self._catalog)
        if request is not None and self._host is None:
            return _replace_decision(
                decisions, decisions[0].clause, False, "no enclave attached"
            )
        if isinstance(request, AggregatePushdown):
            pushed, note = self._aggregate_cost_gate(
                plan, table, request, table.live_row_count
            )
            original = decisions[0].reason
            reason = f"{original}; {note}" if pushed else note
            decisions = _replace_decision(decisions, "aggregate", pushed, reason)
        return decisions

    def _select_aggregate_pushdown(
        self, plan, table, decisions, request, record_ids
    ) -> PushdownSelectResult:
        pushed, note = self._aggregate_cost_gate(
            plan, table, request, len(record_ids)
        )
        if pushed:
            # The structural check ran before filtering; a rotation may have
            # started since. Re-check against the live columns — a raced
            # query falls back to row shipping rather than mixing stores.
            for name in (request.group_column, *request.measure_columns):
                if name is None:
                    continue
                if getattr(table.column(name), "shadow", None) is not None:
                    pushed = False
                    note = f"rotation started on {name!r} mid-query: proxy-side"
                    break
        if not pushed:
            decisions = _replace_decision(decisions, "aggregate", False, note)
            return PushdownSelectResult(
                decisions=decisions,
                rows=self._render_rows(plan, table, record_ids),
            )
        decisions = _replace_decision(
            decisions, "aggregate", True, f"{decisions[0].reason}; {note}"
        )
        segment_lists: dict[str, list] = {}
        if request.group_column is not None:
            segment_lists["__group__"] = table.column(
                request.group_column
            ).ordinal_segments(record_ids)
        for name in request.measure_columns:
            segment_lists[name] = table.column(name).ordinal_segments(record_ids)
        segments = _assemble_segments(segment_lists, len(record_ids))
        frames = self._host.ecall(
            "aggregate_groups",
            table.name,
            request.specs,
            segments,
            group_column=request.group_column,
        )
        aggregate = AggregateFrames(
            table_name=table.name,
            group_column=request.group_column,
            labels=tuple(label for _function, _column, label in request.specs),
            frames=tuple(frames),
        )
        return PushdownSelectResult(decisions=decisions, aggregate=aggregate)

    def _select_order_pushdown(
        self, plan, table, decisions, request: OrderPushdown, record_ids
    ) -> PushdownSelectResult:
        column = table.column(request.column)
        if (
            getattr(column, "shadow", None) is not None
            or len(column.partition_builds) != 1
            or column.delta_blobs
        ):
            decisions = _replace_decision(
                decisions,
                "order-by",
                False,
                "column layout changed mid-query: full sort proxy-side",
            )
            return PushdownSelectResult(
                decisions=decisions,
                rows=self._render_rows(plan, table, record_ids),
            )
        # Single partition and no delta: global RecordIDs are partition-local
        # positions, and ValueID order is value order (sorted kind). A stable
        # argsort keeps ties in RecordID order, matching the proxy's stable
        # re-sort of the shipped rows.
        vids = column.partition_builds[0].attribute_vector[record_ids]
        order = np.argsort(-vids if request.descending else vids, kind="stable")
        keep = record_ids[order][: request.limit]
        return PushdownSelectResult(
            decisions=decisions,
            rows=self._render_rows(plan, table, keep),
            ordered=True,
        )

    def _render_rows(self, plan, table, record_ids) -> ServerResult:
        result = ServerResult(table_name=table.name, record_ids=record_ids)
        for name in plan.needed_columns:
            result.columns[name] = self._render_column(table, name, record_ids)
        return result

    def _aggregate_cost_gate(
        self, plan, table, request: AggregatePushdown, rows: int
    ) -> tuple[bool, str]:
        """Row shipping vs. pushdown, in the cost model's cycle currency.

        Uses only public quantities: the filtered row count, dictionary
        entry counts (distinct-value upper bounds), and blob sizes. Proxy
        path ≈ one AES-GCM per row per encrypted result column; pushdown ≈
        one ecall + one AES-GCM per *distinct* group/measure entry + the
        padded frame encryptions.
        """
        parameters = self._host.cost_model.parameters
        columns = [
            name
            for name in (request.group_column, *request.measure_columns)
            if name is not None
        ]
        blob_bytes = 64
        distinct = 0
        for name in columns:
            column = table.column(name)
            entries = sum(
                len(build.dictionary) for build in column.partition_builds
            ) + len(column.delta_blobs)
            distinct += min(entries, rows)
            for build in column.partition_builds:
                if len(build.dictionary):
                    blob_bytes = max(blob_bytes, len(build.dictionary.entry(0)))
                    break
        per_blob = (
            parameters.aes_gcm_fixed_cycles
            + blob_bytes * parameters.aes_gcm_per_byte_cycles
        )
        encrypted_needed = sum(
            1 for name in plan.needed_columns if table.spec(name).is_encrypted
        )
        proxy_cost = rows * max(1, encrypted_needed) * per_blob + rows * (
            parameters.untrusted_load_cycles
        )
        if request.group_column is not None:
            group_column = table.column(request.group_column)
            group_entries = sum(
                len(build.dictionary) for build in group_column.partition_builds
            ) + len(group_column.delta_blobs)
        else:
            group_entries = 1
        frames = _padded_frames(min(group_entries, max(1, rows)))
        frame_bytes = 64 + 17 * len(request.specs)
        push_cost = (
            parameters.ecall_cycles
            + distinct * per_blob
            + frames
            * (
                parameters.aes_gcm_fixed_cycles
                + frame_bytes * parameters.aes_gcm_per_byte_cycles
            )
        )
        if push_cost >= proxy_cost:
            return False, (
                f"cost: row shipping cheaper (~{proxy_cost} vs ~{push_cost} "
                f"cycles for {rows} rows, ~{distinct} distinct entries)"
            )
        return True, (
            f"cost: ~{push_cost} vs ~{proxy_cost} cycles "
            f"({rows} rows -> {frames} padded frames, "
            f"~{distinct} distinct decryptions)"
        )

    def select_join(self, plan: JoinSelectPlan, salt: bytes) -> ServerResult:
        """Inner equi-join on enclave-issued join tokens.

        Filters run per table first; the surviving rows are matched by the
        opaque tokens the enclave derives for the two join columns under the
        per-query ``salt``, and the requested columns of both sides are
        rendered for every matched pair.
        """
        left_table = self._catalog.table(plan.left_table)
        right_table = self._catalog.table(plan.right_table)
        left_rids = self.filter_record_ids(left_table, plan.left_filter)
        right_rids = self.filter_record_ids(right_table, plan.right_filter)

        left_keys = self._join_keys(left_table, plan.left_column, salt)
        right_keys = self._join_keys(right_table, plan.right_column, salt)

        matches_by_key: dict = {}
        for rid in right_rids:
            matches_by_key.setdefault(right_keys[int(rid)], []).append(int(rid))

        left_pairs: list[int] = []
        right_pairs: list[int] = []
        for rid in left_rids:
            for right_rid in matches_by_key.get(left_keys[int(rid)], ()):
                left_pairs.append(int(rid))
                right_pairs.append(right_rid)

        result = ServerResult(
            table_name=plan.left_table,
            record_ids=np.asarray(left_pairs, dtype=np.int64),
        )
        for table, needed, pair_rids in (
            (left_table, plan.left_needed, left_pairs),
            (right_table, plan.right_needed, right_pairs),
        ):
            rid_array = np.asarray(pair_rids, dtype=np.int64)
            for name in needed:
                rendered = self._render_column(table, name, rid_array)
                result.columns[f"{table.name}.{name}"] = rendered
        return result

    def _join_keys(self, table: Table, column_name: str, salt: bytes) -> list:
        column = table.column(column_name)
        if isinstance(column, PlainStoredColumn):
            return column.join_keys()
        if self._host is None:
            raise QueryError("no enclave available for encrypted joins")
        return column.join_tokens(self._host, salt)

    def insert_prepared(self, table_name: str, prepared_rows: list[dict]) -> int:
        """Append proxy-prepared rows (encrypted columns carry transit blobs).

        Returns the number of inserted rows.
        """
        table = self._catalog.table(table_name)
        for prepared in prepared_rows:
            if set(prepared) != set(table.column_names):
                raise QueryError("prepared row does not cover every column")
            for name in table.column_names:
                column = table.column(name)
                payload = prepared[name]
                if isinstance(column, PlainStoredColumn):
                    column.append(payload)
                else:
                    if self._host is None:
                        raise QueryError("no enclave available for inserts")
                    column.append_transit_blob(payload, self._host)
            table.register_insert()
        return len(prepared_rows)

    def delete(self, plan: DeletePlan) -> int:
        table = self._catalog.table(plan.table)
        record_ids = self.filter_record_ids(table, plan.filter)
        return table.delete_rows(record_ids)

    # ------------------------------------------------------------------
    # Delta merge (paper §4.3)
    # ------------------------------------------------------------------
    def merge(self, plan: MergePlan) -> int:
        """Incremental merge: rebuild only the partitions that changed.

        A main-store partition is *dirty* when it contains at least one
        cleared validity bit; clean partitions are carried over untouched
        (their dictionaries, attribute vectors — and the enclave's cached
        plaintext for them — survive). Valid delta rows are absorbed into
        the final partition when they fit, otherwise they become fresh tail
        partitions of at most ``partition_rows`` rows each. The merge cost
        is therefore proportional to the dirty rows, not the table size.

        The *untrusted* per-partition preparation — collecting surviving
        ciphertext blobs, rebuilding plaintext dictionaries — fans out over
        the shared build pool (the scan-worker knob); the per-partition
        ``rebuild_for_merge`` ecalls stay strictly serial, in partition
        order, so the enclave's cost accounting and randomness consumption
        are identical to a fully serial merge.
        """
        table = self._catalog.table(plan.table)
        valid = np.asarray(table.validity, dtype=bool)
        survivors = int(valid.sum())
        columns = [table.column(name) for name in table.column_names]

        # All columns of a table share one partition layout by construction.
        lengths = columns[0].partition_lengths if columns else []
        for column in columns[1:]:
            if column.partition_lengths != lengths:
                raise QueryError(
                    f"misaligned column partitions in table {table.name}"
                )
        main_rows = sum(lengths)
        partition_rows = (
            getattr(table, "partition_rows", None) or DEFAULT_PARTITION_ROWS
        )
        pmap = PartitionMap(lengths)
        dirty = set(pmap.dirty_partitions(valid))

        delta_mask = valid[main_rows:]
        delta_indices = np.nonzero(delta_mask)[0]
        delta_count = int(len(delta_indices))

        # Absorb the delta into the last partition when the combined row
        # count still fits one partition (keeps small tables at their seed
        # single-partition layout); overflow goes to fresh tail partitions.
        absorb_index = None
        if delta_count and lengths:
            last = len(lengths) - 1
            last_survivors = int(
                valid[pmap.starts[last] : pmap.starts[last] + lengths[last]].sum()
            )
            if 0 < last_survivors and last_survivors + delta_count <= partition_rows:
                absorb_index = last
                dirty.add(last)

        stats = MergeStats(
            table=table.name,
            partitions_total=len(lengths),
            delta_rows_merged=delta_count,
            rows_after=survivors,
        )
        # Per-partition decisions, shared by every column of the table.
        decisions: list[tuple[str, int]] = []
        keep_masks: dict[int, np.ndarray] = {}
        for index, (start, length) in enumerate(zip(pmap.starts, lengths)):
            if index not in dirty:
                decisions.append(("keep", index))
                stats.partitions_kept += 1
                continue
            mask = valid[start : start + length]
            if mask.any() or index == absorb_index:
                keep_masks[index] = mask
                decisions.append(("rebuild", index))
                stats.partitions_rebuilt += 1
            else:
                decisions.append(("drop", index))
                stats.partitions_dropped += 1
        if absorb_index is None:
            tail_chunks = [
                delta_indices[offset : offset + partition_rows]
                for offset in range(0, delta_count, partition_rows)
            ]
        else:
            tail_chunks = []
        stats.tail_partitions_added = len(tail_chunks)

        # Same knob as the parallel scans; the disabled (paper-faithful)
        # configuration keeps the whole merge serial.
        merge_workers = self._scan_workers()
        for name, column in zip(table.column_names, columns):
            if isinstance(column, PlainStoredColumn):
                new_parts: list[DictionaryEncodedColumn | None] = []
                rebuild_slots: list[int] = []
                rebuild_values: list[list] = []
                for action, index in decisions:
                    if action == "keep":
                        new_parts.append(column.partitions[index])
                    elif action == "rebuild":
                        mask = keep_masks[index]
                        values = [
                            value
                            for value, keep in zip(
                                column.partitions[index].values(), mask
                            )
                            if keep
                        ]
                        if index == absorb_index:
                            values.extend(
                                column.delta_values[int(i)] for i in delta_indices
                            )
                        new_parts.append(None)
                        rebuild_slots.append(len(new_parts) - 1)
                        rebuild_values.append(values)
                for chunk in tail_chunks:
                    new_parts.append(None)
                    rebuild_slots.append(len(new_parts) - 1)
                    rebuild_values.append(
                        [column.delta_values[int(i)] for i in chunk]
                    )
                for slot, part in zip(
                    rebuild_slots,
                    map_on_build_pool(
                        DictionaryEncodedColumn.from_values,
                        rebuild_values,
                        max_workers=merge_workers,
                    ),
                ):
                    new_parts[slot] = part
                column.partitions = new_parts
                column.delta_values = []
                column.partition_rows = partition_rows
            else:
                if self._host is None:
                    raise QueryError("no enclave available for merge")
                # Untrusted preparation in parallel: surviving blobs of
                # every dirty partition. Reading ciphertext frames needs no
                # enclave and no lock.
                rebuild_indices = [
                    index for action, index in decisions if action == "rebuild"
                ]
                prepared_blobs = dict(
                    zip(
                        rebuild_indices,
                        map_on_build_pool(
                            lambda idx, column=column: column.partition_blobs(
                                idx, keep_masks[idx]
                            ),
                            rebuild_indices,
                            max_workers=merge_workers,
                        ),
                    )
                )
                new_builds = []
                new_ids = []
                for action, index in decisions:
                    if action == "keep":
                        new_builds.append(column.partition_builds[index])
                        new_ids.append(column.partition_ids[index])
                    elif action == "rebuild":
                        blobs = prepared_blobs[index]
                        if index == absorb_index:
                            blobs.extend(
                                column.delta_blobs[int(i)] for i in delta_indices
                            )
                        build = self._host.ecall(
                            "rebuild_for_merge",
                            table.name,
                            name,
                            column.spec.protection,
                            column.spec.value_type,
                            blobs,
                            bsmax=column.spec.bsmax,
                            partition_id=column.partition_ids[index],
                            key_epoch=column.key_epoch,
                        )
                        new_builds.append(build)
                        new_ids.append(column.partition_ids[index])
                for chunk in tail_chunks:
                    partition_id = column.allocate_partition_id()
                    build = self._host.ecall(
                        "rebuild_for_merge",
                        table.name,
                        name,
                        column.spec.protection,
                        column.spec.value_type,
                        [column.delta_blobs[int(i)] for i in chunk],
                        bsmax=column.spec.bsmax,
                        partition_id=partition_id,
                        key_epoch=column.key_epoch,
                    )
                    new_builds.append(build)
                    new_ids.append(partition_id)
                column.set_partitions(new_builds, ids=new_ids)
                column.delta_blobs = []
        table.reset_validity(survivors)
        self.last_merge_stats = stats
        return survivors
