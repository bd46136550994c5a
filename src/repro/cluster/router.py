"""Scatter-gather query routing across a sharded EncDBDB cluster.

:class:`ClusterRouter` duck-types the :class:`~repro.server.dbms.
EncDBDBServer` surface the trusted proxy calls, so the existing
:class:`~repro.client.proxy.Proxy` — plan encryption, result decryption,
post-processing — runs against a whole cluster unchanged. Routing only ever
sees what a single untrusted server would see anyway: encrypted plans in,
padded per-partition result unions out.

- **Scatter.** A SELECT on a sharded table fans the *same* encrypted plan
  out to one healthy endpoint of every populated shard, concurrently on a
  shared worker pool. Each shard runs the ordinary ``EnclDictSearch`` over
  its resident partitions.
- **Gather.** Per-shard results are concatenated in shard order — which is
  global partition order by construction (contiguous spans) — and shard-
  local RecordIDs are rebased by the span's ``row_base``. The merged result
  is exactly the padded union a single node would produce, so the §6
  leakage argument carries over (DESIGN.md §12).
- **Failover.** Endpoints of one shard are replicas; a transport failure
  against one retries the call on the next, sticking to whichever endpoint
  last answered.
- **Writes.** Inserts go to the shard holding the table's tail (keeping
  delta RecordIDs globally contiguous) and are broadcast to all of its
  replicas; deletes/merges broadcast to every populated shard.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

import numpy as np

from repro.cluster.shardmap import Shard, ShardMap, TableAssignment
from repro.exceptions import ClusterError, NetworkError, QueryError
from repro.net.client import (
    FrameTap,
    NetConnection,
    RemoteServer,
    RetryPolicy,
    _RemoteTable,
)
from repro.runtime import CLUSTER_POOL, shared_pool
from repro.sql.result import (
    AggregateFrames,
    PushdownSelectResult,
    ResultColumn,
    RoutingDecision,
    ServerResult,
    code_dtype,
)


class EndpointPool:
    """A bounded pool of client connections to one server endpoint.

    ``capacity`` is the admission control on the client side: at most that
    many connections (and therefore server sessions) exist per endpoint, and
    a caller needing one past capacity *blocks* until a lease frees up —
    backpressure instead of an unbounded connection storm. Connections are
    reused LIFO; a lease that ends in a transport error discards its
    connection instead of returning it.

    The pool also tracks endpoint **health**: a transport failure marks the
    endpoint down (and drops every idle socket — they share the dead
    server), and after ``probe_interval`` seconds the next :meth:`healthy`
    check re-probes with one fresh connection attempt. A restarted replica
    therefore rejoins the shard group's read rotation by itself, instead of
    staying parked behind a sticky preference forever.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        capacity: int = 8,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        tap: FrameTap | None = None,
        probe_interval: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.tap = tap
        self.probe_interval = probe_interval
        self._slots = threading.BoundedSemaphore(capacity)
        self._lock = threading.Lock()
        self._idle: list[RemoteServer] = []  # guarded-by: self._lock
        self._closed = False  # guarded-by: self._lock
        self._healthy = True  # guarded-by: self._lock
        self._next_probe = 0.0  # guarded-by: self._lock

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self, retry: RetryPolicy | None) -> RemoteServer:
        return RemoteServer(
            NetConnection(
                self.host,
                self.port,
                timeout=self.timeout,
                tap=self.tap,
                retry=retry,
            )
        )

    def _checkout(self) -> RemoteServer:
        with self._lock:
            if self._closed:
                raise ClusterError(f"endpoint pool {self.address} is closed")
            if self._idle:
                return self._idle.pop()
        return self._connect(self.retry)

    def _checkin(self, server: RemoteServer) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(server)
                return
        server.close()

    @contextmanager
    def lease(self):
        """One connection, held across every request issued inside the
        block (required by session-bound sequences like provisioning)."""
        with self._slots:
            server = self._checkout()
            try:
                yield server
            except NetworkError:
                # Transport state is unknown — do not reuse the socket, and
                # treat the endpoint as down until a probe says otherwise.
                server.close()
                self.mark_failed()
                raise
            except BaseException:
                self._checkin(server)  # typed server errors leave it usable
                raise
            else:
                self._checkin(server)
                with self._lock:
                    self._healthy = True

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One RPC on a pooled connection.

        A *reused* idle socket that fails gets one retry on a fresh
        connection before the endpoint is declared down: a restarted server
        leaves every pooled socket dead while the endpoint itself is fine,
        and without the retry the first write after a restart would be
        skipped as "replica stale" even though the replica is back.
        """
        with self._slots:
            with self._lock:
                if self._closed:
                    raise ClusterError(f"endpoint pool {self.address} is closed")
                reused = self._idle.pop() if self._idle else None
            server = reused if reused is not None else self._connect(self.retry)
            for attempt in (0, 1):
                try:
                    value = getattr(server, method)(*args, **kwargs)
                except NetworkError:
                    server.close()
                    if attempt == 0 and reused is not None:
                        try:
                            server = self._connect(RetryPolicy.none())
                        except NetworkError:
                            self.mark_failed()
                            raise
                        continue
                    self.mark_failed()
                    raise
                except BaseException:
                    self._checkin(server)  # typed server errors leave it usable
                    raise
                else:
                    self._checkin(server)
                    with self._lock:
                        self._healthy = True
                    return value
            raise AssertionError("unreachable")  # pragma: no cover

    # -- health (periodic re-probe; a restarted server rejoins) ----------
    def mark_failed(self) -> None:
        """Record a transport failure: down until a probe succeeds, and the
        idle sockets are dropped (they point at the dead server)."""
        with self._lock:
            self._healthy = False
            self._next_probe = time.monotonic() + self.probe_interval
            idle, self._idle = self._idle, []
        for server in idle:
            server.close()

    def healthy(self) -> bool:
        """Current health; re-probes at most once per ``probe_interval``."""
        with self._lock:
            if self._closed:
                return False
            if self._healthy:
                return True
            if time.monotonic() < self._next_probe:
                return False
        return self.probe()

    def probe(self) -> bool:
        """One fresh connection attempt (no retries, fails fast). Success
        marks the endpoint healthy and keeps the socket for reuse."""
        try:
            server = self._connect(RetryPolicy.none())
        except NetworkError:
            with self._lock:
                self._healthy = False
                self._next_probe = time.monotonic() + self.probe_interval
            return False
        with self._lock:
            self._healthy = True
            if not self._closed:
                self._idle.append(server)
                server = None
        if server is not None:
            server.close()
        return True

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for server in idle:
            server.close()


class ShardGroup:
    """One shard's endpoints (primary + replicas) with failover.

    Reads rotate round-robin over the endpoints the pools currently report
    healthy; endpoints that went down keep being probed on their pools'
    ``probe_interval`` and re-enter the rotation as soon as a probe
    succeeds — a restarted replica rejoins without operator action.
    Unhealthy endpoints are still *tried last* rather than skipped, so a
    shard whose every endpoint died fails loudly, not silently.
    """

    def __init__(self, shard: Shard, pools: list[EndpointPool]) -> None:
        self.shard = shard
        self.pools = pools
        self._rr = 0  # guarded-by: self._rr_lock
        self._rr_lock = threading.Lock()

    def _order(self) -> list[int]:
        with self._rr_lock:
            start = self._rr
            self._rr += 1
        healthy = [i for i, pool in enumerate(self.pools) if pool.healthy()]
        if not healthy:
            count = len(self.pools)
            return [(start + i) % count for i in range(count)]
        rotated = [
            healthy[(start + i) % len(healthy)] for i in range(len(healthy))
        ]
        return rotated + [i for i in range(len(self.pools)) if i not in healthy]

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run one RPC on the first endpoint that answers.

        Only transport failures fail over — a typed server error (query,
        catalog, security) is an *answer* and propagates as-is, so replicas
        are never asked to re-run a semantically rejected request.
        """
        failures: list[str] = []
        for index in self._order():
            pool = self.pools[index]
            try:
                value = pool.call(method, *args, **kwargs)
            except NetworkError as exc:
                failures.append(f"{pool.address}: {exc}")
                continue
            return value
        raise ClusterError(
            f"shard {self.shard.shard_id}: every endpoint failed "
            f"({'; '.join(failures)})"
        )

    def broadcast(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run one RPC on **every** reachable endpoint (replica writes).

        Returns the first successful result; raises only when no endpoint
        succeeded. A replica that is down simply misses the write — it is
        stale, not inconsistent, and the topology treats it as failed.
        """
        result = None
        succeeded = False
        failures: list[str] = []
        for pool in self.pools:
            try:
                value = pool.call(method, *args, **kwargs)
            except NetworkError as exc:
                failures.append(f"{pool.address}: {exc}")
                continue
            if not succeeded:
                result = value
                succeeded = True
        if not succeeded:
            raise ClusterError(
                f"shard {self.shard.shard_id}: broadcast {method!r} failed "
                f"on every endpoint ({'; '.join(failures)})"
            )
        return result

    def broadcast_all(self, method: str, *args: Any, **kwargs: Any) -> list[Any]:
        """Run one RPC on every endpoint, requiring **all** to succeed.

        Migration verbs use this instead of :meth:`broadcast`: a replica
        that silently misses a rotation would adopt a different schema than
        its peers, which is divergence, not staleness — so an unreachable
        endpoint aborts the verb loudly.
        """
        values = []
        for pool in self.pools:
            try:
                values.append(pool.call(method, *args, **kwargs))
            except NetworkError as exc:
                raise ClusterError(
                    f"shard {self.shard.shard_id}: {method!r} needs every "
                    f"replica, but {pool.address} failed: {exc}"
                ) from exc
        return values

    def broadcast_each(self, method: str, *args: Any, **kwargs: Any) -> list[Any]:
        """Run one RPC on every endpoint that answers; skip the dead ones.

        The read-only companion of :meth:`broadcast_all` (migration
        *status* wants the reachable endpoints' view even when a replica is
        down — observing is not mutating)."""
        values = []
        for pool in self.pools:
            try:
                values.append(pool.call(method, *args, **kwargs))
            except NetworkError:
                continue
        return values

    def close(self) -> None:
        for pool in self.pools:
            pool.close()


class _RouterCostModel:
    """Aggregated cost-model view (drives the shell's ``.stats``)."""

    def __init__(self, router: "ClusterRouter") -> None:
        self._router = router

    def snapshot(self) -> dict:
        return self._router.cost_snapshot()

    @property
    def ecalls(self) -> int:
        return self.snapshot()["ecalls"]

    @property
    def decryptions(self) -> int:
        return self.snapshot()["decryptions"]

    @property
    def untrusted_loads(self) -> int:
        return self.snapshot()["untrusted_loads"]

    def estimated_cycles(self) -> float:
        return self.snapshot()["estimated_cycles"]


class _RouterCatalog:
    """Schema-only catalog shim, served by shard 0 (all shards agree)."""

    def __init__(self, router: "ClusterRouter") -> None:
        self._router = router

    def table_names(self) -> list[str]:
        return self._router.group(0).call("table_names")

    def table(self, name: str) -> _RemoteTable:
        return _RemoteTable(name, self._router.group(0).call("table_specs", name))


class ClusterRouter:
    """The scatter-gather client of a replicated EncDBDB cluster."""

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        capacity: int = 8,
        timeout: float = 60.0,
        retry: RetryPolicy | None = None,
        tap: FrameTap | None = None,
        scatter_workers: int | None = None,
        probe_interval: float = 2.0,
    ) -> None:
        self.shard_map = shard_map
        self.groups = [
            ShardGroup(
                shard,
                [
                    EndpointPool(
                        endpoint.host,
                        endpoint.port,
                        capacity=capacity,
                        timeout=timeout,
                        retry=retry,
                        tap=tap,
                        probe_interval=probe_interval,
                    )
                    for endpoint in shard.endpoints
                ],
            )
            for shard in shard_map.shards
        ]
        self._scatter_workers = (
            scatter_workers
            if scatter_workers is not None
            else max(2, 2 * shard_map.shard_count)
        )
        self.catalog = _RouterCatalog(self)
        self.cost_model = _RouterCostModel(self)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def group(self, shard_id: int) -> ShardGroup:
        return self.groups[shard_id]

    def _assignment(self, table_name: str) -> TableAssignment | None:
        return self.shard_map.assignment(table_name)

    def _read_targets(self, table_name: str) -> list[tuple[Any, ShardGroup]]:
        """(span | None, group) pairs a read of ``table_name`` must visit.

        A table never deployed through the coordinator (DDL + inserts only)
        has no assignment; all of its rows live on shard 0 by convention.
        """
        assignment = self._assignment(table_name)
        if assignment is None:
            return [(None, self.groups[0])]
        return [
            (span, self.groups[span.shard_id])
            for span in assignment.populated_spans()
        ]

    def _scatter(self, thunks: list[Callable[[], Any]]) -> list[Any]:
        """Run the per-shard thunks concurrently; propagate the first error."""
        if len(thunks) == 1:
            return [thunks[0]()]
        pool = shared_pool(
            CLUSTER_POOL, self._scatter_workers, thread_name_prefix="cluster"
        )
        futures = [pool.submit(thunk) for thunk in thunks]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    # ------------------------------------------------------------------
    # Reads: scatter the plan, gather the padded unions
    # ------------------------------------------------------------------
    def execute_select(self, plan) -> ServerResult:
        targets = self._read_targets(plan.table)
        results = self._scatter(
            [
                (lambda group=group: group.call("execute_select", plan))
                for _span, group in targets
            ]
        )
        if len(targets) == 1 and targets[0][0] is None:
            return results[0]
        return self._merge_results(
            plan.table, [span for span, _group in targets], results
        )

    def execute_select_pushdown(self, plan) -> PushdownSelectResult:
        """Scatter a routed SELECT; merge pushed-down partial aggregates.

        Aggregate states are associative (COUNT/SUM add, MIN/MAX fold, AVG
        is a sum+count pair), so when every shard answers with group frames
        the router simply concatenates them in span order — the proxy's
        frame merge folds same-group partials exactly as it folds a single
        node's per-partition frames. When every shard ships rows, the
        ordinary padded-union gather applies (a per-shard ORDER BY top-K
        union is a superset of the global top-K; the proxy re-sorts and
        re-limits). Only when shards *disagree* — per-shard cost gates can
        route the same plan differently — is the plan re-issued as plain
        row shipping, recorded as a ``cluster: pushdown-fallback`` routing
        decision instead of a refusal.
        """
        targets = self._read_targets(plan.table)
        results = self._scatter(
            [
                (lambda group=group: group.call("execute_select_pushdown", plan))
                for _span, group in targets
            ]
        )
        if len(targets) == 1 and targets[0][0] is None:
            return results[0]
        spans = [span for span, _group in targets]
        have_frames = [result.aggregate is not None for result in results]
        if all(have_frames):
            first = results[0].aggregate
            for result in results[1:]:
                if (
                    result.aggregate.group_column != first.group_column
                    or result.aggregate.labels != first.labels
                ):
                    raise ClusterError(
                        f"table {plan.table!r}: shards answered with "
                        "mismatched aggregate frame layouts"
                    )
            frames = tuple(
                frame for result in results for frame in result.aggregate.frames
            )
            merged = AggregateFrames(
                first.table_name, first.group_column, first.labels, frames
            )
            decisions = results[0].decisions + (
                RoutingDecision(
                    "cluster",
                    True,
                    f"scatter over {len(results)} shard(s): partial "
                    "aggregate frames merge at the proxy",
                ),
            )
            return PushdownSelectResult(decisions, aggregate=merged)
        if not any(have_frames):
            merged_rows = self._merge_results(
                plan.table, spans, [result.rows for result in results]
            )
            # Per-shard ordering does not survive concatenation; the proxy
            # re-sorts the union, so the merged result is unordered.
            return PushdownSelectResult(results[0].decisions, rows=merged_rows)
        plain = self._scatter(
            [
                (lambda group=group: group.call("execute_select", plan))
                for _span, group in targets
            ]
        )
        merged_rows = self._merge_results(plan.table, spans, plain)
        decisions = tuple(
            RoutingDecision(decision.clause, False, decision.reason)
            for decision in results[0].decisions
        ) + (
            RoutingDecision(
                "cluster",
                False,
                "pushdown-fallback: shard cost gates disagreed; "
                "re-issued as row shipping",
            ),
        )
        return PushdownSelectResult(decisions, rows=merged_rows)

    def explain_pushdown(self, plan) -> tuple:
        """EXPLAIN hook: per-clause pushdown routing, cluster-wide.

        Shard 0's decisions stand in for the cluster (all shards see the
        same plan); a trailing ``cluster`` decision reports the gather —
        or, when the shards' static routing disagrees, the row-shipping
        fallback execution would take.
        """
        table_name = getattr(plan, "table", None)
        if table_name is None:
            return tuple(self.group(0).call("explain_pushdown", plan))
        targets = self._read_targets(table_name)
        per_shard = self._scatter(
            [
                (
                    lambda group=group: tuple(
                        group.call("explain_pushdown", plan)
                    )
                )
                for _span, group in targets
            ]
        )
        decisions = per_shard[0]
        if len(per_shard) == 1:
            return decisions
        shapes = {
            tuple((decision.clause, decision.pushed) for decision in shard)
            for shard in per_shard
        }
        if len(shapes) > 1:
            return decisions + (
                RoutingDecision(
                    "cluster",
                    False,
                    f"pushdown-fallback: {len(per_shard)} shard(s) route "
                    "this plan differently; execution re-issues row shipping",
                ),
            )
        if any(decision.pushed for decision in decisions):
            return decisions + (
                RoutingDecision(
                    "cluster",
                    True,
                    f"scatter over {len(per_shard)} shard(s): partial "
                    "results merge at the proxy",
                ),
            )
        return decisions

    def _merge_results(
        self, table_name: str, spans: list, results: list[ServerResult]
    ) -> ServerResult:
        """Union per-shard results exactly as a single node unions its
        per-partition results: concatenate in (shard =) partition order and
        rebase shard-local RecordIDs by the span's ``row_base``."""
        record_ids: list[np.ndarray] = []
        columns: dict[str, ResultColumn] = {}
        codes: dict[str, list[np.ndarray]] = {}
        coded: set[str] = set()
        for span, result in zip(spans, results):
            rebased = np.asarray(result.record_ids, dtype=np.int64)
            record_ids.append(rebased + span.row_base)
            for name, column in result.columns.items():
                merged = columns.get(name)
                if merged is None:
                    merged = columns[name] = ResultColumn(
                        column.table_name,
                        column.column_name,
                        column.encrypted,
                        [],
                        key_epoch=column.key_epoch,
                    )
                    codes[name] = []
                elif column.key_epoch != merged.key_epoch:
                    # Shards rotate independently; a scatter that lands
                    # mid-flip on one shard would need per-span epochs.
                    # Refuse rather than hand the proxy undecryptable
                    # blobs under one stamped epoch.
                    raise ClusterError(
                        f"column {name!r}: shards answered with mixed "
                        "key epochs; retry after the rotation settles"
                    )
                # Concatenate the shards' value lists; each shard's codes
                # shift by the values before it (None = one value per row).
                offset = len(merged.values)
                merged.values.extend(column.values)
                if column.codes is None:
                    codes[name].append(np.arange(offset, len(merged.values)))
                else:
                    codes[name].append(np.asarray(column.codes, dtype=np.int64) + offset)
                    coded.add(name)
        for name in coded:
            columns[name].codes = np.concatenate(codes[name]).astype(
                code_dtype(len(columns[name].values))
            )
        merged_ids = (
            np.concatenate(record_ids)
            if record_ids
            else np.empty(0, dtype=np.int64)
        )
        return ServerResult(table_name, merged_ids, columns)

    def execute_join_select(self, plan, salt: bytes) -> ServerResult:
        """Joins pass through only when both tables live on one shard.

        Cross-shard joins would need the proxy to match enclave-issued join
        tokens across shard results; that is future work and refused loudly
        rather than answered wrong.
        """
        shard_ids = set()
        for table_name in (plan.left_table, plan.right_table):
            for _span, group in self._read_targets(table_name):
                shard_ids.add(group.shard.shard_id)
        if len(shard_ids) > 1:
            raise QueryError(
                f"join of {plan.left_table!r} and {plan.right_table!r} "
                f"spans shards {sorted(shard_ids)}; cross-shard joins are "
                "not supported"
            )
        return self.group(shard_ids.pop()).call(
            "execute_join_select", plan, salt
        )

    # ------------------------------------------------------------------
    # Writes: route to the owning shard group, broadcast to its replicas
    # ------------------------------------------------------------------
    def _tail_group(self, table_name: str) -> ShardGroup:
        assignment = self._assignment(table_name)
        if assignment is None:
            return self.groups[0]
        return self.groups[assignment.last_span().shard_id]

    def execute_insert(self, table_name: str, prepared_rows: list[dict]) -> int:
        return self._tail_group(table_name).broadcast(
            "execute_insert", table_name, prepared_rows
        )

    def execute_delete(self, plan) -> int:
        counts = self._scatter(
            [
                (lambda group=group: group.broadcast("execute_delete", plan))
                for _span, group in self._read_targets(plan.table)
            ]
        )
        return sum(counts)

    def delete_record_ids(self, table_name: str, record_ids) -> int:
        assignment = self._assignment(table_name)
        if assignment is None:
            return self.groups[0].broadcast(
                "delete_record_ids", table_name, record_ids
            )
        by_shard: dict[int, list[int]] = {}
        for global_id in np.asarray(record_ids, dtype=np.int64):
            span = assignment.span_for_row(int(global_id))
            by_shard.setdefault(span.shard_id, []).append(
                int(global_id) - span.row_base
            )
        deleted = 0
        for shard_id, local_ids in by_shard.items():
            deleted += self.groups[shard_id].broadcast(
                "delete_record_ids", table_name, local_ids
            )
        return deleted

    def execute_merge(self, plan) -> int:
        counts = self._scatter(
            [
                (lambda group=group: group.broadcast("execute_merge", plan))
                for _span, group in self._read_targets(plan.table)
            ]
        )
        return sum(counts)

    # ------------------------------------------------------------------
    # Online rotation (repro.migrate): every replica of every populated
    # shard rotates, and the deterministic rotation seed guarantees they
    # all converge on byte-identical ciphertext.
    # ------------------------------------------------------------------
    def _migrate_groups(self, table_name: str) -> list[ShardGroup]:
        """Populated shard groups of ``table_name``, span-ordered."""
        groups: list[ShardGroup] = []
        for _span, group in self._read_targets(table_name):
            if group not in groups:
                groups.append(group)
        return groups

    def _migrate_scatter(
        self,
        table_name: str,
        method: str,
        *args: Any,
        strict: bool = True,
        **kwargs: Any,
    ) -> list:
        """Run one migrate verb on every endpoint of every populated shard;
        the flattened per-endpoint statuses come back in span order (and
        endpoint order within a shard), so progress reads top-to-bottom as
        the data lays out. ``strict`` verbs (anything mutating) require
        every endpoint; status reads settle for the reachable ones."""
        groups = self._migrate_groups(table_name)
        fan_out = "broadcast_all" if strict else "broadcast_each"
        per_group = self._scatter(
            [
                (lambda g=group: getattr(g, fan_out)(method, *args, **kwargs))
                for group in groups
            ]
        )
        statuses: list = []
        for values in per_group:
            for value in values:
                statuses.extend(value if isinstance(value, list) else [value])
        return statuses

    def migrate_start(
        self,
        table_name: str,
        column_name: str,
        *,
        new_kind: str | None = None,
        rotate_key: bool = False,
    ) -> list:
        return self._migrate_scatter(
            table_name,
            "migrate_start",
            table_name,
            column_name,
            new_kind=new_kind,
            rotate_key=rotate_key,
        )

    def migrate_step(
        self, table_name: str, column_name: str, steps: int = 1
    ) -> list:
        return self._migrate_scatter(
            table_name, "migrate_step", table_name, column_name, steps
        )

    def migrate_run(self, table_name: str, column_name: str) -> list:
        return self._migrate_scatter(
            table_name, "migrate_run", table_name, column_name
        )

    def migrate_status(
        self, table_name: str | None = None, column_name: str | None = None
    ) -> list:
        if table_name is None:
            statuses: list = []
            for name in self.table_names():
                statuses.extend(self.migrate_status(name, column_name))
            return statuses
        return self._migrate_scatter(
            table_name, "migrate_status", table_name, column_name, strict=False
        )

    def migrate_rollback(self, table_name: str, column_name: str) -> list:
        return self._migrate_scatter(
            table_name, "migrate_rollback", table_name, column_name
        )

    def explain_migrations(self, plan) -> list:
        """EXPLAIN hook: active rotations on the plan's table(s), cluster-
        wide (span-ordered, one status per endpoint)."""
        tables = [
            name
            for name in (
                getattr(plan, "table", None),
                getattr(plan, "left_table", None),
                getattr(plan, "right_table", None),
            )
            if name is not None
        ]
        statuses: list = []
        for table_name in dict.fromkeys(tables):
            try:
                statuses.extend(
                    status
                    for status in self.migrate_status(table_name)
                    if status.active
                )
            except (ClusterError, NetworkError):
                continue  # EXPLAIN stays best-effort when shards are down
        return statuses

    # ------------------------------------------------------------------
    # DDL and bulk import
    # ------------------------------------------------------------------
    def create_table(self, plan) -> None:
        for group in self.groups:
            group.broadcast("create_table", plan)

    def bulk_load_stream(self, table_name: str, partitions: Iterable) -> int:
        """Deploy a partition stream according to the table's assignment.

        Consumes :class:`~repro.encdict.pipeline.PartitionBuild` items in
        partition order, buffering only the current shard's span; when a
        span completes, its builds are shipped to every endpoint of that
        shard as one ``bulk_load`` (replicas receive byte-identical
        ciphertext — the build is deterministic and already done). Peak
        client memory is O(largest span), not O(table).
        """
        assignment = self._assignment(table_name)
        if assignment is None:
            raise ClusterError(
                f"table {table_name!r} has no shard assignment; "
                "assign it on the shard map before deploying"
            )
        spans = list(assignment.populated_spans())
        span_index = 0
        builds: dict[str, list] = {}
        plains: dict[str, list] = {}
        total_rows = 0
        next_partition = 0
        for partition in partitions:
            if span_index >= len(spans):
                raise ClusterError(
                    f"table {table_name!r}: more partitions streamed than "
                    "assigned"
                )
            for name, build in partition.builds.items():
                builds.setdefault(name, []).append(build)
            for name, values in partition.plain_values.items():
                plains.setdefault(name, []).extend(values)
            next_partition += 1
            if next_partition == spans[span_index].partition_hi:
                total_rows += self._flush_span(
                    table_name, spans[span_index], builds, plains
                )
                builds, plains = {}, {}
                span_index += 1
        if span_index != len(spans) or builds or plains:
            raise ClusterError(
                f"table {table_name!r}: partition stream ended before the "
                "assigned layout was covered"
            )
        return total_rows

    def _flush_span(
        self,
        table_name: str,
        span,
        builds: dict[str, list],
        plains: dict[str, list],
    ) -> int:
        group = self.groups[span.shard_id]
        return group.broadcast(
            "bulk_load",
            table_name,
            plain_columns=plains or None,
            encrypted_builds=builds or None,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table_names(self) -> list[str]:
        return self.group(0).call("table_names")

    def table_specs(self, table_name: str) -> tuple:
        return tuple(self.group(0).call("table_specs", table_name))

    def cost_snapshot(self) -> dict:
        """Aggregate enclave cost counters over every shard primary."""
        shard_snapshots = [
            group.call("cost_snapshot") for group in self.groups
        ]
        merged: dict[str, Any] = {}
        for snapshot in shard_snapshots:
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
                elif isinstance(value, dict):
                    bucket = merged.setdefault(key, {})
                    for name, count in value.items():
                        bucket[name] = bucket.get(name, 0) + count
        merged["shards"] = shard_snapshots
        return merged

    def save(self, path) -> None:
        raise ClusterError(
            "cluster-wide save is not supported; persist each shard through "
            "its own server"
        )

    # ------------------------------------------------------------------
    # EXPLAIN support (consumed by Proxy.explain via duck typing)
    # ------------------------------------------------------------------
    def explain_routing(self, plan) -> list[str]:
        from repro.sql.printer import cluster_routing_lines

        return cluster_routing_lines(plan, self.shard_map)

    def close(self) -> None:
        for group in self.groups:
            group.close()
