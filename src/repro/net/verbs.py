"""The wire verbs of an EncDBDB server, declared once.

Every RPC a remote proxy or data owner may send in a QUERY frame is one
entry of :data:`VERBS`, and every other form of the wire surface is derived
from that table:

- :class:`~repro.net.server.NetServer` dispatches a verb to the same-named
  :class:`~repro.server.dbms.EncDBDBServer` method, on or off the ecall
  lock; a name that is not in the table is rejected, so the wire cannot
  reach arbitrary attributes of the DBMS.
- :class:`~repro.net.client.RemoteServer` gets one forwarding stub per verb
  it does not write out by hand.
- :class:`~repro.cluster.router.ClusterRouter` gets one forwarder per verb
  whose fan-out policy is declared here.
- :mod:`repro.analysis.leakage` builds its per-verb leakage contracts
  (DESIGN.md §15) from ``observables``.

Adding a wire verb takes one entry here plus its handler on
``EncDBDBServer`` (and a hand-written ``ClusterRouter`` method if its
``cluster`` policy is ``"custom"``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verb:
    """One wire verb.

    ``observables`` is its leakage contract: the provider-visible facts a
    call legitimately reveals, beyond the error-frame contract every verb
    shares. ``lock_free`` verbs run on a worker thread without the server's
    ecall lock. ``cluster`` is how a :class:`~repro.cluster.router.
    ClusterRouter` fans the verb out:

    - ``"primary"``: answered by shard 0 (every shard holds the schema);
    - ``"every_shard"``: broadcast to every endpoint of every shard;
    - ``"tail"``: broadcast to the replicas of the shard holding the tail of
      the table named by the first argument;
    - ``"scatter_sum"``: broadcast to every populated shard of the first
      argument's ``plan.table``; the counts are summed;
    - ``"migrate"``: every endpoint of every populated shard of the table
      named by the first argument must answer; the statuses come back
      flattened in span order;
    - ``"custom"``: a hand-written router method with its own merge logic;
    - ``None``: not routed by a cluster.
    """

    observables: str
    lock_free: bool = False
    cluster: str | None = None


#: Lock-free verbs: bulk imports perform no enclave calls at all (the owner
#: ships finished ciphertext), so a long load cannot starve concurrent
#: queries. Migration verbs DO cross the boundary, but deliberately run off
#: the ecall lock too: a ``migrate_run`` that held it would stall every query
#: for the whole backfill. Correctness comes from the enclave's boundary
#: lock (one thread inside per ecall) and the column's shadow lock (atomic
#: swaps/flips), so a concurrent query waits at most one partition-sized
#: critical section — the paper-style cost accounting may interleave while
#: a rotation runs.
VERBS: dict[str, Verb] = {
    "create_table": Verb(
        "schema shape (names, kinds, widths)", cluster="every_shard"
    ),
    "bulk_load": Verb("ciphertext partition sizes and counts", lock_free=True),
    "execute_select": Verb(
        "result frame byte size; per column the distinct-ciphertext count "
        "plus row codes — a deterministic re-encoding of the row-order blobs",
        cluster="custom",
    ),
    # Analytics pushdown: routed SELECT + its EXPLAIN counterpart.
    "execute_select_pushdown": Verb(
        "padded group-frame count and uniform frame size (see "
        "aggregate_groups)",
        cluster="custom",
    ),
    "explain_pushdown": Verb(
        "plan routing text — operator names and cost classes only, never "
        "values",
        cluster="custom",
    ),
    "execute_join_select": Verb(
        "joined result frame byte size; per column the distinct-ciphertext "
        "count plus row codes — a deterministic re-encoding of the row-order "
        "blobs",
        cluster="custom",
    ),
    "execute_insert": Verb("one ack; delta append count", cluster="tail"),
    "execute_delete": Verb("deleted-row count", cluster="scatter_sum"),
    "delete_record_ids": Verb("deleted-row count", cluster="custom"),
    "execute_merge": Verb("merged partition count", cluster="scatter_sum"),
    "save": Verb("snapshot byte size on the server disk", cluster="custom"),
    "table_names": Verb(
        "table name list (schema is not protected)", cluster="primary"
    ),
    "table_specs": Verb("schema shape per table", cluster="primary"),
    "cost_snapshot": Verb("aggregate ecall/decrypt counters", cluster="custom"),
    "enclave_seal": Verb("one fixed-size sealed blob"),
    "enclave_restore": Verb("one ack"),
    # Cluster key replication (primary side): hand SKDB to an attested
    # replica enclave through a secure channel terminated inside both
    # enclaves. The relay sees only a quote and PAE blobs.
    "enclave_replicate_key": Verb(
        "one DH public value + one fixed-size PAE blob (relay-opaque)"
    ),
    "enclave_is_provisioned": Verb("one boolean"),
    # Online rotation (repro.migrate): typed MigrationStatus progress frames.
    "migrate_start": Verb(
        "typed MigrationStatus progress frame", lock_free=True, cluster="migrate"
    ),
    "migrate_step": Verb(
        "typed MigrationStatus progress frame", lock_free=True, cluster="migrate"
    ),
    "migrate_run": Verb(
        "typed MigrationStatus progress frame", lock_free=True, cluster="migrate"
    ),
    "migrate_status": Verb(
        "typed MigrationStatus progress frame", lock_free=True, cluster="custom"
    ),
    "migrate_rollback": Verb(
        "typed MigrationStatus progress frame", lock_free=True, cluster="migrate"
    ),
}
