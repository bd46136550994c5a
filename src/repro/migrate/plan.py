"""Migration plans: a rotation decomposed into reversible phased steps.

A plan is pure data — table, column, source and target (kind, key epoch),
and an ordered tuple of :class:`MigrationStep`\\ s grouped into four phases:

``prep``
    Open the column's dual-version shadow slots (``open-shadow``).
``backfill``
    One ``rotate`` step per main partition: the ``rotate_partition`` ecall
    rebuilds the partition's ciphertext under the target kind/epoch and the
    result is parked in the shadow slot. The old version keeps serving.
``tighten``
    One ``verify`` step per partition: enclave-issued join tokens (fresh
    salt) prove the shadow build holds exactly the old rows in the old
    order, without revealing plaintext to the verifier.
``finalize``
    Kind-only rotations promote partitions one ``swap`` at a time — readers
    stall at most one partition swap. Key rotations instead need one
    atomic ``flip`` (partitions + delta + epoch change together, or the
    proxy could not pick a decryption key per result column). Both end with
    ``adopt``: the catalog spec takes the new kind/epoch and the shadow
    state is dropped — the point of no return.

Every step before ``adopt`` has an inverse, so :meth:`MigrationJob.rollback
<repro.migrate.runner.MigrationJob.rollback>` can unwind any executed
prefix in reverse order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MigrationError

PHASES = ("prep", "backfill", "tighten", "finalize")

#: Step actions, per phase: prep→open-shadow, backfill→rotate,
#: tighten→verify, finalize→swap|flip then adopt.
ACTIONS = ("open-shadow", "rotate", "verify", "swap", "flip", "adopt")


@dataclass(frozen=True)
class MigrationStep:
    """One reversible unit of work of an online rotation."""

    step_id: int
    phase: str
    action: str
    table: str
    column: str
    #: Main-partition index the step touches; -1 for whole-column steps.
    partition_index: int = -1

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise MigrationError(f"unknown migration phase {self.phase!r}")
        if self.action not in ACTIONS:
            raise MigrationError(f"unknown migration action {self.action!r}")


@dataclass(frozen=True)
class MigrationPlan:
    """A full rotation of one column, as an ordered step sequence."""

    table: str
    column: str
    old_kind: str
    new_kind: str
    old_key_epoch: int
    new_key_epoch: int
    partition_count: int
    steps: tuple[MigrationStep, ...]

    @classmethod
    def for_rotation(
        cls,
        table: str,
        column: str,
        *,
        old_kind: str,
        new_kind: str,
        old_key_epoch: int,
        new_key_epoch: int,
        partition_count: int,
    ) -> "MigrationPlan":
        """Decompose a rotation target into the phased step sequence."""
        if new_kind == old_kind and new_key_epoch == old_key_epoch:
            raise MigrationError(
                f"{table}.{column} is already {new_kind} at key epoch "
                f"{new_key_epoch}; nothing to migrate"
            )
        if new_key_epoch < old_key_epoch:
            raise MigrationError("key epochs only move forward")
        if partition_count < 1:
            raise MigrationError(f"{table}.{column} has no main partitions to rotate")
        steps: list[MigrationStep] = []

        def add(phase: str, action: str, partition_index: int = -1) -> None:
            steps.append(
                MigrationStep(
                    step_id=len(steps),
                    phase=phase,
                    action=action,
                    table=table,
                    column=column,
                    partition_index=partition_index,
                )
            )

        add("prep", "open-shadow")
        for index in range(partition_count):
            add("backfill", "rotate", index)
        for index in range(partition_count):
            add("tighten", "verify", index)
        if new_key_epoch != old_key_epoch:
            # The epoch change must be atomic across the whole column (the
            # delta store re-seals with it), so finalize is a single flip.
            add("finalize", "flip")
        else:
            # Same key, new kind: partitions can promote independently —
            # a reader is never blocked longer than one partition swap.
            for index in range(partition_count):
                add("finalize", "swap", index)
        add("finalize", "adopt")
        return cls(
            table=table,
            column=column,
            old_kind=old_kind,
            new_kind=new_kind,
            old_key_epoch=old_key_epoch,
            new_key_epoch=new_key_epoch,
            partition_count=partition_count,
            steps=tuple(steps),
        )


@dataclass
class MigrationStatus:
    """Wire-safe progress snapshot of one migration job.

    Everything here is public layout/progress metadata — kinds, epochs, the
    phase the cursor sits in, per-partition version labels — matching the
    §4.1 leakage stance: the provider already sees which ciphertext version
    serves; the status frame adds nothing.
    """

    migration_id: int
    table: str
    column: str
    old_kind: str
    new_kind: str
    old_key_epoch: int
    new_key_epoch: int
    state: str  # running | done | failed | rolled-back
    phase: str  # phase of the next (or failed) step; "finalize" when done
    steps_total: int
    steps_done: int
    partition_versions: list[str] = field(default_factory=list)
    error: str = ""

    @property
    def active(self) -> bool:
        return self.state in ("running", "failed")
