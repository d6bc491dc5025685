"""Write-ahead intent journal for update plans, with crash recovery.

The translators promise all-or-nothing semantics, but an engine
transaction only protects against failures *inside* the transaction
window. A process crash between applying a plan and recording that it
was applied — or a storage layer whose multi-operation batch is not
atomic — leaves the question "did this plan happen?" unanswerable from
the data alone. The journal answers it:

1. before a plan is applied, it is serialized and appended with status
   ``PENDING`` (durably — the file-backed journal fsyncs), together
   with the *before/after images* of every (relation, key) cell it
   touches;
2. the plan is applied;
3. the entry is marked ``COMMITTED``.

:func:`recover` runs at :class:`~repro.penguin.Penguin` startup: any
entry still ``PENDING`` is re-resolved idempotently by comparing its
journaled images against the live tuples — if every cell shows the
after-image the plan completed (mark ``COMMITTED``); otherwise every
cell that moved is put back to its before-image and the entry is marked
``ABORTED``. Either way the database ends all-applied or all-reverted:
no torn plans.

Two backends: :class:`MemoryJournal` (tests, ephemeral sessions) and
:class:`FileJournal` (append-only JSON lines, ``fsync`` on every
append, reloaded on open).
"""

from __future__ import annotations

import datetime
import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.errors import JournalError
from repro.obs.context import current_trace_id
from repro.relational.engine import Engine
from repro.relational.operations import (
    DatabaseOperation,
    Delete,
    Insert,
    Replace,
    UpdatePlan,
)

__all__ = [
    "PENDING",
    "COMMITTED",
    "ABORTED",
    "JournalEntry",
    "PlanJournal",
    "MemoryJournal",
    "FileJournal",
    "plan_images",
    "apply_journaled",
    "recover",
    "RecoveryReport",
    "encode_plan",
    "decode_plan",
    "encode_images",
    "decode_images",
]

PENDING = "pending"
COMMITTED = "committed"
ABORTED = "aborted"

Cell = Tuple[str, Tuple[Any, ...]]  # (relation, primary key)
Images = Dict[Cell, Tuple[Optional[Tuple[Any, ...]], Optional[Tuple[Any, ...]]]]


# ---------------------------------------------------------------------------
# Value serialization (JSON-safe round-trip for engine rows)
# ---------------------------------------------------------------------------


def _encode_scalar(value: Any) -> Any:
    if isinstance(value, datetime.datetime):  # narrowed defensively
        return {"$date": value.date().isoformat()}
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def _decode_scalar(value: Any) -> Any:
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


def _encode_row(row: Optional[Sequence[Any]]) -> Optional[List[Any]]:
    if row is None:
        return None
    return [_encode_scalar(v) for v in row]


def _decode_row(row: Optional[Sequence[Any]]) -> Optional[Tuple[Any, ...]]:
    if row is None:
        return None
    return tuple(_decode_scalar(v) for v in row)


def encode_plan(plan: UpdatePlan) -> List[Dict[str, Any]]:
    out = []
    for operation, reason in zip(plan.operations, plan.reasons):
        record: Dict[str, Any] = {
            "kind": operation.kind,
            "relation": operation.relation,
        }
        if operation.kind in ("delete", "replace"):
            record["key"] = _encode_row(operation.key)
        if operation.kind in ("insert", "replace"):
            record["values"] = _encode_row(operation.values)
        if reason:
            record["reason"] = reason
        out.append(record)
    return out


def decode_plan(records: Iterable[Dict[str, Any]]) -> UpdatePlan:
    plan = UpdatePlan()
    for record in records:
        kind = record["kind"]
        relation = record["relation"]
        if kind == "insert":
            operation: DatabaseOperation = Insert(
                relation, _decode_row(record["values"])
            )
        elif kind == "delete":
            operation = Delete(relation, _decode_row(record["key"]))
        elif kind == "replace":
            operation = Replace(
                relation, _decode_row(record["key"]), _decode_row(record["values"])
            )
        else:
            raise JournalError(f"unknown journaled operation kind {kind!r}")
        plan.add(operation, record.get("reason", ""))
    return plan


def encode_images(images: Images) -> List[List[Any]]:
    return [
        [relation, _encode_row(key), _encode_row(before), _encode_row(after)]
        for (relation, key), (before, after) in images.items()
    ]


def decode_images(rows: Iterable[Sequence[Any]]) -> Images:
    images: Images = {}
    for relation, key, before, after in rows:
        images[(relation, _decode_row(key))] = (
            _decode_row(before),
            _decode_row(after),
        )
    return images


# ---------------------------------------------------------------------------
# Before/after image capture
# ---------------------------------------------------------------------------


def plan_images(engine: Engine, plan: UpdatePlan) -> Images:
    """Net before/after images of every cell ``plan`` will touch.

    Must be called *before* the plan is applied: before-images are read
    from the engine. A key-changing replacement contributes two cells —
    the vacated old key and the occupied new key.
    """
    images: Images = {}

    def cell(relation: str, key: Tuple[Any, ...]):
        cell_key = (relation, tuple(key))
        if cell_key not in images:
            images[cell_key] = (engine.get(relation, key), None)
        return cell_key

    for operation in plan.operations:
        relation = operation.relation
        schema = engine.schema(relation)
        if operation.kind == "insert":
            key = schema.key_of(operation.values)
            ck = cell(relation, key)
            images[ck] = (images[ck][0], tuple(operation.values))
        elif operation.kind == "delete":
            ck = cell(relation, operation.key)
            images[ck] = (images[ck][0], None)
        else:  # replace
            new_key = schema.key_of(operation.values)
            old_ck = cell(relation, operation.key)
            if new_key == tuple(operation.key):
                images[old_ck] = (images[old_ck][0], tuple(operation.values))
            else:
                images[old_ck] = (images[old_ck][0], None)
                new_ck = cell(relation, new_key)
                images[new_ck] = (images[new_ck][0], tuple(operation.values))
    return images


# ---------------------------------------------------------------------------
# Journal backends
# ---------------------------------------------------------------------------


class JournalEntry:
    """One journaled plan with its resolution state."""

    __slots__ = (
        "entry_id",
        "status",
        "plan_records",
        "image_records",
        "label",
        "trace_id",
    )

    def __init__(
        self,
        entry_id: int,
        plan_records: List[Dict[str, Any]],
        image_records: List[List[Any]],
        label: str = "",
        status: str = PENDING,
        trace_id: Optional[str] = None,
    ) -> None:
        self.entry_id = entry_id
        self.status = status
        self.plan_records = plan_records
        self.image_records = image_records
        self.label = label
        self.trace_id = trace_id

    def plan(self) -> UpdatePlan:
        return decode_plan(self.plan_records)

    def images(self) -> Images:
        return decode_images(self.image_records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JournalEntry(#{self.entry_id}, {self.status}, "
            f"{len(self.plan_records)} ops)"
        )


class PlanJournal:
    """Common machinery of the journal backends.

    The journal is append-only: ``begin`` appends a ``PENDING`` record
    carrying the serialized plan and images; ``mark_committed`` /
    ``mark_aborted`` append status markers referencing the entry id.
    Readers fold markers over entries, so replaying a journal file
    reconstructs exactly the in-memory state.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, JournalEntry] = {}
        self._next_id = 1
        self._lock = threading.Lock()

    # -- writing ------------------------------------------------------------

    def begin(self, plan: UpdatePlan, images: Images, label: str = "") -> int:
        """Append a PENDING entry; returns its id."""
        return self.begin_encoded(
            encode_plan(plan), encode_images(images), label
        )

    def begin_encoded(
        self,
        plan_records: List[Dict[str, Any]],
        image_records: List[List[Any]],
        label: str = "",
    ) -> int:
        """Append a PENDING entry from already-encoded payloads.

        The replica apply path journals the exact records the primary
        shipped; re-encoding a plan it just decoded would double the
        serialization cost for byte-identical output.

        The intent is stamped with the ambient trace id (if a
        :class:`~repro.obs.context.TraceContext` is active), so a
        recovered journal can still answer *which request* left a
        PENDING entry behind.
        """
        trace_id = current_trace_id()
        with self._lock:
            entry_id = self._next_id
            self._next_id += 1
            entry = JournalEntry(
                entry_id, plan_records, image_records, label,
                trace_id=trace_id,
            )
            self._entries[entry_id] = entry
            payload = {
                "event": PENDING,
                "id": entry_id,
                "label": label,
                "plan": entry.plan_records,
                "images": entry.image_records,
            }
            if trace_id is not None:
                payload["trace"] = trace_id
            self._append(payload)
        obs.metrics().counter("journal_entries_total", label=label).inc()
        return entry_id

    def mark_committed(self, entry_id: int) -> None:
        self._mark(entry_id, COMMITTED)

    def mark_aborted(self, entry_id: int) -> None:
        self._mark(entry_id, ABORTED)

    def _mark(self, entry_id: int, status: str) -> None:
        with self._lock:
            entry = self._entries.get(entry_id)
            if entry is None:
                raise JournalError(f"unknown journal entry #{entry_id}")
            entry.status = status
            self._append({"event": status, "id": entry_id})

    # -- reading ------------------------------------------------------------

    def entries(self) -> List[JournalEntry]:
        with self._lock:
            return list(self._entries.values())

    def pending(self) -> List[JournalEntry]:
        with self._lock:
            return [e for e in self._entries.values() if e.status == PENDING]

    def entry(self, entry_id: int) -> JournalEntry:
        with self._lock:
            try:
                return self._entries[entry_id]
            except KeyError:
                raise JournalError(f"unknown journal entry #{entry_id}") from None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- backend hook --------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        """Persist one record (called under the journal lock)."""

    def close(self) -> None:
        pass


class MemoryJournal(PlanJournal):
    """Journal kept only in memory — for tests and ephemeral sessions."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryJournal({len(self._entries)} entries)"


class FileJournal(PlanJournal):
    """Durable journal: append-only JSON lines, fsync'd per append.

    Reopening the same path reloads every entry and folds the status
    markers, so a restarted process sees exactly the pre-crash journal
    — including any entry still PENDING, which :func:`recover` then
    resolves.
    """

    def __init__(self, path) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self._load()
        self._file = open(self.path, "a", encoding="utf-8")

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    raise JournalError(
                        f"{self.path}:{line_no}: corrupt journal record"
                    ) from exc
                event = record.get("event")
                if event == PENDING:
                    entry = JournalEntry(
                        record["id"],
                        record["plan"],
                        record["images"],
                        record.get("label", ""),
                        trace_id=record.get("trace"),
                    )
                    self._entries[entry.entry_id] = entry
                    self._next_id = max(self._next_id, entry.entry_id + 1)
                elif event in (COMMITTED, ABORTED):
                    entry = self._entries.get(record["id"])
                    if entry is None:
                        raise JournalError(
                            f"{self.path}:{line_no}: marker for unknown "
                            f"entry #{record['id']}"
                        )
                    entry.status = event
                else:
                    raise JournalError(
                        f"{self.path}:{line_no}: unknown event {event!r}"
                    )

    def _append(self, record: Dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileJournal({self.path!r}, {len(self._entries)} entries)"


# ---------------------------------------------------------------------------
# Journaled application and recovery
# ---------------------------------------------------------------------------


def apply_journaled(
    engine: Engine,
    journal: PlanJournal,
    plan: UpdatePlan,
    atomic: bool = True,
    label: str = "",
) -> int:
    """Apply ``plan`` under journal protection; returns the entry id.

    With ``atomic=True`` the plan runs through the engine's batched
    transaction path. ``atomic=False`` applies each operation in
    autocommit mode — modelling a storage layer without multi-operation
    atomicity — which is exactly the regime where a mid-plan crash
    leaves a torn state for :func:`recover` to repair.
    """
    images = plan_images(engine, plan)
    entry_id = journal.begin(plan, images, label=label)
    if atomic:
        engine.apply_batch(plan.operations)
    else:
        for operation in plan.operations:
            operation.apply(engine)
    journal.mark_committed(entry_id)
    return entry_id


def _value_chains(
    engine: Engine, entry: JournalEntry
) -> Dict[Cell, List[Optional[Tuple[Any, ...]]]]:
    """Every value each journaled cell passes through, in plan order.

    A non-atomic plan that touches the same cell more than once (insert
    then replace, say) can be interrupted with the cell at an
    *intermediate* value matching neither net image. Simulating the
    journaled plan forward from the before-images recovers the full
    value history, so :func:`recover` can tell a torn intermediate
    state (revertible) from a foreign write (a conflict).
    """
    images = entry.images()
    chains: Dict[Cell, List[Optional[Tuple[Any, ...]]]] = {
        cell: [before] for cell, (before, _) in images.items()
    }

    def push(cell: Cell, value: Optional[Tuple[Any, ...]]) -> None:
        chain = chains.get(cell)
        if chain is not None and chain[-1] != value:
            chain.append(value)

    for operation in entry.plan().operations:
        relation = operation.relation
        schema = engine.schema(relation)
        if operation.kind == "insert":
            key = tuple(schema.key_of(operation.values))
            push((relation, key), tuple(operation.values))
        elif operation.kind == "delete":
            push((relation, tuple(operation.key)), None)
        else:  # replace
            new_key = tuple(schema.key_of(operation.values))
            if new_key == tuple(operation.key):
                push((relation, new_key), tuple(operation.values))
            else:
                push((relation, tuple(operation.key)), None)
                push((relation, new_key), tuple(operation.values))
    return chains


class RecoveryReport:
    """What :func:`recover` found and did."""

    def __init__(self) -> None:
        self.replayed: List[int] = []  # confirmed complete -> COMMITTED
        self.reverted: List[int] = []  # rolled back -> ABORTED
        self.conflicts: List[Tuple[int, str, Tuple[Any, ...]]] = []
        self.transactions_discarded = 0

    @property
    def pending_resolved(self) -> int:
        return len(self.replayed) + len(self.reverted)

    @property
    def clean(self) -> bool:
        """True when recovery resolved everything without conflicts."""
        return not self.conflicts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "replayed": list(self.replayed),
            "reverted": list(self.reverted),
            "conflicts": list(self.conflicts),
            "transactions_discarded": self.transactions_discarded,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecoveryReport(replayed={len(self.replayed)}, "
            f"reverted={len(self.reverted)}, "
            f"conflicts={len(self.conflicts)})"
        )


def recover(engine: Engine, journal: PlanJournal) -> RecoveryReport:
    """Resolve every PENDING journal entry, idempotently.

    For each pending plan, the live tuple of every journaled cell is
    compared against the before/after images:

    * every cell at its after-image → the plan completed before the
      crash; mark it ``COMMITTED`` (nothing to re-apply);
    * otherwise → revert each cell that moved back to its before-image
      inside one transaction and mark the entry ``ABORTED``.

    A cell at an *intermediate* value of a multi-touch plan (the crash
    hit between two operations on the same cell) is still revertible:
    the journaled plan is simulated forward to learn every value the
    cell legitimately passes through. Only a value matching none of
    them means someone else wrote the cell after the crash; it is left
    untouched and reported as a conflict rather than clobbered. Running
    recover twice is a no-op the second time.
    """
    report = RecoveryReport()

    with obs.tracer().span("journal.recover") as span:
        _recover_into(engine, journal, report)
        span.set(
            replayed=len(report.replayed),
            reverted=len(report.reverted),
            conflicts=len(report.conflicts),
        )
    registry = obs.metrics()
    registry.counter("journal_recoveries_total").inc()
    registry.counter("journal_replayed_total").inc(len(report.replayed))
    registry.counter("journal_reverted_total").inc(len(report.reverted))
    registry.counter("journal_conflicts_total").inc(len(report.conflicts))
    return report


def _recover_into(
    engine: Engine, journal: PlanJournal, report: RecoveryReport
) -> None:
    # A simulated crash can leave the engine mid-transaction; a real
    # restart would discard that transaction implicitly, so do the same.
    while getattr(engine, "in_transaction", False):
        engine.rollback()
        report.transactions_discarded += 1

    for entry in journal.pending():
        images = entry.images()
        live = {
            cell: engine.get(cell[0], cell[1]) for cell in images
        }
        if all(live[cell] == after for cell, (_, after) in images.items()):
            journal.mark_committed(entry.entry_id)
            report.replayed.append(entry.entry_id)
            continue
        chains = _value_chains(engine, entry)
        engine.begin()
        try:
            for (relation, key), (before, after) in images.items():
                current = live[(relation, key)]
                if current == before:
                    continue  # this cell never moved (or already reverted)
                if current not in chains[(relation, key)]:
                    report.conflicts.append((entry.entry_id, relation, key))
                    continue  # foreign write: do not clobber
                if before is None:
                    engine.delete(relation, key)
                elif current is None:
                    engine.insert(relation, before)
                else:
                    engine.replace(relation, key, before)
        except Exception:
            engine.rollback()
            raise
        engine.commit()
        journal.mark_aborted(entry.entry_id)
        report.reverted.append(entry.entry_id)
