"""The write-ahead plan journal: serialization, backends, recovery."""

import datetime
import json

import pytest

from repro.errors import JournalError
from repro.relational.ddl import relation
from repro.relational.journal import (
    ABORTED,
    COMMITTED,
    PENDING,
    FileJournal,
    MemoryJournal,
    RecoveryReport,
    apply_journaled,
    plan_images,
    recover,
)
from repro.relational.memory_engine import MemoryEngine
from repro.relational.operations import Delete, Insert, Replace, UpdatePlan

ITEMS = (
    relation("ITEMS")
    .integer("item_id")
    .text("label")
    .date("added", nullable=True)
    .key("item_id")
    .build()
)
TAGS = relation("TAGS").integer("tag_id").text("name").key("tag_id").build()


def make_engine():
    engine = MemoryEngine()
    engine.create_relation(ITEMS)
    engine.create_relation(TAGS)
    engine.insert("ITEMS", (1, "one", datetime.date(2020, 1, 2)))
    engine.insert("ITEMS", (2, "two", None))
    engine.insert("TAGS", (10, "old"))
    return engine


def sample_plan():
    plan = UpdatePlan()
    plan.add(Insert("ITEMS", (3, "three", datetime.date(2021, 3, 4))), "grow")
    plan.add(Replace("TAGS", (10,), (10, "new")), "rename")
    plan.add(Delete("ITEMS", (2,)), "shrink")
    return plan


class TestRoundTrip:
    def test_plan_survives_encode_decode(self):
        journal = MemoryJournal()
        engine = make_engine()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan), label="t")
        decoded = journal.entry(entry_id).plan()
        assert decoded.operations == plan.operations
        assert decoded.reasons == plan.reasons

    def test_dates_round_trip_through_json(self):
        journal = MemoryJournal()
        engine = make_engine()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        entry = journal.entry(entry_id)
        # The stored records must themselves be JSON-safe.
        json.dumps(entry.plan_records)
        json.dumps(entry.image_records)
        op = entry.plan().operations[0]
        assert op.values[2] == datetime.date(2021, 3, 4)
        _before, after = entry.images()[("ITEMS", (3,))]
        assert after == (3, "three", datetime.date(2021, 3, 4))


class TestImages:
    def test_plan_images_cover_every_cell(self):
        engine = make_engine()
        images = plan_images(engine, sample_plan())
        assert images[("ITEMS", (3,))] == (
            None,
            (3, "three", datetime.date(2021, 3, 4)),
        )
        assert images[("TAGS", (10,))] == ((10, "old"), (10, "new"))
        assert images[("ITEMS", (2,))] == ((2, "two", None), None)

    def test_key_changing_replace_makes_two_cells(self):
        engine = make_engine()
        plan = UpdatePlan()
        plan.add(Replace("TAGS", (10,), (11, "moved")))
        images = plan_images(engine, plan)
        assert images[("TAGS", (10,))] == ((10, "old"), None)
        assert images[("TAGS", (11,))] == (None, (11, "moved"))


class TestBackends:
    def test_status_lifecycle(self):
        journal = MemoryJournal()
        engine = make_engine()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        assert journal.entry(entry_id).status == PENDING
        assert [e.entry_id for e in journal.pending()] == [entry_id]
        journal.mark_committed(entry_id)
        assert journal.entry(entry_id).status == COMMITTED
        assert journal.pending() == []
        with pytest.raises(JournalError):
            journal.mark_committed(999)

    def test_file_journal_reload_folds_markers(self, tmp_path):
        path = tmp_path / "plans.journal"
        engine = make_engine()
        journal = FileJournal(path)
        first = journal.begin(sample_plan(), plan_images(engine, sample_plan()))
        journal.mark_committed(first)
        second = journal.begin(sample_plan(), plan_images(engine, sample_plan()))
        journal.close()  # `second` left PENDING, like a crash

        reopened = FileJournal(path)
        assert len(reopened) == 2
        assert reopened.entry(first).status == COMMITTED
        assert reopened.entry(second).status == PENDING
        # Ids keep increasing after reload.
        third = reopened.begin(sample_plan(), {})
        assert third > second
        reopened.close()

    def test_file_journal_rejects_corruption(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text("not json\n")
        with pytest.raises(JournalError):
            FileJournal(path)
        path.write_text('{"event":"committed","id":7}\n')
        with pytest.raises(JournalError):
            FileJournal(path)


class TestRecovery:
    def test_committed_entries_are_ignored(self):
        engine = make_engine()
        journal = MemoryJournal()
        apply_journaled(engine, journal, sample_plan())
        report = recover(engine, journal)
        assert report.pending_resolved == 0
        assert report.clean

    def test_completed_pending_entry_is_marked_committed(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        engine.apply_batch(plan.operations)  # applied, but marker lost
        report = recover(engine, journal)
        assert report.replayed == [entry_id]
        assert journal.entry(entry_id).status == COMMITTED
        assert engine.get("TAGS", (10,)) == (10, "new")

    def test_torn_plan_is_reverted(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        entry_id = journal.begin(plan, plan_images(engine, plan))
        # Apply only a prefix: the classic torn state.
        plan.operations[0].apply(engine)
        plan.operations[1].apply(engine)
        report = recover(engine, journal)
        assert report.reverted == [entry_id]
        assert journal.entry(entry_id).status == ABORTED
        assert engine.get("ITEMS", (3,)) is None
        assert engine.get("TAGS", (10,)) == (10, "old")
        assert engine.get("ITEMS", (2,)) == (2, "two", None)

    def test_recover_is_idempotent(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = sample_plan()
        journal.begin(plan, plan_images(engine, plan))
        plan.operations[0].apply(engine)
        assert recover(engine, journal).pending_resolved == 1
        again = recover(engine, journal)
        assert again.pending_resolved == 0
        assert again.clean

    def test_intermediate_value_of_multi_touch_plan_is_reverted(self):
        """Crash between two ops on the same cell: the live value
        matches neither net image, but it IS on the plan's simulated
        value chain — recovery must revert it, not call it a conflict."""
        engine = make_engine()
        journal = MemoryJournal()
        plan = UpdatePlan()
        plan.add(Insert("TAGS", (30, "first")))
        plan.add(Replace("TAGS", (30,), (30, "second")))
        entry_id = journal.begin(plan, plan_images(engine, plan))
        plan.operations[0].apply(engine)  # crash before the replace
        report = recover(engine, journal)
        assert report.clean
        assert report.reverted == [entry_id]
        assert engine.get("TAGS", (30,)) is None

    def test_foreign_write_is_a_conflict_not_clobbered(self):
        engine = make_engine()
        journal = MemoryJournal()
        plan = UpdatePlan()
        plan.add(Replace("TAGS", (10,), (10, "new")))
        entry_id = journal.begin(plan, plan_images(engine, plan))
        # Someone else wrote a third value after the crash.
        engine.replace("TAGS", (10,), (10, "foreign"))
        report = recover(engine, journal)
        assert report.conflicts == [(entry_id, "TAGS", (10,))]
        assert not report.clean
        assert engine.get("TAGS", (10,)) == (10, "foreign")

    def test_open_transaction_is_discarded_first(self):
        engine = make_engine()
        journal = MemoryJournal()
        engine.begin()
        engine.insert("TAGS", (99, "uncommitted"))
        report = recover(engine, journal)
        assert report.transactions_discarded == 1
        assert not engine.in_transaction
        assert engine.get("TAGS", (99,)) is None

    def test_report_as_dict(self):
        report = RecoveryReport()
        report.replayed.append(1)
        assert report.as_dict()["replayed"] == [1]
        assert report.clean
