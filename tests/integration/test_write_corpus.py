"""Golden write corpus: every public write entry point, end to end.

Each case builds a fresh journaled, audited :class:`Penguin` over a
small university (``course_info``) or hospital (``patient_chart``)
database, runs one write scenario, and renders what it left behind:

* the operations of the plan the call returned (or the exception it
  raised);
* the final rows of every relation;
* each journal entry's status and before/after images;
* each audit record's op, outcome, items, images and error class.

Times and trace ids never enter the rendering, and image cells are
sorted, so the corpus is byte-stable. The committed fixture is
``tests/integration/golden/write_corpus.txt``; to regenerate after an
intentional change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_write_corpus.py

then review the fixture diff line by line.
"""

import os
from pathlib import Path

import pytest

from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialUpdate,
    Replacement,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.obs.audit import MemoryAuditLog
from repro.penguin import Penguin
from repro.relational.faults import FaultInjectingEngine, FaultPlan
from repro.relational.journal import MemoryJournal
from repro.relational.memory_engine import MemoryEngine
from repro.workloads.figures import course_info_object
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)
from repro.workloads.university import (
    UniversityConfig,
    populate_university,
    university_schema,
)

GOLDEN = Path(__file__).parent / "golden" / "write_corpus.txt"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))


# -- workloads ---------------------------------------------------------------


class Workload:
    """One object over a small populated schema, plus case inputs."""

    name = ""
    object_name = ""

    def session(self, fault_plan=None, **kwargs) -> Penguin:
        graph = self.schema()
        base = MemoryEngine()
        graph.install(base)
        self.populate(base)
        engine = base if fault_plan is None else FaultInjectingEngine(
            base, fault_plan
        )
        penguin = Penguin(
            graph,
            engine=engine,
            install=False,
            journal=MemoryJournal(),
            audit=MemoryAuditLog(),
            **kwargs,
        )
        penguin.register_object(self.view_object(graph))
        return penguin

    def keys(self, penguin):
        return sorted(i.key for i in penguin.query(self.object_name))


class University(Workload):
    name = "university"
    object_name = "course_info"
    schema = staticmethod(university_schema)
    view_object = staticmethod(course_info_object)

    def populate(self, engine):
        populate_university(engine, UniversityConfig(
            students=6, faculty=3, staff=1, courses=4,
            enrollments_per_student=2, curriculum_entries=4,
        ))

    def fresh(self, penguin, course_id):
        student = sorted(penguin.engine.scan("STUDENT"))[0]
        return {
            "course_id": course_id,
            "title": "View Objects",
            "units": 3,
            "level": "graduate",
            "dept_name": "Computer Science",
            "DEPARTMENT": [
                {"dept_name": "Computer Science", "building": "Gates"}
            ],
            "CURRICULUM": [],
            "GRADES": [{
                "course_id": course_id,
                "student_id": student[0],
                "grade": "A",
                "STUDENT": [{
                    "person_id": student[0],
                    "degree_program": student[1],
                    "year": student[2],
                }],
            }],
        }

    def new_keys(self):
        return ("CS900", "CS901")

    def edit(self, data):
        data = dict(data)
        data["title"] = data["title"] + " (revised)"
        return data

    def rekey(self, data):
        return _rekeyed(data, "course_id", "CS901")

    def component(self, instance):
        """(node, values to insert), (node, key values to delete),
        (node, old values, new values) for the partial operations."""
        cid = instance.key[0]
        student = min(g["student_id"] for g in instance.to_dict()["GRADES"])
        grade = {"course_id": cid, "student_id": student}
        return (
            ("CURRICULUM",
             {"degree": "MSCS", "course_id": cid, "category": "seminar"}),
            ("GRADES", grade),
            ("GRADES", grade, dict(grade, grade="F")),
        )

    def query(self):
        return "units >= 3"


class Hospital(Workload):
    name = "hospital"
    object_name = "patient_chart"
    schema = staticmethod(hospital_schema)
    view_object = staticmethod(patient_chart_object)

    def populate(self, engine):
        populate_hospital(engine, HospitalConfig(
            patients=3, physicians=3, visits_per_patient=2,
        ))

    def fresh(self, penguin, patient_id):
        physician = sorted(penguin.engine.scan("PHYSICIAN"))[0]
        return {
            "patient_id": patient_id,
            "name": f"Patient #{patient_id}",
            "birth_year": 1970,
            "ward_name": None,
            "VISIT": [{
                "patient_id": patient_id,
                "visit_no": 1,
                "visit_date": "1991-05-01",
                "physician_id": physician[0],
                "reason": "checkup",
                "DIAGNOSIS": [{
                    "patient_id": patient_id, "visit_no": 1, "diag_no": 1,
                    "code": "influenza", "severity": "mild",
                }],
                "LAB_RESULT": [],
                "PRESCRIPTION": [],
                "PHYSICIAN": [{
                    "physician_id": physician[0],
                    "name": physician[1],
                    "specialty": physician[2],
                }],
            }],
        }

    def new_keys(self):
        return (900, 901)

    def edit(self, data):
        data = dict(data)
        data["name"] = data["name"] + " (revised)"
        return data

    def rekey(self, data):
        return _rekeyed(data, "patient_id", 901)

    def component(self, instance):
        visit = min(
            instance.to_dict()["VISIT"], key=lambda v: v["visit_no"]
        )
        pid, vno = visit["patient_id"], visit["visit_no"]
        diagnosis = min(visit["DIAGNOSIS"], key=lambda d: d["diag_no"])
        dkey = {"patient_id": pid, "visit_no": vno,
                "diag_no": diagnosis["diag_no"]}
        return (
            ("LAB_RESULT",
             {"patient_id": pid, "visit_no": vno, "test_no": 99,
              "test_name": "corpus", "value": 1.5}),
            ("DIAGNOSIS", dkey),
            ("DIAGNOSIS", dkey,
             dict(dkey, code=diagnosis["code"], severity="critical")),
        )

    def query(self):
        return "birth_year >= 1960"


def _rekeyed(data, attribute, value):
    """``data`` with every ``attribute`` cell, at any depth, set to ``value``."""
    return {
        name: value if name == attribute else (
            [_rekeyed(child, attribute, value) for child in cell]
            if isinstance(cell, list) else cell
        )
        for name, cell in data.items()
    }


WORKLOADS = (University(), Hospital())


# -- scenarios ---------------------------------------------------------------


def case_insert(w, p):
    return p.insert(w.object_name, w.fresh(p, w.new_keys()[0]))


def case_delete_by_key(w, p):
    return p.delete(w.object_name, w.keys(p)[0])


def case_delete_by_instance(w, p):
    return p.delete(w.object_name, p.get(w.object_name, w.keys(p)[0]))


def case_replace(w, p):
    old = p.get(w.object_name, w.keys(p)[0])
    return p.replace(w.object_name, old.key, w.edit(old.to_dict()))


def case_replace_rekey(w, p):
    old = p.get(w.object_name, w.keys(p)[0])
    return p.replace(w.object_name, old, w.rekey(old.to_dict()))


def case_insert_many(w, p):
    return p.insert_many(
        w.object_name, [w.fresh(p, key) for key in w.new_keys()]
    )


def case_delete_many(w, p):
    return p.delete_many(w.object_name, w.keys(p)[:2])


def case_apply_plan_batch(w, p):
    keys = w.keys(p)
    old = p.get(w.object_name, keys[1])
    translator = p.translator(w.object_name)
    return p.apply_plan_batch(w.object_name, [
        CompleteInsertion(
            translator._coerce_instance(w.fresh(p, w.new_keys()[0]))
        ),
        Replacement(old, translator._coerce_instance(w.edit(old.to_dict()))),
        CompleteDeletion(keys[0]),
    ])


def _partial(w, p):
    instance = p.get(w.object_name, w.keys(p)[0])
    return instance, p.translator(w.object_name), w.component(instance)


def case_insert_component(w, p):
    instance, translator, ((node, values), _, _) = _partial(w, p)
    return translator.insert_component(p.engine, instance, node, values)


def case_delete_component(w, p):
    instance, translator, (_, (node, values), _) = _partial(w, p)
    return translator.delete_component(p.engine, instance.key, node, values)


def case_update_component(w, p):
    instance, translator, (_, _, (node, old, new)) = _partial(w, p)
    return translator.update_component(p.engine, instance, node, old, new)


def case_apply_request(w, p):
    instance, translator, (_, _, (node, old, new)) = _partial(w, p)
    translator.apply(p.engine, CompleteDeletion(w.keys(p)[-1]))
    return translator.apply(
        p.engine, PartialUpdate(instance, node, old, new)
    )


def case_delete_where(w, p):
    return p.delete_where(w.object_name, w.query())


def case_update_where(w, p):
    return p.update_where(w.object_name, w.query(), w.edit)


def case_rejection(w, p):
    # The key already exists: VO-CI rejects the insertion.
    existing = p.get(w.object_name, w.keys(p)[0]).to_dict()
    return p.insert(w.object_name, w.edit(existing))


def case_unauthorized(w, p):
    p.set_policy(w.object_name, TranslatorPolicy(authorized_users=["alice"]))
    return p.delete(w.object_name, w.keys(p)[0])


def case_transaction(w, p):
    keys = w.keys(p)
    with p.transaction():
        p.insert(w.object_name, w.fresh(p, w.new_keys()[0]))
        old = p.get(w.object_name, keys[0])
        p.replace(w.object_name, old, w.edit(old.to_dict()))
        return p.delete(w.object_name, keys[1])


def case_crash_and_recover(w, p):
    from repro.relational.faults import SimulatedCrash

    try:
        p.delete(w.object_name, w.keys(p)[0])
    except SimulatedCrash as crash:
        p.recover()
        return crash
    raise AssertionError("the armed crash did not fire")


CASES = {
    "insert": case_insert,
    "delete_by_key": case_delete_by_key,
    "delete_by_instance": case_delete_by_instance,
    "replace": case_replace,
    "replace_rekey": case_replace_rekey,
    "insert_many": case_insert_many,
    "delete_many": case_delete_many,
    "apply_plan_batch": case_apply_plan_batch,
    "insert_component": case_insert_component,
    "delete_component": case_delete_component,
    "update_component": case_update_component,
    "apply_request": case_apply_request,
    "delete_where": case_delete_where,
    "update_where": case_update_where,
    "rejection": case_rejection,
    "unauthorized": case_unauthorized,
    "transaction": case_transaction,
    "crash_and_recover": case_crash_and_recover,
}


# -- rendering ---------------------------------------------------------------


def render_images(images):
    return sorted(
        ((relation, key, before, after)
         for (relation, key), (before, after) in images.items()),
        key=repr,
    )


def render_case(workload, case_name):
    fault_plan = None
    if case_name == "crash_and_recover":
        fault_plan = FaultPlan().crash_at("mutation", at=2)
    penguin = workload.session(fault_plan)
    lines = [f"== {workload.name}/{case_name}"]
    try:
        result = CASES[case_name](workload, penguin)
    except Exception as exc:
        lines.append(f"raised {type(exc).__name__}")
    else:
        if isinstance(result, BaseException):
            lines.append(f"raised {type(result).__name__}")
        else:
            # Translation order follows string hashing, which varies per
            # process; the corpus pins the returned operations as a set.
            lines.append(f"returned {len(result)} op(s)")
            lines.extend(sorted(
                f"  {operation.describe()}" for operation in result.operations
            ))
    engine = penguin.engine
    for relation in sorted(engine.relation_names()):
        rows = sorted(engine.scan(relation), key=repr)
        lines.append(f"rows {relation} ({len(rows)}): {rows!r}")
    for entry in penguin.journal.entries():
        lines.append(
            f"journal {entry.status} label={entry.label} "
            f"images={render_images(entry.images())!r}"
        )
    for record in penguin.audit.records():
        error = None
        if record.error is not None:
            error = record.error.split(":", 1)[0]
        lines.append(
            f"audit op={record.op} outcome={record.outcome} "
            f"items={record.items} error={error} "
            f"images={render_images(record.images())!r}"
        )
    return "\n".join(lines)


def render_corpus():
    return "\n".join(
        render_case(workload, case_name)
        for workload in WORKLOADS
        for case_name in CASES
    ) + "\n"


def split_cases(text):
    cases = {}
    name = None
    for line in text.splitlines():
        if line.startswith("== "):
            name = line[3:]
            cases[name] = []
        cases[name].append(line)
    return cases


def test_corpus_covers_every_case():
    text = GOLDEN.read_text()
    assert sorted(split_cases(text)) == sorted(
        f"{w.name}/{c}" for w in WORKLOADS for c in CASES
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("case_name", list(CASES))
def test_write_matches_corpus(workload, case_name):
    if REGEN:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(render_corpus())
        pytest.skip("regenerated write_corpus.txt")
    expected = split_cases(GOLDEN.read_text())[f"{workload.name}/{case_name}"]
    actual = render_case(workload, case_name).splitlines()
    assert actual == expected
