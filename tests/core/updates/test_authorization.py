"""Step 1's "user authorizations" check."""

import pytest

from repro.core.updates.policy import TranslatorPolicy
from repro.core.updates.translator import Translator
from repro.errors import LocalValidationError


@pytest.fixture
def restricted(omega):
    policy = TranslatorPolicy(authorized_users=["dba", "registrar"])
    return Translator(omega, policy=policy)


def any_course(engine):
    return next(iter(engine.scan("COURSES")))[0]


def test_open_policy_allows_anonymous(omega, university_engine):
    translator = Translator(omega)
    translator.delete(university_engine, key=(any_course(university_engine),))


def test_unbound_user_rejected(restricted, university_engine):
    with pytest.raises(LocalValidationError, match="not authorized"):
        restricted.delete(
            university_engine, key=(any_course(university_engine),)
        )


def test_unauthorized_user_rejected(restricted, university_engine):
    eve = restricted.for_user("eve")
    with pytest.raises(LocalValidationError, match="'eve'"):
        eve.delete(university_engine, key=(any_course(university_engine),))


def test_authorized_user_allowed(restricted, university_engine):
    registrar = restricted.for_user("registrar")
    cid = any_course(university_engine)
    registrar.delete(university_engine, key=(cid,))
    assert university_engine.get("COURSES", (cid,)) is None


def test_rejection_happens_before_any_mutation(
    restricted, university_engine, university_graph
):
    before = {
        name: sorted(university_engine.scan(name))
        for name in university_graph.relation_names
    }
    with pytest.raises(LocalValidationError):
        restricted.for_user("eve").delete(
            university_engine, key=(any_course(university_engine),)
        )
    after = {
        name: sorted(university_engine.scan(name))
        for name in university_graph.relation_names
    }
    assert after == before


def test_previews_also_gated(restricted, university_engine):
    with pytest.raises(LocalValidationError):
        restricted.for_user("eve").preview_delete(
            university_engine, key=(any_course(university_engine),)
        )


def test_binding_does_not_mutate_original(restricted):
    bound = restricted.for_user("dba")
    assert bound.user == "dba"
    assert restricted.user is None
    assert bound.policy is restricted.policy


def test_policy_authorizes():
    open_policy = TranslatorPolicy()
    assert open_policy.authorizes(None)
    assert open_policy.authorizes("anyone")
    closed = TranslatorPolicy(authorized_users=["a"])
    assert closed.authorizes("a")
    assert not closed.authorizes("b")
    assert not closed.authorizes(None)


# -- every write path runs the same check ------------------------------------


def _rows(engines, graph):
    return [
        {name: sorted(engine.scan(name), key=repr)
         for name in graph.relation_names}
        for engine in engines
    ]


@pytest.fixture
def alice_only(university_graph, university_engine, omega):
    """A journaled, audited session whose policy admits only 'alice'."""
    from repro.obs.audit import MemoryAuditLog
    from repro.penguin import Penguin
    from repro.relational.journal import MemoryJournal

    penguin = Penguin(
        university_graph,
        engine=university_engine,
        install=False,
        journal=MemoryJournal(),
        audit=MemoryAuditLog(),
    )
    penguin.register_object(omega)
    penguin.set_policy(
        "course_info", TranslatorPolicy(authorized_users=["alice"])
    )
    return penguin


UNAUTHORIZED_CALLS = {
    "explain": lambda p, request: p.translator("course_info").explain(
        p.engine, request
    ),
    "explain_batch": lambda p, request: p.translator(
        "course_info"
    ).explain_batch(p.engine, [request]),
    "Penguin.explain_update": lambda p, request: p.explain_update(
        "course_info", request
    ),
    "apply_plan_batch": lambda p, request: p.apply_plan_batch(
        "course_info", [request]
    ),
}


@pytest.mark.parametrize("call", list(UNAUTHORIZED_CALLS))
def test_every_entry_point_rejects_and_audits_once(alice_only, call):
    from repro.core.updates.operations import CompleteDeletion
    from repro.obs.audit import ROLLED_BACK

    request = CompleteDeletion((any_course(alice_only.engine),))
    before = _rows([alice_only.engine], alice_only.graph)
    with pytest.raises(LocalValidationError, match="not authorized"):
        UNAUTHORIZED_CALLS[call](alice_only, request)
    assert _rows([alice_only.engine], alice_only.graph) == before
    (record,) = alice_only.audit.records()
    assert record.outcome == ROLLED_BACK
    assert record.error.startswith("LocalValidationError")
    assert alice_only.journal.entries() == []


@pytest.mark.parametrize("write", ["delete", "apply_plan_batch"])
def test_sharded_write_rejected_and_audited_on_owner(write):
    from repro.core.updates.operations import CompleteDeletion
    from repro.obs.audit import ROLLED_BACK
    from repro.shard import ShardedPenguin, sharded_loader
    from repro.workloads.hospital import (
        HospitalConfig,
        hospital_schema,
        patient_chart_object,
        populate_hospital,
    )

    graph = hospital_schema()
    sharded = ShardedPenguin(graph, "PATIENT", num_shards=2)
    populate_hospital(sharded_loader(sharded), HospitalConfig(patients=6))
    sharded.register_object(patient_chart_object(graph))
    sharded.set_policy(
        "patient_chart", TranslatorPolicy(authorized_users=["alice"])
    )
    pid = sharded.all_rows("PATIENT")[0][0]
    owner = sharded.owner_of("patient_chart", (pid,))
    engines = [shard.engine for shard in sharded.shards]
    before = _rows(engines, graph)

    with pytest.raises(LocalValidationError, match="not authorized"):
        if write == "delete":
            sharded.delete("patient_chart", (pid,))
        else:
            sharded.apply_plan_batch(
                "patient_chart", [CompleteDeletion((pid,))]
            )

    assert _rows(engines, graph) == before
    for shard in sharded.shards:
        records = shard.penguin.audit.records()
        if shard.shard_id == owner:
            (record,) = records
            assert record.outcome == ROLLED_BACK
            assert record.error.startswith("LocalValidationError")
        else:
            assert records == []
