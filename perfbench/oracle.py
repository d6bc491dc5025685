"""Correctness checks that need the library in the load generator's
process: the single-Penguin model of a read-only run, and the reopen of
a killed deployment's files."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.audit import FileAuditLog
from repro.penguin import Penguin
from repro.relational.journal import FileJournal
from repro.relational.sqlite_engine import SqliteEngine
from repro.shard import ShardedPenguin
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)

from client import ABSENT, canon
from server import primary_paths
from workloads import Workload

__all__ = ["model_mismatches", "reopen_and_count_lost"]


def _full(chart: Dict[str, Any]) -> Dict[str, Any]:
    return canon(chart, island_only=False)


def model_mismatches(
    workload: Workload, kept: Dict[str, Any], ops: List[Dict[str, Any]],
) -> List[str]:
    """Compare kept GET and query bodies with one in-memory Penguin loaded
    with the same data (component lists compared order-insensitively)."""
    graph = hospital_schema()
    model = Penguin(graph)
    populate_hospital(model.engine, HospitalConfig(patients=workload.patients))
    model.register_object(patient_chart_object(graph))
    problems = []
    for op in ops:
        if not op.get("keep"):
            continue
        label = f"{op['kind']}:{op['i']}"
        body = kept.get(label)
        if body is None:
            problems.append(f"{label}: no body kept")
        elif op["kind"] == "get":
            want = model.get("patient_chart", (op["key"],))
            if want is None or _full(body["instance"]) != _full(want.to_dict()):
                problems.append(f"{label}: GET {op['key']} differs from model")
        else:
            want = model.query("patient_chart", op["query"])
            got = sorted(json.dumps(_full(i), sort_keys=True)
                         for i in body["instances"])
            exp = sorted(json.dumps(_full(i.to_dict()), sort_keys=True)
                         for i in want)
            if got != exp:
                problems.append(f"{label}: query {op['query']!r} differs")
    return problems


def reopen_sqlite(path: str, graph) -> SqliteEngine:
    """A SqliteEngine over an existing database file.

    The engine has no public way to adopt tables that already exist
    (``create_relation`` issues CREATE TABLE), so the schema map is
    filled in directly from the structural schema that created them.
    """
    engine = SqliteEngine(path)
    for name in graph.relation_names:
        engine._schemas[name] = graph.relation(name)
    return engine


def reopen_and_count_lost(
    workload: Workload, data_dir: str, expected: Dict[int, Any],
    unknown: set,
) -> Tuple[bool, int, Dict[str, Any]]:
    """Reopen the primaries' files after a kill and count acknowledged
    writes that did not survive: (recovery clean, lost, recovery report)."""
    graph = hospital_schema()
    paths = [primary_paths(data_dir, i) for i in range(workload.shards)]
    engines = [reopen_sqlite(p[0], graph) for p in paths]
    journals = [FileJournal(p[1]) for p in paths]
    audits = [FileAuditLog(p[2]) for p in paths]
    try:
        reopened = ShardedPenguin(
            graph, partition_by="PATIENT", num_shards=workload.shards,
            engines=engines, journals=journals, audits=audits,
            install=False,
        )
        reopened.register_object(patient_chart_object(graph))
        lost = 0
        for key, value in expected.items():
            if key in unknown:
                continue
            instance = reopened.get("patient_chart", (key,))
            if value is ABSENT:
                lost += instance is not None
            elif instance is None or canon(instance.to_dict()) != value:
                lost += 1
        recovery = reopened.recovery
        clean = recovery.clean and all(
            report.clean for report in recovery.shards.values()
        )
        return clean, lost, recovery.as_dict()
    finally:
        for store in (*engines, *journals, *audits):
            store.close()
