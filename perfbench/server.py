"""The benchmark's deployment process: one hospital ``patient_chart``
cluster behind :class:`~repro.serve.http.PenguinServer`.

Run as ``python3 perfbench/server.py --workload NAME --data-dir DIR
[--traced]`` from the repository root. The deployment is built only
from public APIs, with observability configured as ``python -m repro
serve`` configures it (``obs.configure()``) and the server's own
defaults (5 ms batch window). Once listening it prints one control line
``@ {"event": "listening", "port": ...}`` and then answers commands read
from standard input, one per line, each with one ``@ {json}`` line:

``stats``            cache, breaker and replication counters, set-up times
``settle``           drain replicas (apply every shipped record)
``check``            drain replicas, then integrity and replica equality
``trace on|off``     install or remove the span recorder (``--traced``)
``spans PATH``       write the recorded spans to PATH as JSON
``quit``             graceful drain and exit

With ``--traced`` the event loop's executor copies the submitting
context into its worker threads, so calls the front end hands off can
be matched to the ``X-Request-Id`` that caused them.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import contextvars
import itertools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import repro.obs as obs  # noqa: E402
from repro.obs.audit import FileAuditLog  # noqa: E402
from repro.relational.journal import FileJournal  # noqa: E402
from repro.relational.sqlite_engine import SqliteEngine  # noqa: E402
from repro.replicate import ReplicationConfig  # noqa: E402
from repro.serve.http import PenguinServer  # noqa: E402
from repro.shard import ShardedPenguin, sharded_loader  # noqa: E402
from repro.workloads.hospital import (  # noqa: E402
    HospitalConfig,
    hospital_schema,
    patient_chart_object,
    populate_hospital,
)

from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

BATCH_WINDOW = 0.005  # `python -m repro serve` default


def primary_paths(data_dir: str, shard_id: int):
    """(sqlite, journal, audit) paths of one shard's primary."""
    return (
        os.path.join(data_dir, f"primary{shard_id}.db"),
        os.path.join(data_dir, f"journal{shard_id}.jsonl"),
        os.path.join(data_dir, f"audit{shard_id}.jsonl"),
    )


def build(workload: Workload, data_dir: str):
    """The deployment, populated and defined; returns (sharded, timings).

    The data set is the hospital generator's own (fixed) one, as
    ``python -m repro serve`` loads it; the benchmark seed drives only
    the requests.
    """
    graph = hospital_schema()
    stores = {}
    engine_factory = None
    if workload.engine == "sqlite":
        os.makedirs(data_dir, exist_ok=True)
        paths = [primary_paths(data_dir, i) for i in range(workload.shards)]
        stores = {
            "engines": [SqliteEngine(p[0]) for p in paths],
            "journals": [FileJournal(p[1]) for p in paths],
            "audits": [FileAuditLog(p[2]) for p in paths],
            "install": True,
        }
        replica_ids = itertools.count(1)

        def engine_factory():
            return SqliteEngine(
                os.path.join(data_dir, f"replica{next(replica_ids)}.db")
            )

    replication = None
    if workload.replicas:
        replication = ReplicationConfig(
            replicas=workload.replicas, engine_factory=engine_factory
        )
    sharded = ShardedPenguin(
        graph,
        partition_by="PATIENT",
        num_shards=workload.shards,
        replication=replication,
        **stores,
    )
    started = time.perf_counter()
    # File-backed engines bulk-load inside one transaction each;
    # autocommit would pay one fsync per seed row.
    bulk = [
        engine
        for shard in sharded.shards
        for engine in shard.seed_engines()
        if isinstance(engine, SqliteEngine)
    ]
    for engine in bulk:
        engine.begin()
    populate_hospital(
        sharded_loader(sharded), HospitalConfig(patients=workload.patients)
    )
    for engine in bulk:
        engine.commit()
    populated = time.perf_counter()
    sharded.register_object(patient_chart_object(graph))
    sharded.materialize("patient_chart", "lazy")
    defined = time.perf_counter()
    return sharded, {
        "populate_s": populated - started,
        "define_s": defined - populated,
    }


class ContextExecutor(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that runs each call in a copy of the caller's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(
            contextvars.copy_context().run, fn, *args, **kwargs
        )


def replica_mismatches(sharded) -> list:
    """Relations on which a replica differs from its primary."""
    out = []
    for shard in sharded.shards:
        if shard.replica_set is None:
            continue
        for replica in shard.replica_set.replicas:
            for relation in sharded.graph.relation_names:
                primary_rows = sorted(shard.engine.scan(relation), key=repr)
                replica_rows = sorted(replica.engine.scan(relation), key=repr)
                if primary_rows != replica_rows:
                    out.append(f"shard{shard.shard_id}/{replica.name}/"
                               f"{relation}")
    return out


class Control:
    """The standard-input command loop, on its own thread."""

    def __init__(self, sharded, loop, recorder, timings) -> None:
        self.sharded = sharded
        self.loop = loop
        self.recorder = recorder
        self.timings = timings
        self.done = asyncio.Event()

    def reply(self, payload) -> None:
        sys.stdout.write("@ " + json.dumps(payload, default=str) + "\n")
        sys.stdout.flush()

    def run(self) -> None:
        try:
            for line in sys.stdin:
                words = line.split()
                if not words:
                    continue
                if words[0] == "quit":
                    break
                self.reply(self.handle(words))
        finally:
            self.loop.call_soon_threadsafe(self.done.set)

    def handle(self, words):
        command = words[0]
        if command == "stats":
            return self.stats()
        if command == "settle":
            self.settle()
            return {"settled": True}
        if command == "check":
            self.settle()
            return {
                "integrity": [
                    repr(v) for v in self.sharded.check_integrity()
                ],
                "replica_mismatches": replica_mismatches(self.sharded),
            }
        if command == "trace" and self.recorder is not None:
            if words[1:] == ["on"]:
                self.recorder.install()
            else:
                self.recorder.uninstall()
            return {"tracing": self.recorder.installed}
        if command == "spans" and self.recorder is not None:
            spans = self.recorder.export()
            with open(words[1], "w", encoding="utf-8") as out:
                json.dump(spans, out)
            return {"spans": len(spans), "errors": self.recorder.errors}
        return {"error": f"unknown command {' '.join(words)!r}"}

    def settle(self) -> None:
        for shard in self.sharded.shards:
            if shard.replica_set is not None:
                shard.replica_set.catch_up()

    def stats(self):
        health = self.sharded.health()
        cache = {"hits": 0, "misses": 0, "records_applied": 0}
        for per_view in self.sharded.cache_stats().values():
            for view in per_view.values():
                for field in cache:
                    cache[field] += view.get(field, 0)
        lags = [
            replica["lag"]
            for rs in health.get("replication", {}).values()
            for replica in rs["replicas"]
        ]
        return {
            "cache": cache,
            "breaker_refusals": sum(
                s["refusals"] for s in health["shards"].values()
            ),
            "replica_lag": max(lags) if lags else 0,
            **self.timings,
        }


async def serve(sharded, timings, traced: bool) -> None:
    loop = asyncio.get_running_loop()
    if traced:
        loop.set_default_executor(ContextExecutor())
    started = time.perf_counter()
    server = PenguinServer(sharded, port=0, batch_window=BATCH_WINDOW)
    await server.start()
    timings["listen_s"] = time.perf_counter() - started
    control = Control(
        sharded, loop, Recorder() if traced else None, timings
    )
    control.reply({"event": "listening", "port": server.port})
    thread = threading.Thread(target=control.run, daemon=True)
    thread.start()
    try:
        await control.done.wait()
    finally:
        await server.stop()
        sharded.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    obs.configure()  # as `python -m repro serve` does
    sharded, timings = build(WORKLOADS[args.workload], args.data_dir)
    asyncio.run(serve(sharded, timings, args.traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
