"""Per-layer metrics of a traced run, from its spans and client samples.

A request's server-side time is the union of its *session calls* — the
``ShardedPenguin`` read it caused, or, for a write, the wait from
``MicroBatcher.submit`` to its batch plus the ``apply_plan_batch`` that
folded it — clipped to the client-observed interval (send to response).
``serve.http`` is charged the rest of the client-observed time: parse,
routing, executor hand-off, JSON and the socket, as the front end's
self time. Every span under a session call is charged its self time.

``trace.coverage`` is the share of client-observed time attributed this
way; a request whose session calls cannot be found by its
``X-Request-Id`` contributes none.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from spans import children_of, clip, self_times, union_length
from stats import percentile

__all__ = ["UNITS", "layer_metrics"]

READ_ROOTS = ("ShardedPenguin.get_served", "ShardedPenguin.query_served")
BATCH = "ShardedPenguin.apply_plan_batch"
ENGINE_READ_CALLS = tuple(
    f"{engine}.{call}"
    for engine in ("MemoryEngine", "SqliteEngine")
    for call in ("get", "get_many", "find_by", "select")
)
STORAGE_LAYERS = ("relational", "obs.audit", "replicate")

#: Every per-layer metric with its unit; the ones not computed from spans
#: (setup, loadgen, durability, trace.overhead and the server counters)
#: are filled in by ``run.py``.
UNITS: Dict[str, str] = {
    "serve.http.self_ms_p50": "ms",
    "serve.http.self_ms_p95": "ms",
    "serve.http.batch_wait_ms_p50": "ms",
    "serve.http.batch_wait_ms_p95": "ms",
    "serve.http.batch_fold": "requests",
    "serve.http.batch_retry_frac": "ratio",
    "serve.http.batch_calls": "count",
    "shard.self_ms_p50": "ms",
    "shard.cross_frac": "ratio",
    "shard.twophase_ms_p50": "ms",
    "shard.query_fanout": "shards",
    "serve.concurrent.lock_wait_ms_p95": "ms",
    "serve.concurrent.breaker_refusals": "count",
    "core.updates.translate_ms_p50": "ms",
    "core.updates.translate_ms_per_request": "ms",
    "core.updates.plan_ops_per_request": "ops",
    "core.updates.rejected": "count",
    "core.updates.commit_self_ms_p50": "ms",
    "core.updates.translate_calls": "count",
    "relational.journal_ms_p50": "ms",
    "relational.journal_bytes_per_write": "B",
    "relational.journal_calls": "count",
    "relational.engine_apply_ms_p50": "ms",
    "relational.engine_reads_per_instance": "ratio",
    "obs.audit.append_ms_p50": "ms",
    "obs.audit.append_calls": "count",
    "replicate.apply_self_ms_p50": "ms",
    "replicate.receive_ms_p50": "ms",
    "replicate.replica_apply_ms_p50": "ms",
    "replicate.lag_max": "records",
    "replicate.calls": "count",
    "materialize.hit_ratio": "ratio",
    "materialize.get_ms_p50": "ms",
    "materialize.sync_records_per_write": "ratio",
    "core.instantiation.assemble_ms_p50": "ms",
    "core.instantiation.assembles_per_read": "ratio",
    "core.query.eval_ms_p50": "ms",
    "core.query.rows_per_result": "rows",
    "setup.populate_s": "s",
    "setup.define_s": "s",
    "setup.listen_s": "s",
    "loadgen.late_p95_ms": "ms",
    "loadgen.failed_frac": "ratio",
    "durability.lost_acked_writes": "count",
    "durability.stored_bytes_per_user_byte": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.write_storage_share": "ratio",
}


def _ms(seconds: Sequence[float]) -> List[float]:
    return [s * 1000.0 for s in seconds]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Sequence[Sequence[Any]], samples: Sequence[Dict[str, Any]]
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """(metrics from the spans, per-request breakdown details).

    ``samples`` are the client records of the traced requests. Metrics
    that need server counters (hit ratio, refusals, lag) are filled in
    by the caller; here they are computed only from spans.
    """
    by_id = {span[0]: span for span in spans}
    kids = children_of(spans)
    own = self_times(spans)

    def dur(span) -> float:
        return span[5] - span[4]

    def subtree(span_id: int) -> List[int]:
        out, stack = [], [span_id]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(kids.get(current, ()))
        return out

    root_of: Dict[int, int] = {}
    for span in spans:
        cursor = span
        while cursor[1] and cursor[1] in by_id:
            cursor = by_id[cursor[1]]
        root_of[span[0]] = cursor[0]

    def on_request(span) -> bool:
        return by_id[root_of[span[0]]][6] is not None

    def calls(name: str, request_only: bool = True) -> List[Sequence[Any]]:
        return [s for s in spans
                if s[3] == name and (not request_only or on_request(s))]

    read_roots: Dict[str, List[Sequence[Any]]] = {}
    submitted: Dict[str, float] = {}
    batch_of: Dict[str, Sequence[Any]] = {}
    for span in spans:
        if span[1] == 0 and span[3] in READ_ROOTS and span[6] is not None:
            read_roots.setdefault(span[6], []).append(span)
        elif span[3] == "MicroBatcher.submit" and span[6] is not None:
            submitted[span[6]] = span[4]
        elif span[3] == BATCH and span[1] == 0:
            for member in (span[7] or {}).get("members", ()):
                if member is not None:
                    batch_of[member] = span

    http_self: List[float] = []
    waits: List[float] = []
    attributed = observed = 0.0
    storage = write_time = 0.0
    per_layer: Dict[str, float] = {}
    writes = gets = 0
    matched = 0
    for sample in samples:
        rid = sample["rid"]
        sent, done = sample["sent"], sample["done"]
        client = done - sent
        observed += client
        roots = list(read_roots.get(rid, ()))
        intervals = [(r[4], r[5]) for r in roots]
        wait = 0.0
        if sample["cls"] == "write":
            writes += 1
            write_time += client
            batch = batch_of.get(rid)
            if batch is not None:
                roots.append(batch)
                intervals.append((batch[4], batch[5]))
                if rid in submitted:
                    wait = batch[4] - submitted[rid]
                    waits.append(wait)
                    intervals.append((submitted[rid], batch[4]))
        elif sample["verb"] == "get":
            gets += 1
        if not roots:
            continue
        matched += 1
        session = union_length(clip(intervals, sent, done))
        front = max(0.0, client - session)
        http_self.append(front)
        attributed += front + session
        per_layer["serve.http"] = (
            per_layer.get("serve.http", 0.0) + front + wait
        )
        for root in roots:
            for span_id in subtree(root[0]):
                span = by_id[span_id]
                per_layer[span[2]] = per_layer.get(span[2], 0.0) + own[span_id]
                if sample["cls"] == "write" and span[2] in STORAGE_LAYERS:
                    storage += own[span_id]

    batches = calls(BATCH)
    members = [m for b in batches for m in (b[7] or {}).get("members", ())]
    explains = calls("Translator.explain_batch")
    explain_ok = [s for s in explains if not (s[7] or {}).get("error")]
    items = sum(s[7]["items"] for s in explain_ok)
    commits = calls("Translator.apply_plan")
    journal_per_commit = [
        sum(dur(by_id[c]) for c in kids.get(s[0], ())
            if by_id[c][2] == "relational" and "Journal" in by_id[c][3])
        for s in commits
    ]
    journal_begins = calls("PlanJournal.begin_encoded")
    engine_reads = [
        s for s in spans
        if s[3] in ENGINE_READ_CALLS and on_request(s)
        and by_id[root_of[s[0]]][3] in READ_ROOTS
        and not (s[1] in by_id and by_id[s[1]][3] in ENGINE_READ_CALLS)
    ]
    instances = sum((s[7] or {}).get("n", 0) for sl in read_roots.values()
                    for s in sl)
    get_roots = [s for sl in read_roots.values() for s in sl
                 if s[3] == "ShardedPenguin.get_served"]
    assembles_on_gets = sum(
        1 for g in get_roots for c in subtree(g[0])
        if by_id[c][3] == "Instantiator.assemble"
    )
    query_roots = [s for sl in read_roots.values() for s in sl
                   if s[3] == "ShardedPenguin.query_served"]
    drains = [s for s in calls("ReplicaStack.drain", request_only=False)
              if (s[7] or {}).get("n")]
    receives = calls("ReplicaStack.receive", request_only=False)
    two_phase = calls("two_phase_apply")
    locks = [s for s in spans if s[2] == "serve.concurrent" and on_request(s)]

    metrics = {
        "serve.http.self_ms_p50": percentile(_ms(http_self), 0.5),
        "serve.http.self_ms_p95": percentile(_ms(http_self), 0.95),
        "serve.http.batch_wait_ms_p50": percentile(_ms(waits), 0.5),
        "serve.http.batch_wait_ms_p95": percentile(_ms(waits), 0.95),
        "serve.http.batch_fold": _ratio(len(members), len(batches)),
        "serve.http.batch_retry_frac": _ratio(
            sum(1 for m in members if m is None), len(members)
        ),
        "serve.http.batch_calls": float(len(batches)),
        "shard.self_ms_p50": percentile(_ms(
            [own[s[0]] for s in spans if s[1] == 0
             and s[3] in READ_ROOTS + (BATCH,) and s[6] is not None]
        ), 0.5),
        "shard.cross_frac": _ratio(len(two_phase), writes),
        "shard.twophase_ms_p50": percentile(_ms(map(dur, two_phase)), 0.5),
        "shard.query_fanout": _ratio(
            sum(1 for q in query_roots for c in kids.get(q[0], ())
                if by_id[c][3] == "Shard.query_served"),
            len(query_roots),
        ),
        "serve.concurrent.lock_wait_ms_p95": percentile(
            _ms(map(dur, locks)), 0.95
        ),
        "core.updates.translate_ms_p50": percentile(
            _ms(map(dur, explain_ok)), 0.5
        ),
        "core.updates.translate_ms_per_request": _ratio(
            sum(_ms(map(dur, explain_ok))), items
        ),
        "core.updates.plan_ops_per_request": _ratio(
            sum(s[7]["ops"] for s in explain_ok), items
        ),
        "core.updates.rejected": float(len(explains) - len(explain_ok)),
        "core.updates.commit_self_ms_p50": percentile(
            _ms(own[s[0]] for s in commits), 0.5
        ),
        "core.updates.translate_calls": float(len(explains)),
        "relational.journal_ms_p50": percentile(_ms(journal_per_commit), 0.5),
        "relational.journal_bytes_per_write": _ratio(
            sum((s[7] or {}).get("bytes", 0) for s in journal_begins), writes
        ),
        "relational.journal_calls": float(
            len(journal_begins) + len(calls("PlanJournal.mark_committed"))
        ),
        "relational.engine_apply_ms_p50": percentile(_ms(
            dur(s) for s in spans
            if s[3].endswith(".apply_batch") and on_request(s)
        ), 0.5),
        "relational.engine_reads_per_instance": _ratio(
            len(engine_reads), instances
        ),
        "obs.audit.append_ms_p50": percentile(
            _ms(map(dur, calls("AuditLog.append"))), 0.5
        ),
        "obs.audit.append_calls": float(len(calls("AuditLog.append"))),
        "replicate.apply_self_ms_p50": percentile(
            _ms(own[s[0]] for s in calls("ReplicaSet.apply_plan")), 0.5
        ),
        "replicate.receive_ms_p50": percentile(
            _ms(map(dur, receives)), 0.5
        ),
        "replicate.replica_apply_ms_p50": percentile(
            _ms(dur(s) / s[7]["n"] for s in drains), 0.5
        ),
        "replicate.lag_max": float(max(
            [(s[7] or {}).get("lag", 0) for s in receives] or [0]
        )),
        "replicate.calls": float(
            sum(1 for s in spans if s[2] == "replicate")
        ),
        "materialize.get_ms_p50": percentile(
            _ms(map(dur, calls("MaterializedView.get"))), 0.5
        ),
        "core.instantiation.assemble_ms_p50": percentile(
            _ms(map(dur, calls("Instantiator.assemble"))), 0.5
        ),
        "core.instantiation.assembles_per_read": _ratio(
            assembles_on_gets, gets
        ),
        "core.query.eval_ms_p50": percentile(
            _ms(map(dur, calls("Shard.query_served"))), 0.5
        ),
        "core.query.rows_per_result": _ratio(
            sum((s[7] or {}).get("n", 0) for s in query_roots),
            len(query_roots),
        ),
        "trace.coverage": _ratio(attributed, observed),
        "trace.write_storage_share": _ratio(storage, write_time),
    }
    details = {
        "requests": len(samples),
        "matched": matched,
        "layer_ms": {k: v * 1000.0 for k, v in sorted(per_layer.items())},
    }
    return metrics, details
