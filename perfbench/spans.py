"""The traced run's span recorder and the per-layer arithmetic.

:class:`Recorder` wraps the public calls into each layer of the served
stack, from outside the package: it replaces a class attribute (or a
module-level function) with a timing wrapper and restores it on
:meth:`Recorder.uninstall`. Each call becomes one span ``[id, parent,
layer, call, start, end, request_id, extra]`` kept in memory; the
server writes them out once, when the run ends.

The parent of a span is the innermost wrapped call open in the same
context. Calls that the front end hands to its executor start a new
root; the request they serve is named by the ``X-Request-Id`` the
client sent, which the server keeps in the ambient trace context.

A span's self time is its duration minus the union of its children's
intervals, each child clipped to the parent (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "INSTRUMENTS",
    "Recorder",
    "children_of",
    "clip",
    "self_times",
    "union_length",
]

Interval = Tuple[float, float]

# (module, class or None for a module function, attribute, layer)
INSTRUMENTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serve.http", "MicroBatcher", "submit", "serve.http"),
    ("repro.shard.sharded", "ShardedPenguin", "get_served", "shard"),
    ("repro.shard.sharded", "ShardedPenguin", "query_served", "shard"),
    ("repro.shard.sharded", "ShardedPenguin", "apply_plan_batch", "shard"),
    ("repro.shard.sharded", None, "two_phase_apply", "shard"),
    ("repro.shard.sharded", "Shard", "query_served", "core.query"),
    ("repro.serve.locks", "ReadWriteLock", "acquire_read", "serve.concurrent"),
    ("repro.serve.locks", "ReadWriteLock", "acquire_write", "serve.concurrent"),
    ("repro.core.updates.translator", "Translator", "explain_batch",
     "core.updates"),
    ("repro.core.updates.translator", "Translator", "apply_plan",
     "core.updates"),
    ("repro.relational.journal", "PlanJournal", "begin_encoded", "relational"),
    ("repro.relational.journal", "PlanJournal", "mark_committed",
     "relational"),
    ("repro.relational.memory_engine", "MemoryEngine", "apply_batch",
     "relational"),
    ("repro.relational.memory_engine", "MemoryEngine", "get", "relational"),
    ("repro.relational.memory_engine", "MemoryEngine", "get_many",
     "relational"),
    ("repro.relational.memory_engine", "MemoryEngine", "find_by",
     "relational"),
    ("repro.relational.memory_engine", "MemoryEngine", "select", "relational"),
    ("repro.relational.sqlite_engine", "SqliteEngine", "apply_batch",
     "relational"),
    ("repro.relational.sqlite_engine", "SqliteEngine", "get", "relational"),
    ("repro.relational.sqlite_engine", "SqliteEngine", "get_many",
     "relational"),
    ("repro.relational.sqlite_engine", "SqliteEngine", "find_by",
     "relational"),
    ("repro.relational.sqlite_engine", "SqliteEngine", "select", "relational"),
    ("repro.obs.audit", "AuditLog", "append", "obs.audit"),
    ("repro.replicate.replicaset", "ReplicaSet", "apply_plan", "replicate"),
    ("repro.replicate.replica", "ReplicaStack", "receive", "replicate"),
    ("repro.replicate.replica", "ReplicaStack", "drain", "replicate"),
    ("repro.materialize.store", "MaterializedView", "get", "materialize"),
    ("repro.core.instantiation", "Instantiator", "assemble",
     "core.instantiation"),
)

def _note(call: str, args: tuple, result: Any) -> Optional[Dict[str, Any]]:
    """What a finished call adds to its span besides its timing."""
    if call == "ShardedPenguin.get_served":
        return {"n": 0 if result.value is None else 1}
    if call in ("ShardedPenguin.query_served", "Shard.query_served"):
        return {"n": len(result.value)}
    if call == "Translator.explain_batch":
        return {"items": len(args[2]), "ops": len(result.coalesced)}
    if call == "PlanJournal.begin_encoded":
        # Encoded lazily, when the spans are written out: a json.dumps
        # here would land in the traced latency.
        return {"records": (args[1], args[2])}
    if call == "ReplicaStack.drain":
        return {"n": result}
    if call == "ReplicaStack.receive":
        replica = args[0]
        return {"lag": replica.received_count - replica.applied_count}
    return None


class Recorder:
    """In-memory span recorder over the INSTRUMENTS table."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.errors = 0
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: id(UpdateRequest) -> X-Request-Id of the write that submitted it
        self._submitted: Dict[int, str] = {}

    # -- installing ----------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        if self._patches:
            return
        for module_name, class_name, attribute, layer in INSTRUMENTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name
            )
            call = f"{class_name}.{attribute}" if class_name else attribute
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(
                owner, attribute
            )
            setattr(owner, attribute, self.wrap(original, layer, call))
            self._patches.append((owner, attribute, original, own))

    def uninstall(self) -> None:
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, call: str) -> Callable:
        recorder = self
        current = self._current
        clock = self.clock
        submit = call == "MicroBatcher.submit"
        batch = call == "ShardedPenguin.apply_plan_batch"

        def traced(*args: Any, **kwargs: Any) -> Any:
            # A batch runs in a context copied from its first submitter,
            # whose submit span has long ended: it starts a new root.
            parent = 0 if batch else current.get()
            span_id = next(recorder._ids)
            token = current.set(span_id)
            extra: Optional[Dict[str, Any]] = None
            if batch:
                requests = list(args[2])
                args = args[:2] + (requests,) + args[3:]
                extra = {"members": [
                    recorder._submitted.pop(id(r), None) for r in requests
                ]}
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                current.reset(token)
                recorder.errors += 1
                recorder.spans.append([
                    span_id, parent, layer, call, start, end,
                    _request_id() if parent == 0 else None,
                    {"error": True},
                ])
                raise
            end = clock()
            current.reset(token)
            request_id = _request_id() if parent == 0 or submit else None
            if submit:
                recorder._submitted[id(args[2])] = request_id
            note = _note(call, args, result)
            if note is not None:
                extra = {**(extra or {}), **note}
            recorder.spans.append([
                span_id, parent, layer, call, start, end, request_id, extra,
            ])
            return result

        traced.__wrapped__ = fn
        return traced

    def export(self) -> List[list]:
        """The spans with their lazily kept payloads reduced to sizes."""
        out = []
        for span in self.spans:
            extra = span[7]
            if extra and "records" in extra:
                plan, images = extra["records"]
                extra = {"bytes": len(json.dumps(
                    {"plan": plan, "images": images}, default=str
                ))}
            out.append(span[:7] + [extra])
        return out


def _request_id() -> Optional[str]:
    ctx = _current_context()
    if ctx is None:
        return None
    return ctx.baggage.get("request_id")


def _current_context():
    global _current_context
    from repro.obs.context import current_context

    _current_context = current_context
    return current_context()


# -- arithmetic -------------------------------------------------------------


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = None
    start = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            if end is not None:
                total += end - start
            start, end = lo, hi
        elif hi > end:
            end = hi
    if end is not None:
        total += end - start
    return total


def clip(intervals: Iterable[Interval], lo: float, hi: float) -> List[Interval]:
    """The parts of ``intervals`` inside [lo, hi]."""
    return [
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    ]


def children_of(spans: Sequence[Sequence[Any]]) -> Dict[int, List[int]]:
    """Span id -> ids of its direct children."""
    index: Dict[int, List[int]] = {}
    for span in spans:
        if span[1]:
            index.setdefault(span[1], []).append(span[0])
    return index


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[int, float]:
    """Span id -> duration minus the union of its clipped children."""
    by_id = {span[0]: span for span in spans}
    kids = children_of(spans)
    out: Dict[int, float] = {}
    for span in spans:
        lo, hi = span[4], span[5]
        covered = union_length(clip(
            ((by_id[c][4], by_id[c][5]) for c in kids.get(span[0], ())
             if c in by_id),
            lo, hi,
        ))
        out[span[0]] = max(0.0, (hi - lo) - covered)
    return out
