"""The three hospital-chart workloads and their seeded op streams.

A workload fixes a deployment topology (shards, replicas, engine) and a
traffic mix over the ``patient_chart`` view object. :class:`OpStream`
turns a workload and a seed into lists of plain-dict ops; the same
seed always gives a byte-identical stream (see :func:`stream_bytes`),
and the server never sees anything but the HTTP requests built from it.

Every op carries the keys it touches. Writes to one key are serialized
by the load generator, and reads of a key whose existence the stream
changes (a chart the run inserted, deleted or re-keyed) wait behind the
earlier writes to it, so each op has exactly one expected status.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.shard.router import HashRouter

__all__ = [
    "WORKLOADS",
    "Workload",
    "OpStream",
    "chart_body",
    "stream_bytes",
    "zipf_sampler",
]

BASE_KEY = 100          # populate_hospital numbers patients from 100
FRESH_KEY = 500_000     # charts the run inserts live far above them
PHYSICIANS = 8          # HospitalConfig default: ids 9000..9007


class Workload:
    """A topology plus a traffic mix; every field is fixed in code.

    Mix, probe and re-key shares are multiples of 1/DECK.
    """

    def __init__(
        self,
        name: str,
        shards: int,
        replicas: int,
        engine: str,
        patients: int,
        skew: Optional[float],
        mix: Dict[str, float],
        rate: float,
        probe: Dict[str, float],
        probe_rate: float,
        shares: Tuple[float, float, float],
        capacity: float,
        rekey_share: float = 0.0,
    ) -> None:
        self.name = name
        self.shards = shards
        self.replicas = replicas
        self.engine = engine            # "memory" or "sqlite"
        self.patients = patients
        self.skew = skew                # zipf exponent, None = uniform
        self.mix = mix
        self.rate = rate                # open-loop ops/s
        self.probe = probe              # op classes measured in the probe
        self.probe_rate = probe_rate    # open-loop ops/s of the probe phase
        self.shares = shares            # of a run: (main, probe, closed)
        self.capacity = capacity        # closed-loop ops/s, sizes that phase
        self.rekey_share = rekey_share  # share of rmw re-homing its key


# Rates, against the closed-loop capacity at each mix on a 2-vCPU host
# (chart_mixed ~430 ops/s, chart_cold_read ~290, chart_durable_write ~90):
# chart_mixed runs at ~35%, chart_cold_read at ~45% and
# chart_durable_write at ~35%. Nearer half, a burst of CPU steal on a
# shared host pushed the open-loop queues past saturation and the tail
# latencies of whole runs up 2-3x. The open loop keeps one write in
# flight, and a chart_durable_write write holds it ~16 ms, so at 32 ops/s
# that writer is ~45% busy: a slower disk lengthens the queue for it, and
# the write p95, less than at ~60% busy, and a 45-s run still has the
# 800 writes that make four windows of windowed_percentile.
#
# chart_durable_write re-homes 40% of its replaces (12% of its ops) through
# two-phase commit, so its write p95 lies among the two-phase writes; near
# 5% of the writes it would jump between them and the one-shard writes.
#
# A probe phase measures, on its own, the op classes a mix lacks (queries
# on chart_mixed, writes on chart_cold_read) and the reads and queries of
# chart_durable_write, whose mix reads wait mostly on fsyncing writes.
# chart_mixed gives its probe 30% of a 45-s run: ~850 queries, four
# windows.
#
# BENCHMARK.json lists chart_mixed and chart_durable_write only. On a
# shared 2-vCPU host chart_cold_read's latencies and throughput moved
# 13-30% between runs of the same code (its 5000-chart heap makes full
# garbage collections of 100-400 ms, and its reads queue behind 20-ms
# fan-out queries), more than a regression bound can allow; it stays
# here for check_split.py and for runs by hand.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "chart_mixed",
            shards=4, replicas=0, engine="memory", patients=500, skew=1.1,
            mix={"get": 0.70, "rmw": 0.15, "post": 0.10, "delete": 0.05},
            rate=150.0, probe={"query": 1.0}, probe_rate=70.0,
            shares=(0.5, 0.3, 0.2), capacity=430.0,
        ),
        Workload(
            "chart_cold_read",
            shards=4, replicas=0, engine="memory", patients=5000, skew=None,
            mix={"get": 0.90, "query": 0.10},
            rate=130.0, probe={"post": 0.5, "delete": 0.5}, probe_rate=80.0,
            shares=(0.75, 0.12, 0.13), capacity=290.0,
        ),
        Workload(
            "chart_durable_write",
            shards=2, replicas=2, engine="sqlite", patients=200, skew=None,
            mix={"post": 0.40, "rmw": 0.30, "delete": 0.20, "get": 0.10},
            rate=32.0, probe={"get": 0.5, "query": 0.5}, probe_rate=100.0,
            shares=(0.7, 0.17, 0.13), capacity=90.0, rekey_share=0.4,
        ),
    )
}


def zipf_sampler(n: int, skew: float, rng: random.Random):
    """Ranks 0..n-1 drawn with weight 1/(rank+1)**skew."""
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** skew for rank in range(n)
    ))
    population = list(range(n))

    def draw() -> int:
        return rng.choices(population, cum_weights=cumulative)[0]

    return draw


def chart_body(key: int, rng: random.Random) -> Dict[str, Any]:
    """A fresh patient chart: one or two visits with a few components.

    Every visit references an existing physician and every prescription
    an existing medication, so an insert stays on its owner shard.
    """
    visits = []
    for visit_no in range(1, rng.randint(1, 2) + 1):
        visits.append({
            "patient_id": key,
            "visit_no": visit_no,
            "visit_date": f"1991-{rng.randint(1, 12):02d}-"
                          f"{rng.randint(1, 28):02d}",
            "physician_id": 9000 + rng.randrange(PHYSICIANS),
            "reason": rng.choice(["checkup", "follow-up", "acute"]),
            "DIAGNOSIS": [
                {"patient_id": key, "visit_no": visit_no, "diag_no": d,
                 "code": rng.choice(["asthma", "anemia", "migraine"]),
                 "severity": rng.choice(["mild", "severe"])}
                for d in range(1, rng.randint(1, 2) + 1)
            ],
            "PRESCRIPTION": [
                {"patient_id": key, "visit_no": visit_no, "rx_no": 1,
                 "med_id": f"MED-0{rng.randint(1, 6)}",
                 "days": rng.randint(5, 30)}
            ] if rng.random() < 0.5 else [],
            "LAB_RESULT": [
                {"patient_id": key, "visit_no": visit_no, "test_no": 1,
                 "test_name": "CBC",
                 "value": round(rng.uniform(1.0, 99.0), 1)}
            ] if rng.random() < 0.5 else [],
        })
    return {
        "patient_id": key,
        "name": f"Bench patient {key}",
        "birth_year": rng.randint(1930, 2010),
        "ward_name": None,
        "VISIT": visits,
    }


class _Keys:
    """Generation-time key bookkeeping: which charts exist, which moved."""

    def __init__(self, workload: Workload, rng: random.Random) -> None:
        self.rng = rng
        self.live = list(range(BASE_KEY, BASE_KEY + workload.patients))
        self.inserted: List[int] = []     # charts this run inserted, live
        self.changed: set = set()         # keys whose existence changed
        self.next_fresh = FRESH_KEY
        self.draw_rank = (
            zipf_sampler(workload.patients, workload.skew, rng)
            if workload.skew is not None else None
        )
        self.router = HashRouter(workload.shards)

    def fresh(self, avoid_shard: Optional[int] = None) -> int:
        while True:
            key = self.next_fresh
            self.next_fresh += 1
            if (avoid_shard is None
                    or self.router.shard_of((key,)) != avoid_shard):
                return key

    def resident_key(self) -> int:
        """A seed-population key drawn by the workload's zipf law."""
        return BASE_KEY + self.draw_rank()

    def any_live(self) -> int:
        return self.live[self.rng.randrange(len(self.live))]

    def add(self, key: int) -> None:
        self.live.append(key)
        self.changed.add(key)

    def remove(self, key: int) -> None:
        self.live.remove(key)
        self.changed.add(key)
        if key in self.inserted:
            self.inserted.remove(key)


DECK = 20  # ops per shuffled deck; every mix share is a multiple of 1/DECK


def _deck(mix: Dict[Any, float], rng: random.Random):
    """Draws in shuffled decks of DECK, each holding the exact mix, so
    every seed sees the same share of each outcome."""
    deck = [kind for kind, share in mix.items()
            for _ in range(round(share * DECK))]
    while True:
        rng.shuffle(deck)
        yield from deck


class OpStream:
    """The seeded op stream of one workload, phase after phase.

    Phases draw from one generator in order (main, then probe, then
    closed), so the keys a later phase touches exist at that point of
    the stream. Ops are dicts with ``i``, ``due``, ``kind``, ``lock``
    (the keys the op must hold) and, where they apply, ``key``,
    ``new_key`` (a re-keying replace), ``body`` (a POST), ``tag`` (the
    value a read-modify-write stamps) and ``query``.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.keys = _Keys(workload, self.rng)
        self.rekeys = _deck({True: workload.rekey_share,
                             False: 1.0 - workload.rekey_share}, self.rng)
        self.taken: Dict[str, int] = {}   # ops drawn so far, per phase

    def take(
        self,
        count: int,
        phase: str,
        kinds: Optional[Dict[str, float]] = None,
        rate: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """The next ``count`` ops of ``phase``; ``kinds`` overrides the
        mix, ``rate`` spaces the due times (``None`` leaves them 0, for a
        closed loop). Op numbers and due times run on across the calls
        for one phase."""
        workload, rng, keys = self.workload, self.rng, self.keys
        mix = kinds or workload.mix
        uniform = workload.skew is None
        ops: List[Dict[str, Any]] = []
        kinds_drawn = _deck(mix, rng)
        first = self.taken.get(phase, 0)
        self.taken[phase] = first + count
        for i in range(first, first + count):
            kind = next(kinds_drawn)
            own_only = phase == "probe" or not uniform
            if kind == "delete" and own_only and not keys.inserted:
                kind = "post"  # nothing of ours to delete yet
            op: Dict[str, Any] = {"i": i, "kind": kind}
            if kind == "get":
                key = keys.any_live() if uniform else keys.resident_key()
                op["key"] = key
                op["lock"] = [key] if key in keys.changed else []
            elif kind == "query":
                low = BASE_KEY + rng.randrange(max(1, workload.patients - 5))
                op["query"] = (f"patient_id >= {low} and "
                               f"patient_id < {low + 5}")
                op["lock"] = []
            elif kind == "post":
                key = keys.fresh()
                op["key"] = key
                op["body"] = chart_body(key, rng)
                op["lock"] = [key]
                keys.add(key)
                keys.inserted.append(key)
            elif kind == "delete":
                if own_only:
                    key = keys.inserted[rng.randrange(len(keys.inserted))]
                else:
                    key = keys.any_live()
                op["key"] = key
                op["lock"] = [key]
                keys.remove(key)
            elif kind == "rmw":
                key = keys.any_live() if uniform else keys.resident_key()
                op["key"] = key
                op["tag"] = f"s{self.seed}-{phase}-{i}"
                op["lock"] = [key]
                if next(self.rekeys):
                    owner = keys.router.shard_of((key,))
                    new_key = keys.fresh(avoid_shard=owner)
                    op["new_key"] = new_key
                    op["lock"] = sorted([key, new_key])
                    keys.remove(key)
                    keys.add(new_key)
            else:  # pragma: no cover - mixes name only the kinds above
                raise ValueError(f"unknown op kind {kind!r}")
            op["due"] = round(i / rate, 6) if rate else 0.0
            ops.append(op)
        return ops


def stream_bytes(ops: List[Dict[str, Any]]) -> bytes:
    """The canonical byte form of a stream (determinism tests compare it)."""
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
