"""Unit tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from client import ABSENT, Run, canon, check_value  # noqa: E402
from spans import Recorder, self_times, union_length  # noqa: E402
from stats import percentile, tail_quantile  # noqa: E402
from workloads import WORKLOADS, OpStream, chart_body, stream_bytes  # noqa: E402

import random  # noqa: E402


# -- the percentile rule -------------------------------------------------------


def test_tail_quantile_needs_ten_samples_beyond():
    assert tail_quantile(19) is None
    assert tail_quantile(20) == 0.5
    assert tail_quantile(199) == 0.9
    assert tail_quantile(200) == 0.95
    assert tail_quantile(999) == 0.95
    assert tail_quantile(1000) == 0.99


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 0.5) == 100
    assert percentile(values, 0.95) == 190
    assert len([v for v in values if v > percentile(values, 0.95)]) == 10
    assert percentile([], 0.5) == 0.0


# -- self time -------------------------------------------------------------------


def span(span_id, parent, start, end, layer="x"):
    return [span_id, parent, layer, "call", start, end, None, None]


def test_union_length_merges_overlaps():
    assert union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0),
             span(3, 1, 3.0, 6.0)]
    own = self_times(spans)
    assert own[1] == 5.0          # 10 - |[1,6]|
    assert own[2] == 3.0 and own[3] == 3.0


def test_self_time_nested_and_clipped_children():
    spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 4.0),
             span(3, 2, 2.0, 3.0), span(4, 1, 9.0, 12.0)]
    own = self_times(spans)
    assert own[3] == 1.0
    assert own[2] == 2.0          # grandchild counted in the child only
    assert own[1] == 10.0 - 3.0 - 1.0   # child 4 clipped to [9, 10]
    assert own[4] == 3.0


def test_recorder_links_nested_calls():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: "in", "inner", "inner")
    outer = recorder.wrap(lambda: inner(), "outer", "outer")
    assert outer() == "in"
    (child, parent) = recorder.spans
    assert child[1] == parent[0] and parent[1] == 0
    own = self_times(recorder.spans)
    assert own[parent[0]] == (parent[5] - parent[4]) - (child[5] - child[4])


# -- the generator ---------------------------------------------------------------


def phases(name, seed):
    stream = OpStream(WORKLOADS[name], seed)
    workload = WORKLOADS[name]
    return (stream.take(300, "main", rate=workload.rate)
            + stream.take(50, "probe", kinds=workload.probe, rate=10.0)
            + stream.take(200, "closed"))


def test_same_seed_same_bytes_other_seed_differs():
    for name in WORKLOADS:
        assert stream_bytes(phases(name, 7)) == stream_bytes(phases(name, 7))
        assert stream_bytes(phases(name, 7)) != stream_bytes(phases(name, 8))


def test_stream_keeps_exact_mix_and_lock_discipline():
    ops = OpStream(WORKLOADS["chart_durable_write"], 3).take(400, "main",
                                                             rate=40.0)
    kinds = [op["kind"] for op in ops]
    assert kinds.count("post") == 160 and kinds.count("get") == 40
    live = set(range(100, 300))
    for op in ops:
        if op["kind"] in ("post", "delete", "rmw"):
            assert op["key"] in op["lock"]
        if op["kind"] in ("get", "rmw", "delete"):
            assert op["key"] in live, "ops address only existing charts"
        if op["kind"] == "post":
            live.add(op["key"])
        elif op["kind"] == "delete":
            live.discard(op["key"])
        elif "new_key" in op:
            live.discard(op["key"])
            live.add(op["new_key"])
    assert any("new_key" in op for op in ops)


def test_take_continues_numbers_and_due_times_per_phase():
    workload = WORKLOADS["chart_mixed"]
    whole = OpStream(workload, 5).take(40, "main", rate=20.0)
    stream = OpStream(workload, 5)
    parts = (stream.take(20, "main", rate=20.0)
             + stream.take(20, "main", rate=20.0))
    assert [op["i"] for op in parts] == list(range(40))
    assert [op["due"] for op in parts] == [op["due"] for op in whole]
    assert stream.take(20, "probe", kinds={"query": 1.0})[0]["i"] == 0


# -- the oracle --------------------------------------------------------------------


def test_canon_ignores_component_order_and_references():
    chart = chart_body(500001, random.Random(1))
    shuffled = json.loads(json.dumps(chart))
    shuffled["VISIT"].reverse()
    shuffled["VISIT"][0]["PHYSICIAN"] = [{"physician_id": 9000}]
    assert canon(shuffled) == canon(chart)
    shuffled["VISIT"][0]["reason"] = "other"
    assert canon(shuffled) != canon(chart)


async def _serve_canned(responses):
    """A one-connection HTTP server answering GET /objects/.../<key>."""

    async def handle(reader, writer):
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()
                return
            key = int(head.split(b" ")[1].rsplit(b"/", 1)[1])
            status, body = responses[key]
            payload = json.dumps(body).encode()
            writer.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s"
                         % (status, len(payload), payload))
            await writer.drain()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_read_back_catches_a_stale_value():
    fresh = chart_body(500001, random.Random(2))
    stale = dict(fresh, name="an older name")

    async def scenario(read_back_value):
        server = await _serve_canned({
            500001: (200, {"instance": read_back_value}),
            500002: (404, {"error": "gone"}),
        })
        run = Run("127.0.0.1", server.sockets[0].getsockname()[1])
        run.expected = {500001: canon(fresh), 500002: ABSENT}
        await run.open()
        try:
            return await run.read_back()
        finally:
            await run.close()
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario(fresh)) == []
    problems = asyncio.run(scenario(stale))
    assert problems == ["key 500001: stale or wrong value read back"]


def test_check_value_flags_a_resurrected_delete():
    body = json.dumps({"instance": {"patient_id": 1}}).encode()
    assert check_value(1, ABSENT, 200, body)
    assert not check_value(1, ABSENT, 404, b"{}")
