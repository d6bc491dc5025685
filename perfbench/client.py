"""The load generator: one asyncio process, at most ``CONNECTIONS``
keep-alive connections, open and closed loops over a seeded op stream.

Open loop: each op is launched at its due time whatever the server is
doing, and every latency is timed from that due time, so a stall also
charges the ops queued behind it. How late the launcher itself ran is
kept separately (:attr:`Run.late_ms`).

Ordering: an op first takes the per-key locks its stream entry names
(``op["lock"]``), then a connection for each request. Writes to one key
therefore never overlap, and each acknowledged write updates :attr:`Run.expected`, the
oracle's record of the last acknowledged value of every key written.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote_plus

__all__ = ["ABSENT", "CONNECTIONS", "Connection", "Run", "canon"]

CONNECTIONS = 2          # nproc of the reference container
OBJECT = "patient_chart"
ISLAND = ("VISIT", "DIAGNOSIS", "PRESCRIPTION", "LAB_RESULT")
ABSENT = None            # expected value of a key whose last write deleted it

EXPECTED_STATUS = {"get": 200, "query": 200, "post": 201, "put": 200,
                   "delete": 200}
CLASS_OF = {"get": "read", "query": "query", "post": "write", "put": "write",
            "delete": "write"}


def canon(chart: Dict[str, Any], island_only: bool = True) -> Dict[str, Any]:
    """A chart with every component list sorted, for order-free equality.

    ``island_only`` drops the referenced PHYSICIAN / MEDICATION lists,
    which the server fills in from the database while a client-built
    chart leaves them empty. Empty lists and missing lists compare equal.
    """
    out: Dict[str, Any] = {}
    for field, value in chart.items():
        if isinstance(value, list):
            if (island_only and field not in ISLAND) or not value:
                continue
            out[field] = sorted(
                json.dumps(canon(c, island_only), sort_keys=True)
                for c in value
            )
        else:
            out[field] = value
    return out


def rekeyed(chart: Dict[str, Any], new_key: int) -> Dict[str, Any]:
    """The chart with its pivot key moved to ``new_key`` throughout."""
    out = {}
    for field, value in chart.items():
        if field == "patient_id":
            out[field] = new_key
        elif isinstance(value, list) and field in ISLAND:
            out[field] = [rekeyed(c, new_key) for c in value]
        else:
            out[field] = value
    return out


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal parser."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None

    async def request(
        self, method: str, path: str, body: bytes = b"",
        request_id: str = "",
    ) -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"X-Request-Id: {request_id}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload


class Run:
    """One load-generation session against one server."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.samples: List[Dict[str, Any]] = []
        self.late_ms: List[float] = []     # main-phase launch lateness
        self.expected: Dict[int, Any] = {}
        self.unknown: set = set()          # keys a failed write may have hit
        self.kept: Dict[str, Any] = {}     # bodies of ops marked "keep"
        self.user_bytes = 0                # acknowledged write body bytes
        self.failures: List[str] = []
        self._pool: Optional[asyncio.Queue] = None
        self._conns: List[Connection] = []
        self._locks: Dict[int, asyncio.Lock] = {}
        self._writer: Optional[asyncio.Lock] = None
        self._serial = 0
        self.phase = "main"
        #: At most one write in flight (open loop), so reads always find
        #: a connection no write is holding; off in the closed loop.
        self.one_writer = False

    async def open(self) -> None:
        self._writer = asyncio.Lock()
        self._pool = asyncio.Queue()
        for _ in range(CONNECTIONS):
            conn = await Connection(self.host, self.port).open()
            self._conns.append(conn)
            self._pool.put_nowait(conn)

    async def close(self) -> None:
        for conn in self._conns:
            await conn.close()
        self._conns.clear()

    # -- one HTTP exchange ---------------------------------------------------

    async def _call(
        self, verb: str, path: str, body: bytes, started: float,
        op: Dict[str, Any],
    ) -> Tuple[int, bytes]:
        """One request on a pooled connection; a write first takes the
        writer slot when :attr:`one_writer` is set."""
        self._serial += 1
        request_id = f"{self.phase}-{op['i']}-{self._serial}"
        method = {"get": "GET", "query": "GET", "post": "POST",
                  "put": "PUT", "delete": "DELETE"}[verb]
        writer = self._writer if self.one_writer and CLASS_OF[verb] == "write" \
            else None
        if writer is not None:
            await writer.acquire()
        try:
            conn = await self._pool.get()
            try:
                sent = time.perf_counter()
                try:
                    status, payload = await conn.request(method, path, body,
                                                         request_id)
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    status, payload = 599, str(exc).encode()
                done = time.perf_counter()
            finally:
                self._pool.put_nowait(conn)
        finally:
            if writer is not None:
                writer.release()
        ok = status == EXPECTED_STATUS[verb]
        if not ok:
            self.failures.append(
                f"{method} {path}: {status} {payload[:200]!r}"
            )
        self.samples.append({
            "rid": request_id, "i": op["i"], "cls": CLASS_OF[verb],
            "verb": verb, "phase": self.phase, "due": started, "sent": sent,
            "done": done, "status": status, "ok": ok,
        })
        if op.get("keep"):
            self.kept[f"{verb}:{op['i']}"] = json.loads(payload)
        return status, payload

    async def execute(self, op: Dict[str, Any], due: float) -> None:
        """Run one op under its key locks; latency counts from ``due``."""
        locks = [self._locks.setdefault(k, asyncio.Lock())
                 for k in op["lock"]]
        for lock in locks:
            await lock.acquire()
        try:
            await self._execute(op, due)
        finally:
            for lock in reversed(locks):
                lock.release()

    async def _execute(self, op, due) -> None:
        kind = op["kind"]
        base = f"/objects/{OBJECT}"
        if kind == "get":
            await self._call("get", f"{base}/{op['key']}", b"", due, op)
        elif kind == "query":
            await self._call("query", f"{base}?q={quote_plus(op['query'])}",
                             b"", due, op)
        elif kind == "post":
            body = json.dumps({"instance": op["body"]}).encode()
            status, _ = await self._call("post", base, body, due, op)
            self._settle(status == 201, op["key"], canon(op["body"]), body)
        elif kind == "delete":
            status, _ = await self._call("delete", f"{base}/{op['key']}",
                                         b"", due, op)
            self._settle(status == 200, op["key"], ABSENT, b"")
        elif kind == "rmw":
            key = op["key"]
            status, payload = await self._call("get", f"{base}/{key}", b"",
                                               due, op)
            if status != 200:
                return
            chart = json.loads(payload)["instance"]
            chart["name"] = op["tag"]
            if chart.get("VISIT"):
                chart["VISIT"][0]["reason"] = op["tag"]
            if "new_key" in op:
                chart = rekeyed(chart, op["new_key"])
            body = json.dumps({"instance": chart}).encode()
            status, _ = await self._call("put", f"{base}/{key}", body,
                                         time.perf_counter(), op)
            new_key = op.get("new_key", key)
            self._settle(status == 200, new_key, canon(chart), body)
            if new_key != key:
                self._settle(status == 200, key, ABSENT, b"")
        else:  # pragma: no cover - the stream names only the kinds above
            raise ValueError(kind)

    def _settle(self, acked: bool, key: int, value: Any, body: bytes) -> None:
        if acked:
            self.expected[key] = value
            self.unknown.discard(key)
            self.user_bytes += len(body)
        else:
            self.unknown.add(key)

    # -- loops ---------------------------------------------------------------

    async def open_loop(self, ops: List[Dict[str, Any]]) -> float:
        """Launch every op at its due time, counted from the first op's;
        returns the elapsed seconds.

        Like an application with a writer and a read pool, at most one
        write is in flight: a read never queues behind two writes."""
        self.one_writer = True
        started = time.perf_counter() + 0.005
        origin = started - ops[0]["due"]
        tasks = []
        for op in ops:
            due = origin + op["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if self.phase == "main":
                self.late_ms.append((time.perf_counter() - due) * 1000.0)
            tasks.append(asyncio.ensure_future(self.execute(op, due)))
        await asyncio.gather(*tasks)
        return time.perf_counter() - started

    async def closed_loop(self, ops: List[Dict[str, Any]]) -> float:
        """``CONNECTIONS`` callers, each sending its next op when the last
        completes, until ``ops`` are done; returns their ops per second."""
        self.one_writer = False
        stream = iter(ops)
        start = time.perf_counter()

        async def caller() -> None:
            for op in stream:
                await self.execute(op, time.perf_counter())

        await asyncio.gather(*[caller() for _ in range(CONNECTIONS)])
        return len(ops) / (time.perf_counter() - start)

    async def read_back(self) -> List[str]:
        """GET every key the run wrote; mismatches against the oracle."""
        problems = []
        conn = await self._pool.get()
        try:
            for key in sorted(self.expected):
                if key in self.unknown:
                    continue
                status, payload = await conn.request(
                    "GET", f"/objects/{OBJECT}/{key}",
                    request_id=f"readback-{key}",
                )
                problems.extend(check_value(key, self.expected[key],
                                            status, payload))
        finally:
            self._pool.put_nowait(conn)
        return problems


def check_value(key: int, expected: Any, status: int, payload: bytes):
    """Oracle check of one read-back: the last acknowledged value or 404."""
    if expected is ABSENT:
        if status != 404:
            return [f"key {key}: deleted but read back with {status}"]
        return []
    if status != 200:
        return [f"key {key}: expected a chart, read back {status}"]
    got = canon(json.loads(payload)["instance"])
    if got != expected:
        return [f"key {key}: stale or wrong value read back"]
    return []
