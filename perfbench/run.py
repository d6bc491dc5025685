"""The repository benchmark: a hospital ``patient_chart`` deployment in its
own server process, driven over HTTP by a single-process load generator.

Usage, from the repository root::

    python3 perfbench/run.py --workload chart_mixed --seed 1 \
        --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several cold starts), open-loop read / write / query latency timed from
each request's due time, closed-loop throughput on two connections and
the server's peak RSS; its phases take turns in five rounds, so each
samples the whole run. ``--trace 1`` runs the same open-loop phases
(the probe only where it just reads) in alternating untraced and traced
blocks and splits the traced requests' time across the layers (see
``layers.py``); it fails if less than 90% of the client-observed time
is attributed.

Every run checks its outputs: every request must get its expected
status, every key the run wrote must read back as its last acknowledged
value, ``check_integrity()`` must be empty and replicas must equal their
primaries. ``chart_cold_read`` also compares a fixed sample of bodies
with a single in-memory Penguin, and ``chart_durable_write`` kills the
server with SIGKILL after the last acknowledgement and reopens its files
to count lost acknowledged writes. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170
SETUP_REPS = 5           # cold starts per run; setup_s is their median
WARMUP_SHARE = 0.05      # leading ops of a phase left out of the latencies
TRACE_BLOCKS = 6         # trace 1: alternating untraced / traced blocks
ROUNDS = 5               # trace 0: turns each phase takes over the run
KEEP_GETS, KEEP_QUERIES = 40, 20   # bodies checked against the model

E2E_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms", "read_p95_ms": "ms",
    "write_p50_ms": "ms", "write_p95_ms": "ms",
    "query_p50_ms": "ms", "query_p95_ms": "ms",
    "throughput_ops_s": "ops/s",
    "server_rss_mb": "MB",
    "server_cpu_ms_per_op": "ms",
}


class BenchError(Exception):
    """The benchmark could not run or could not check its results."""


def _fail_without_sources() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: no src/repro package next to perfbench/; run from "
            "a checkout of the repository\n"
        )
        sys.exit(2)


_fail_without_sources()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from client import Run  # noqa: E402
from stats import (  # noqa: E402
    median,
    percentile,
    tail_quantile,
    windowed_percentile,
)
from workloads import DECK, WORKLOADS, OpStream, Workload  # noqa: E402


# -- the machine --------------------------------------------------------------


def machine() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def cpu_ticks() -> List[int]:
    """The aggregate /proc/stat CPU counters (user .. steal)."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(v) for v in stat.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor took between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def git_sha() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(git, name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the server process -------------------------------------------------------


class Server:
    """One deployment process, started and controlled over its pipes."""

    def __init__(self, workload: Workload, data_dir: str, traced: bool,
                 log_path: str) -> None:
        self.log = open(log_path, "w", encoding="utf-8")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--workload", workload.name, "--data-dir", data_dir]
        if traced:
            command.append("--traced")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, text=True, bufsize=1,
        )
        try:
            self.port = self.reply()["port"]
            self.setup_s = self._wait_healthy()
        except BaseException:
            self.kill()
            raise

    def reply(self) -> Dict[str, Any]:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"server exited (code {self.proc.poll()}); see "
                    f"{self.log.name}"
                )
            if line.startswith("@ "):
                return json.loads(line[2:])

    def command(self, text: str) -> Dict[str, Any]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def _wait_healthy(self) -> float:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30)
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                body = json.loads(response.read())
                if response.status == 200 and not body["degraded"]:
                    return time.perf_counter() - self.started
            finally:
                conn.close()
            time.sleep(0.01)

    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def quit(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.flush()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
        self.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.close()

    def close(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()
        self.log.close()


def dir_bytes(path: str) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


# -- metrics --------------------------------------------------------------------


def latencies(samples, cls: str, phase: str, skip_below: int = 0):
    """Latencies in ms from each request's due time, in due-time order."""
    chosen = sorted(
        (s for s in samples
         if s["cls"] == cls and s["phase"] == phase and s["i"] >= skip_below),
        key=lambda s: s["due"],
    )
    return [(s["done"] - s["due"]) * 1000.0 for s in chosen]


def latency_metrics(run: Run, workload: Workload, warm: int,
                    problems: List[str]) -> Dict[str, float]:
    out = {}
    probed = {"read": "get", "write": "post", "query": "query"}
    for cls in ("read", "write", "query"):
        phase = "probe" if probed[cls] in workload.probe else "main"
        values = latencies(run.samples, cls, phase, warm[phase])
        q = tail_quantile(len(values))
        if q is None or q < 0.95:
            problems.append(
                f"{cls}: {len(values)} samples, too few for a p95 with "
                f"10 beyond it (need 200)"
            )
        out[f"{cls}_p50_ms"] = windowed_percentile(values, 0.5)
        out[f"{cls}_p95_ms"] = windowed_percentile(values, 0.95)
    return out


# -- the run ----------------------------------------------------------------------


def mark_kept(ops: List[Dict[str, Any]]) -> None:
    gets = queries = 0
    for op in ops:
        if op["kind"] == "get" and gets < KEEP_GETS:
            op["keep"] = True
            gets += 1
        elif op["kind"] == "query" and queries < KEEP_QUERIES:
            op["keep"] = True
            queries += 1


def traces_probe(workload: Workload) -> bool:
    """Whether the traced run also covers the probe phase: only when the
    probe reads, so a read-only mix's trace stays free of writes."""
    return not set(workload.probe) - {"get", "query"}


async def alternate(run: Run, server: Server,
                    ops: List[Dict[str, Any]]) -> set:
    """``ops`` in TRACE_BLOCKS open-loop blocks, every second one traced;
    returns the request ids of the traced blocks."""
    size = -(-len(ops) // TRACE_BLOCKS)
    traced_ids = set()
    for block in range(TRACE_BLOCKS):
        chunk = ops[block * size:(block + 1) * size]
        if not chunk:
            break
        traced = block % 2 == 1
        server.command("trace on" if traced else "trace off")
        first_sample = len(run.samples)
        await run.open_loop(chunk)
        if traced:
            traced_ids.update(s["rid"] for s in run.samples[first_sample:])
    server.command("trace off")
    return traced_ids


def per_round(ops_per_second: float, seconds: float, rounds: int) -> int:
    """Ops in one round's slice of a phase, in whole decks of the mix."""
    return DECK * max(1, round(ops_per_second * seconds / rounds / DECK))


async def drive(run: Run, server: Server, stream: OpStream, workload: Workload,
                seconds: float, trace: bool) -> Dict[str, Any]:
    """Every load phase; returns what the metrics need besides samples.

    Untraced, the phases take turns in ROUNDS rounds (main, probe, closed
    loop), so each phase samples the whole run rather than one stretch of
    it. Traced, main and then the probe run once each, in blocks. Each
    phase starts once the replicas have applied what earlier phases
    shipped, so it does not pay for their backlog."""
    out: Dict[str, Any] = {"main_ops": [], "closed_rates": []}
    main_share, probe_share, closed_share = workload.shares
    probe_s = seconds * probe_share
    if not trace:
        main_s = seconds * main_share
    elif traces_probe(workload):
        main_s = seconds - probe_s
    else:
        main_s = seconds
    rounds = 1 if trace else ROUNDS
    main_n = per_round(workload.rate, main_s, rounds)
    probe_n = per_round(workload.probe_rate, probe_s, rounds)
    closed_n = per_round(workload.capacity, seconds * closed_share, rounds)
    cpu_s = 0.0
    await run.open()
    try:
        out["stats_before"] = server.command("stats")
        for turn in range(rounds):
            run.phase = "main"
            main_ops = stream.take(main_n, "main", rate=workload.rate)
            if turn == 0 and workload.name == "chart_cold_read":
                mark_kept(main_ops)
            out["main_ops"].extend(main_ops)
            server.command("settle")
            cpu_before = server.cpu_seconds()
            if trace:
                out["traced"] = await alternate(run, server, main_ops)
            else:
                await run.open_loop(main_ops)
            server.command("settle")
            cpu_s += server.cpu_seconds() - cpu_before
            if trace:
                out["stats_after"] = server.command("stats")
                if not traces_probe(workload):
                    continue
            run.phase = "probe"
            probe_ops = stream.take(probe_n, "probe", kinds=workload.probe,
                                    rate=workload.probe_rate)
            if trace:
                out["traced"] |= await alternate(run, server, probe_ops)
            else:
                await run.open_loop(probe_ops)
                server.command("settle")
                run.phase = "closed"
                out["closed_rates"].append(
                    await run.closed_loop(stream.take(closed_n, "closed"))
                )
        out["cpu_ms_per_op"] = cpu_s * 1000.0 / len(out["main_ops"])
        out["warm"] = {"main": int(main_n * rounds * WARMUP_SHARE),
                       "probe": int(probe_n * rounds * WARMUP_SHARE)}
        run.phase = "readback"
        out["readback"] = await run.read_back()
    finally:
        await run.close()
    return out


def run_once(workload: Workload, seed: int, seconds: float, trace: bool,
             work_dir: str) -> Dict[str, Any]:
    problems: List[str] = []
    setups = []
    for rep in range(SETUP_REPS - 1):
        data = os.path.join(work_dir, f"setup{rep}")
        server = Server(workload, data, False,
                        os.path.join(work_dir, f"setup{rep}.log"))
        setups.append(server.setup_s)
        server.quit()
    data_dir = os.path.join(work_dir, "data")
    server = Server(workload, data_dir, trace,
                    os.path.join(work_dir, "server.log"))
    setups.append(server.setup_s)
    try:
        base_bytes = (dir_bytes(data_dir) if workload.engine == "sqlite"
                      else 0)
        run = Run("127.0.0.1", server.port)
        stream = OpStream(workload, seed)
        phases = asyncio.run(drive(run, server, stream, workload, seconds,
                                   trace))
        problems.extend(run.failures[:20])
        problems.extend(phases["readback"])
        checked = server.command("check")
        problems.extend(f"integrity: {v}" for v in checked["integrity"])
        problems.extend(f"replica differs: {m}"
                        for m in checked["replica_mismatches"])
        final = server.command("stats")
        rss = server.peak_rss_mb()
        spans = None
        if trace:
            spans_path = os.path.join(work_dir, "spans.json")
            server.command(f"spans {spans_path}")
            with open(spans_path, encoding="utf-8") as f:
                spans = json.load(f)
        durability = None
        if workload.engine == "sqlite":
            grown = dir_bytes(data_dir) - base_bytes
            server.kill()  # no drain: process death after the last ack
            from oracle import reopen_and_count_lost

            clean, lost, report = reopen_and_count_lost(
                workload, data_dir, run.expected, run.unknown
            )
            durability = {"clean": clean, "lost": lost,
                          "stored_per_user_byte": grown / max(1, run.user_bytes)}
            if not clean:
                problems.append(f"recovery not clean: {report}")
            if lost:
                problems.append(f"{lost} acknowledged write(s) lost")
        else:
            server.quit()
        if workload.name == "chart_cold_read":
            from oracle import model_mismatches

            problems.extend(model_mismatches(
                workload, run.kept, phases["main_ops"]
            ))
    finally:
        server.kill()
    return {
        "run": run, "phases": phases, "problems": problems,
        "setups": setups, "rss": rss, "final": final, "spans": spans,
        "durability": durability,
    }


def end_to_end(result, workload: Workload) -> Dict[str, float]:
    run, phases = result["run"], result["phases"]
    metrics = {"setup_s": median(result["setups"])}
    metrics.update(latency_metrics(run, workload, phases["warm"],
                                   result["problems"]))
    metrics["throughput_ops_s"] = median(phases["closed_rates"])
    metrics["server_rss_mb"] = result["rss"]
    metrics["server_cpu_ms_per_op"] = phases["cpu_ms_per_op"]
    return metrics


def per_layer(result, workload: Workload) -> Dict[str, float]:
    from layers import layer_metrics

    run, phases = result["run"], result["phases"]
    traced_ids = phases["traced"]
    traced = [s for s in run.samples if s["rid"] in traced_ids]
    untraced = [s for s in run.samples
                if s["rid"] not in traced_ids and s["phase"] == "main"]
    metrics, details = layer_metrics(result["spans"], traced)
    before, after = phases["stats_before"], phases["stats_after"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    writes = sum(1 for s in traced + untraced
                 if s["cls"] == "write" and s["ok"])
    client = [(s["done"] - s["sent"]) * 1000.0 for s in traced
              if s["phase"] == "main"]
    plain = [(s["done"] - s["sent"]) * 1000.0 for s in untraced]
    metrics.update({
        "serve.concurrent.breaker_refusals": float(
            after["breaker_refusals"] - before["breaker_refusals"]
        ),
        "replicate.lag_max": max(metrics["replicate.lag_max"],
                                 float(after["replica_lag"])),
        "materialize.hit_ratio": hits / max(1, hits + misses),
        "materialize.sync_records_per_write": (
            (after["cache"]["records_applied"]
             - before["cache"]["records_applied"]) / max(1, writes)
        ),
        "setup.populate_s": result["final"]["populate_s"],
        "setup.define_s": result["final"]["define_s"],
        "setup.listen_s": result["final"]["listen_s"],
        "loadgen.late_p95_ms": percentile(run.late_ms, 0.95),
        "loadgen.failed_frac": len(run.failures) / max(1, len(run.samples)),
        "trace.overhead": (percentile(client, 0.5)
                           / max(1e-9, percentile(plain, 0.5))),
    })
    durability = result["durability"] or {}
    metrics["durability.lost_acked_writes"] = float(durability.get("lost", 0))
    metrics["durability.stored_bytes_per_user_byte"] = durability.get(
        "stored_per_user_byte", 0.0
    )
    if not set(workload.mix) - {"get", "query"}:
        # A read-only mix must leave the write path untouched.
        for name in ("serve.http.batch_calls", "core.updates.translate_calls",
                     "relational.journal_calls", "obs.audit.append_calls",
                     "replicate.calls"):
            if metrics[name]:
                result["problems"].append(
                    f"{name} = {metrics[name]:g} on a read-only mix"
                )
    if metrics["trace.coverage"] < 0.90:
        result["problems"].append(
            f"trace.coverage {metrics['trace.coverage']:.3f} < 0.90"
        )
    print(f"trace: {details['matched']}/{details['requests']} requests "
          f"matched; layer ms {json.dumps(details['layer_ms'])}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def expire(signum, frame):
        raise BenchError(f"run exceeded {TIME_LIMIT_S}s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(
        ROOT, ".perfbench_run", f"{workload.name}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(work_dir)
    try:
        print(f"machine: {json.dumps(machine())}")
        ticks = cpu_ticks()
        result = run_once(workload, args.seed, args.seconds,
                          bool(args.trace), work_dir)
        print(f"machine: steal {steal_share(ticks, cpu_ticks()):.3f} of "
              f"CPU time during the run")
        if args.trace:
            from layers import UNITS

            metrics = per_layer(result, workload)
            units = UNITS
        else:
            metrics = end_to_end(result, workload)
            units = E2E_UNITS
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    run = result["run"]
    failed = sum(1 for s in run.samples if not s["ok"])
    if result["durability"] is not None:
        print(f"durability: lost_acked_writes = "
              f"{result['durability']['lost']} after SIGKILL and reopen")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name in sorted(units):
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": not result["problems"] and failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
