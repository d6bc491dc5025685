"""Check that the three workloads split the layers as the benchmark states.

Runs the traced run of every workload once and checks, across them:

* ``chart_cold_read`` records zero batch, translate, journal, audit and
  replicate calls (``run.py`` also fails such a run on its own);
* relational + obs.audit + replicate take a larger share of write time
  on ``chart_durable_write`` than on ``chart_mixed``;
* ``materialize.hit_ratio`` is higher on ``chart_mixed`` than on
  ``chart_cold_read``;
* every traced run is correct, with ``trace.coverage`` of at least 0.90.

Usage, from the repository root::

    python3 perfbench/check_split.py --seed 1 --seconds 45
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("chart_mixed", "chart_cold_read", "chart_durable_write")
NO_WRITE_PATH = (
    "serve.http.batch_calls",
    "core.updates.translate_calls",
    "relational.journal_calls",
    "obs.audit.append_calls",
    "replicate.calls",
)


def traced(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        check=True, timeout=200,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    args = parser.parse_args(argv)
    runs = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}
    mixed, cold, durable = (runs[w] for w in WORKLOADS)
    checks = [
        (f"{w}: correct, coverage {r['trace.coverage']:.3f} >= 0.90",
         r["correct"] and r["trace.coverage"] >= 0.90)
        for w, r in runs.items()
    ]
    checks += [
        (f"chart_cold_read: {name} = {cold[name]:g}", cold[name] == 0)
        for name in NO_WRITE_PATH
    ]
    checks += [
        ("write_storage_share durable "
         f"{durable['trace.write_storage_share']:.3f} > mixed "
         f"{mixed['trace.write_storage_share']:.3f}",
         durable["trace.write_storage_share"]
         > mixed["trace.write_storage_share"]),
        (f"hit_ratio mixed {mixed['materialize.hit_ratio']:.3f} > cold "
         f"{cold['materialize.hit_ratio']:.3f}",
         mixed["materialize.hit_ratio"] > cold["materialize.hit_ratio"]),
    ]
    for label, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    for w, r in runs.items():
        print(f"{w}: trace.overhead {r['trace.overhead']:.3f} "
              f"(traced / untraced median client latency)")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
