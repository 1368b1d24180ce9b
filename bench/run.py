"""ustatcs benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload stream-gmd --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up time is the median wall time of
several fresh interpreters that import ``ustatcs`` and build the workload's
argv or config; the workload then runs in one more fresh process
(``worker.py``).  Every metric is printed as ``name value unit``, then the
full record as JSON, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracing import layer_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7  # timed fresh interpreters per run, after one untimed warm-up

UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "reps_per_s": "1/s",
    "row_latency_p50_us": "us",
    "row_latency_p99_us": "us",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    return UNITS.get(name) or layer_unit(name)


def _probe_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    ustatcs and built the workload's argv or config."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "ustatcs", "__init__.py")):
        print("bench: no src/ustatcs next to the benchmark; run it from a full checkout",
              file=sys.stderr)
        return 2

    setup = []
    if not args.trace:
        _probe_setup(args.workload, args.seed)  # warms the file and bytecode caches
        setup = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    rundir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(rundir, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--rundir", rundir],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170,
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass  # another run still uses it
    if proc.returncode != 0:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = dict(record["metrics"])
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup), **metrics}
        record["setup_s_samples"] = setup
    record["metrics"] = metrics
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"failed_ratio {record['failed'] / record['attempted']:.6g} ratio")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
