"""One workload in a fresh process: timed passes, then the correctness checks.

Run by ``run.py``; prints one JSON object on its last stdout line.  With
``--probe`` it only imports ``ustatcs`` and builds the argv or config, prints
``ready`` and exits, so that the parent can time set-up.

A pass drives ``ustatcs.cli.main`` in this process.  For the streams, stdin is
a ``Feeder`` that hands over row k only when the CLI asks for it, which is
after the record of row k-1 has been written (a closed loop with one client),
and stdout is a ``Sink``; a row's latency runs from the hand-over of its line
to the write of its record.  For ``mc-power`` a row's latency runs from one
``UStatAccumulator.push`` to the next within a replication.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from workloads import M, Simulate, Stream  # noqa: E402


class Feeder:
    """stdin stand-in: yields one line per ``next`` and stamps the hand-over."""

    def __init__(self, lines):
        self._lines = lines
        self._i = 0
        self.handed_at = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self._i == len(self._lines):
            raise StopIteration
        line = self._lines[self._i]
        self._i += 1
        self.handed_at = time.perf_counter_ns()
        return line

    @property
    def consumed(self) -> int:
        return self._i


class Sink(io.StringIO):
    """stdout stand-in: keeps the text and the latency of each record write."""

    def __init__(self, feeder: Feeder):
        super().__init__()
        self._feeder = feeder
        self.latencies_ns: list[int] = []

    def write(self, s):
        if self._feeder.consumed:  # the header is written before the first row
            self.latencies_ns.append(time.perf_counter_ns() - self._feeder.handed_at)
        return super().write(s)


class PushClock:
    """Stamps every ``UStatAccumulator.push`` to time simulation rows."""

    def __init__(self):
        self.stamps: list[tuple[int, int]] = []  # (ns, n before the push)

    def __enter__(self):
        from ustatcs.accumulator import UStatAccumulator

        self._cls = UStatAccumulator
        orig = self._orig = UStatAccumulator.push
        stamps = self.stamps

        def push(acc, x):
            stamps.append((time.perf_counter_ns(), acc.n))
            return orig(acc, x)

        UStatAccumulator.push = push
        return self

    def __exit__(self, *exc):
        self._cls.push = self._orig

    def row_latencies_ns(self) -> list[int]:
        """Push-to-next-push time of each row n >= M inside one replication."""
        s = self.stamps
        return [b[0] - a[0] for a, b in zip(s, s[1:])
                if b[1] == a[1] + 1 and a[1] + 1 >= M]


def _run_main(argv, stdin=None, stdout=None, tracer=None) -> tuple[int, str]:
    """cli.main(argv) with swapped std streams, traced when a tracer is given;
    returns (exit code, captured stderr)."""
    from ustatcs import cli

    main = cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.span("cli", main)
    err = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = stdin if stdin is not None else io.StringIO("")
    sys.stdout = stdout if stdout is not None else io.StringIO()
    sys.stderr = err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed pass, reported with its traceback
        err.write(traceback.format_exc())
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        if tracer is not None:
            tracer.restore()
    return code, err.getvalue()


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class StreamRunner:
    def __init__(self, w: Stream, seed: int):
        self.w = w
        self.argv = w.build(seed)
        self.points, self.lines = w.inputs(seed)
        self.rows = len(self.lines)

    def run(self, tracer=None) -> dict:
        feeder = Feeder(self.lines)
        sink = Sink(feeder)
        t0 = time.perf_counter()
        code, err = _run_main(self.argv, feeder, sink, tracer)
        wall = time.perf_counter() - t0
        return {
            "code": code,
            "stderr": err,
            "wall": wall,
            "ops": self.rows,
            "rows": self.rows,
            "latencies_ns": sink.latencies_ns,
            "output": {"stdout": sink.getvalue()},
            "consumed": feeder.consumed,
        }

    def check(self, p: dict) -> tuple[int, list[str]]:
        """(failed rows, problems) of one pass's output."""
        return check_stream(self.w, p, self.points)


class SimulateRunner:
    def __init__(self, w: Simulate, seed: int, rundir: str):
        self.w = w
        self.ops_per_pass = w.ops_per_pass
        self.config = w.build(seed)
        self.outdir = os.path.join(rundir, "out")
        cfg_path = os.path.join(rundir, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as f:
            f.write(self.config)
        self.argv = ["simulate", "--config", cfg_path, "--out", self.outdir]

    def run(self, tracer=None) -> dict:
        shutil.rmtree(self.outdir, ignore_errors=True)
        t0 = time.perf_counter()
        if tracer is None:
            with PushClock() as clock:
                code, err = _run_main(self.argv)
            wall = time.perf_counter() - t0
            latencies, rows = clock.row_latencies_ns(), len(clock.stamps)
        else:
            code, err = _run_main(self.argv, tracer=tracer)
            wall = time.perf_counter() - t0
            latencies, rows = [], 0
        output = {}
        if os.path.isdir(self.outdir):
            for name in sorted(os.listdir(self.outdir)):
                with open(os.path.join(self.outdir, name), encoding="utf-8") as f:
                    output[name] = f.read()
        shutil.rmtree(self.outdir, ignore_errors=True)
        return {
            "code": code,
            "stderr": err,
            "wall": wall,
            "ops": self.ops_per_pass,
            "rows": rows,
            "latencies_ns": latencies,
            "output": output,
        }

    def check(self, p: dict) -> tuple[int, list[str]]:
        problems = check_power(self.w.config, p)
        return (self.ops_per_pass if problems else 0), problems


# ---------------------------------------------------------------------------
# correctness checks (outside the timed phase)
# ---------------------------------------------------------------------------


def check_stream(w: Stream, p: dict, points) -> tuple[int, list[str]]:
    """Failed rows and problems: one valid record per row from n=M, finite fields,
    lo <= center <= hi, the final center against batch_ustat, and for ``test``
    a rejection that never returns to 0."""
    from ustatcs.accumulator import batch_ustat

    problems: list[str] = []
    rows = p["rows"]
    lines = p["output"]["stdout"].splitlines()
    is_test = w.argv[0] == "test"
    header = ("n,method,center,boundary_value,reject,first_rejection_n" if is_test
              else "n,method,center,lo,hi,sigma_hat,boundary_value")
    if not lines or lines[0] != header:
        problems.append("missing or wrong CSV header")
        return rows, problems
    good = min(M - 1, p["consumed"])
    expect_n = M
    first = None  # first n with reject=1
    center = None
    for line in lines[1:]:
        f = line.split(",")
        try:
            n = int(f[0])
            if is_test:
                center, bound = float(f[2]), float(f[3])
                reject = int(f[4])
                lo, hi = center - bound, math.inf
                values = (center, bound)
                if reject == 1 and first is None:
                    first = n
                ok = (len(f) == 6 and reject == int(first is not None)
                      and f[5] == ("" if first is None else str(first)))
            else:
                center, lo, hi, sig, gam = (float(x) for x in f[2:7])
                values = (center, lo, hi, sig, gam)
                ok = len(f) == 7
        except (ValueError, IndexError):
            n, ok, values, lo, hi = -1, False, (), 0.0, 0.0
        ok = (ok and n == expect_n and all(math.isfinite(v) for v in values)
              and lo <= center <= hi)
        if not ok:
            problems.append(f"bad record at n={expect_n}: {line!r}")
            break
        good += 1
        expect_n += 1
    if p["code"] != 0:
        problems.append(f"exit code {p['code']}: {p['stderr'].strip()[-300:]}")
    failed = rows - good
    if failed:
        problems.append(f"{failed} of {rows} rows without a valid record")
    elif center is not None:
        pair_sum, _, _ = batch_ustat(points, w.kernel)
        oracle = 2.0 * pair_sum / (rows * (rows - 1))
        rel = abs(center - oracle) / abs(oracle) if oracle else abs(center)
        if not rel <= 1e-10:
            problems.append(f"final center {center!r} vs batch_ustat {oracle!r} (rel {rel:.3g})")
    return failed, problems


def check_power(config: dict, p: dict) -> list[str]:
    """Exit 0, power and cumulative-rejection curves in [0,1], the curves
    nondecreasing in n and ending at the delta=0 power."""
    problems: list[str] = []
    if p["code"] != 0:
        return [f"exit code {p['code']}: {p['stderr'].strip()[-300:]}"]
    out = p["output"]
    methods = config["methods"]
    try:
        power = {}
        for line in out["power_power.csv"].splitlines()[1:]:
            d, meth, val = line.split(",")
            power[(float(d), meth)] = float(val)
        curves: dict[str, list[tuple[int, float]]] = {m: [] for m in methods}
        for line in out["power_size_curve.csv"].splitlines()[1:]:
            n, meth, val = line.split(",")
            curves[meth].append((int(n), float(val)))
    except (KeyError, ValueError) as exc:
        return [f"unreadable simulate output: {exc!r}"]
    want = {(float(d), m) for d in config["delta_grid"] for m in methods}
    if set(power) != want:
        problems.append(f"power rows {sorted(power)} != {sorted(want)}")
    if any(not 0.0 <= v <= 1.0 for v in power.values()):
        problems.append("power outside [0,1]")
    grid = list(range(config["m"], config["n_max"] + 1))
    for meth, curve in curves.items():
        ns = [n for n, _ in curve]
        vals = [v for _, v in curve]
        if ns != grid:
            problems.append(f"{meth}: size curve not on n = m..n_max")
        elif any(not 0.0 <= v <= 1.0 for v in vals) or any(
            b < a for a, b in zip(vals, vals[1:])
        ):
            problems.append(f"{meth}: size curve outside [0,1] or decreasing")
        elif vals[-1] != power.get((0.0, meth)):
            problems.append(f"{meth}: size curve ends at {vals[-1]} != delta=0 power")
    return problems


def digest(output: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(output):
        h.update(name.encode())
        h.update(b"\0")
        h.update(output[name].encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _proc_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read through ctypes from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import platform
    import subprocess

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
    mem_kb = _proc_field("/proc/meminfo", "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_gb": round(int(mem_kb.split()[0]) / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit or "unknown (not a git checkout)",
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, rundir: str) -> dict:
    import numpy
    from tracing import Tracer, layer_metrics, layer_unit

    w = workloads.WORKLOADS[name]
    runner = StreamRunner(w, seed) if isinstance(w, Stream) else SimulateRunner(w, seed, rundir)
    plain: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    t_start = time.perf_counter()
    # The first pass of a process runs while the allocator and the libraries
    # warm up; it is checked but not timed.
    warmup = [runner.run()]
    while True:
        if trace and len(traced) <= len(plain):
            tracer = Tracer()
            p = runner.run(tracer)
            traced.append((p, layer_metrics(tracer.spans, tracer.counts)))
            del tracer
        else:
            plain.append(runner.run())
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() - t_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks ---------------------------------------------------------------
    passes = warmup + plain + [p for p, _ in traced]
    problems: list[str] = []
    failed = 0
    checked: dict[str, tuple[int, list[str]]] = {}
    for p in passes:
        d = digest(p["output"])
        if d not in checked:
            checked[d] = runner.check(p)
        f, probs = checked[d]
        failed += f
        problems += [x for x in probs if x not in problems]
    if len(checked) != 1:
        problems.append(f"{len(checked)} different output digests for one seed")
    attempted = sum(p["ops"] for p in passes)

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not problems and failed == 0,
        "digest": next(iter(checked)),
        "machine": machine_record(),
    }
    walls = [p["wall"] for p in plain]
    if not trace:
        # The timed passes replay the same rows: a row's latency is its median
        # over the passes, and the percentiles are taken over rows.
        counts = {len(p["latencies_ns"]) for p in plain}
        if len(counts) != 1:
            problems.append(f"latency sample counts differ between passes: {sorted(counts)}")
        rows_ns = numpy.median([p["latencies_ns"][:min(counts)] for p in plain], axis=0)
        p50_ns, p99_ns = numpy.percentile(rows_ns, [50, 99]) if len(rows_ns) else (0.0, 0.0)
        result["metrics"] = {
            "rows_per_s": statistics.median(p["rows"] / p["wall"] for p in plain),
            "reps_per_s": statistics.median(p["ops"] / p["wall"] if isinstance(w, Simulate)
                                            else 1.0 / p["wall"] for p in plain),
            "row_latency_p50_us": float(p50_ns) / 1e3,
            "row_latency_p99_us": float(p99_ns) / 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        result["latency_rows"] = len(rows_ns)
        result["correct"] = result["correct"] and not problems
    else:
        per = [m for _, m in traced]
        layer = {}
        for key in per[0]:
            vals = [m[key] for m in per]
            if layer_unit(key) == "count":  # work counts repeat exactly for a seed
                if len(set(vals)) != 1:
                    problems.append(f"{key} differs between traced passes: {vals}")
                layer[key] = vals[0]
            else:
                layer[key] = statistics.median(vals)
        tw = statistics.median(p["wall"] for p, _ in traced)
        layer["trace.overhead_ratio"] = tw / statistics.median(walls) - 1.0
        result["metrics"] = layer
        result["correct"] = result["correct"] and not problems
    result["pass_walls_s"] = [p["wall"] for p in passes]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rundir", help="scratch directory of the run")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    if args.probe:
        import ustatcs.cli  # noqa: F401  (the import a user of the CLI pays)

        w.build(args.seed)
        print("ready", flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.rundir)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
