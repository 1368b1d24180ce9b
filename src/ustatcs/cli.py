"""Command-line front end.

Subcommands::

    ustatcs cs        stream confidence-sequence records over a data file or stdin
    ustatcs test      sequential test of H0: theta = theta0 over a data stream
    ustatcs simulate  run a Monte Carlo experiment from a JSON config
    ustatcs boundary  tabulate a Gaussian boundary over an n-grid
    ustatcs spectrum  estimate and dump the truncated spectrum of a data set

Exit codes: 0 success (including an input that never reaches the cold
start), 2 invalid flags or config or a path that cannot be opened (all
checked before the first row is read or the first byte written), 3
unparseable or non-finite input row (or one whose kernel sums overflow),
or fewer than the 2 rows that ``spectrum`` needs, 4
a Gram store that would outgrow physical memory (refused before it is
allocated; ``--subsample-w`` bounds the store).
Numeric output uses the shortest round-trip decimal representation, so
identical runs are byte-identical and diffable.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams, gaussian_boundary
from .kernels import KERNEL_IDS, get_kernel
from .sequences import Monitor, classical_ci, csv_header
from .simharness import ExperimentConfig, run_experiment
from .spectral import SpectrumMonitor, mirror, parse_weights, trace_estimate

__all__ = ["main"]


class _InputError(Exception):
    """Data the command cannot use, which exits 3: a bad row, named by its
    number, or too few rows."""


class _Parser(argparse.ArgumentParser):
    # single-line diagnostic on stderr, exit code 2
    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="ustatcs", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("input", nargs="?", default="-", help="CSV file or - for stdin")
        p.add_argument("--kernel", required=True, choices=KERNEL_IDS)

    def add_alpha_flag(p):
        p.add_argument("--alpha", type=float, default=0.05)

    def add_boundary_flags(p):
        add_alpha_flag(p)
        p.add_argument("--m", type=int, default=400, help="cold-start time (default 400)")
        p.add_argument("--eta", type=float, default=2.0)
        p.add_argument("--s", type=float, default=1.4)

    def add_spectrum_flags(p):
        p.add_argument("--weights", default="data", help="poly:<b> | exp:<c> | data")
        p.add_argument("--trunc-a", type=float, default=0.25, dest="trunc_a")
        p.add_argument("--subsample-w", type=float, default=None, dest="subsample_w")
        p.add_argument("--out", default="-", help="output CSV path or - for stdout")

    def add_stream_flags(p):
        add_input_flags(p)
        add_boundary_flags(p)
        p.add_argument("--boundary", choices=("lil", "gm"), default="lil")
        add_spectrum_flags(p)
        p.add_argument("--seed", type=int, default=0)

    p_cs = sub.add_parser("cs", parents=[], help="stream confidence-sequence records")
    add_stream_flags(p_cs)
    p_cs.add_argument("--classical", action="store_true",
                      help="also emit the pointwise classical CI per row")

    p_test = sub.add_parser("test", help="sequential test of H0: theta = theta0")
    add_stream_flags(p_test)
    p_test.add_argument("--theta0", type=float, default=0.0)

    p_sim = sub.add_parser("simulate", help="run an experiment from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--no-svg", action="store_true")

    p_b = sub.add_parser("boundary", help="tabulate a boundary over an n-grid")
    add_boundary_flags(p_b)
    p_b.add_argument("--kind", choices=("lil", "gm", "both"), default="both")
    p_b.add_argument("--n-max", type=int, default=10_000, dest="n_max")
    p_b.add_argument("--points", type=int, default=50)
    p_b.add_argument("--out", default="-")

    # no abbreviations, so that cs's --s is refused here, not read as --subsample-w
    p_sp = sub.add_parser("spectrum", allow_abbrev=False,
                          help="dump the estimated spectrum of a data set")
    add_input_flags(p_sp)
    add_alpha_flag(p_sp)
    add_spectrum_flags(p_sp)
    return top


# ---------------------------------------------------------------------------
# input and output
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _open(path: str, mode: str):
    """``path`` opened in ``mode`` ("r" or "w"), or stdin/stdout for "-" (left open).

    A path that cannot be opened is a ValueError, so it exits 2.
    """
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
        return
    try:
        f = open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc.strerror}") from None
    with f:
        yield f


def _spectrum_monitor(args) -> SpectrumMonitor:
    """The monitor of the spectrum flags, which holds and checks every one of
    them; a ``--weights`` refusal names the flag."""
    try:
        scheme = parse_weights(args.weights)
    except ValueError as exc:
        raise ValueError(f"--weights: {exc}") from None
    return SpectrumMonitor(scheme, alpha=args.alpha, trunc_exponent=args.trunc_a,
                           subsample_exponent=args.subsample_w)


def _parse_rows(lines, dim: int):
    """Yield (row_number, point) from CSV lines; raise _InputError on bad rows."""
    for row_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != dim:
            raise _InputError(f"row {row_no}: expected {dim} column(s), got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise _InputError(f"row {row_no}: non-numeric field in {text!r}") from None
        if not all(map(math.isfinite, values)):
            raise _InputError(f"row {row_no}: non-finite field in {text!r}")
        yield row_no, (values[0] if dim == 1 else np.array(values))


def _monitor_rows(mon: Monitor, lines):
    """Push each parsed row through ``mon``, yielding the records of each push.

    A row that the accumulator refuses (and so leaves n as it was) is an
    _InputError too, so every data error exits 3 with its row number; a
    ValueError raised while the records are built exits 2.
    """
    acc = mon.acc
    for row_no, point in _parse_rows(lines, acc.kernel.point_dim):
        n = acc.n
        try:
            records = mon.push(point)
        except ValueError as exc:
            if acc.n != n:
                raise
            raise _InputError(f"row {row_no}: {exc}") from None
        yield records


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_stream(args) -> int:
    """cs and test: push rows and write one line per record (two with --classical)."""
    if args.m < 2:
        raise ValueError(f"--m must be >= 2, got {args.m}")
    params = BoundaryParams(
        alpha=args.alpha, m=args.m, eta=args.eta, s=args.s, kind=args.boundary
    )
    spectrum = _spectrum_monitor(args)
    kernel = get_kernel(args.kernel)
    cs = args.command == "cs"
    # the regime: chosen by kernel id for now
    degenerate = kernel.id == "mmd-gauss"
    mon = Monitor(UStatAccumulator(kernel), args.m, [params],
                  spectrum=spectrum if degenerate else None, theta0=None if cs else args.theta0)
    header = csv_header() if cs else "n,method,center,boundary_value,reject,first_rejection_n"
    flush = args.input == "-"
    with _open(args.input, "r") as lines, _open(args.out, "w") as out:
        out.write(header + "\n")
        for records in _monitor_rows(mon, lines):
            for rec in records:
                if cs:
                    out.write(rec.csv_row() + "\n")
                    if args.classical:
                        out.write(classical_ci(mon.acc, args.alpha).csv_row() + "\n")
                else:
                    first = mon.first.get(rec.method)
                    out.write(
                        f"{rec.n},{rec.method},{rec.center!r},{rec.boundary_value!r},"
                        f"{int(first is not None)},{'' if first is None else first}\n"
                    )
            if flush and records:
                out.flush()
    return 0


def _cmd_boundary(args) -> int:
    if args.n_max < args.m:
        raise ValueError(f"--n-max must be >= m, got {args.n_max} < {args.m}")
    kinds = ("lil", "gm") if args.kind == "both" else (args.kind,)
    params = [
        BoundaryParams(alpha=args.alpha, m=args.m, eta=args.eta, s=args.s, kind=kind)
        for kind in kinds
    ]
    grid = np.unique(
        np.rint(np.geomspace(args.m, args.n_max, num=max(args.points, 2))).astype(int)
    )
    with _open(args.out, "w") as out:
        out.write("n,kind,value\n")
        for p in params:
            for n in grid:
                out.write(f"{int(n)},{p.kind},{gaussian_boundary(int(n), p)!r}\n")
    return 0


def _cmd_spectrum(args) -> int:
    """Dump the spectrum estimate of all rows: a line per eigenvalue, then the sums.

    The minus side (beta and contribution of each lambda < 0, and the sum_neg
    rows) is the plus side of ``mirror``, the estimate of -lambda.
    """
    monitor = _spectrum_monitor(args)
    acc = UStatAccumulator(get_kernel(args.kernel))
    with _open(args.input, "r") as lines, _open(args.out, "w") as out:
        for _ in _monitor_rows(Monitor(acc, 2), lines):
            pass
        if acc.n < 2:
            raise _InputError(f"need at least 2 rows, got {acc.n}")
        est = monitor.update(acc)
        minus = mirror(est, monitor.scheme) if np.any(est.eigenvalues < 0.0) else None
        w_minus = est.weights if minus is None else minus.weights
        out.write("index,lambda_hat,beta,contribution_plus,contribution_minus\n")
        for i, (lam, wp, wm) in enumerate(zip(est.eigenvalues, est.weights, w_minus), start=1):
            lam, wp, wm = float(lam), float(wp), float(wm)
            plus = lam * math.log(1.0 / wp) if lam > 0 else 0.0
            # minus the mirror's contribution, and 0.0 - x, so that beta = 1 prints 0.0
            neg = 0.0 - (-lam) * math.log(1.0 / wm) if lam < 0 else 0.0
            out.write(f"{i},{lam!r},{(wp if lam >= 0 else wm)!r},{plus!r},{neg!r}\n")
        out.write(f"trace,{trace_estimate(acc)!r},,,\n")
        for name in ("sum_pos", "sum_pos_logw", "sum_pos_ginv2"):
            # 0.0 - x, so that a zero sum prints 0.0, not -0.0
            neg = 0.0 if minus is None else 0.0 - getattr(minus, name)
            out.write(f"{name},{getattr(est, name)!r},,,\n")
            out.write(f"{name.replace('pos', 'neg')},{neg!r},,,\n")
    return 0


def _cmd_simulate(args) -> int:
    with _open(args.config, "r") as f:
        cfg = ExperimentConfig.from_json(f.read())
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create {args.out}: {exc.strerror}") from None
    result = run_experiment(cfg)
    prefix = cfg.experiment.replace("-", "_")
    written = result.write_csvs(args.out, prefix)
    if not args.no_svg:
        written += result.write_svgs(args.out, prefix)
    print(result.summary(), file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("cs", "test"):
            return _cmd_stream(args)
        if args.command == "boundary":
            return _cmd_boundary(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        return _cmd_simulate(args)
    except _InputError as exc:
        print(f"ustatcs {args.command}: input error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ustatcs {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        bound = "subsample_exponent" if args.command == "simulate" else "--subsample-w"
        print(f"ustatcs {args.command}: out of memory: {exc}; {bound} stores only "
              "the leading block of the Gram matrix", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the stream; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
