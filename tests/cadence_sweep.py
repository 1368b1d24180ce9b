"""The refresh-cadence sweep: size, power and staleness of the plug-in SAGE
test at the refresh grid ratios 1.05, 1.1 and 1.25, on fixed seeds.

Every cell runs the sequential MMD test (``mmd-gauss``, m = 400, n_max =
2000, data weights, truncation exponent 0.25, alpha = 0.05, 200
replications) at each ratio on the same seeds.  A candidate ratio r passes
against 1.05 when every cell below holds at r:

(a) size: SAGE-LIL and SAGE-GM size <= alpha + 2 s.e. (0.0808) on the
    Gaussian, t10 and Laplace nulls with the full store, and on the Gaussian
    null with ``subsample_exponent`` 0.67; and every assertion of the
    acceptance gate's AC-5 holds on AC-5's own config;
(b) power: at shifts 0.15 and 0.3 (Gaussian), SAGE-LIL and SAGE-GM power at
    r is no lower than at 1.05 by more than 2 paired s.e. (the s.e. of the
    per-replication difference of the two rejection indicators);
(c) staleness: on 20 null streams, at every record n that is a multiple of
    97, the relative staleness |Upsilon_cached - Upsilon_fresh| /
    Upsilon_fresh of a boundary is how far the record's bound sits from the
    one a solve at n would give (both read the live trace).  For each of
    SAGE-LIL and SAGE-GM, its 90th percentile must be <= the smallest
    across-stream coefficient of variation of that boundary's fresh Upsilon
    at n in {600, 1000, 2000}: the estimator's own spread.

1.25 is reported, not judged.  Run by hand from the root of a checkout
(about 9 minutes on a 2-core Xeon); it prints one markdown table::

    PYTHONPATH=src python3 tests/cadence_sweep.py
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from ustatcs.accumulator import UStatAccumulator
from ustatcs.boundaries import BoundaryParams
from ustatcs.kernels import DistParams
from ustatcs.sequences import ChiSquareTable
from ustatcs.simharness import (
    ExperimentConfig,
    _degenerate_first_rejections,
    _rng_for,
    sample_paired_mmd,
)
from ustatcs.spectral import (
    SpectrumMonitor,
    WeightScheme,
    estimate_spectrum,
    sage_upper,
    trace_estimate,
)

ALPHA = 0.05
RATIOS = (1.05, 1.1, 1.25)
BASELINE, CANDIDATE = 1.05, 1.1
SEED = 2411  # the sweep's seed, fixed before its first run
AC5_SEED = 20260808  # the acceptance gate's seed
SIZE_BOUND = ALPHA + 2.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / 200)  # 0.0808

_SETTINGS = dict(experiment="power", kernel="mmd-gauss", alpha=ALPHA, m=400, n_max=2000,
                 reps=200, weight_scheme=WeightScheme("data"), trunc_exponent=0.25)
# (cell, config keys): the size cells run the null alone, each on its own seed
SIZE_CELLS = (
    ("gaussian null", dict(dist=DistParams(), seed=SEED)),
    ("t10 null", dict(dist=DistParams(family="t10"), seed=SEED + 1)),
    ("laplace null", dict(dist=DistParams(family="laplace"), seed=SEED + 2)),
    ("gaussian null, w = 0.67", dict(dist=DistParams(), subsample_exponent=0.67,
                                     seed=SEED + 3)),
)
POWER_SHIFTS = (0.15, 0.3)
SAGE = ("SAGE-LIL", "SAGE-GM")
STALE_STREAMS, STALE_EVERY, CV_AT = 20, 97, (600, 1000, 2000)


def rejections(cfg: ExperimentConfig) -> dict[float, dict[str, np.ndarray]]:
    """Per shift and method, whether each replication rejected by n_max:
    ``run_power``'s replications, kept one by one so that two ratios pair."""
    acc = UStatAccumulator(cfg.kernel)
    table = ChiSquareTable(cfg.classical_draws)
    out = {}
    for j, dist in enumerate(cfg._dists):
        firsts = [_degenerate_first_rejections(cfg, dist, 200 + j, rep, acc, table)
                  for rep in range(cfg.reps)]
        out[dist.shift] = {meth: np.array([f[meth] is not None for f in firsts])
                           for meth in cfg.methods}
    return out


def staleness(ratio: float, seed: int, streams: int = STALE_STREAMS, m: int = 400,
              n_max: int = 2000, every: int = STALE_EVERY, cv_at=CV_AT):
    """Cell (c) at ``ratio`` on ``streams`` null mmd-gauss streams from
    ``_rng_for(seed, 0, rep)``.

    Returns (rel, cv): ``rel[kind]`` holds the relative staleness of every
    record n (a multiple of ``every``) of every stream, and ``cv[kind]`` the
    across-stream coefficient of variation of the fresh Upsilon at each n
    of ``cv_at``.
    """
    params = {kind: BoundaryParams(alpha=ALPHA, m=m, kind=kind) for kind in ("lil", "gm")}
    rel: dict[str, list[float]] = {kind: [] for kind in params}
    fresh_at = {kind: np.empty((streams, len(cv_at))) for kind in params}
    acc = UStatAccumulator("mmd-gauss")
    for rep in range(streams):
        pts = sample_paired_mmd(DistParams(), _rng_for(seed, 0, rep), n_max)
        acc.clear()
        mon = SpectrumMonitor(WeightScheme("data"), alpha=ALPHA, grid_ratio=ratio)
        for x in pts:
            acc.push(x)
            n = acc.n
            if n < m:
                continue
            cached = mon.update(acc)
            if n % every and n not in cv_at:
                continue
            fresh = estimate_spectrum(acc, mon)
            trace = trace_estimate(acc)
            for kind, p in params.items():
                ups = sage_upper(n, fresh, p, trace)
                if n % every == 0:
                    rel[kind].append(abs(sage_upper(n, cached, p, trace) - ups) / ups)
                if n in cv_at:
                    fresh_at[kind][rep, cv_at.index(n)] = ups
    cv = {kind: vals.std(axis=0, ddof=1) / vals.mean(axis=0) for kind, vals in fresh_at.items()}
    return {kind: np.asarray(v) for kind, v in rel.items()}, cv


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f} %"


def main() -> int:
    rows: list[tuple[str, ...]] = []  # (cell, quantity, one cell per ratio, rule at 1.1, verdict)
    failed = []

    def judge(cell, quantity, values, rule, ok):
        verdict = "pass" if ok else "FAIL"
        if not ok:
            failed.append(f"{cell}: {quantity}")
        rows.append((cell, quantity, *values, rule, verdict))

    walls = {r: 0.0 for r in RATIOS}

    def timed(r, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        walls[r] += time.perf_counter() - t0
        return out

    # (a) size on the four nulls
    for cell, keys in SIZE_CELLS:
        runs = {r: timed(r, rejections, ExperimentConfig(**_SETTINGS, **keys, grid_ratio=r,
                                                         delta_grid=(0.0,)))[0.0]
                for r in RATIOS}
        for meth in (*SAGE, "Classical-Test"):
            sizes = [float(runs[r][meth].mean()) for r in RATIOS]
            if meth in SAGE:
                judge(cell, f"{meth} size", [f"{v:.3f}" for v in sizes],
                      f"<= {SIZE_BOUND:.4f}", sizes[RATIOS.index(CANDIDATE)] <= SIZE_BOUND)
            else:
                rows.append((cell, f"{meth} size", *(f"{v:.3f}" for v in sizes), "reported", ""))
        print(f"... {cell} done", file=sys.stderr, flush=True)

    # (a) AC-5's assertions on its own config
    ac5 = {r: timed(r, rejections, ExperimentConfig(**{**_SETTINGS, "seed": AC5_SEED},
                                                    dist=DistParams(), grid_ratio=r,
                                                    delta_grid=(0.0, 0.3)))
           for r in RATIOS}
    lines = []
    for r in RATIOS:
        size = {meth: float(ac5[r][0.0][meth].mean()) for meth in ac5[r][0.0]}
        power = {meth: float(ac5[r][0.3][meth].mean()) for meth in ac5[r][0.3]}
        ok = (size["SAGE-LIL"] <= 0.03 and size["SAGE-GM"] <= 0.03 and power["SAGE-GM"] >= 0.6
              and power["SAGE-GM"] >= power["SAGE-LIL"] and size["Classical-Test"] >= 0.10)
        lines.append((f"{size['SAGE-LIL']:.3f}/{size['SAGE-GM']:.3f}; "
                      f"{power['SAGE-LIL']:.3f}/{power['SAGE-GM']:.3f}; "
                      f"{size['Classical-Test']:.3f}", ok))
    judge("AC-5 config", "size LIL/GM; power@0.3 LIL/GM; classical size",
          [text for text, _ in lines], "AC-5's asserts", lines[RATIOS.index(CANDIDATE)][1])
    print("... AC-5 config done", file=sys.stderr, flush=True)

    # (b) power at two shifts, paired on the same replications
    power_cfg = dict(dist=DistParams(), seed=SEED + 4, delta_grid=POWER_SHIFTS)
    runs = {r: timed(r, rejections, ExperimentConfig(**_SETTINGS, **power_cfg, grid_ratio=r))
            for r in RATIOS}
    for shift in POWER_SHIFTS:
        for meth in (*SAGE, "Classical-Test"):
            powers = [float(runs[r][shift][meth].mean()) for r in RATIOS]
            if meth not in SAGE:
                rows.append((f"shift {shift}", f"{meth} power", *(f"{v:.3f}" for v in powers),
                             "reported", ""))
                continue
            diff = runs[CANDIDATE][shift][meth].astype(float) - runs[BASELINE][shift][meth]
            se = float(diff.std(ddof=1)) / math.sqrt(len(diff))
            gap = float(diff.mean())
            judge(f"shift {shift}", f"{meth} power", [f"{v:.3f}" for v in powers],
                  f"1.1 - 1.05 = {gap:+.3f} >= -2 s.e. = {-2.0 * se:.3f}", gap >= -2.0 * se)
    print("... power done", file=sys.stderr, flush=True)

    # (c) staleness against the estimator's own spread
    stale = {r: timed(r, staleness, r, SEED + 5) for r in RATIOS}
    for kind, meth in zip(("lil", "gm"), SAGE):
        cv = stale[BASELINE][1][kind]  # the fresh Upsilon does not depend on the ratio
        cvs = ", ".join(f"{_pct(c)} at n={n}" for c, n in zip(cv, CV_AT))
        for name, q in (("median", 50), ("90th percentile", 90), ("max", 100)):
            values = [_pct(float(np.percentile(stale[r][0][kind], q))) for r in RATIOS]
            if q == 90:
                p90 = float(np.percentile(stale[CANDIDATE][0][kind], 90))
                judge("staleness, 20 null streams", f"{meth} {name}", values,
                      f"<= min CV ({cvs})", p90 <= float(cv.min()))
            else:
                rows.append(("staleness, 20 null streams", f"{meth} {name}", *values,
                             "reported", ""))

    rows.append(("all cells", "wall time (s)", *(f"{walls[r]:.0f}" for r in RATIOS), "", ""))
    head = ("cell", "quantity", *(f"r = {r}" for r in RATIOS), "rule at r = 1.1", "verdict")
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()
    print("every r = 1.1 cell passes" if not failed else f"FAILED at r = 1.1: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
