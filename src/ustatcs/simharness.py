"""Monte Carlo harness: data generation and desk-scale experiments.

Reproduces the four experiment families around the confidence sequences:

* ``run_coverage``            cumulative miscoverage and mean half-width
                              curves for the nondegenerate methods vs the
                              classical pointwise CI,
* ``run_coldstart``           the same sweep over several cold-start values m,
* ``run_power``               size and power of the degenerate sequential
                              test (SAGE boundaries vs the classical
                              weighted-chi-square rule),
* ``run_weight_sensitivity``  SAGE-LIL boundary width as the spectral
                              budget allocation varies,
* ``mc_crossing_oracle``      direct boundary-validity checks on simulated
                              Gaussian partial sums and finite-spectrum
                              chaos streams.

Replications draw from independent, addressable generators
(``SeedSequence(seed, spawn_key=(stage, rep, substream))``), so results do
not depend on execution order or parallelism and identical configs give
byte-identical output files.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams, gaussian_boundary
from .kernels import DistParams, get_kernel, true_theta
from .sequences import ChiSquareTable, Monitor
from .spectral import (
    SpectrumMonitor,
    WeightScheme,
    parse_weights,
    sage_upper,
    spectrum_from_eigenvalues,
)

__all__ = [
    "ExperimentConfig",
    "sample",
    "sample_elliptical",
    "sample_paired_mmd",
    "sample_stream",
    "run_coverage",
    "run_coldstart",
    "run_power",
    "run_weight_sensitivity",
    "run_experiment",
    "mc_crossing_oracle",
]

_SQRT_HALF = math.sqrt(0.5)

COVERAGE_METHODS = ("AsympCS-LIL", "AsympCS-GM", "Classical-CI")
POWER_METHODS = ("SAGE-LIL", "SAGE-GM", "Classical-Test")
_SAGE_KIND = {"SAGE-LIL": "lil", "SAGE-GM": "gm"}
EXPERIMENTS = ("coverage", "coldstart", "power", "weight-sensitivity")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample(dist: DistParams, rng: np.random.Generator, size: int | None = None):
    """Draw from a scalar family, or rows from the elliptical family.

    t10 is generated as normal over sqrt(chi2_10 / 10); the unit-variance
    Laplace by inverse CDF.
    """
    if dist.family == "gaussian":
        return dist.mean + math.sqrt(dist.variance) * rng.standard_normal(size)
    if dist.family == "t10":
        z = rng.standard_normal(size)
        v = rng.chisquare(10.0, size)
        return z / np.sqrt(v / 10.0)
    if dist.family == "laplace":
        u = rng.random(size) - 0.5
        return -_SQRT_HALF * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    return sample_elliptical(dist.rho, dist.mixer, rng, size)


def sample_elliptical(
    rho: float, mixer: str, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Bivariate elliptical draw(s) sqrt(W) A Z with shape [[1,rho],[rho,1]].

    Mixers: "gaussian" W=1, "t10" W=10/chi2_10, "laplace" W~Exp(1).
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [-1,1], got {rho}")
    n = 1 if size is None else size
    z = rng.standard_normal((n, 2))
    if mixer == "gaussian":
        w = np.ones(n)
    elif mixer == "t10":
        w = 10.0 / rng.chisquare(10.0, n)
    elif mixer == "laplace":
        w = rng.exponential(1.0, n)
    else:
        raise ValueError(f"unknown mixer {mixer!r}")
    # Cholesky factor of the shape matrix
    out = np.empty((n, 2))
    out[:, 0] = z[:, 0]
    out[:, 1] = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
    out *= np.sqrt(w)[:, None]
    return out[0] if size is None else out


def sample_paired_mmd(
    dist: DistParams, delta: float, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Paired two-sample rows (X, Y): X from the base family, Y shifted by delta."""
    if delta < 0.0:
        raise ValueError(f"shift must be >= 0, got {delta}")
    base = replace(dist, shift=0.0)
    x = sample(base, rng, size)
    y = sample(base, rng, size) + delta
    return np.array([x, y]) if size is None else np.column_stack([x, y])


def sample_stream(
    kernel_id: str, dist: DistParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The n observations a kernel consumes: scalars, 2-vectors, or pairs."""
    k = get_kernel(kernel_id)
    if kernel_id == "mmd-gauss":
        return sample_paired_mmd(dist, dist.shift, rng, n)
    if kernel_id == "spatial-kendall":
        if dist.family != "elliptical":
            raise ValueError("spatial-kendall requires the elliptical family")
        return sample_elliptical(dist.rho, dist.mixer, rng, n)
    if k.point_dim != 1 or dist.family == "elliptical":
        raise ValueError(f"kernel {kernel_id!r} incompatible with family {dist.family!r}")
    return sample(dist, rng, n)


def _rng_for(seed: int, stage: int, rep: int, substream: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(stage, rep, substream))
    )


# ---------------------------------------------------------------------------
# configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; read from JSON (unknown keys rejected)."""

    experiment: str = "coverage"
    kernel: str = "gmd"
    dist: DistParams = field(default_factory=DistParams)
    alpha: float = 0.05
    m: int = 400
    n_max: int = 5000
    reps: int = 200
    methods: tuple[str, ...] = ()
    weight_scheme: WeightScheme = field(default_factory=WeightScheme)
    trunc_exponent: float = 0.25
    delta_grid: tuple[float, ...] = (0.0, 0.15, 0.3, 0.45)
    m_grid: tuple[int, ...] = (50, 100, 200)
    seed: int = 0
    eta: float = 2.0
    s: float = 1.4
    grid_ratio: float = 1.05
    subsample_exponent: float | None = None
    classical_draws: int = 100_000
    theta0: float = 0.0
    b_grid: tuple[float, ...] = (2.0, 8.0, 14.0, 20.0)
    c_grid: tuple[float, ...] = (2.0, 4.5, 7.0)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.n_max <= self.m:
            raise ValueError("n_max must exceed m")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if any(d < 0 for d in self.delta_grid):
            raise ValueError("delta grid values must be >= 0")
        allowed = COVERAGE_METHODS if self.experiment in ("coverage", "coldstart") else POWER_METHODS
        methods = tuple(self.methods) or allowed
        for meth in methods:
            if meth not in allowed:
                raise ValueError(f"method {meth!r} is not a {self.experiment} method")
        object.__setattr__(self, "methods", methods)
        if allowed is COVERAGE_METHODS and true_theta(self.kernel, self.dist) is None:
            raise ValueError(
                f"no closed-form theta for kernel {self.kernel!r} under {self.dist.family!r}"
            )
        if allowed is POWER_METHODS and self.kernel != "mmd-gauss":
            raise ValueError(f"the {self.experiment} experiment needs the mmd-gauss kernel")

    def boundary_params(self, kind: str) -> BoundaryParams:
        return BoundaryParams(alpha=self.alpha, m=self.m, eta=self.eta, s=self.s, kind=kind)

    def spectrum_monitor(self, scheme: WeightScheme) -> SpectrumMonitor:
        return SpectrumMonitor(
            scheme=scheme,
            alpha=self.alpha,
            start=self.m,
            grid_ratio=self.grid_ratio,
            trunc_exponent=self.trunc_exponent,
            subsample_exponent=self.subsample_exponent,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(raw)
        if "dist" in kw:
            d = kw["dist"]
            if not isinstance(d, dict):
                raise ValueError("dist must be a JSON object")
            bad = set(d) - {"family", "mean", "variance", "rho", "mixer", "shift"}
            if bad:
                raise ValueError(f"unknown dist keys: {sorted(bad)}")
            kw["dist"] = DistParams(**d)
        if "weight_scheme" in kw:
            kw["weight_scheme"] = parse_weights(kw["weight_scheme"])
        for key in ("methods", "delta_grid", "m_grid", "b_grid", "c_grid"):
            if key in kw:
                kw[key] = tuple(kw[key])
        return cls(**kw)


@dataclass
class ExperimentResult:
    """Aggregated curves from one experiment, with CSV/SVG writers."""

    config: ExperimentConfig
    n_grid: np.ndarray | None = None
    # coverage-style: label -> per-n curve over n_grid
    cum_miscoverage: dict[str, np.ndarray] = field(default_factory=dict)
    mean_halfwidth: dict[str, np.ndarray] = field(default_factory=dict)
    # power-style
    delta_grid: tuple[float, ...] = ()
    power: dict[str, np.ndarray] = field(default_factory=dict)
    cum_rejection: dict[str, np.ndarray] = field(default_factory=dict)
    # sensitivity-style: (scheme label, param) -> per-n mean boundary width
    widths: dict[tuple[str, float], np.ndarray] = field(default_factory=dict)
    wall_time: float = 0.0

    def summary(self) -> str:
        cfg = self.config
        if self.cum_miscoverage:
            terms = ", ".join(
                f"{k}={v[-1]:.4f}" for k, v in sorted(self.cum_miscoverage.items())
            )
            return f"{cfg.experiment}: terminal cumulative miscoverage {terms}"
        if self.power:
            terms = ", ".join(
                f"{k}={v[-1]:.3f}" for k, v in sorted(self.power.items())
            )
            return f"power at delta={self.delta_grid[-1]:g}: {terms}"
        if self.widths:
            at = {f"{k[0]}": v[-1] for k, v in sorted(self.widths.items())}
            terms = ", ".join(f"{k}={v:.3e}" for k, v in at.items())
            return f"terminal SAGE-LIL widths: {terms}"
        return f"{cfg.experiment}: done"

    # -- csv ---------------------------------------------------------------

    def write_csvs(self, outdir, prefix: str) -> list[str]:
        os.makedirs(outdir, exist_ok=True)
        written = []

        def _open(name):
            path = os.path.join(outdir, f"{prefix}_{name}.csv")
            written.append(path)
            return open(path, "w", encoding="utf-8")

        if self.cum_miscoverage:
            with _open("coverage") as f:
                f.write("n,method,cum_miscoverage,mean_halfwidth\n")
                for label in sorted(self.cum_miscoverage):
                    mc = self.cum_miscoverage[label]
                    hw = self.mean_halfwidth.get(label)
                    for i, n in enumerate(self.n_grid):
                        w = repr(float(hw[i])) if hw is not None else ""
                        f.write(f"{int(n)},{label},{float(mc[i])!r},{w}\n")
        if self.power:
            with _open("power") as f:
                f.write("delta,method,power\n")
                for label in sorted(self.power):
                    for d, p in zip(self.delta_grid, self.power[label]):
                        f.write(f"{d!r},{label},{float(p)!r}\n")
        if self.cum_rejection:
            with _open("size_curve") as f:
                f.write("n,method,cum_rejection\n")
                for label in sorted(self.cum_rejection):
                    for n, p in zip(self.n_grid, self.cum_rejection[label]):
                        f.write(f"{int(n)},{label},{float(p)!r}\n")
        if self.widths:
            with _open("sensitivity") as f:
                f.write("n,scheme,param,width\n")
                for (label, param) in sorted(self.widths):
                    for n, w in zip(self.n_grid, self.widths[(label, param)]):
                        f.write(f"{int(n)},{label},{param!r},{float(w)!r}\n")
        return written

    def write_svgs(self, outdir, prefix: str) -> list[str]:
        from ._svg import line_chart

        os.makedirs(outdir, exist_ok=True)
        written = []

        def _path(name):
            path = os.path.join(outdir, f"{prefix}_{name}.svg")
            written.append(path)
            return path

        if self.cum_miscoverage:
            line_chart(
                _path("coverage"),
                self.n_grid,
                self.cum_miscoverage,
                title="cumulative miscoverage",
                xlabel="n",
                ylabel="fraction",
                hline=self.config.alpha,
            )
            if self.mean_halfwidth:
                line_chart(
                    _path("halfwidth"),
                    self.n_grid,
                    self.mean_halfwidth,
                    title="mean half-width",
                    xlabel="n",
                    ylabel="half-width",
                )
        if self.power:
            line_chart(
                _path("power"),
                np.asarray(self.delta_grid),
                self.power,
                title=f"power at n={self.config.n_max}",
                xlabel="mean shift",
                ylabel="power",
            )
        if self.cum_rejection:
            line_chart(
                _path("size_curve"),
                self.n_grid,
                self.cum_rejection,
                title="cumulative rejection under the null",
                xlabel="n",
                ylabel="fraction",
                hline=self.config.alpha,
            )
        if self.widths:
            series = {f"{k[0]}": v for k, v in sorted(self.widths.items())}
            line_chart(
                _path("sensitivity"),
                self.n_grid,
                series,
                title="SAGE-LIL boundary width",
                xlabel="n",
                ylabel="width",
            )
        return written


# ---------------------------------------------------------------------------
# nondegenerate experiments
# ---------------------------------------------------------------------------


def _stream_u_sigma(kernel_id: str, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U_n and sigma_hat_n for every prefix; index i holds the n=i+1 values."""
    n_max = len(pts)
    acc = UStatAccumulator(kernel_id)
    u = np.full(n_max, np.nan)
    sig = np.full(n_max, np.nan)
    for i in range(n_max):
        acc.push(pts[i])
        if i >= 1:
            u[i] = acc.ustat()
            sig[i] = math.sqrt(acc.jackknife_sigma2())
    return u, sig


def _first_true(mask: np.ndarray) -> int | None:
    idx = np.flatnonzero(mask)
    return int(idx[0]) if idx.size else None


def _cum_fraction(first_hits: list[int | None], n_grid: np.ndarray) -> np.ndarray:
    counts = np.zeros(len(n_grid))
    for hit in first_hits:
        if hit is not None:
            counts[hit] += 1
    out = np.cumsum(counts) / len(first_hits)
    assert np.all(np.diff(out) >= 0.0)  # every emitted curve is nondecreasing
    return out


def run_coverage(cfg: ExperimentConfig, stage: int = 0) -> ExperimentResult:
    """Coverage and width curves for a nondegenerate kernel with known theta."""
    theta = true_theta(cfg.kernel, cfg.dist)
    t0 = time.monotonic()
    n_grid = np.arange(cfg.m, cfg.n_max + 1)
    idx = n_grid - 1  # into per-prefix arrays
    bounds: dict[str, np.ndarray] = {}
    for meth in cfg.methods:
        if meth == "AsympCS-LIL":
            p = cfg.boundary_params("lil")
            bounds[meth] = np.array([gaussian_boundary(int(n), p) for n in n_grid])
        elif meth == "AsympCS-GM":
            p = cfg.boundary_params("gm")
            bounds[meth] = np.array([gaussian_boundary(int(n), p) for n in n_grid])
        else:  # Classical-CI
            from scipy.special import ndtri

            z = float(ndtri(1.0 - cfg.alpha / 2.0))
            bounds[meth] = z / np.sqrt(n_grid)

    first_hits: dict[str, list[int | None]] = {m: [] for m in bounds}
    hw_sum: dict[str, np.ndarray] = {m: np.zeros(len(n_grid)) for m in bounds}
    for rep in range(cfg.reps):
        rng = _rng_for(cfg.seed, stage, rep)
        pts = sample_stream(cfg.kernel, cfg.dist, cfg.n_max, rng)
        u, sig = _stream_u_sigma(cfg.kernel, pts)
        dev = np.abs(u[idx] - theta)
        for meth, gam in bounds.items():
            hw = 2.0 * sig[idx] * gam
            first_hits[meth].append(_first_true(dev > hw))
            hw_sum[meth] += hw

    res = ExperimentResult(config=cfg, n_grid=n_grid)
    for meth in bounds:
        res.cum_miscoverage[meth] = _cum_fraction(first_hits[meth], n_grid)
        res.mean_halfwidth[meth] = hw_sum[meth] / cfg.reps
    res.wall_time = time.monotonic() - t0
    return res


def run_coldstart(cfg: ExperimentConfig) -> ExperimentResult:
    """Coverage curves for each cold start in ``m_grid`` (curves keyed label|m=..)."""
    t0 = time.monotonic()
    out = ExperimentResult(config=cfg)
    for j, m in enumerate(cfg.m_grid):
        sub = replace(cfg, m=int(m), m_grid=(int(m),))
        res = run_coverage(sub, stage=100 + j)
        grid = np.arange(min(cfg.m_grid), cfg.n_max + 1)
        pad = len(grid) - len(res.n_grid)
        out.n_grid = grid
        for meth, curve in res.cum_miscoverage.items():
            out.cum_miscoverage[f"{meth}|m={m}"] = np.concatenate(
                [np.zeros(pad), curve]
            )
        for meth, curve in res.mean_halfwidth.items():
            out.mean_halfwidth[f"{meth}|m={m}"] = np.concatenate(
                [np.full(pad, np.nan), curve]
            )
    out.wall_time = time.monotonic() - t0
    return out


# ---------------------------------------------------------------------------
# degenerate experiments
# ---------------------------------------------------------------------------


def _degenerate_first_rejections(
    cfg: ExperimentConfig,
    delta: float,
    stage: int,
    rep: int,
) -> dict[str, int | None]:
    """One replication of the sequential MMD test; first rejection index per method.

    The Classical-Test quantile at every refresh reads one chi-square table
    drawn from the replication's own substream (common random numbers).
    The scan stops once every method has rejected.
    """
    rng = _rng_for(cfg.seed, stage, rep, 0)
    pts = sample_paired_mmd(cfg.dist, delta, rng, cfg.n_max)
    table = ChiSquareTable(cfg.classical_draws, _rng_for(cfg.seed, stage, rep, 1))
    mon = Monitor(
        UStatAccumulator(cfg.kernel), cfg.m,
        [cfg.boundary_params(_SAGE_KIND[meth]) for meth in cfg.methods if meth in _SAGE_KIND],
        spectrum=cfg.spectrum_monitor(cfg.weight_scheme), theta0=cfg.theta0,
        table=table if "Classical-Test" in cfg.methods else None,
    )
    for x in pts:
        mon.push(x)
        if len(mon.first) == len(cfg.methods):
            break
    return {meth: mon.first[meth] - cfg.m if meth in mon.first else None for meth in cfg.methods}


def run_power(cfg: ExperimentConfig) -> ExperimentResult:
    """Size and power of the degenerate sequential test over a shift grid.

    The per-n cumulative rejection curve (the size curve when 0 is in the
    grid) is recorded for every shift; the power number is the fraction of
    replications rejecting by n_max.
    """
    t0 = time.monotonic()
    n_grid = np.arange(cfg.m, cfg.n_max + 1)
    res = ExperimentResult(config=cfg, n_grid=n_grid, delta_grid=tuple(cfg.delta_grid))
    power: dict[str, list[float]] = {meth: [] for meth in cfg.methods}
    for j, delta in enumerate(cfg.delta_grid):
        hits: dict[str, list[int | None]] = {meth: [] for meth in cfg.methods}
        for rep in range(cfg.reps):
            first = _degenerate_first_rejections(cfg, float(delta), stage=200 + j, rep=rep)
            for meth in cfg.methods:
                hits[meth].append(first[meth])
        for meth in cfg.methods:
            curve = _cum_fraction(hits[meth], n_grid)
            power[meth].append(float(curve[-1]))
            if delta == 0.0:
                res.cum_rejection[meth] = curve
    for meth in cfg.methods:
        res.power[meth] = np.asarray(power[meth])
    res.wall_time = time.monotonic() - t0
    return res


def run_weight_sensitivity(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean SAGE-LIL width per allocation scheme on the null MMD stream."""
    t0 = time.monotonic()
    n_grid = np.arange(cfg.m, cfg.n_max + 1)
    schemes: list[tuple[str, float, WeightScheme]] = [
        ("poly", b, WeightScheme("polynomial", b=b)) for b in cfg.b_grid
    ]
    schemes += [("exp", c, WeightScheme("exponential", c=c)) for c in cfg.c_grid]
    schemes += [("data", 0.0, WeightScheme("data-driven"))]
    p_lil = cfg.boundary_params("lil")
    sums = {(label, param): np.zeros(len(n_grid)) for label, param, _ in schemes}
    for rep in range(cfg.reps):
        rng = _rng_for(cfg.seed, 300, rep)
        pts = sample_paired_mmd(cfg.dist, 0.0, rng, cfg.n_max)
        spectrum = cfg.spectrum_monitor(WeightScheme("polynomial", b=2.0))
        mon = Monitor(UStatAccumulator(cfg.kernel), cfg.m, spectrum=spectrum)
        base = None
        for x in pts:
            mon.push(x)
            if mon.estimate is None:  # cold start
                continue
            if mon.estimate is not base:
                base = mon.estimate
                # one eigendecomposition serves every allocation scheme
                per_scheme = {
                    (label, param): spectrum_from_eigenvalues(
                        base.eigenvalues, ws, alpha=cfg.alpha, trace=base.trace_est
                    )
                    for label, param, ws in schemes
                }
            n = mon.acc.n
            for key, est in per_scheme.items():
                sums[key][n - cfg.m] += sage_upper(n, est, p_lil)
    res = ExperimentResult(config=cfg, n_grid=n_grid)
    for key, total in sums.items():
        res.widths[key] = total / cfg.reps
    res.wall_time = time.monotonic() - t0
    return res


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Dispatch on ``cfg.experiment``."""
    if cfg.experiment == "coverage":
        return run_coverage(cfg)
    if cfg.experiment == "coldstart":
        return run_coldstart(cfg)
    if cfg.experiment == "power":
        return run_power(cfg)
    return run_weight_sensitivity(cfg)


# ---------------------------------------------------------------------------
# boundary crossing oracles
# ---------------------------------------------------------------------------


def mc_crossing_oracle(
    params: BoundaryParams,
    horizon: int,
    reps: int,
    rng: np.random.Generator | None = None,
    lambdas=None,
    scheme: WeightScheme | None = None,
    boundary_values: np.ndarray | None = None,
) -> float:
    """Fraction of simulated streams that ever cross the boundary on [m, horizon].

    Without ``lambdas``: streams of i.i.d. standard Gaussians, two-sided
    crossing of |mean_n| over the Gaussian boundary.  With ``lambdas``:
    finite-spectrum chaos streams sum_l lambda_l (W_l(n)^2 - n)/n^2 with
    W_l a Gaussian random walk, one-sided crossing of the SAGE boundary
    built from the true spectrum.  ``boundary_values`` (aligned with
    n = m..horizon) overrides the computed boundary.
    """
    rng = np.random.default_rng(rng)
    m = params.m
    n_grid = np.arange(m, horizon + 1)
    if boundary_values is None:
        if lambdas is None:
            boundary_values = np.array(
                [gaussian_boundary(int(n), params) for n in n_grid]
            )
        else:
            est = spectrum_from_eigenvalues(
                lambdas, scheme or WeightScheme("polynomial", b=2.0), alpha=params.alpha
            )
            boundary_values = np.array([sage_upper(int(n), est, params) for n in n_grid])
    crossings = 0
    done = 0
    while done < reps:
        k = min(200, reps - done)  # streams per block, which bounds the draw array
        if lambdas is None:
            z = rng.standard_normal((k, horizon))
            means = np.cumsum(z, axis=1)[:, m - 1 :] / n_grid
            crossed = np.any(np.abs(means) > boundary_values, axis=1)
        else:
            lam = np.asarray(lambdas, dtype=float)
            z = rng.standard_normal((k, lam.size, horizon))
            w = np.cumsum(z, axis=2)
            chaos = np.einsum("l,rln->rn", lam, w * w - np.arange(1, horizon + 1))
            chaos = chaos[:, m - 1 :] / (n_grid * n_grid)
            crossed = np.any(chaos > boundary_values, axis=1)
        crossings += int(crossed.sum())
        done += k
    return crossings / reps
