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
                              budget allocation varies.

``run_experiment`` dispatches a config to its experiment, which is all that
``ustatcs simulate`` calls.

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
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._svg import line_chart
from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams, gaussian_boundary
from .kernels import DistParams, get_kernel, true_theta
from .sequences import _ASYMP_LABEL, _SAGE_LABEL, ChiSquareTable, Monitor
from .sequences import half_width, normal_quantile, two_sided
from .spectral import _GRID_RATIO, _PARAM_RULES, SpectrumMonitor, WeightScheme, parse_weights
from .spectral import sage_upper, spectrum_from_eigenvalues, trace_estimate

__all__ = [
    "ExperimentConfig", "sample", "sample_paired_mmd", "sample_stream",
    "run_coverage", "run_coldstart", "run_power", "run_weight_sensitivity", "run_experiment",
]

_SQRT_HALF = math.sqrt(0.5)

# read off sequences' method table: each family's labels, and each label's boundary kind
COVERAGE_METHODS = (*_ASYMP_LABEL.values(), "Classical-CI")
POWER_METHODS = (*_SAGE_LABEL.values(), "Classical-Test")
_KIND = {label: kind for table in (_ASYMP_LABEL, _SAGE_LABEL) for kind, label in table.items()}
EXPERIMENTS = ("coverage", "coldstart", "power", "weight-sensitivity")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample(dist: DistParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from a scalar family, or n rows from the elliptical family.

    t10 is generated as normal over sqrt(chi2_10 / 10); the unit-variance
    Laplace by inverse CDF.  An elliptical row is sqrt(W) A Z, A the Cholesky
    factor of the shape [[1, rho], [rho, 1]], with the mixer W = 1 ("gaussian"),
    10 / chi2_10 ("t10") or Exp(1) ("laplace").
    """
    if dist.family == "gaussian":
        return dist.mean + math.sqrt(dist.variance) * rng.standard_normal(n)
    if dist.family == "t10":
        z = rng.standard_normal(n)
        v = rng.chisquare(10.0, n)
        return z / np.sqrt(v / 10.0)
    if dist.family == "laplace":
        u = rng.random(n) - 0.5
        return -_SQRT_HALF * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    z = rng.standard_normal((n, 2))
    if dist.mixer == "gaussian":
        w = np.ones(n)
    elif dist.mixer == "t10":
        w = 10.0 / rng.chisquare(10.0, n)
    else:
        w = rng.exponential(1.0, n)
    out = np.empty((n, 2))
    out[:, 0] = z[:, 0]
    out[:, 1] = dist.rho * z[:, 0] + math.sqrt(1.0 - dist.rho * dist.rho) * z[:, 1]
    out *= np.sqrt(w)[:, None]
    return out


def sample_paired_mmd(dist: DistParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n paired two-sample rows (X, Y): X from the family, Y from it shifted by ``dist.shift``."""
    x = sample(dist, rng, n)
    y = sample(dist, rng, n) + dist.shift
    return np.column_stack([x, y])


def _check_family(kernel_id: str, dist: DistParams) -> None:
    """The one rule on which families a kernel can take: spatial-kendall reads
    the elliptical family's 2-vectors, every other kernel scalar draws (a
    mmd-gauss row pairs two of them)."""
    get_kernel(kernel_id)
    if (kernel_id == "spatial-kendall") != (dist.family == "elliptical"):
        raise ValueError(f"kernel {kernel_id!r} cannot take the {dist.family!r} family")


def sample_stream(
    kernel_id: str, dist: DistParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The n observations a kernel consumes: scalars, 2-vectors, or pairs."""
    _check_family(kernel_id, dist)
    if kernel_id == "mmd-gauss":
        return sample_paired_mmd(dist, rng, n)
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
    """Everything a run needs; read from JSON (unknown keys and mistyped values
    rejected).  Every setting is checked at construction, by the object that
    owns it; the built objects are kept in private attributes, which equality
    and ``replace`` ignore."""

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
    grid_ratio: float = _GRID_RATIO
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
        _check_family(self.kernel, self.dist)
        if allowed is POWER_METHODS and self.dist.shift != 0.0:
            raise ValueError(f"the {self.experiment} experiment sets the shift from delta_grid "
                             f"(or 0), so dist.shift must be 0, got {self.dist.shift}")
        grid = {"power": "delta_grid", "coldstart": "m_grid"}.get(self.experiment)
        if grid is not None and not getattr(self, grid):
            raise ValueError(f"the {self.experiment} experiment needs a nonempty {grid}")
        # The objects that own the settings, built here so that each refuses its
        # bad values at load, before simulate creates --out.  Replications read
        # the ones kept; a Monitor (with its SpectrumMonitor) and the seed's
        # SeedSequence are built afresh for each replication.
        kept = {
            "_boundary": {kind: BoundaryParams(alpha=self.alpha, m=self.m, eta=self.eta,
                                               s=self.s, kind=kind) for kind in ("lil", "gm")},
            "_dists": tuple(replace(self.dist, shift=d) for d in self.delta_grid),
            # spectral's kinds in order (poly, exp, data), each over its grid
            "_schemes": tuple(WeightScheme(kind, param) for kind, grid in
                              zip(_PARAM_RULES, (self.b_grid, self.c_grid, (0.0,)))
                              for param in grid),
            # the coverage config of each cold start
            "_coldstart": tuple(replace(self, experiment="coverage", m=m, m_grid=(m,))
                                for m in self.m_grid) if self.experiment == "coldstart" else (),
        }
        for name, value in kept.items():
            object.__setattr__(self, name, value)
        self._monitor(UStatAccumulator(self.kernel), ChiSquareTable(self.classical_draws))
        np.random.SeedSequence(self.seed)

    def boundary_params(self, kind: str) -> BoundaryParams:
        return self._boundary[kind]

    def spectrum_monitor(self) -> SpectrumMonitor:
        return SpectrumMonitor(
            scheme=self.weight_scheme,
            alpha=self.alpha,
            grid_ratio=self.grid_ratio,
            trunc_exponent=self.trunc_exponent,
            subsample_exponent=self.subsample_exponent,
        )

    def _monitor(self, acc: UStatAccumulator, table: ChiSquareTable) -> Monitor:
        """A fresh Monitor of one replication of the sequential test on the
        empty ``acc``, over the methods' boundaries, the config's spectrum
        settings and ``table``."""
        return Monitor(
            acc, self.m,
            [self._boundary[_KIND[meth]] for meth in self.methods if meth in _KIND],
            spectrum=self.spectrum_monitor(), theta0=self.theta0,
            table=table if "Classical-Test" in self.methods else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return _from_fields(cls, json.loads(text), "config")


def _from_fields(cls, raw, what: str):
    """``cls(**raw)`` for a JSON object ``raw``, with the keys read from
    ``cls``'s fields and each value checked against its field's declared type."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**{key: _typed(key, value, types[key]) for key, value in raw.items()})


# a JSON value per declared scalar type: an int field takes an integer (not
# true), a float field any number, stored as a float
_JSON_SCALARS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                 "str": (str, "a string")}


def _typed(key: str, value, annotation: str):
    """``value`` as a field declared ``annotation`` holds it, or a ValueError naming ``key``."""
    if annotation == "DistParams":
        return _from_fields(DistParams, value, key)
    if annotation == "WeightScheme":
        return parse_weights(_typed(key, value, "str"))
    if annotation.startswith("tuple["):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a JSON list, got {json.dumps(value)}")
        item = annotation[len("tuple["):-len(", ...]")]
        return tuple(_typed(f"{key} entry", v, item) for v in value)
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation[:-len(" | None")]
    types, name = _JSON_SCALARS[annotation]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{key} must be {name}, got {json.dumps(value)}")
    return float(value) if annotation == "float" else value


class _Column(NamedTuple):
    """A value column of a curve family, and the chart drawn from it."""

    name: str
    curves: dict
    svg: str
    title: str
    ylabel: str
    alpha_line: bool = False


class _Family(NamedTuple):
    """A CSV ``<prefix>_<stem>.csv``, a row per key (sorted) and x value, whose
    value columns are each one chart.  The first column holds the keys; charts
    and summary terms name a key by ``label(key)``."""

    stem: str
    x_name: str  # "n" or "delta"
    x: Sequence
    key_names: str
    columns: tuple[_Column, ...]
    # (head, term format): the head is formatted with {experiment} and {x}, the last x
    summary: tuple[str, str] = ()
    label: Callable = str


@dataclass
class ExperimentResult:
    """Aggregated curves from one experiment, written as ``_families`` declares."""

    config: ExperimentConfig
    n_grid: np.ndarray | None = None
    # coverage-style: label -> per-n curve over n_grid
    cum_miscoverage: dict[str, np.ndarray] = field(default_factory=dict)
    mean_halfwidth: dict[str, np.ndarray] = field(default_factory=dict)
    # power-style
    delta_grid: tuple[float, ...] = ()
    power: dict[str, np.ndarray] = field(default_factory=dict)
    cum_rejection: dict[str, np.ndarray] = field(default_factory=dict)
    # sensitivity-style: scheme -> per-n mean boundary width
    widths: dict[WeightScheme, np.ndarray] = field(default_factory=dict)
    wall_time: float = 0.0

    def _families(self) -> list[_Family]:
        n = [] if self.n_grid is None else [int(v) for v in self.n_grid]
        families = (
            _Family("coverage", "n", n, "method", (
                _Column("cum_miscoverage", self.cum_miscoverage, "coverage",
                        "cumulative miscoverage", "fraction", alpha_line=True),
                _Column("mean_halfwidth", self.mean_halfwidth, "halfwidth",
                        "mean half-width", "half-width"),
            ), ("{experiment}: terminal cumulative miscoverage ", ".4f")),
            _Family("power", "delta", self.delta_grid, "method", (
                _Column("power", self.power, "power", f"power at n={self.config.n_max}", "power"),
            ), ("power at delta={x:g}: ", ".3f")),
            _Family("size_curve", "n", n, "method", (
                _Column("cum_rejection", self.cum_rejection, "size_curve",
                        "cumulative rejection under the null", "fraction", alpha_line=True),
            )),
            _Family("sensitivity", "n", n, "scheme,param", (
                _Column("width", self.widths, "sensitivity", "SAGE-LIL boundary width", "width"),
            ), ("terminal SAGE-LIL widths: ", ".3e"), label=WeightScheme.label),
        )
        return [fam for fam in families if fam.columns[0].curves]

    def summary(self) -> str:
        """The terminal value of every key of the first family that declares a summary."""
        for fam in self._families():
            if fam.summary:
                head, spec = fam.summary
                curves = fam.columns[0].curves
                terms = ", ".join(f"{fam.label(k)}={curves[k][-1]:{spec}}" for k in sorted(curves))
                return head.format(experiment=self.config.experiment, x=fam.x[-1]) + terms
        return f"{self.config.experiment}: done"

    def write_csvs(self, outdir, prefix: str) -> list[str]:
        os.makedirs(outdir, exist_ok=True)
        written = []
        for fam in self._families():
            path = os.path.join(outdir, f"{prefix}_{fam.stem}.csv")
            written.append(path)
            with open(path, "w", encoding="utf-8") as f:
                f.write(f"{fam.x_name},{fam.key_names},{','.join(c.name for c in fam.columns)}\n")
                for key in sorted(fam.columns[0].curves):
                    cells = astuple(key) if isinstance(key, WeightScheme) else (key,)
                    cells = ",".join(c if isinstance(c, str) else repr(c) for c in cells)
                    for x, *ys in zip(fam.x, *(c.curves[key] for c in fam.columns)):
                        f.write(f"{x!r},{cells},{','.join(repr(float(y)) for y in ys)}\n")
        return written

    def write_svgs(self, outdir, prefix: str) -> list[str]:
        os.makedirs(outdir, exist_ok=True)
        written = []
        for fam in self._families():
            for col in fam.columns:
                path = os.path.join(outdir, f"{prefix}_{col.svg}.svg")
                written.append(path)
                line_chart(path, fam.x, {fam.label(k): v for k, v in col.curves.items()},
                           title=col.title, xlabel="mean shift" if fam.x_name == "delta" else "n",
                           ylabel=col.ylabel, hline=self.config.alpha if col.alpha_line else None)
        return written


# ---------------------------------------------------------------------------
# nondegenerate experiments
# ---------------------------------------------------------------------------


def _stream_u_sigma(kernel_id: str, pts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """U_n and sigma_hat_n at n = m..len(pts); index i holds the n = m + i values."""
    acc = UStatAccumulator(kernel_id)
    u = np.empty(len(pts) - m + 1)
    sig = np.empty(len(u))
    for x in pts:
        acc.push(x)
        if acc.n >= m:
            u[acc.n - m] = acc.ustat()
            sig[acc.n - m] = math.sqrt(acc.jackknife_sigma2())
    return u, sig


def _cum_fraction(first_hits: list[int | None], n_grid: np.ndarray) -> np.ndarray:
    counts = np.zeros(len(n_grid))
    for hit in first_hits:
        if hit is not None:
            counts[hit] += 1
    out = np.cumsum(counts) / len(first_hits)
    assert np.all(np.diff(out) >= 0.0)  # every emitted curve is nondecreasing
    return out


def _coverage_boundaries(cfg: ExperimentConfig, n_grid: np.ndarray) -> dict[str, np.ndarray]:
    """Each method's boundary_value over ``n_grid``: gamma(n), or z/sqrt(n) for Classical-CI."""
    bounds = {}
    for meth in cfg.methods:
        if meth in _KIND:
            p = cfg.boundary_params(_KIND[meth])
            bounds[meth] = np.array([gaussian_boundary(int(n), p) for n in n_grid])
        else:
            bounds[meth] = normal_quantile(cfg.alpha) / np.sqrt(n_grid)
    return bounds


def _intervals(kernel_id: str, pts: np.ndarray, bounds: dict[str, np.ndarray], m: int,
               theta: float) -> dict[str, tuple[np.ndarray, ...]]:
    """Each method's (lo, hi, half-width, miss) curves over n = m..len(pts) on one
    stream: lo/hi from the records' ``two_sided``, a miss where ``covers`` fails."""
    u, sig = _stream_u_sigma(kernel_id, pts, m)
    out = {}
    for meth, b in bounds.items():
        lo, hi = two_sided(u, sig, b)
        out[meth] = lo, hi, half_width(sig, b), ~((lo <= theta) & (theta <= hi))
    return out


def run_coverage(cfg: ExperimentConfig, stage: int = 0) -> ExperimentResult:
    """Coverage and width curves for a nondegenerate kernel with known theta.

    The intervals are those ``cs`` prints: ``two_sided`` gives lo/hi =
    U_n -/+ 2.0 * sigma_hat * boundary_value on arrays, as ``nondegenerate_cs``
    and ``classical_ci`` do on one row, and a miss is where ``covers`` fails.
    """
    theta = true_theta(cfg.kernel, cfg.dist)
    t0 = time.monotonic()
    n_grid = np.arange(cfg.m, cfg.n_max + 1)
    bounds = _coverage_boundaries(cfg, n_grid)
    first_hits: dict[str, list[int | None]] = {m: [] for m in bounds}
    hw_sum: dict[str, np.ndarray] = {m: np.zeros(len(n_grid)) for m in bounds}
    for rep in range(cfg.reps):
        pts = sample_stream(cfg.kernel, cfg.dist, cfg.n_max, _rng_for(cfg.seed, stage, rep))
        for meth, (_, _, half, miss) in _intervals(cfg.kernel, pts, bounds, cfg.m, theta).items():
            hit = np.flatnonzero(miss)
            first_hits[meth].append(int(hit[0]) if hit.size else None)
            hw_sum[meth] += half

    res = ExperimentResult(config=cfg, n_grid=n_grid)
    for meth in bounds:
        res.cum_miscoverage[meth] = _cum_fraction(first_hits[meth], n_grid)
        res.mean_halfwidth[meth] = hw_sum[meth] / cfg.reps
    res.wall_time = time.monotonic() - t0
    return res


def run_coldstart(cfg: ExperimentConfig) -> ExperimentResult:
    """Coverage curves for each cold start in ``m_grid`` (curves keyed label|m=..)."""
    t0 = time.monotonic()
    grid = np.arange(min(cfg.m_grid), cfg.n_max + 1)
    out = ExperimentResult(config=cfg, n_grid=grid)
    for j, sub in enumerate(cfg._coldstart):
        res = run_coverage(sub, stage=100 + j)
        pad = len(grid) - len(res.n_grid)
        for meth, curve in res.cum_miscoverage.items():
            out.cum_miscoverage[f"{meth}|m={sub.m}"] = np.concatenate([np.zeros(pad), curve])
            out.mean_halfwidth[f"{meth}|m={sub.m}"] = np.concatenate(
                [np.full(pad, np.nan), res.mean_halfwidth[meth]])
    out.wall_time = time.monotonic() - t0
    return out


# ---------------------------------------------------------------------------
# degenerate experiments
# ---------------------------------------------------------------------------


def _degenerate_first_rejections(
    cfg: ExperimentConfig,
    dist: DistParams,
    stage: int,
    rep: int,
    acc: UStatAccumulator,
    table: ChiSquareTable,
) -> dict[str, int | None]:
    """One replication of the sequential MMD test on ``dist``'s shift; first
    rejection index per method.  ``acc`` and ``table`` are cleared first, so
    the replications of a run share the Gram store and the draw buffers.

    The Classical-Test quantile at every refresh reads the chi-square table,
    drawn from the replication's own substream (common random numbers).
    The scan stops once every method has rejected.
    """
    rng = _rng_for(cfg.seed, stage, rep, 0)
    pts = sample_paired_mmd(dist, rng, cfg.n_max)
    acc.clear()
    table.clear(_rng_for(cfg.seed, stage, rep, 1))
    mon = cfg._monitor(acc, table)
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
    acc = UStatAccumulator(cfg.kernel)
    table = ChiSquareTable(cfg.classical_draws)
    for j, dist in enumerate(cfg._dists):  # the law of each shift, built at load
        firsts = [_degenerate_first_rejections(cfg, dist, 200 + j, rep, acc, table)
                  for rep in range(cfg.reps)]
        for meth in cfg.methods:
            curve = _cum_fraction([first[meth] for first in firsts], n_grid)
            power[meth].append(float(curve[-1]))
            if dist.shift == 0.0:
                res.cum_rejection[meth] = curve
    res.power = {meth: np.asarray(values) for meth, values in power.items()}
    res.wall_time = time.monotonic() - t0
    return res


def run_weight_sensitivity(cfg: ExperimentConfig) -> ExperimentResult:
    """Mean SAGE-LIL width per allocation scheme on the null MMD stream."""
    t0 = time.monotonic()
    n_grid = np.arange(cfg.m, cfg.n_max + 1)
    p_lil = cfg.boundary_params("lil")
    sums = {scheme: np.zeros(len(n_grid)) for scheme in cfg._schemes}
    acc = UStatAccumulator(cfg.kernel)  # one Gram store for every replication
    for rep in range(cfg.reps):
        rng = _rng_for(cfg.seed, 300, rep)
        pts = sample_paired_mmd(cfg.dist, rng, cfg.n_max)
        acc.clear()
        mon = Monitor(acc, cfg.m, spectrum=cfg.spectrum_monitor())
        base = None
        for x in pts:
            mon.push(x)
            if mon.estimate is None:  # cold start
                continue
            if mon.estimate is not base:
                base = mon.estimate
                # one eigendecomposition serves every allocation scheme
                per_scheme = {
                    scheme: spectrum_from_eigenvalues(base.eigenvalues, scheme, alpha=cfg.alpha)
                    for scheme in cfg._schemes
                }
            n = acc.n
            trace = trace_estimate(acc)
            for scheme, est in per_scheme.items():
                sums[scheme][n - cfg.m] += sage_upper(n, est, p_lil, trace)
    res = ExperimentResult(config=cfg, n_grid=n_grid)
    for scheme, total in sums.items():
        res.widths[scheme] = total / cfg.reps
    res.wall_time = time.monotonic() - t0
    return res


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Dispatch on ``cfg.experiment``."""
    run = {"coverage": run_coverage, "coldstart": run_coldstart, "power": run_power}
    return run.get(cfg.experiment, run_weight_sensitivity)(cfg)
