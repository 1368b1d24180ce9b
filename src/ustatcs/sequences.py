"""Confidence sequences and sequential tests for degree-two U-statistics.

The nondegenerate path pairs the jackknife variance estimate with a
time-uniform Gaussian boundary to produce the two-sided interval
U_n +/- 2 sigma_hat gamma(n); the degenerate path pairs a spectrum
estimate with a SAGE boundary to produce the one-sided interval
[U_n - Upsilon(n), inf).  Classical fixed-time constructions (pointwise
normal CI, weighted chi-square test) are included as the baselines whose
failure under continuous monitoring motivates the sequential versions.

Records carry a ``method`` label such as ``AsympCS-LIL`` or ``SAGE-GM``
and serialize to the CSV schema ``n,method,center,lo,hi,sigma_hat,boundary_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import ndtri

from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams, gaussian_boundary
from .spectral import SpectrumEstimate, sage_upper

__all__ = [
    "CsRecord",
    "TestDecision",
    "nondegenerate_cs",
    "degenerate_cs",
    "classical_ci",
    "chi_square_mixture_quantile",
    "classical_degenerate_test",
    "sequential_test",
    "csv_header",
]

@dataclass(frozen=True)
class CsRecord:
    """One interval (or one-sided bound) at a single monitoring time."""

    n: int
    method: str
    center: float
    lo: float
    hi: float
    sigma_hat: float | None
    boundary_value: float

    def covers(self, theta: float) -> bool:
        return self.lo <= theta <= self.hi

    def csv_row(self) -> str:
        sig = "" if self.sigma_hat is None else repr(self.sigma_hat)
        return (
            f"{self.n},{self.method},{self.center!r},{self.lo!r},"
            f"{self.hi!r},{sig},{self.boundary_value!r}"
        )


def csv_header() -> str:
    return "n,method,center,lo,hi,sigma_hat,boundary_value"


@dataclass(frozen=True)
class TestDecision:
    """Outcome of a sequential test after scanning records in time order."""

    n: int
    reject: bool
    first_rejection_n: int | None


def _method_name(prefix: str, kind: str) -> str:
    return f"{prefix}-{'LIL' if kind == 'lil' else 'GM'}"


def nondegenerate_cs(acc: UStatAccumulator, p: BoundaryParams) -> CsRecord | None:
    """Two-sided interval U_n +/- 2 sigma_hat gamma(n); None during cold start."""
    if acc.n < max(p.m, 2):
        return None
    u = acc.ustat()
    sig = math.sqrt(acc.jackknife_sigma2())
    gamma = gaussian_boundary(acc.n, p)
    half = 2.0 * sig * gamma
    return CsRecord(
        n=acc.n,
        method=_method_name("AsympCS", p.kind),
        center=u,
        lo=u - half,
        hi=u + half,
        sigma_hat=sig,
        boundary_value=gamma,
    )


def degenerate_cs(
    acc: UStatAccumulator, p: BoundaryParams, est: SpectrumEstimate
) -> CsRecord | None:
    """One-sided interval [U_n - Upsilon(n), inf); None during cold start."""
    if acc.n < max(p.m, 2):
        return None
    u = acc.ustat()
    ups = sage_upper(acc.n, est, p)
    return CsRecord(
        n=acc.n,
        method=_method_name("SAGE", p.kind),
        center=u,
        lo=u - ups,
        hi=math.inf,
        sigma_hat=None,
        boundary_value=ups,
    )


def classical_ci(acc: UStatAccumulator, alpha: float) -> CsRecord:
    """Fixed-time pointwise CI U_n +/- 2 sigma_hat z_{1-alpha/2} / sqrt(n).

    Valid at a single predetermined n only; under continuous monitoring its
    cumulative miscoverage exceeds alpha.
    """
    u = acc.ustat()
    sig = math.sqrt(acc.jackknife_sigma2())
    z = float(ndtri(1.0 - alpha / 2.0))
    half = 2.0 * sig * z / math.sqrt(acc.n)
    return CsRecord(
        n=acc.n,
        method="Classical-CI",
        center=u,
        lo=u - half,
        hi=u + half,
        sigma_hat=sig,
        boundary_value=z / math.sqrt(acc.n),
    )


def chi_square_mixture_quantile(
    eigenvalues, alpha: float, draws: int = 100_000, rng=None
) -> float:
    """Monte Carlo (1-alpha) quantile of sum_l lambda_l (chi2_1 - 1).

    This is the fixed-time null limit of n (U_n - theta) for a degenerate
    kernel with the given (truncated) spectrum.
    """
    if draws < 1_000:
        raise ValueError(f"draws must be >= 1000, got {draws}")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or not np.any(lam):
        return 0.0
    rng = np.random.default_rng(rng)
    z = rng.standard_normal((draws, lam.size))
    sums = (z * z - 1.0) @ lam
    return float(np.quantile(sums, 1.0 - alpha))


def classical_degenerate_test(
    acc: UStatAccumulator,
    est: SpectrumEstimate,
    alpha: float,
    draws: int = 100_000,
    rng=None,
    critical: float | None = None,
) -> CsRecord:
    """Fixed-time degenerate test record: reject H0: theta = theta0 when
    U_n - theta0 exceeds quantile(sum lambda (chi2-1), 1-alpha) / n.

    ``critical`` short-circuits the Monte Carlo step with a precomputed
    quantile (the quantile only depends on the spectrum, not on n).
    Applied at every n this rule is anti-conservative: its cumulative
    rejection rate under H0 keeps accumulating past alpha.
    """
    if critical is None:
        critical = chi_square_mixture_quantile(est.eigenvalues, alpha, draws, rng)
    u = acc.ustat()
    crit_n = critical / acc.n
    return CsRecord(
        n=acc.n,
        method="Classical-Test",
        center=u,
        lo=u - crit_n,
        hi=math.inf,
        sigma_hat=None,
        boundary_value=crit_n,
    )


def sequential_test(records: Iterable[CsRecord], theta0: float) -> TestDecision:
    """Reject H0: theta = theta0 at the first record whose interval misses theta0.

    Records must come from a single run in increasing-n order; once
    triggered the rejection is final (the duality phi_n = 1{theta0 not in C_n}).
    """
    first: int | None = None
    last_n = 0
    for rec in records:
        last_n = rec.n
        if first is None and not rec.covers(theta0):
            first = rec.n
    return TestDecision(n=last_n, reject=first is not None, first_rejection_n=first)
