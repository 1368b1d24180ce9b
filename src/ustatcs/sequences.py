"""Confidence sequences and sequential tests for degree-two U-statistics.

The nondegenerate path pairs the jackknife variance estimate with a
time-uniform Gaussian boundary to produce the two-sided interval
U_n +/- 2 sigma_hat gamma(n); the degenerate path pairs a spectrum
estimate with a SAGE boundary to produce the one-sided interval
[U_n - Upsilon(n), inf).  Classical fixed-time constructions (pointwise
normal CI, weighted chi-square quantile) are included as the baselines
whose failure under continuous monitoring motivates the sequential versions.

Records carry a ``method`` label such as ``AsympCS-LIL`` or ``SAGE-GM``
and serialize to the CSV schema ``n,method,center,lo,hi,sigma_hat,boundary_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams, gaussian_boundary
from .spectral import SpectrumEstimate, sage_upper

__all__ = [
    "CsRecord",
    "TestDecision",
    "ChiSquareTable",
    "nondegenerate_cs",
    "degenerate_cs",
    "classical_ci",
    "chi_square_mixture_quantile",
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
        # a nan bound compares False, which would read as a rejection
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError(f"record at n={self.n} has a nan bound")
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
    from scipy.special import ndtri  # here, so that importing ustatcs loads no scipy

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


class ChiSquareTable:
    """Common random numbers for ``chi_square_mixture_quantile``.

    ``draws`` chi2_1 - 1 values per spectral coordinate, one contiguous
    column each, plus a buffer for their weighted sums.  Missing columns are
    drawn on demand and never redrawn, so every quantile computed from one
    table reuses the same draws: an unchanged spectrum gives the identical
    quantile, and a growing L adds columns without touching the old ones.
    The columns are separate arrays rather than one (draws, L) block, so
    adding one copies nothing.  Single writer, like the accumulator.
    """

    def __init__(self, draws: int = 100_000, rng=None):
        if draws < 1_000:
            raise ValueError(f"draws must be >= 1000, got {draws}")
        self._rng = np.random.default_rng(rng)
        self._cols: list[np.ndarray] = []
        self._sums = np.empty(draws)

    def columns(self, L: int) -> list[np.ndarray]:
        """The first L columns, drawing the missing ones in place."""
        while len(self._cols) < L:
            col = np.empty(len(self._sums))
            self._rng.standard_normal(out=col)
            np.square(col, out=col)
            col -= 1.0
            self._cols.append(col)
        return self._cols[:L]

    def weighted_sums(self, lam: np.ndarray) -> np.ndarray:
        """sum_l lam_l * column_l, written into the table's own buffer.

        The result is overwritten by the next call.  Accumulated column by
        column: a (draws, L) @ (L,) gemv on 2-thread OpenBLAS measured about
        10x slower.
        """
        cols = self.columns(len(lam))
        sums = np.multiply(cols[0], lam[0], out=self._sums)
        for col, weight in zip(cols[1:], lam[1:]):
            sums += weight * col
        return sums


def chi_square_mixture_quantile(eigenvalues, alpha: float, table: ChiSquareTable) -> float:
    """Monte Carlo (1-alpha) quantile of sum_l lambda_l (chi2_1 - 1).

    This is the fixed-time null limit of n (U_n - theta) for a degenerate
    kernel with the given (truncated) spectrum.  The draws come from
    ``table``, so calls that share a table share their draws.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or not np.any(lam):
        return 0.0
    sums = table.weighted_sums(lam)
    return float(np.quantile(sums, 1.0 - alpha, overwrite_input=True))


def sequential_test(records: Iterable[CsRecord], theta0: float) -> TestDecision:
    """Reject H0: theta = theta0 at the first record whose interval misses theta0.

    Records must come from a single run in strictly increasing-n order
    (ValueError otherwise); once triggered the rejection is final (the
    duality phi_n = 1{theta0 not in C_n}).
    """
    first: int | None = None
    last_n = 0
    for rec in records:
        if rec.n <= last_n:
            raise ValueError(f"record n={rec.n} does not follow n={last_n}")
        last_n = rec.n
        if first is None and not rec.covers(theta0):
            first = rec.n
    return TestDecision(n=last_n, reject=first is not None, first_rejection_n=first)
