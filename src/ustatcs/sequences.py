"""Confidence sequences and sequential tests for degree-two U-statistics.

The nondegenerate path pairs the jackknife variance estimate with a
time-uniform Gaussian boundary to produce the two-sided interval
U_n +/- 2 sigma_hat gamma(n); the degenerate path pairs a spectrum
estimate with a SAGE boundary to produce the one-sided interval
[U_n - Upsilon(n), inf).  Classical fixed-time constructions (pointwise
normal CI, weighted chi-square quantile) are included as the baselines
whose failure under continuous monitoring motivates the sequential versions.

``Monitor`` is the one loop over a stream: each push yields the records at
the new n, and ``Monitor.first`` holds the first n at which each method's
record excludes theta0, which is the dual sequential test
phi_n = 1{theta0 not in C_n}.

Records carry a ``method`` label such as ``AsympCS-LIL`` or ``SAGE-GM``
and serialize to the CSV schema ``n,method,center,lo,hi,sigma_hat,boundary_value``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams, gaussian_boundary
from .spectral import SpectrumEstimate, SpectrumMonitor, sage_upper, trace_estimate

__all__ = [
    "CsRecord", "Monitor", "ChiSquareTable", "nondegenerate_cs", "degenerate_cs",
    "classical_ci", "two_sided", "half_width", "normal_quantile",
    "chi_square_mixture_quantile", "csv_header",
]


class CsRecord(NamedTuple):
    """One interval (or one-sided bound) at a single monitoring time.

    A NamedTuple: immutable, and built by ``_make`` about seven times faster
    than a frozen dataclass, which counts at one record per method per row.
    """

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


# The method table, by boundary kind; simharness derives its method lists from it.
_ASYMP_LABEL = {"lil": "AsympCS-LIL", "gm": "AsympCS-GM"}
_SAGE_LABEL = {"lil": "SAGE-LIL", "gm": "SAGE-GM"}


def half_width(sig, b):
    """2 sigma_hat b: the half-width of a two-sided record whose boundary_value is b."""
    return 2.0 * sig * b


def two_sided(u, sig, b):
    """(lo, hi) = U -/+ 2 sigma_hat b, the interval of every two-sided record.

    Arithmetic only, so floats stay Python floats (a repr is a CSV cell) and
    arrays stay arrays: ``simharness.run_coverage`` calls it on whole curves.
    """
    half = half_width(sig, b)
    return u - half, u + half


def normal_quantile(alpha: float) -> float:
    """z_{1-alpha/2}; Classical-CI's boundary_value at n is z / sqrt(n)."""
    from scipy.special import ndtri  # here, so that importing ustatcs loads no scipy

    return float(ndtri(1.0 - alpha / 2.0))


def nondegenerate_cs(acc: UStatAccumulator, p: BoundaryParams) -> CsRecord | None:
    """Two-sided interval U_n +/- 2 sigma_hat gamma(n); None during cold start."""
    n = acc.n
    if n < max(p.m, 2):
        return None
    u = acc.ustat()
    sig = math.sqrt(acc.jackknife_sigma2())
    gamma = gaussian_boundary(n, p)
    lo, hi = two_sided(u, sig, gamma)
    return CsRecord._make((n, _ASYMP_LABEL[p.kind], u, lo, hi, sig, gamma))


def degenerate_cs(
    acc: UStatAccumulator, p: BoundaryParams, est: SpectrumEstimate
) -> CsRecord | None:
    """One-sided interval [U_n - Upsilon(n), inf), Upsilon read from ``est``
    and the trace at n; None during cold start."""
    n = acc.n
    if n < max(p.m, 2):
        return None
    u = acc.ustat()
    ups = sage_upper(n, est, p, trace_estimate(acc))
    return CsRecord._make((n, _SAGE_LABEL[p.kind], u, u - ups, math.inf, None, ups))


def classical_ci(acc: UStatAccumulator, alpha: float) -> CsRecord:
    """Fixed-time pointwise CI U_n +/- 2 sigma_hat z_{1-alpha/2} / sqrt(n).

    Valid at a single predetermined n only; under continuous monitoring its
    cumulative miscoverage exceeds alpha.
    """
    u = acc.ustat()
    sig = math.sqrt(acc.jackknife_sigma2())
    b = normal_quantile(alpha) / math.sqrt(acc.n)
    lo, hi = two_sided(u, sig, b)
    return CsRecord._make((acc.n, "Classical-CI", u, lo, hi, sig, b))


class ChiSquareTable:
    """Common random numbers for ``chi_square_mixture_quantile``.

    ``draws`` chi2_1 - 1 values per spectral coordinate, one contiguous
    column each, plus a buffer for their weighted sums.  Missing columns are
    drawn on demand and never redrawn, so every quantile computed from one
    table reuses the same draws: an unchanged spectrum gives the identical
    quantile, and a growing L adds columns without touching the old ones.
    The columns are separate arrays rather than one (draws, L) block, so
    adding one copies nothing.  ``clear`` keeps every buffer, so the
    replications of one experiment share a table's pages.  Single writer,
    like the accumulator.
    """

    def __init__(self, draws: int = 100_000, rng=None):
        if draws < 1_000:
            raise ValueError(f"draws must be >= 1000, got {draws}")
        self._cols: list[np.ndarray] = []  # buffers; the first _drawn hold draws
        self._sums = np.empty(draws)
        self.clear(rng)

    def clear(self, rng=None) -> None:
        """Start over from ``rng``, as a fresh table would, but keep the
        buffers: the columns are redrawn in order, in place, on demand."""
        self._rng = np.random.default_rng(rng)
        self._drawn = 0

    def columns(self, L: int) -> list[np.ndarray]:
        """The first L columns, drawing the missing ones in place."""
        while self._drawn < L:
            if self._drawn == len(self._cols):
                self._cols.append(np.empty(len(self._sums)))
            col = self._cols[self._drawn]
            self._rng.standard_normal(out=col)
            np.square(col, out=col)
            col -= 1.0
            self._drawn += 1
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
    ``table``, so calls that share a table share their draws.  The value is
    ``np.quantile``'s default ('linear') one, bit for bit, taken by
    ``_linear_quantile`` from one single-index partition.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or not np.any(lam):
        return 0.0
    return _linear_quantile(table.weighted_sums(lam), 1.0 - alpha)


def _linear_quantile(a: np.ndarray, q: float) -> float:
    """``float(np.quantile(a, q, overwrite_input=True))`` for a nan-free 1-D
    array and a float q in [0, 1], bit for bit; reorders ``a``.

    np.quantile partitions at four indices (0, -1 and both neighbours of the
    virtual index (D-1) q).  One partition at the lower neighbour, and the
    minimum of the part above it, give the same two order statistics; they
    are interpolated as numpy's ``_lerp`` does, with its t >= 0.5 branch.
    At q = 1 numpy takes index -1 for both, and its weight is (D-1) q + 1.
    """
    last = len(a) - 1
    v = last * q
    if v >= last:
        lo = hi = float(a.max())
        t = v + 1.0
    else:
        i = math.floor(v)
        a.partition(i)
        lo = float(a[i])
        hi = float(a[i + 1 :].min())
        t = v - i
    diff = hi - lo
    if t >= 0.5:
        return hi - diff * (1.0 - t)
    return lo + diff * t


class Monitor:
    """One stream's confidence sequence and its dual sequential test.

    ``push(x)`` feeds the accumulator and returns the records at the new n,
    one per ``params`` entry, or none before the cold start m.  Passing a
    ``SpectrumMonitor`` chooses the degenerate regime (SAGE records backed by
    ``estimate``, which a refresh replaces); a ``ChiSquareTable`` adds a
    Classical-Test record, whose critical value is recomputed at each refresh
    until it rejects.  Given ``theta0``, ``first`` maps each method to the
    first n whose record excludes theta0; an entry never changes once set.
    Single writer, like the accumulator.
    """

    def __init__(self, acc: UStatAccumulator, m: int, params: Sequence[BoundaryParams] = (),
                 spectrum: SpectrumMonitor | None = None, theta0: float | None = None,
                 table: ChiSquareTable | None = None):
        if any(p.m != m for p in params):
            raise ValueError(f"every boundary must start at the cold start m={m}")
        if spectrum is not None and any(p.alpha != spectrum.alpha for p in params):
            raise ValueError(
                f"every boundary must be at the spectrum monitor's alpha={spectrum.alpha}")
        if table is not None and spectrum is None:
            raise ValueError("the classical test needs a spectrum monitor")
        if theta0 is not None and not math.isfinite(theta0):
            raise ValueError(f"theta0 must be finite, got {theta0}")
        self.acc = acc
        self.m = max(m, 2)  # U_n needs two points, as in the record functions
        self.params = tuple(params)
        self.spectrum = spectrum
        self.theta0 = theta0
        self.table = table
        self.first: dict[str, int] = {}
        self.estimate: SpectrumEstimate | None = None
        self._critical = 0.0

    def push(self, x) -> list[CsRecord]:
        """Ingest one observation; the records at the new n, or [] before m."""
        acc = self.acc
        acc.push(x)
        n = acc.n
        if n < self.m:
            return []
        if self.spectrum is None:
            records = [nondegenerate_cs(acc, p) for p in self.params]
        else:
            est = self.spectrum.update(acc)
            refreshed = est is not self.estimate
            self.estimate = est
            records = [degenerate_cs(acc, p, est) for p in self.params]
            if self.table is not None:
                # once Classical-Test has rejected, its critical value is never read again
                if refreshed and "Classical-Test" not in self.first:
                    self._critical = chi_square_mixture_quantile(
                        est.eigenvalues, self.spectrum.alpha, self.table
                    )
                u = acc.ustat()
                bound = self._critical / n
                records.append(
                    CsRecord._make((n, "Classical-Test", u, u - bound, math.inf, None, bound))
                )
        theta0 = self.theta0
        if theta0 is not None:
            first = self.first
            for rec in records:
                # covers() runs only on a miss, where it refuses a nan bound
                if not rec.lo <= theta0 <= rec.hi and rec.method not in first:
                    if not rec.covers(theta0):
                        first[rec.method] = n
        return records
