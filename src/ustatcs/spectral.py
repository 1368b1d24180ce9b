"""Spectral calibration for the degenerate regime.

The centered Gram matrix K(i,j) = h(X_i, X_j) - U_n, scaled by 1/n,
estimates the eigenvalues of the kernel's integral operator.  A truncated
set of those eigenvalues, together with a significance-budget allocation
across spectral coordinates, yields the SAGE (spectrally allocated
Gaussian-chaos excursion) boundaries that make one-sided anytime-valid
inference possible when the first projection vanishes.

``estimate_spectrum`` produces a ``SpectrumEstimate`` from an accumulator
snapshot; ``sage_upper`` / ``sage_lower`` turn an estimate into boundary
values.  ``SpectrumMonitor`` caches estimates between points of a geometric
monitoring grid, since a fresh eigendecomposition at every n is
prohibitively expensive.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
)

from .accumulator import UStatAccumulator
from .boundaries import (
    BoundaryParams,
    lil_stitch_term,
    normal_mixture_tail_inv,
    riemann_zeta,
)

__all__ = [
    "WeightScheme",
    "SpectrumEstimate",
    "SpectrumMonitor",
    "centered_gram",
    "estimate_spectrum",
    "allocate_weights",
    "parse_weights",
    "spectrum_from_eigenvalues",
    "sage_upper",
    "sage_lower",
]

_DENSE_CUTOFF = 128  # measured dense/ARPACK crossover; dense is cheaper up to here
# fixed ARPACK start vector seed; keeps large-n estimates reproducible
_ARPACK_SEED = 0x5EED


@dataclass(frozen=True)
class WeightScheme:
    """Allocation of the significance budget across spectral coordinates.

    kind:
      "polynomial"  beta_l = l^-b / zeta(b), b > 1
      "exponential" beta_l = (1 - e^-c) e^{-c(l-1)}, c > 0
      "data-driven" beta_l = max(lambda_l, 0) / (sum of positive lambdas)
    """

    kind: str = "data-driven"
    b: float = 2.0
    c: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in ("polynomial", "exponential", "data-driven"):
            raise ValueError(f"unknown weight scheme {self.kind!r}")
        if self.kind == "polynomial" and self.b <= 1.0:
            raise ValueError("polynomial weights need b > 1")
        if self.kind == "exponential" and self.c <= 0.0:
            raise ValueError("exponential weights need c > 0")

    def label(self) -> str:
        if self.kind == "polynomial":
            return f"poly:{self.b:g}"
        if self.kind == "exponential":
            return f"exp:{self.c:g}"
        return "data"


def parse_weights(label: str) -> WeightScheme:
    """Parse a scheme label: "poly:<b>", "exp:<c>", or "data"."""
    if label == "data":
        return WeightScheme("data-driven")
    head, sep, tail = label.partition(":")
    if sep and head == "poly":
        return WeightScheme("polynomial", b=float(tail))
    if sep and head == "exp":
        return WeightScheme("exponential", c=float(tail))
    raise ValueError(f"cannot parse weight scheme {label!r}; use poly:<b>, exp:<c>, or data")


def allocate_weights(scheme: WeightScheme, eigenvalues) -> np.ndarray:
    """Per-index weights beta_l aligned with the (|.|-sorted) eigenvalue list.

    Deterministic schemes depend only on the rank l and sum to 1 over the
    infinite index set; the data-driven scheme normalizes the positive part
    of the supplied eigenvalues and needs at least one positive entry.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    idx = np.arange(1, len(lam) + 1, dtype=float)
    if scheme.kind == "polynomial":
        return idx ** (-scheme.b) / riemann_zeta(scheme.b)
    if scheme.kind == "exponential":
        return (1.0 - math.exp(-scheme.c)) * np.exp(-scheme.c * (idx - 1.0))
    pos = np.maximum(lam, 0.0)
    total = pos.sum()
    if total <= 0.0:
        raise ValueError("data-driven weights need a positive eigenvalue")
    return pos / total


@dataclass(frozen=True)
class SpectrumEstimate:
    """Truncated signed eigenvalues of the scaled centered Gram matrix.

    ``eigenvalues`` are sorted by decreasing |value| (ties: larger signed
    value first).  ``trace_est`` is the full-stream trace estimator
    diag_sum/n - U_n, independent of the truncation.  The aggregate sums
    feeding the SAGE boundaries are stored on both the positive and the
    negative side; g-based aggregates were evaluated at ``alpha``.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    weights_minus: np.ndarray
    alpha: float
    trunc_exponent: float
    n_points: int
    trace_est: float
    sum_pos: float
    sum_neg: float
    sum_pos_logw: float
    sum_neg_logw: float
    sum_pos_ginv2: float
    sum_neg_ginv2: float
    scheme: WeightScheme = field(default_factory=WeightScheme)
    fallback: bool = False

    def g_sums(self, alpha: float) -> tuple[float, float]:
        """The g^{-1}(alpha*beta)^2-weighted sums, re-evaluated if alpha differs."""
        if alpha == self.alpha:
            return self.sum_pos_ginv2, self.sum_neg_ginv2
        return _g_aggregates(self.eigenvalues, self.weights, self.weights_minus, alpha)


def _g_aggregates(lam, w_plus, w_minus, alpha) -> tuple[float, float]:
    pos = 0.0
    neg = 0.0
    for lam_i, wp, wm in zip(lam, w_plus, w_minus):
        lam_i = float(lam_i)
        if lam_i > 0.0:
            a = normal_mixture_tail_inv(float(alpha * wp))
            pos += lam_i * a * a
        elif lam_i < 0.0:
            a = normal_mixture_tail_inv(float(alpha * wm))
            neg += lam_i * a * a
    return pos, neg


def _aggregate(lam: np.ndarray, w_plus, w_minus, alpha, **kw) -> dict:
    pos_mask = lam > 0.0
    neg_mask = lam < 0.0
    with np.errstate(divide="ignore"):
        log_inv_p = np.where(pos_mask, -np.log(np.where(pos_mask, w_plus, 1.0)), 0.0)
        log_inv_m = np.where(neg_mask, -np.log(np.where(neg_mask, w_minus, 1.0)), 0.0)
    gp, gn = _g_aggregates(lam, w_plus, w_minus, alpha)
    return dict(
        sum_pos=float(lam[pos_mask].sum()),
        sum_neg=float(lam[neg_mask].sum()),
        sum_pos_logw=float((lam * log_inv_p)[pos_mask].sum()),
        sum_neg_logw=float((lam * log_inv_m)[neg_mask].sum()),
        sum_pos_ginv2=gp,
        sum_neg_ginv2=gn,
        alpha=alpha,
        **kw,
    )


def _resolve_weights(
    scheme: WeightScheme, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, WeightScheme, bool]:
    """Plus- and minus-side weights for a retained eigenvalue list.

    Deterministic schemes use the same index-based weights on both sides.
    The data-driven scheme allocates each side proportionally to that
    side's eigenvalue mass; with no positive eigenvalue the plus-side
    weights are undefined and fall back to polynomial b=2 (flagged) --
    harmless for the boundaries, since the plus-side sums are then empty.
    """
    if scheme.kind != "data-driven":
        w = allocate_weights(scheme, lam)
        return w, w, scheme, False
    fallback_w = None
    pos = np.maximum(lam, 0.0)
    if pos.sum() > 0.0:
        w_plus = pos / pos.sum()
    else:
        warnings.warn(
            "data-driven weights undefined (no positive eigenvalue); "
            "falling back to polynomial b=2",
            stacklevel=3,
        )
        fallback_w = allocate_weights(WeightScheme("polynomial", b=2.0), lam)
        w_plus = fallback_w
    neg = np.maximum(-lam, 0.0)
    if neg.sum() > 0.0:
        w_minus = neg / neg.sum()
    else:
        w_minus = w_plus
    return w_plus, w_minus, scheme, fallback_w is not None


def centered_gram(acc: UStatAccumulator, upto: int | None = None) -> np.ndarray:
    """Centered Gram matrix h(X_i, X_j) - U_n over the first ``upto`` points."""
    if acc.n < 2:
        raise ValueError(f"need at least 2 points, got n={acc.n}")
    return acc.pairwise_matrix(upto) - acc.ustat()


def _sort_by_abs(w: np.ndarray) -> np.ndarray:
    # descending |value|, ties broken toward the larger signed value
    return w[np.lexsort((-w, -np.abs(w)))]


def _dense_top_abs(raw: np.ndarray, shift: float, L: int) -> np.ndarray:
    N = raw.shape[0]
    K = (raw - shift) / N
    K = 0.5 * (K + K.T)  # guard against rounding asymmetry
    if not np.any(K):
        return np.zeros(min(L, N))
    return _sort_by_abs(np.linalg.eigvalsh(K))[:L]


def _top_abs_eigenvalues(raw: np.ndarray, shift: float, L: int) -> np.ndarray:
    """Top-L eigenvalues of (raw - shift)/N by absolute value, sorted.

    ``raw`` is the symmetric kernel matrix; subtracting the scalar shift
    from every entry is a rank-one update, so the large-N path feeds ARPACK
    a matrix-free operator instead of materializing the centered matrix.
    """
    N = raw.shape[0]
    k_req = min(L + 8, N - 2)
    if N <= _DENSE_CUTOFF or k_req < L:
        return _dense_top_abs(raw, shift, L)
    inv_n = 1.0 / N

    def matvec(v):
        v = np.asarray(v).ravel()
        return inv_n * (raw @ v - shift * v.sum())

    op = LinearOperator((N, N), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(N)
    try:
        w = eigsh(op, k=k_req, which="LM", v0=v0, return_eigenvectors=False, tol=0)
    except (ArpackError, ArpackNoConvergence):
        return _dense_top_abs(raw, shift, L)
    return _sort_by_abs(np.asarray(w))[:L]


def estimate_spectrum(
    acc: UStatAccumulator,
    scheme: WeightScheme | None = None,
    trunc_exponent: float = 0.25,
    subsample_exponent: float | None = None,
    alpha: float = 0.05,
) -> SpectrumEstimate:
    """Estimate the operator spectrum from the stream's centered Gram matrix.

    The eigendecomposition runs over the first N points, N = ceil(n^w) when
    a subsample exponent w in (0,1) is given and N = n otherwise; the top
    L = max(1, floor(N^trunc_exponent)) eigenvalues by absolute value are
    retained.  The trace estimate always uses the full stream.
    """
    scheme = scheme or WeightScheme()
    n = acc.n
    if n < 2:
        raise ValueError(f"need at least 2 points, got n={n}")
    if not 0.0 < trunc_exponent < 0.5:
        raise ValueError("truncation exponent must lie in (0, 1/2)")
    if subsample_exponent is not None and not 0.0 < subsample_exponent < 1.0:
        raise ValueError("subsample exponent must lie in (0, 1)")
    N = n if subsample_exponent is None else min(n, math.ceil(n ** subsample_exponent))
    N = max(N, 2)
    L = max(1, math.floor(N ** trunc_exponent))
    lam = _top_abs_eigenvalues(acc.pairwise_matrix(N), acc.ustat(), L)
    if not np.any(lam > 0.0):
        warnings.warn(
            "no positive eigenvalue retained; the upper boundary degenerates "
            "to -trace/n",
            stacklevel=2,
        )
    w_plus, w_minus, used, fallback = _resolve_weights(scheme, lam)
    trace_est = acc.diag_sum / n - acc.ustat()
    return SpectrumEstimate(
        eigenvalues=lam,
        weights=w_plus,
        weights_minus=w_minus,
        trunc_exponent=trunc_exponent,
        n_points=N,
        trace_est=trace_est,
        scheme=used,
        fallback=fallback,
        **_aggregate(lam, w_plus, w_minus, alpha),
    )


def spectrum_from_eigenvalues(
    eigenvalues,
    scheme: WeightScheme | None = None,
    alpha: float = 0.05,
    trace: float | None = None,
) -> SpectrumEstimate:
    """Build an estimate directly from known eigenvalues (oracle/simulation use).

    ``trace`` defaults to the sum of the supplied eigenvalues; pass the full
    operator trace when the supplied list is truncated.
    """
    scheme = scheme or WeightScheme("polynomial", b=2.0)
    lam = _sort_by_abs(np.asarray(eigenvalues, dtype=float))
    w_plus, w_minus, used, fallback = _resolve_weights(scheme, lam)
    trace_est = float(lam.sum()) if trace is None else float(trace)
    return SpectrumEstimate(
        eigenvalues=lam,
        weights=w_plus,
        weights_minus=w_minus,
        trunc_exponent=0.25,
        n_points=len(lam),
        trace_est=trace_est,
        scheme=used,
        fallback=fallback,
        **_aggregate(lam, w_plus, w_minus, alpha),
    )


def sage_upper(n: int, est: SpectrumEstimate, p: BoundaryParams) -> float:
    """One-sided upper SAGE boundary at time n >= m."""
    if n < p.m:
        raise ValueError(f"n={n} is before the cold start m={p.m}")
    if p.kind == "lil":
        c = p.eta ** 0.25 + p.eta ** -0.25
        scale = c * c / (2.0 * n)
        stitched = lil_stitch_term(n, p)
        return scale * (stitched * est.sum_pos + est.sum_pos_logw) - est.trace_est / n
    g_pos, _ = est.g_sums(p.alpha)
    return (est.sum_pos * math.log(n / p.m) + g_pos - est.trace_est) / n


def sage_lower(n: int, est: SpectrumEstimate, p: BoundaryParams) -> float:
    """One-sided lower SAGE boundary; -trace/n exactly for a PSD spectrum."""
    if n < p.m:
        raise ValueError(f"n={n} is before the cold start m={p.m}")
    if p.kind == "lil":
        c = p.eta ** 0.25 + p.eta ** -0.25
        scale = c * c / (2.0 * n)
        stitched = lil_stitch_term(n, p)
        return scale * (stitched * est.sum_neg + est.sum_neg_logw) - est.trace_est / n
    _, g_neg = est.g_sums(p.alpha)
    return (est.sum_neg * math.log(n / p.m) + g_neg - est.trace_est) / n


class SpectrumMonitor:
    """Recompute the spectrum only on a geometric grid of stream lengths.

    Between grid points the latest estimate is reused; boundaries stay
    asymptotically valid because the estimates are consistent.  Single
    writer: ``update`` must not race with itself.
    """

    def __init__(
        self,
        scheme: WeightScheme | None = None,
        alpha: float = 0.05,
        start: int = 2,
        grid_ratio: float = 1.05,
        trunc_exponent: float = 0.25,
        subsample_exponent: float | None = None,
    ):
        if grid_ratio <= 1.0:
            raise ValueError("grid ratio must be > 1")
        self.scheme = scheme or WeightScheme()
        self.alpha = alpha
        self.grid_ratio = grid_ratio
        self.trunc_exponent = trunc_exponent
        self.subsample_exponent = subsample_exponent
        self._next = max(start, 2)
        self._grid_value = float(self._next)
        self._est: SpectrumEstimate | None = None

    @property
    def estimate(self) -> SpectrumEstimate | None:
        return self._est

    def update(self, acc: UStatAccumulator) -> SpectrumEstimate:
        """Return the current estimate, refreshing it when a grid point is crossed."""
        if acc.n >= self._next or self._est is None:
            self._est = estimate_spectrum(
                acc,
                self.scheme,
                trunc_exponent=self.trunc_exponent,
                subsample_exponent=self.subsample_exponent,
                alpha=self.alpha,
            )
            while self._next <= acc.n:
                self._grid_value *= self.grid_ratio
                self._next = max(self._next + 1, math.ceil(self._grid_value))
        return self._est
