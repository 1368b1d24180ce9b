"""Spectral calibration for the degenerate regime.

The centered Gram matrix K(i,j) = h(X_i, X_j) - U_n, scaled by 1/n,
estimates the eigenvalues of the kernel's integral operator.  A truncated
set of those eigenvalues, together with a significance-budget allocation
across spectral coordinates, yields the SAGE (spectrally allocated
Gaussian-chaos excursion) boundaries that make one-sided anytime-valid
inference possible when the first projection vanishes.

``estimate_spectrum`` produces a ``SpectrumEstimate`` from an accumulator
snapshot; ``sage_upper`` turns an estimate and the operator trace into the
one-sided upper boundary value.  The trace is not part of the estimate:
its plug-in diag_sum/n - U_n (``trace_estimate``) costs O(1) at any n, so
every boundary reads it at its own n, while the eigenvalues are refreshed
on a grid.  ``SpectrumMonitor`` holds the settings of an estimate
(scheme, exponents, alpha) and caches estimates between points of a
geometric monitoring grid, since a fresh eigendecomposition at every n is
prohibitively expensive.

An estimate carries one side of the spectrum.  The lower side of U is the
upper side of -U, whose kernel -h has the spectrum -lambda and the trace
-trace, so ``mirror`` builds it and ``sage_upper`` reads it with the
negated trace.  ``estimate_spectrum``, ``spectrum_from_eigenvalues`` and
``mirror`` share one builder.

scipy (ARPACK and its BLAS table, about 35 MB and 0.4-0.5 s to import) loads
at the first solve past the dense cutoff, not at import, so a
nondegenerate run without the classical baseline never loads it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

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
    "estimate_spectrum",
    "trace_estimate",
    "allocate_weights",
    "parse_weights",
    "spectrum_from_eigenvalues",
    "mirror",
    "sage_upper",
]

# the default refresh grid ratio, of the monitor and of every config that takes the default
_GRID_RATIO = 1.1
_DENSE_CUTOFF = 104  # measured dense/ARPACK crossover; dense is cheaper up to here
# fixed ARPACK start vector seed; keeps large-n estimates reproducible
_ARPACK_SEED = 0x5EED


# each kind's parameter rule: (whether a value is in range, the refusal when it is not)
_PARAM_RULES = {
    "poly": (lambda b: b > 1.0, "polynomial weights need b > 1, got {}"),
    "exp": (lambda c: c > 0.0, "exponential weights need c > 0, got {}"),
    "data": (lambda p: p == 0.0, "data weights take no parameter, got {}"),
}


@dataclass(frozen=True, order=True)
class WeightScheme:
    """Allocation of the significance budget across spectral coordinates.

    ``(kind, param)``, spelled as ``--weights``, the config and the
    sensitivity CSV spell it; ``label()`` is the flag's spelling:
      "poly"  beta_l = l^-b / zeta(b), param b > 1
      "exp"   beta_l = (1 - e^-c) e^{-c(l-1)}, param c > 0
      "data"  beta_l = max(lambda_l, 0) / (sum of positive lambdas), param 0
    A param must be finite, and beta_2 a normal float: ``exp:1e308`` is
    refused here rather than at the first refresh.  Deeper weights of a
    large finite param can still underflow (see ``_build``).
    """

    kind: str = "data"
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _PARAM_RULES:
            raise ValueError(f"unknown weight scheme {self.kind!r}")
        object.__setattr__(self, "param", float(self.param))
        in_range, refusal = _PARAM_RULES[self.kind]
        if not in_range(self.param):
            raise ValueError(refusal.format(self.param))
        if not math.isfinite(self.param):
            raise ValueError(f"weights need a finite parameter, got {self.param}")
        # beta_2 over a flat two-point spectrum, where data's is 1/2
        beta_2 = float(allocate_weights(self, (1.0, 1.0))[1])
        if not beta_2 >= sys.float_info.min:
            raise ValueError(f"{self.label()} weights underflow: beta_2 = {beta_2!r}")

    def label(self) -> str:
        """The ``--weights`` spelling, which ``parse_weights`` reads back exactly."""
        if self.kind == "data":
            return self.kind
        return f"{self.kind}:{repr(self.param).removesuffix('.0')}"


def parse_weights(label: str) -> WeightScheme:
    """The scheme whose ``label()`` is ``label``: "poly:<b>", "exp:<c>", or "data"."""
    kind, colon, tail = label.partition(":")
    try:
        param = float(tail) if colon else 0.0
    except ValueError:
        param = None
    if param is not None and kind in _PARAM_RULES and bool(colon) == (kind != "data"):
        return WeightScheme(kind, param)
    raise ValueError(f"cannot parse weight scheme {label!r}; use poly:<b>, exp:<c>, or data")


def allocate_weights(scheme: WeightScheme, eigenvalues) -> np.ndarray:
    """Per-index weights beta_l aligned with the (|.|-sorted) eigenvalue list.

    Deterministic schemes depend only on the rank l and sum to 1 over the
    infinite index set; the data-driven scheme normalizes the positive part
    of the supplied eigenvalues and needs at least one positive entry.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    idx = np.arange(1, len(lam) + 1, dtype=float)
    if scheme.kind == "poly":
        return idx ** (-scheme.param) / riemann_zeta(scheme.param)
    if scheme.kind == "exp":
        return (1.0 - math.exp(-scheme.param)) * np.exp(-scheme.param * (idx - 1.0))
    pos = np.maximum(lam, 0.0)
    total = pos.sum()
    if total <= 0.0:
        raise ValueError("data-driven weights need a positive eigenvalue")
    return pos / total


@dataclass(frozen=True)
class SpectrumEstimate:
    """Truncated signed eigenvalues of the scaled centered Gram matrix.

    ``eigenvalues`` are sorted by decreasing |value| (ties: larger signed
    value first), and ``weights`` are aligned with them.  The sums feeding
    ``sage_upper`` run over the positive eigenvalues only; g-based sums were
    evaluated at ``alpha``.  The negative side is the positive side of
    ``mirror(est, scheme)``.  ``fallback`` flags ``data`` weights that no
    positive eigenvalue defines, replaced by ``poly:2`` weights.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    alpha: float
    n_points: int
    sum_pos: float
    sum_pos_logw: float
    sum_pos_ginv2: float
    fallback: bool = False


def _build(lam: np.ndarray, scheme: WeightScheme, alpha: float, n_points: int) -> SpectrumEstimate:
    """The estimate of ``lam``, an eigenvalue list already in its index order.

    With no positive eigenvalue the sums are empty, so the upper boundary is
    -trace/n; ``data`` weights are then undefined and fall back to ``poly:2``
    (flagged).  One warning says both.  A positive eigenvalue whose alpha *
    beta_l underflows to 0 (a deep index of a large exp or poly param) has
    no boundary term, so it is refused with the scheme, l and L.
    """
    pos = lam > 0.0
    fallback = False
    if not np.any(pos):
        fallback = scheme.kind == "data"
        warnings.warn(
            "no positive eigenvalue retained; the upper boundary degenerates to -trace/n"
            + ("; data-driven weights are undefined, so polynomial b=2 weights are used"
               if fallback else ""),
            stacklevel=3,
        )
    if fallback:
        scheme = WeightScheme("poly", 2.0)
    w = allocate_weights(scheme, lam)
    lam_pos, w_pos = lam[pos], w[pos]
    with np.errstate(divide="ignore"):
        log_inv = -np.log(w_pos)
    ginv2 = 0.0
    for i in np.flatnonzero(pos):
        tail = float(alpha * w[i])
        if tail == 0.0:
            raise ValueError(f"{scheme.label()} weights underflow at index {i + 1} of "
                             f"L = {len(lam)}: alpha * beta_{i + 1} = {tail!r}")
        a = normal_mixture_tail_inv(tail)
        ginv2 += float(lam[i]) * a * a
    return SpectrumEstimate(
        eigenvalues=lam,
        weights=w,
        alpha=alpha,
        n_points=n_points,
        sum_pos=float(lam_pos.sum()),
        sum_pos_logw=float((lam_pos * log_inv).sum()),
        sum_pos_ginv2=ginv2,
        fallback=fallback,
    )


def _sort_by_abs(w: np.ndarray) -> np.ndarray:
    # descending |value|, ties broken toward the larger signed value
    return w[np.lexsort((-w, -np.abs(w)))]


def eigsh(A, *args, **kwargs):
    """``scipy.sparse.linalg.eigsh``, imported at the first call."""
    from scipy.sparse.linalg import eigsh as arpack_eigsh

    return arpack_eigsh(A, *args, **kwargs)


@functools.cache
def _blas_dsymv():
    """BLAS dsymv from scipy's Cython BLAS table, callable through ctypes.

    ``scipy.linalg.blas.dsymv`` would copy a strided matrix on every call;
    the raw routine reads it in place through ``lda``.  Resolved once, at
    the first ARPACK solve.
    """
    from scipy.linalg import cython_blas

    capsule = cython_blas.__pyx_capi__["dsymv"]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    i_p, d_p, buf = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
    proto = ctypes.CFUNCTYPE(None, ctypes.c_char_p, i_p, d_p, buf, i_p, buf, i_p, d_p, buf, i_p)
    return proto(get_pointer(capsule, get_name(capsule)))


def _dense_top_abs(tri: np.ndarray, shift: float, L: int) -> np.ndarray:
    N = tri.shape[0]
    lower = np.tri(N, dtype=bool)
    K = np.subtract(tri, shift, out=np.zeros((N, N)), where=lower)
    K /= N
    if not np.any(K):
        return np.zeros(min(L, N))
    return _sort_by_abs(np.linalg.eigvalsh(K, UPLO="L"))[:L]


def _top_abs_eigenvalues(tri: np.ndarray, shift: float, L: int) -> np.ndarray:
    """Top-L eigenvalues of (H - shift)/N by absolute value, sorted.

    The symmetric kernel matrix H is read from the lower triangle of ``tri``
    only (rows may be strided, the strictly upper part undefined).
    Subtracting the scalar shift from every entry is a rank-one update, so
    the large-N path feeds ARPACK a matrix-free operator: a BLAS dsymv on
    the triangle in place.  Only the top L are kept, so ARPACK is asked for
    k = L+1 Ritz values in a Krylov space of ncv = 2L+2 vectors, which sets
    the matvecs per restart.
    """
    N = tri.shape[0]
    if N <= _DENSE_CUTOFF:
        return _dense_top_abs(tri, shift, L)
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator

    dsymv = _blas_dsymv()
    if tri.dtype != np.float64 or tri.strides[1] != 8 or tri.strides[0] < 8 * N:
        tri = np.ascontiguousarray(tri, dtype=np.float64)  # dsymv needs unit-stride rows
    # a row-major lower triangle is the upper triangle of the Fortran-order
    # matrix with leading dimension = row stride
    n_c, lda = ctypes.c_int(N), ctypes.c_int(tri.strides[0] // 8)
    one, zero, inc = ctypes.c_double(1.0), ctypes.c_double(0.0), ctypes.c_int(1)
    a_ptr = tri.ctypes.data  # every matvec runs inside the eigsh call below, while tri lives
    inv_n = 1.0 / N

    def matvec(v):
        v = np.ascontiguousarray(v, dtype=np.float64).ravel()
        y = np.empty(N)
        dsymv(b"U", n_c, one, a_ptr, lda, v.ctypes.data, inc, zero, y.ctypes.data, inc)
        y -= shift * v.sum()
        y *= inv_n
        return y

    op = LinearOperator((N, N), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(_ARPACK_SEED).standard_normal(N)
    try:
        w = eigsh(op, k=L + 1, ncv=min(2 * L + 2, N), which="LM", v0=v0,
                  return_eigenvectors=False, tol=0)
    except (ArpackError, ArpackNoConvergence):
        return _dense_top_abs(tri, shift, L)
    return _sort_by_abs(np.asarray(w))[:L]


def estimate_spectrum(acc: UStatAccumulator, monitor: SpectrumMonitor) -> SpectrumEstimate:
    """Estimate the operator spectrum from the stream's centered Gram matrix,
    with ``monitor``'s weight scheme, exponents and alpha.

    The eigendecomposition runs over the first N points, N = ceil(n^w) when
    a subsample exponent w in (0,1) is set and N = n otherwise; the top
    L = max(1, floor(N^trunc_exponent)) eigenvalues by absolute value are
    retained.
    """
    n = acc.n
    if n < 2:
        raise ValueError(f"need at least 2 points, got n={n}")
    w = monitor.subsample_exponent
    # only a read of every row lets later pushes extend the Gram store, so a
    # subsampled store stays O(N^2) even at an n where N = n
    tri = acc.pairwise_lower(None if w is None else max(2, math.ceil(n ** w)))
    N = len(tri)
    L = max(1, math.floor(N ** monitor.trunc_exponent))
    lam = _top_abs_eigenvalues(tri, acc.ustat(), L)
    return _build(lam, monitor.scheme, monitor.alpha, N)


def trace_estimate(acc: UStatAccumulator, u: float | None = None) -> float:
    """The plug-in operator trace diag_sum/n - U_n over the whole stream: the
    trace of the scaled centered Gram matrix, at the accumulator's own n.
    ``u`` is U_n, when the caller has already read it."""
    return acc.diag_sum / acc.n - (acc.ustat() if u is None else u)


def spectrum_from_eigenvalues(
    eigenvalues, scheme: WeightScheme | None = None, alpha: float = 0.05
) -> SpectrumEstimate:
    """Build an estimate directly from known eigenvalues (oracle/simulation use)."""
    lam = _sort_by_abs(np.asarray(eigenvalues, dtype=float))
    return _build(lam, scheme or WeightScheme("poly", 2.0), alpha, len(lam))


def mirror(est: SpectrumEstimate, scheme: WeightScheme) -> SpectrumEstimate:
    """The estimate of -lambda, the spectrum of -h, built with ``scheme``.

    The eigenvalues keep their index order (an exact +-tie is not re-sorted,
    so deterministic weights stay on their indices), so
    ``sage_upper(n, mirror(est, scheme), p, -trace)`` is the SAGE bound of -U.
    """
    return _build(-est.eigenvalues, scheme, est.alpha, est.n_points)


def sage_upper(n: int, est: SpectrumEstimate, p: BoundaryParams, trace: float) -> float:
    """One-sided upper SAGE boundary at time n >= m of a kernel whose operator
    has the spectrum ``est`` and the trace ``trace``; GM needs p.alpha ==
    est.alpha."""
    if n < p.m:
        raise ValueError(f"n={n} is before the cold start m={p.m}")
    if p.kind == "lil":
        c = p.lil_constants[0]
        scale = c * c / (2.0 * n)
        stitched = lil_stitch_term(n, p)
        return scale * (stitched * est.sum_pos + est.sum_pos_logw) - trace / n
    if p.alpha != est.alpha:
        raise ValueError(f"boundary alpha {p.alpha} differs from the estimate's {est.alpha}")
    return (est.sum_pos * math.log(n / p.m) + est.sum_pos_ginv2 - trace) / n


class SpectrumMonitor:
    """Recompute the spectrum only on a geometric grid of stream lengths.

    The grid starts at the n of the first ``update``, which is the caller's
    cold start, and grows by ``grid_ratio``.  Between grid points the latest
    estimate is reused; boundaries stay asymptotically valid because the
    estimates are consistent: the estimate read at n was computed at n /
    grid_ratio or later.  The default ratio 1.1 refreshes 25 times from 400
    to 4000 rows (48 at 1.05); on null mmd-gauss streams the bound it gives
    sits within about 1 % of a fresh solve's at the 90th percentile, inside
    the estimator's own spread across streams (acceptance test AC-11).
    Every setting is checked here, before the first update.  Single writer:
    ``update`` must not race with itself.
    """

    def __init__(
        self,
        scheme: WeightScheme | None = None,
        alpha: float = 0.05,
        grid_ratio: float = _GRID_RATIO,
        trunc_exponent: float = 0.25,
        subsample_exponent: float | None = None,
    ):
        if not 1.0 < grid_ratio < math.inf:
            raise ValueError(f"grid ratio must be finite and > 1, got {grid_ratio}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {alpha}")
        if not 0.0 < trunc_exponent < 0.5:
            raise ValueError(f"trunc_exponent must lie in (0, 1/2), got {trunc_exponent}")
        if subsample_exponent is not None and not 0.0 < subsample_exponent < 1.0:
            raise ValueError(f"subsample_exponent must lie in (0, 1), got {subsample_exponent}")
        self.scheme = scheme or WeightScheme()
        self.alpha = alpha
        self.grid_ratio = grid_ratio
        self.trunc_exponent = trunc_exponent
        self.subsample_exponent = subsample_exponent
        self._next = 0  # the first update refreshes, and its n starts the grid
        self._grid_value = 0.0
        self._est: SpectrumEstimate | None = None

    def update(self, acc: UStatAccumulator) -> SpectrumEstimate:
        """Return the current estimate, refreshing it when a grid point is crossed."""
        if acc.n >= self._next:
            if self._est is None:
                self._grid_value = float(acc.n)
            self._est = estimate_spectrum(acc, self)
            while self._next <= acc.n:
                self._grid_value *= self.grid_ratio
                self._next = max(self._next + 1, math.ceil(self._grid_value))
        return self._est
