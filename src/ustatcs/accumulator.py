"""Streaming maintenance of a degree-two U-statistic.

``UStatAccumulator`` ingests one observation at a time at O(n) kernel
evaluations per push and exposes, at any moment,

* the U-statistic        U_n = 2 * pair_sum / (n (n-1)),
* the leave-one-out (jackknife) variance estimate of the first projection,
  read in O(1) from the centered second moment of the row sums,
* the per-point row sums r_i = sum_{j != i} h(X_i, X_j),
* the kernel diagonal sum, needed by the spectral trace estimator.

All points are retained (the degenerate-regime Gram matrix needs them).
Pair, row and diagonal sums use compensated (Kahan) summation.  That is the
only update path: for a nonnegative kernel each sum stays within 2u
(u = eps/2, relative) of the exact sum of its terms at any n, which a
16384-push test pins, so no periodic O(n^2) correction pass is run.  The
second moment of the row sums is compensated likewise.

An accumulator is single-writer: pushes must be sequential.  Read-only
queries may run concurrently with each other, but not with a push.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import Kernel, get_kernel

__all__ = ["UStatAccumulator", "batch_ustat"]


def batch_ustat(points, kernel: str | Kernel) -> tuple[float, np.ndarray, float]:
    """Compute (pair_sum, row_sums, diag_sum) from scratch by a full pass.

    O(n^2) kernel evaluations, one ``cross`` row per point, so memory stays
    O(n).  Serves as the independent oracle that the incremental path is
    tested against.
    """
    k = get_kernel(kernel) if isinstance(kernel, str) else kernel
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    row_sums = np.empty(n)
    diag = np.empty(n)
    for i in range(n):
        row = k.cross(pts, pts[i])
        diag[i] = row[i]
        row_sums[i] = row.sum() - row[i]
    pair_sum = 0.5 * math.fsum(row_sums)
    return pair_sum, row_sums, math.fsum(diag)


class UStatAccumulator:
    """Incremental degree-two U-statistic over a growing stream.

    Parameters
    ----------
    kernel : kernel id string or Kernel instance
    keep_pairwise : also store the raw kernel matrix h(X_i, X_j) as rows
        arrive; costs O(n^2) memory but makes Gram extraction free for the
        degenerate (spectral) path.  Only the lower triangle is stored: row
        k of a cap x cap buffer holds h(X_k, X_j) for j <= k, written as one
        contiguous row per push, and the spectral solve reads that triangle
        in place (``pairwise_lower``).
    """

    def __init__(self, kernel: str | Kernel, keep_pairwise: bool = False):
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self._n = 0
        cap = 256
        dim = self.kernel.point_dim
        self._pts = np.empty(cap if dim == 1 else (cap, dim))
        self._rs = np.zeros(cap)
        self._rs_c = np.zeros(cap)  # row-sum compensation terms
        self._tmp = np.empty(cap)  # scratch for the row-sum update
        self._H = np.empty((cap, cap)) if keep_pairwise else None
        self._pair_sum = 0.0
        self._pair_c = 0.0
        self._diag_sum = 0.0
        self._diag_c = 0.0
        self._m2 = 0.0  # sum_i (r_i - mean r)^2
        self._m2_c = 0.0

    # -- state views ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self._n]

    @property
    def row_sums(self) -> np.ndarray:
        """A view of the row sums, valid until the next push."""
        return self._rs[: self._n]

    @property
    def pair_sum(self) -> float:
        return self._pair_sum

    @property
    def diag_sum(self) -> float:
        return self._diag_sum

    def pairwise_lower(self, upto: int | None = None) -> np.ndarray:
        """m x m array whose lower triangle (diagonal included) is the raw
        kernel matrix over the first m = ``upto`` points (default: all).

        With ``keep_pairwise`` this is a view into the stored buffer, with row
        stride = capacity, and its strictly upper part is undefined; without
        it, a freshly computed full matrix.  Readers must touch only the
        lower triangle.
        """
        m = self._n if upto is None else min(upto, self._n)
        if self._H is not None:
            return self._H[:m, :m]
        return self.kernel.pairwise(self.points[:m])

    # -- updates -----------------------------------------------------------

    def _grow(self) -> None:
        cap = 2 * len(self._rs)
        dim = self.kernel.point_dim
        new_pts = np.empty(cap if dim == 1 else (cap, dim))
        new_pts[: self._n] = self._pts[: self._n]
        self._pts = new_pts
        self._tmp = np.empty(cap)
        for name in ("_rs", "_rs_c"):
            new = np.zeros(cap)
            new[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, new)
        if self._H is not None:
            new_h = np.empty((cap, cap))
            for i in range(self._n):
                new_h[i, : i + 1] = self._H[i, : i + 1]
            self._H = new_h

    def push(self, x) -> None:
        """Ingest one observation; O(n) kernel evaluations.

        Raises ValueError, before any state changes, on a nan or infinite
        coordinate and on a finite one whose kernel values overflow the pair
        or diagonal sum or the row sums' second moment.  A finite pair sum
        bounds every row sum for the unbounded kernels, which are
        nonnegative.

        With r the row sums over the k old points, R their mean, h the cross
        row of the new point, s = sum(h) and d = R' - R the shift of the
        mean, the second moment grows by
        2 (r.h - R s) + (h.h - 2 d s + k d^2) + (s - R')^2.
        """
        k = self._n
        if self.kernel.point_dim == 1:
            x = float(x)
            finite = math.isfinite(x)
        else:
            x = np.asarray(x, dtype=float)
            if x.shape != (2,):
                raise ValueError(f"kernel {self.kernel.id!r} needs 2-vector points")
            finite = math.isfinite(x[0]) and math.isfinite(x[1])
        if not finite:
            # one nan or inf would poison every later U_n and interval
            raise ValueError(f"non-finite observation {x!r}")
        if k > 0:
            hvec = self.kernel.cross(self._pts[:k], x)
            s_new = float(np.sum(hvec))
            pair = _kahan_add(self._pair_sum, self._pair_c, s_new)
            r_bar = 2.0 * self._pair_sum / k
            d = (2.0 * s_new - r_bar) / (k + 1)
            rh = _dot(self._rs[:k], hvec)
            hh = _dot(hvec, hvec)
            grow = (2.0 * (rh - r_bar * s_new) + (hh - 2.0 * d * s_new + k * d * d)
                    + (s_new - r_bar - d) ** 2)
            m2 = _kahan_add(self._m2, self._m2_c, grow)
        else:
            pair = (self._pair_sum, self._pair_c)
            m2 = (self._m2, self._m2_c)
        hdiag = self.kernel.diag_value(x)
        diag = _kahan_add(self._diag_sum, self._diag_c, hdiag)
        if not (math.isfinite(pair[0]) and math.isfinite(diag[0]) and math.isfinite(m2[0])):
            raise ValueError(f"observation {x!r} makes a kernel sum non-finite")
        if k == len(self._rs):
            self._grow()
        self._pair_sum, self._pair_c = pair
        self._diag_sum, self._diag_c = diag
        self._m2, self._m2_c = m2
        if k > 0:
            if self._H is not None:
                self._H[k, :k] = hvec
            # compensated update of the existing row sums into the scratch
            # buffer, which then becomes the row-sum buffer: fresh O(n)
            # temporaries on every push make glibc's allocator trim and
            # re-fault the heap once they pass 128 KiB (n > 16384)
            rs, c = self._rs[:k], self._rs_c[:k]
            y = np.subtract(hvec, c, out=hvec)
            t = np.add(rs, y, out=self._tmp[:k])
            np.subtract(t, rs, out=c)
            c -= y
            self._rs, self._tmp = self._tmp, self._rs
            self._rs[k] = s_new
            self._rs_c[k] = 0.0
        else:
            self._rs[0] = 0.0
            self._rs_c[0] = 0.0
        if self._H is not None:
            self._H[k, k] = hdiag
        self._pts[k] = x
        self._n += 1

    def extend(self, xs) -> None:
        for x in np.asarray(xs, dtype=float):
            self.push(x)

    # -- statistics ---------------------------------------------------------

    def ustat(self) -> float:
        """U_n = binom(n,2)^{-1} sum_{i<j} h(X_i, X_j)."""
        n = self._n
        if n < 2:
            raise ValueError(f"U-statistic undefined for n={n} < 2")
        return 2.0 * self._pair_sum / (n * (n - 1))

    def jackknife_sigma2(self) -> float:
        """Leave-one-out variance estimate of the first projection.

        Equals mean_i (r_i/(n-1) - U_n)^2 = M2 / (n (n-1)^2), where M2, the
        centered second moment of the row sums, is carried through ``push``;
        O(1).  Rounding can take M2 below zero when the first projection is
        (nearly) constant, so it is clamped at 0.
        """
        n = self._n
        if n < 2:
            raise ValueError(f"variance estimate undefined for n={n} < 2")
        return max(self._m2, 0.0) / (n * (n - 1) ** 2)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b on the calling thread.

    OpenBLAS's ddot (``np.dot``) is the fastest reduction up to 10 000
    elements, but hands longer vectors to a second thread, and waking it on
    every push costs more than the product: 20 000 gmd pushes took 1.57 s
    with ``np.dot`` at every length, 1.03 s with ``np.einsum`` (which never
    leaves the calling thread) and 0.92 s with this split.
    """
    if len(a) <= 10_000:
        return float(np.dot(a, b))
    return float(np.einsum("i,i->", a, b))


def _kahan_add(total: float, comp: float, value: float) -> tuple[float, float]:
    y = value - comp
    t = total + y
    return t, (t - total) - y
