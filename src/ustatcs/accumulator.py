"""Streaming maintenance of a degree-two U-statistic.

``UStatAccumulator`` ingests one observation at a time at O(n) kernel
evaluations per push and exposes, at any moment,

* the U-statistic        U_n = 2 * pair_sum / (n (n-1)),
* the leave-one-out (jackknife) variance estimate of the first projection,
  read in O(1) from the centered second moment of the row sums,
* the per-point row sums r_i = sum_{j != i} h(X_i, X_j),
* the kernel diagonal sum, needed by the spectral trace estimator.

All points are retained (the degenerate-regime Gram matrix needs them);
the raw kernel matrix is stored only as far as ``pairwise_lower`` has been
asked for it (see ``UStatAccumulator``).  Pair, row and diagonal sums use
compensated (Kahan) summation.  That is the only update path: for a
nonnegative kernel each sum stays within 2u (u = eps/2, relative) of the
exact sum of its terms at any n, which a 16384-push test pins, so no
periodic O(n^2) correction pass is run.  The second moment of the row sums
is compensated likewise.  The row sums and their second moment are carried
only from their first read (see ``UStatAccumulator``), so a stream that never
reads sigma^2 does not pay for them.

An accumulator is single-writer: pushes, ``pairwise_lower`` calls (which may
extend the store) and the first read of ``row_sums`` or ``jackknife_sigma2``
(which replays the row sums) must be sequential.  The other queries may run
concurrently with each other, but not with a write.
"""

from __future__ import annotations

import math
import mmap
import os

import numpy as np

from .kernels import Kernel, get_kernel

__all__ = ["UStatAccumulator", "batch_ustat"]

_FILL_BLOCK = 32  # rows per kernel call when a read fills the store
# M2 and every intermediate of its update at push k are at most
# 46 k^2 sum(h^2) in size (Cauchy-Schwarz), so while (k+1)^3 sum(h^2) stays
# below this bound none comes near overflow
_M2_SAFE = 1e300
# bytes of physical memory, read once: a Gram store may not outgrow it
_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def batch_ustat(points, kernel: str | Kernel) -> tuple[float, np.ndarray, float]:
    """Compute (pair_sum, row_sums, diag_sum) from scratch by a full pass.

    O(n^2) kernel evaluations, one ``cross`` row per point, so memory stays
    O(n).  Serves as the independent oracle that the incremental path is
    tested against.  It is a test oracle, kept in the package only because
    the benchmark's final-center check imports it (``bench/worker.py``); it
    joins ``tests/oracles.py`` in the next change to the benchmark.
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

    A 2-D kernel's point buffer is column-major, so each coordinate that a
    kernel formula reads is contiguous.  Push k writes x into row k, past n,
    and evaluates one cross row h(X_j, x), j <= k, whose entry k is h(x, x).

    The row sums and their centered second moment M2, which give sigma^2,
    are carried only from the first read of ``row_sums`` or
    ``jackknife_sigma2``.  Before it a push updates n, the pair and diagonal
    sums and the store, plus a running sum of h^2 that bounds M2.  The first
    read replays the sigma^2 step of every earlier push, in order and with
    the same operations, so each value is bit-equal to carrying it all along;
    it costs one O(n^2) pass, and those reads write.  A push whose M2 update
    the bound cannot clear starts carrying at once, so the overflow check
    below is exact.

    The raw kernel matrix h(X_i, X_j) is kept in one store: the lower
    triangle of the leading block that ``pairwise_lower`` has been asked for.
    Row k of a cap x cap buffer (cap a power of two from 256) holds
    h(X_k, X_j) for j <= k.  A stream that is never read stores nothing.  A
    read fills the rows it lacks, in 32-row kernel blocks.  After a read of
    every row (``upto=None``) each push appends its cross row; after a read
    of a leading block N, pushes leave the store alone, so a subsampled
    spectrum stores O(N^2), not O(n^2).  A growth whose buffer would exceed
    physical memory raises MemoryError before it allocates; a read sizes its
    buffer to exactly the rows it reads when the power of two would not fit.

    The buffer is a private anonymous mapping with no huge pages, so only
    the lower triangle is resident: about half of cap x cap doubles.  A
    growth copies the filled triangle, drops the old buffer, then writes
    zeros into the lower part of every later row, so the row a push writes
    is already resident and no push takes a page fault.  ``clear`` keeps
    the buffer, so the replications of one experiment share a store.
    """

    def __init__(self, kernel: str | Kernel):
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self._H = np.empty((0, 0))  # the Gram store; rows [0, _h_rows) are filled
        self.clear()

    def clear(self) -> None:
        """Forget the stream, but keep the Gram store's buffer.

        The accumulator is then as freshly built, except that a later stream
        fills the store in place up to the kept capacity, with no growth and
        no page faults.  Views from ``pairwise_lower`` become invalid.  A
        ``Monitor`` or ``SpectrumMonitor`` that read the old stream holds its
        state, so a cleared stream needs fresh ones (a ``ChiSquareTable`` is
        cleared with its own ``clear``).
        """
        cap = 256
        dim = self.kernel.point_dim
        self._n = 0
        self._pts = np.empty(cap if dim == 1 else (cap, dim), order="F")
        self._rs = np.zeros(cap)
        self._rs_c = np.zeros(cap)  # row-sum compensation terms
        self._tmp = np.empty(cap)  # scratch for the row-sum update
        self._h_rows = 0
        self._h_follows = False  # pushes append rows: the store holds every row
        self._pair_sum = 0.0
        self._pair_c = 0.0
        self._diag_sum = 0.0
        self._diag_c = 0.0
        self._m2 = 0.0  # sum_i (r_i - mean r)^2
        self._m2_c = 0.0
        self._carries = False  # row sums and M2 are current
        self._h2 = 0.0  # sum of h^2 over the pushes, until carrying starts

    # -- state views ------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def points(self) -> np.ndarray:
        return self._pts[: self._n]

    @property
    def row_sums(self) -> np.ndarray:
        """A view of the row sums, valid until the next push.

        The first read writes (it replays the row sums, see the class), so
        the single-writer rule covers it.
        """
        self._replay()
        return self._rs[: self._n]

    @property
    def pair_sum(self) -> float:
        return self._pair_sum

    @property
    def diag_sum(self) -> float:
        return self._diag_sum

    def pairwise_lower(self, upto: int | None = None) -> np.ndarray:
        """m x m view of the store whose lower triangle (diagonal included) is
        the raw kernel matrix over the first m = ``upto`` points (default:
        all).

        It writes, so the single-writer rule covers it: it fills the rows the
        store lacks, and a call with ``upto=None`` makes every later push
        extend the store.  The view has row stride = capacity and an
        undefined strictly upper part, whose pages may not be resident, so
        readers must touch only the lower triangle; it is valid until the
        next push, ``pairwise_lower`` call or ``clear``.
        """
        m = self._n if upto is None else min(upto, self._n)
        if m > self._h_rows:
            if m > len(self._H):
                self._reserve(m, exact=True)
            pts = self._pts
            for r0 in range(self._h_rows, m, _FILL_BLOCK):
                r1 = min(r0 + _FILL_BLOCK, m)
                self._H[r0:r1, :r1] = self.kernel.h(pts[r0:r1, None], pts[None, :r1])
            self._h_rows = m
        self._h_follows = self._h_follows or upto is None
        return self._H[:m, :m]

    # -- updates -----------------------------------------------------------

    def _reserve(self, rows: int, exact: bool = False) -> None:
        """Grow the store to the power-of-two capacity (from 256) that holds
        ``rows`` rows, copying its filled triangle, then touch the lower part
        of every later row, so that no push takes a page fault.  If
        that buffer would exceed physical memory, a read (``exact``) takes
        exactly ``rows`` rows instead, and a push growth raises MemoryError;
        both check before allocating."""
        cap = 256
        while cap < rows:
            cap *= 2
        if exact and cap * cap * 8 > _PHYSICAL_MEMORY:
            cap = rows
        if cap * cap * 8 > _PHYSICAL_MEMORY:
            raise MemoryError(
                f"the Gram store would grow to {cap} x {cap} doubles "
                f"({cap * cap * 8 / 1e9:.1f} GB), more than the "
                f"{_PHYSICAL_MEMORY / 1e9:.1f} GB of physical memory"
            )
        new_h = _unbacked_square(cap)
        for i in range(self._h_rows):
            new_h[i, : i + 1] = self._H[i, : i + 1]
        self._H = new_h  # drops the old store before the new rows become resident
        for i in range(self._h_rows, cap):
            new_h[i, : i + 1] = 0.0

    def _grow(self) -> None:
        cap = 2 * len(self._rs)
        dim = self.kernel.point_dim
        new_pts = np.empty(cap if dim == 1 else (cap, dim), order="F")
        new_pts[: self._n] = self._pts[: self._n]
        self._pts = new_pts
        self._tmp = np.empty(cap)
        for name in ("_rs", "_rs_c"):
            new = np.zeros(cap)
            new[: self._n] = getattr(self, name)[: self._n]
            setattr(self, name, new)

    def push(self, x) -> None:
        """Ingest one observation: one ``cross`` row of n + 1 kernel values.

        Raises ValueError on a point whose shape the kernel does not take (a
        scalar kernel's point is a number, a 2-D kernel's a 2-vector), on a
        nan or infinite coordinate and on a finite one whose kernel values
        overflow the pair or diagonal sum or the row sums' second moment.  A
        finite pair sum bounds every row sum for the unbounded kernels, which
        are nonnegative.  Raises MemoryError when the Gram store follows the
        stream and cannot grow.  Before either refusal only capacity may
        change: n, every sum, the row sums, ``points`` and the filled store
        are as they were.
        """
        k = self._n
        if self.kernel.point_dim == 1:
            try:
                x = float(x)
            except TypeError:  # an array of one or more dimensions, a tuple, None
                raise ValueError(
                    f"kernel {self.kernel.id!r} needs scalar points, got {x!r}"
                ) from None
            finite = math.isfinite(x)
        else:
            x = np.asarray(x, dtype=float)
            if x.shape != (2,):
                raise ValueError(f"kernel {self.kernel.id!r} needs 2-vector points")
            finite = math.isfinite(x[0]) and math.isfinite(x[1])
        if not finite:
            # one nan or inf would poison every later U_n and interval
            raise ValueError(f"non-finite observation {x!r}")
        if k == len(self._rs):
            self._grow()
        # row k is past n, so x stays invisible until n += 1
        self._pts[k] = x
        row = self.kernel.cross(self._pts[: k + 1], x)
        hvec = row[:k]
        m2 = (self._m2, self._m2_c)
        if k > 0:
            s_new = float(hvec.sum())
            pair = _kahan_add(self._pair_sum, self._pair_c, s_new)
            if not self._carries:
                h2 = self._h2 + _dot(hvec, hvec)
                if not h2 * (k + 1) ** 3 < _M2_SAFE:  # also when h2 is inf or nan
                    self._replay()
            if self._carries:
                m2 = self._m2_after(k, hvec, s_new, self._pair_sum)
        else:
            pair = (self._pair_sum, self._pair_c)
        diag = _kahan_add(self._diag_sum, self._diag_c, float(row[k]))
        if not (math.isfinite(pair[0]) and math.isfinite(diag[0]) and math.isfinite(m2[0])):
            raise ValueError(f"observation {x!r} makes a kernel sum non-finite")
        if self._h_follows:
            if k == len(self._H):
                self._reserve(k + 1)
            self._H[k, : k + 1] = row  # before _add_row overwrites hvec
            self._h_rows = k + 1
        self._pair_sum, self._pair_c = pair
        self._diag_sum, self._diag_c = diag
        if k == 0:
            self._rs[0] = 0.0
            self._rs_c[0] = 0.0
        elif self._carries:
            self._add_row(k, hvec, s_new, m2)
        else:
            self._h2 = h2
        self._n += 1

    # -- the sigma^2 step: _m2_after, then _add_row, from push and _replay --

    def _m2_after(self, k: int, hvec: np.ndarray, s_new: float,
                  pair_sum: float) -> tuple[float, float]:
        """M2 and its compensation after the push of point k (0-based), whose
        cross row is ``hvec``, with sum ``s_new``, onto a pair sum
        ``pair_sum``; reads only.

        With r the row sums over the k old points, R their mean, s = sum(h)
        and d = R' - R the shift of the mean, M2 grows by
        2 (r.h - R s) + (h.h - 2 d s + k d^2) + (s - R')^2.
        """
        r_bar = 2.0 * pair_sum / k
        d = (2.0 * s_new - r_bar) / (k + 1)
        rh = _dot(self._rs[:k], hvec)
        hh = _dot(hvec, hvec)
        grow = (2.0 * (rh - r_bar * s_new) + (hh - 2.0 * d * s_new + k * d * d)
                + (s_new - r_bar - d) ** 2)
        return _kahan_add(self._m2, self._m2_c, grow)

    def _add_row(self, k: int, hvec: np.ndarray, s_new: float,
                 m2: tuple[float, float]) -> None:
        """Commit the sigma^2 step of point k: M2 := ``m2``, and the
        compensated row-sum update, which overwrites ``hvec``."""
        self._m2, self._m2_c = m2
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

    def _replay(self) -> None:
        """Start carrying sigma^2: run the sigma^2 step of points 1..n-1 in
        order, on the cross rows and pair sums their pushes saw, so the row
        sums and M2 are bit-equal to carrying them all along.  O(n^2) once;
        a no-op once carrying."""
        if self._carries:
            return
        pts = self._pts
        pair = (0.0, 0.0)
        for k in range(1, self._n):
            x = float(pts[k]) if self.kernel.point_dim == 1 else pts[k]
            hvec = self.kernel.cross(pts[:k], x)
            s_new = float(hvec.sum())
            self._add_row(k, hvec, s_new, self._m2_after(k, hvec, s_new, pair[0]))
            pair = _kahan_add(pair[0], pair[1], s_new)
        self._carries = True

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
        O(1).  The first read writes: it replays M2 (O(n^2) once, see the
        class), so the single-writer rule covers it.  Rounding can take M2
        below zero when the first projection is (nearly) constant, so it is
        clamped at 0.
        """
        n = self._n
        if n < 2:
            raise ValueError(f"variance estimate undefined for n={n} < 2")
        self._replay()
        return max(self._m2, 0.0) / (n * (n - 1) ** 2)


def _unbacked_square(cap: int) -> np.ndarray:
    """A cap x cap float64 array on a private anonymous mapping, of which
    only the pages written become resident.

    numpy marks a buffer this large for transparent huge pages, and a 2 MB
    page would make the unwritten upper part of 64 rows of a 4096-row store
    resident too, so the mapping asks for none where ``madvise`` can say so.
    A mapping the kernel refuses (ENOMEM) is a MemoryError, as it is from
    ``np.empty``.
    """
    try:
        buf = mmap.mmap(-1, cap * cap * 8, flags=mmap.MAP_PRIVATE)
    except OSError as exc:
        raise MemoryError(f"cannot map a {cap} x {cap} Gram store: {exc}") from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        try:
            buf.madvise(mmap.MADV_NOHUGEPAGE)
        except OSError:  # EINVAL from a kernel built without huge pages: none to refuse
            pass
    return np.frombuffer(buf, dtype=np.float64).reshape(cap, cap)


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
