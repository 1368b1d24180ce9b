"""Symmetric degree-two kernels with closed-form population targets.

Four kernels are shipped, each estimating a classical functional
theta = E h(X1, X2):

* ``variance``        h(x,y) = (x-y)^2 / 2          (scalar inputs)
* ``gmd``             h(x,y) = |x-y|                 (scalar inputs)
* ``spatial-kendall`` h(x,y) = (x1-y1)(x2-y2)/|x-y|^2 * 1{x != y}   (2-vectors)
* ``mmd-gauss``       paired two-sample MMD^2 kernel with Gaussian base
                       k(u,w) = exp(-|u-w|^2/2)      (pairs (x, y))

Each kernel is one module-level formula ``h(a, b)``, which also takes two
single points, and from which ``Kernel`` derives ``cross`` (one point
against a stack of points, the per-push loop).  A push reads h(x, x) from
its ``cross`` row, which ends with x itself; the Gram store fills a block
of rows against its leading columns with ``h`` broadcast.  The contract on
h:

* it broadcasts over leading axes; a 2-D point keeps its two coordinates on
  the last axis, so ``h(pts[:, None], pts[None, :])`` is the n x n matrix;
* it is literally symmetric: swapping a and b gives bit-identical results,
  except that spatial-kendall's zeros off the diagonal may flip sign;
* it returns a fresh array (or scalar), never a view of an input, because
  ``UStatAccumulator.push`` overwrites the result of ``cross``.

Where the target theta admits a closed form under the shipped sampling
distributions, ``true_theta`` returns it, and otherwise None; the coverage
experiments score their intervals against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistParams",
    "Kernel",
    "KERNEL_IDS",
    "get_kernel",
    "true_theta",
]


@dataclass(frozen=True)
class DistParams:
    """Sampling distribution for simulations and closed-form lookups.

    family: "gaussian" (mean/variance), "t10", "laplace" (unit variance,
    density exp(-sqrt(2)|x|)/sqrt(2)), or "elliptical" (bivariate, shape
    correlation rho, tail mixer one of "gaussian"/"t10"/"laplace").
    ``shift`` >= 0 is the two-sample mean shift used only by the MMD kernel.
    Every rule on the law is stated here; the samplers check none again.
    """

    family: str = "gaussian"
    mean: float = 0.0
    variance: float = 1.0
    rho: float = 0.6
    mixer: str = "gaussian"
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("gaussian", "t10", "laplace", "elliptical"):
            raise ValueError(f"unknown family {self.family!r}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not 0.0 < self.variance < math.inf:
            raise ValueError(f"variance must be finite and > 0, got {self.variance}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [-1,1]")
        if self.mixer not in ("gaussian", "t10", "laplace"):
            raise ValueError(f"unknown mixer {self.mixer!r}")
        if not 0.0 <= self.shift < math.inf:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")


class Kernel:
    """A symmetric degree-two kernel h and its per-push surface ``cross``.

    ``point_dim`` is 1 for scalar observations, 2 for 2-vectors (spatial
    Kendall) and pairs (x, y) of a two-sample stream (MMD).  ``h(a, b)`` is
    the one formula.
    """

    def __init__(self, kernel_id: str, point_dim: int, h):
        self.id = kernel_id
        self.point_dim = point_dim
        self.h = h

    def cross(self, pts: np.ndarray, x) -> np.ndarray:
        """h(X_j, x) for every row X_j of pts; the O(n) inner loop of a push.

        Unchecked: ``push`` has already validated x.  Returns a fresh array,
        which the caller may overwrite.
        """
        return self.h(pts, x)


def _variance(a, b):
    d = a - b
    return 0.5 * d * d


def _gmd(a, b):
    return np.abs(a - b)


def _spatial_kendall(a, b):
    # the indicator uses exact float equality: ties are measure-zero under
    # continuous laws and only duplicated inputs hit the guard
    d = a - b
    d0 = d[..., 0]
    d1 = d[..., 1]
    num = d0 * d1
    den = d0 * d0 + d1 * d1
    out = np.zeros(np.shape(num))
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def _gauss(u, w):
    d = u - w
    return np.exp(-0.5 * d * d)


def _mmd_gauss(a, b):
    # base kernel bandwidth fixed at 1; grouping (kxx+kyy)-(kxy+kyx) keeps
    # the float result bit-identical under argument swap
    x, y = a[..., 0], a[..., 1]
    u, w = b[..., 0], b[..., 1]
    return (_gauss(x, u) + _gauss(y, w)) - (_gauss(x, w) + _gauss(y, u))


_KERNELS: dict[str, Kernel] = {
    k.id: k
    for k in (
        Kernel("variance", 1, _variance),
        Kernel("gmd", 1, _gmd),
        Kernel("spatial-kendall", 2, _spatial_kendall),
        Kernel("mmd-gauss", 2, _mmd_gauss),
    )
}

KERNEL_IDS = tuple(_KERNELS)


def get_kernel(kernel_id: str) -> Kernel:
    """Look up a kernel by its id string."""
    try:
        return _KERNELS[kernel_id]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel_id!r}; available: {list(_KERNELS)}"
        ) from None


def true_theta(kernel_id: str, d: DistParams) -> float | None:
    """Closed-form theta = E h(X1, X2) where available, else None.

    Variance: the distribution's variance.  GMD: 2*sqrt(v/pi) for Gaussian,
    3/(2 sqrt 2) for the unit-variance Laplace.  Spatial Kendall under an
    elliptical law: (1 - sqrt(1-rho^2))/(2 rho), extended to 0 at rho=0 by
    continuity.  MMD: 0 whenever shift=0 (P=Q); for Gaussian data the
    shifted form (2/sqrt(1+2v)) (1 - exp(-shift^2/(2(1+2v)))).
    """
    get_kernel(kernel_id)
    if kernel_id == "variance":
        if d.family == "gaussian":
            return d.variance
        if d.family == "t10":
            return 10.0 / 8.0
        if d.family == "laplace":
            return 1.0
        return None
    if kernel_id == "gmd":
        if d.family == "gaussian":
            return 2.0 * math.sqrt(d.variance / math.pi)
        if d.family == "laplace":
            return 3.0 / (2.0 * math.sqrt(2.0))
        return None
    if kernel_id == "spatial-kendall":
        if d.family != "elliptical":
            return None
        if d.rho == 0.0:
            return 0.0
        return (1.0 - math.sqrt(1.0 - d.rho * d.rho)) / (2.0 * d.rho)
    # mmd-gauss
    if d.shift == 0.0:
        return 0.0
    if d.family == "gaussian":
        w = 1.0 + 2.0 * d.variance
        return (2.0 / math.sqrt(w)) * (1.0 - math.exp(-d.shift * d.shift / (2.0 * w)))
    return None
