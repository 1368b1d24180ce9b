"""Time-uniform boundaries for running means of standard Gaussians.

Two families are provided, both valid simultaneously over all n >= m:

* ``lil_boundary`` -- an epoch-stitched boundary shrinking at the
  law-of-the-iterated-logarithm rate sqrt(loglog n / n).
* ``mixture_boundary`` -- Robbins' normal-mixture boundary shrinking at
  sqrt(log n / n), often tighter at moderate n.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "BoundaryParams",
    "gaussian_boundary",
    "lil_boundary",
    "mixture_boundary",
    "normal_mixture_tail",
    "normal_mixture_tail_inv",
    "riemann_zeta",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# B_{2j} / (2j)! for the Euler-Maclaurin tail of the zeta series.
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    7.0 / 523069747200.0,
    -3617.0 / 10670622842880000.0,
)


@dataclass(frozen=True)
class BoundaryParams:
    """Parameters fixing a boundary: level, cold start, stitching knobs.

    ``kind`` selects the family ("lil" or "gm"); the mixture boundary
    ignores ``eta`` and ``s``.  Defaults (eta=2.0, s=1.4) follow common
    stitched-boundary practice.
    """

    alpha: float
    m: int
    eta: float = 2.0
    s: float = 1.4
    kind: str = "lil"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.eta <= 1.0:
            raise ValueError(f"eta must be > 1, got {self.eta}")
        if self.s <= 1.0:
            raise ValueError(f"s must be > 1, got {self.s}")
        if self.kind not in ("lil", "gm"):
            raise ValueError(f"kind must be 'lil' or 'gm', got {self.kind!r}")

    @cached_property
    def lil_constants(self) -> tuple[float, float]:
        """The n-free parts of the stitched boundary, computed once per instance
        (an lru_cache keyed on the params cost more to hash than it saved):
        eta^(1/4) + eta^(-1/4), and log(zeta(s) / (alpha (log eta)^s))."""
        tail = math.log(riemann_zeta(self.s) / (self.alpha * math.log(self.eta) ** self.s))
        return self.eta ** 0.25 + self.eta ** -0.25, tail


@lru_cache(maxsize=256)
def riemann_zeta(s: float) -> float:
    """Riemann zeta for real s > 1, via direct series plus Euler-Maclaurin tail.

    Relative error well below 1e-10 on the range used here (s > 1).
    """
    if s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    n_direct = 20
    out = math.fsum(k ** (-s) for k in range(1, n_direct))
    out += n_direct ** (1.0 - s) / (s - 1.0)
    out += 0.5 * n_direct ** (-s)
    # tail: sum_j B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{-s-2j+1}
    rising = s
    power = n_direct ** (-s - 1.0)
    inv_n2 = 1.0 / (n_direct * n_direct)
    for j, coeff in enumerate(_EM_COEFFS):
        out += coeff * rising * power
        # extend rising factorial by two and shift the power by N^-2
        k = 2 * j + 1
        rising *= (s + k) * (s + k + 1)
        power *= inv_n2
    return out


def normal_mixture_tail(a: float) -> float:
    """Tail functional 2*(1 - Phi(a) + a*phi(a)) of the standard normal.

    Strictly decreasing on [0, inf) from 1 to 0; its inverse sets the
    mixture-boundary intercept.
    """
    if a < 0.0:
        raise ValueError(f"argument must be >= 0, got {a}")
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * a * a)
    return math.erfc(a / _SQRT2) + 2.0 * a * pdf


@lru_cache(maxsize=4096)
def normal_mixture_tail_inv(p: float) -> float:
    """Inverse of ``normal_mixture_tail`` by bisection on [0, 40], to 1e-12."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    lo, hi = 0.0, 40.0
    # tail(40) underflows to 0 < p < 1 = tail(0), so the root is bracketed
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if normal_mixture_tail(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lil_stitch_term(n: int, p: BoundaryParams) -> float:
    """The bracketed stitching term s*loglog(max(eta n/m, e)) + log(zeta(s)/(alpha (log eta)^s)).

    The loglog argument is clamped at e, so the outer log is >= 0."""
    return p.s * math.log(math.log(max(p.eta * n / p.m, math.e))) + p.lil_constants[1]


def lil_boundary(n: int, p: BoundaryParams) -> float:
    """Stitched iterated-logarithm boundary at time n >= m."""
    if n < p.m:
        raise ValueError(f"n={n} is before the cold start m={p.m}")
    const = p.lil_constants[0] / math.sqrt(2.0 * n)
    return const * math.sqrt(lil_stitch_term(n, p))


def mixture_boundary(n: int, p: BoundaryParams) -> float:
    """Normal-mixture boundary sqrt((a*^2 + log(n/m)) / n), a* the tail inverse at alpha."""
    if n < p.m:
        raise ValueError(f"n={n} is before the cold start m={p.m}")
    a = normal_mixture_tail_inv(p.alpha)
    return math.sqrt((a * a + math.log(n / p.m)) / n)


def gaussian_boundary(n: int, p: BoundaryParams) -> float:
    """Dispatch on ``p.kind`` to the stitched or mixture boundary."""
    if p.kind == "lil":
        return lil_boundary(n, p)
    return mixture_boundary(n, p)
