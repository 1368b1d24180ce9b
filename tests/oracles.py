"""Oracles that the tests check the package against, kept out of it.

* ``mc_crossing_oracle`` checks the boundaries themselves (AC-3, AC-4): the
  fraction of simulated streams that ever cross a boundary must stay at or
  under alpha.  It simulates Gaussian partial sums for the two Gaussian
  boundaries, and finite-spectrum chaos streams for the SAGE boundary built
  from the true spectrum.
* ``true_sigma2`` is the closed-form first-projection variance sigma^2,
  the target that the jackknife estimate must reach (AC-6).
"""

import math

import numpy as np

from ustatcs.boundaries import BoundaryParams, gaussian_boundary
from ustatcs.kernels import DistParams, get_kernel
from ustatcs.spectral import WeightScheme, sage_upper, spectrum_from_eigenvalues


def mc_crossing_oracle(
    params: BoundaryParams,
    horizon: int,
    reps: int,
    rng: np.random.Generator | None = None,
    lambdas=None,
    scheme: WeightScheme | None = None,
    boundary_values: np.ndarray | None = None,
) -> float:
    """Fraction of simulated streams that ever cross the boundary on [m, horizon].

    Without ``lambdas``: streams of i.i.d. standard Gaussians, two-sided
    crossing of |mean_n| over the Gaussian boundary.  With ``lambdas``:
    finite-spectrum chaos streams sum_l lambda_l (W_l(n)^2 - n)/n^2 with
    W_l a Gaussian random walk, one-sided crossing of the SAGE boundary
    built from the true spectrum.  ``boundary_values`` (aligned with
    n = m..horizon) overrides the computed boundary.
    """
    rng = np.random.default_rng(rng)
    m = params.m
    n_grid = np.arange(m, horizon + 1)
    if boundary_values is None:
        if lambdas is None:
            boundary_values = np.array([gaussian_boundary(int(n), params) for n in n_grid])
        else:
            est = spectrum_from_eigenvalues(lambdas, scheme, alpha=params.alpha)
            trace = float(est.eigenvalues.sum())  # the true spectrum is all of it
            boundary_values = np.array([sage_upper(int(n), est, params, trace) for n in n_grid])
    crossings = 0
    done = 0
    while done < reps:
        k = min(200, reps - done)  # streams per block, which bounds the draw array
        if lambdas is None:
            z = rng.standard_normal((k, horizon))
            means = np.cumsum(z, axis=1)[:, m - 1 :] / n_grid
            crossed = np.any(np.abs(means) > boundary_values, axis=1)
        else:
            lam = np.asarray(lambdas, dtype=float)
            z = rng.standard_normal((k, lam.size, horizon))
            w = np.cumsum(z, axis=2)
            chaos = np.einsum("l,rln->rn", lam, w * w - np.arange(1, horizon + 1))
            chaos = chaos[:, m - 1 :] / (n_grid * n_grid)
            crossed = np.any(chaos > boundary_values, axis=1)
        crossings += int(crossed.sum())
        done += k
    return crossings / reps


def true_sigma2(kernel_id: str, d: DistParams) -> float | None:
    """Closed-form first-projection variance sigma^2 where available, else None."""
    get_kernel(kernel_id)
    if kernel_id == "variance" and d.family == "gaussian":
        return d.variance * d.variance / 2.0
    if kernel_id == "gmd" and d.family == "gaussian":
        return d.variance * (1.0 / 3.0 + (2.0 * math.sqrt(3.0) - 4.0) / math.pi)
    if kernel_id == "mmd-gauss" and d.shift == 0.0:
        return 0.0
    return None
