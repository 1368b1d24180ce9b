"""Anytime-valid confidence sequences for streaming degree-two U-statistics.

The pieces compose bottom-up:

* ``kernels``      symmetric kernels (variance, Gini mean difference,
                   spatial Kendall's tau, two-sample MMD) with closed-form
                   population targets,
* ``accumulator``  O(n)-per-observation streaming state for U_n, its row
                   sums, and the jackknife variance estimate,
* ``boundaries``   time-uniform Gaussian boundaries (stitched LIL and
                   normal mixture),
* ``spectral``     truncated eigenvalue estimation of the centered Gram
                   matrix and the SAGE boundaries for degenerate kernels,
* ``sequences``    the assembled two-sided / one-sided confidence
                   sequences, the ``Monitor`` that drives them over a
                   stream (with its dual sequential test), and classical
                   baselines,
* ``simharness``   reproducible Monte Carlo experiments (coverage, width,
                   size, power, weight sensitivity),
* ``cli``          the ``ustatcs`` command-line front end.
"""

from .accumulator import UStatAccumulator
from .boundaries import BoundaryParams
from .kernels import DistParams, true_theta
from .sequences import Monitor, classical_ci, degenerate_cs, nondegenerate_cs
from .simharness import ExperimentConfig, run_coverage, sample_paired_mmd
from .spectral import WeightScheme, spectrum_from_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "UStatAccumulator",
    "BoundaryParams",
    "DistParams",
    "true_theta",
    "Monitor",
    "classical_ci",
    "degenerate_cs",
    "nondegenerate_cs",
    "ExperimentConfig",
    "run_coverage",
    "sample_paired_mmd",
    "WeightScheme",
    "spectrum_from_eigenvalues",
]
