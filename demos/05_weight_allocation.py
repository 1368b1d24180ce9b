"""How the spectral budget allocation shapes the SAGE boundary.

The chaos boundary charges each spectral coordinate log(1/beta_l) (or the
mixture analogue) for its slice beta_l of the significance budget.  Spreading
the budget evenly over many coordinates, or concentrating it too hard,
both inflate the boundary; allocating proportionally to the positive
eigenvalue mass is provably the cheapest choice.
"""

import numpy as np

from ustatcs import BoundaryParams, WeightScheme, spectrum_from_eigenvalues
from ustatcs.spectral import sage_upper

# a realistic fast-decaying positive spectrum
lam = np.array([0.52, 0.20, 0.076, 0.029, 0.011, 0.004])
n, m = 2000, 400
p = BoundaryParams(alpha=0.05, m=m, kind="lil")

print(f"spectrum: {lam.tolist()}   boundary: SAGE-LIL at n={n}, m={m}\n")
print(f"{'scheme':<12} {'Lambda_beta_plus':>18} {'boundary':>12}")

schemes = [WeightScheme("poly", b) for b in (2.0, 8.0, 14.0, 20.0)]
schemes += [WeightScheme("exp", c) for c in (2.0, 4.5, 7.0)]
schemes += [WeightScheme("data")]

rows = []
for scheme in schemes:
    est = spectrum_from_eigenvalues(lam, scheme, alpha=0.05)
    ups = sage_upper(n, est, p, float(est.eigenvalues.sum()))  # the trace of the whole spectrum
    rows.append((scheme.label(), est.sum_pos_logw, ups))
    print(f"{scheme.label():<12} {est.sum_pos_logw:>18.4f} {ups:>12.6f}")

tightest = min(rows, key=lambda r: r[2])
print(f"\ntightest: {tightest[0]}")
print("polynomial decay wastes budget on the flat tail as b grows, and")
print("exponential decay starves the mid-spectrum as c grows; matching the")
print("allocation to the eigenvalue profile is optimal by the KL identity.")
