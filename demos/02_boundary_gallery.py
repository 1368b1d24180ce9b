"""Shapes of the time-uniform boundaries.

Tabulates the two Gaussian-mean boundaries (stitched iterated-logarithm vs
normal mixture) and the two SAGE chaos boundaries for a toy spectrum, then
renders them with the built-in SVG writer.  The mixture flavors win at
moderate n; the LIL flavors win asymptotically.
"""

import os

import numpy as np

from ustatcs import BoundaryParams, WeightScheme, spectrum_from_eigenvalues
from ustatcs.boundaries import gaussian_boundary
from ustatcs.spectral import sage_upper
from ustatcs._svg import line_chart

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

m = 100
ns = np.unique(np.geomspace(m, 5_000_000, 140).astype(int))

gauss = {}
for kind in ("lil", "gm"):
    p = BoundaryParams(alpha=0.05, m=m, kind=kind)
    gauss[kind] = np.array([gaussian_boundary(int(n), p) for n in ns])

undercut = gauss["lil"] < gauss["gm"]
if undercut.any():
    print(f"gaussian boundaries start at m={m}; LIL undercuts GM from n~{ns[np.argmax(undercut)]}")
else:
    print(f"gaussian boundaries start at m={m}; GM stays tighter over the whole grid")

line_chart(
    os.path.join(OUT, "gaussian_boundaries.svg"),
    np.log10(ns),
    {"stitched LIL": gauss["lil"], "normal mixture": gauss["gm"]},
    title="time-uniform boundaries for a Gaussian running mean",
    xlabel="log10 n",
    ylabel="boundary",
)

# a fast-decaying toy spectrum, the typical shape for an RBF-kernel MMD
lam = (0.5, 0.2, 0.08, 0.03)
est = spectrum_from_eigenvalues(lam, WeightScheme("data"), alpha=0.05)
trace = float(est.eigenvalues.sum())  # the whole spectrum is known, so its sum is the trace
sage = {}
for kind in ("lil", "gm"):
    p = BoundaryParams(alpha=0.05, m=m, kind=kind)
    sage[kind] = np.array([sage_upper(int(n), est, p, trace) for n in ns])

line_chart(
    os.path.join(OUT, "sage_boundaries.svg"),
    np.log10(ns),
    {"SAGE-LIL": sage["lil"], "SAGE-GM": sage["gm"]},
    title=f"SAGE boundaries for spectrum {lam}",
    xlabel="log10 n",
    ylabel="boundary",
)

with open(os.path.join(OUT, "boundaries.csv"), "w") as f:
    f.write("n,kind,value\n")
    for name, vals in {**gauss, **{f"sage-{k}": v for k, v in sage.items()}}.items():
        for n, v in zip(ns, vals):
            f.write(f"{n},{name},{float(v)!r}\n")

print(f"wrote {OUT}/gaussian_boundaries.svg, sage_boundaries.svg, boundaries.csv")
print("note the scales: the chaos boundaries shrink like log n / n,")
print("an order faster than the sqrt(log n / n) mean boundaries.")
