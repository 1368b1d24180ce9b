"""Full symmetric views of an accumulator's kernel matrix, for tests.

``UStatAccumulator.pairwise_lower`` defines only the lower triangle of its
Gram store (the strictly upper part is undefined); ``pairwise_matrix`` and
``centered_gram`` mirror it, so tests can compare against ``fresh_pairwise``,
the full matrix computed from scratch.  Like ``pairwise_lower`` those two
write: a call fills the rows the store lacks, and a call without ``upto``
makes every later push extend the store.
"""

import numpy as np


def pairwise_matrix(acc, upto=None):
    """Raw kernel matrix over the first ``upto`` points (default: all),
    mirrored across the diagonal from the lower triangle."""
    tri = acc.pairwise_lower(upto)
    return np.where(np.tri(len(tri), dtype=bool), tri, tri.T)


def centered_gram(acc, upto=None):
    """Centered Gram matrix h(X_i, X_j) - U_n over the first ``upto`` points."""
    return pairwise_matrix(acc, upto) - acc.ustat()


def fresh_pairwise(kernel, pts):
    """h(X_i, X_j) over every pair of ``pts``, diagonal included, computed
    from scratch with the kernel's formula broadcast, as the store's fill
    computes a block of rows."""
    pts = np.asarray(pts, dtype=float)
    return kernel.h(pts[:, None], pts[None, :])
