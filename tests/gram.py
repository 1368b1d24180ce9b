"""Full symmetric views of an accumulator's kernel matrix, for tests.

``UStatAccumulator.pairwise_lower`` defines only the lower triangle (with
``keep_pairwise`` its strictly upper part is undefined); these helpers
mirror it, so tests can compare against a freshly computed full matrix.
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
