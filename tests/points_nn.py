"""Nearest neighbours of arbitrary point sets, through the package's scan.

The scan takes every set in its rank frame: one non-decreasing x row that
all sets share, and each set's y in that x order. Tests that hold arbitrary
(n, 2) points go through ``nn_of_points``, which sorts each set by x, scans
it alone and maps the results back to input order. Unlike ``oracles``, this
module calls the package.
"""

import numpy as np

from hellcorr.ranks_nn import TwoNearest, two_nearest_neighbors


def nn_of_points(points):
    """``two_nearest_neighbors`` of (n, 2) or (m, n, 2) points, in input order."""
    pts = np.asarray(points, dtype=float)
    sets = pts.reshape(-1, *pts.shape[-2:])
    idx = np.empty(sets.shape[:2], dtype=np.intp)
    d1, d2 = np.empty((2, *sets.shape[:2]))
    for s, p in enumerate(sets):
        order = np.argsort(p[:, 0], kind="stable")
        nn = two_nearest_neighbors(p[order, 0], p[order, 1])
        idx[s, order] = order[nn.index]
        d1[s, order] = nn.values
        d2[s, order] = nn.second
    return TwoNearest(*(a.reshape(pts.shape[:-1]) for a in (idx, d1, d2)))
