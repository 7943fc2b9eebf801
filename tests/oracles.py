"""Plain reference implementations the tests compare the fast paths with.

Each is written the direct way, one sample at a time, and shares no code
path with the package beyond the Beta(6,6) functions and the error it imports.
"""

import math
from collections import namedtuple

import numpy as np

from hellcorr.errors import SizeError
from hellcorr.transform import beta66_pdf, beta66_quantile


def two_nearest_brute(pts):
    """Index of each point's nearest neighbour and the squared first and
    second nearest-neighbour distances of an (n, 2) point set. Builds each
    n x n temporary on its own."""
    n = pts.shape[0]
    dx = pts[:, 0:1] - pts[None, :, 0]
    dy = pts[:, 1:2] - pts[None, :, 1]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    idx1 = np.argmin(d2, axis=1)
    rows = np.arange(n)
    b1 = d2[rows, idx1]
    d2[rows, idx1] = np.inf
    b2 = d2.min(axis=1) if n > 2 else np.full(n, np.inf)
    return idx1, b1, b2


TransformedPoints = namedtuple("TransformedPoints", "points weights")


def transform_points(pseudo_points):
    """Rank points (n, 2) mapped through the Beta(6,6) quantile, and the
    weight of each point: the product over both coordinates of the square
    root of the Beta(6,6) density at the transformed coordinate."""
    t = beta66_quantile(np.asarray(pseudo_points, dtype=float))
    dens = beta66_pdf(t)
    return TransformedPoints(t, np.sqrt(dens[:, 0]) * np.sqrt(dens[:, 1]))


def b_hat_raw(nn_values, weights=None):
    """Plug-in estimate of B from nearest-neighbour distances."""
    v = np.asarray(nn_values, dtype=float)
    n = v.shape[0]
    if n < 2:
        raise SizeError("need at least 2 observations")
    cn = 2.0 * math.sqrt(n - 1.0) / n
    if weights is None:
        return cn * float(np.sum(v))
    return cn * float(np.dot(v, np.asarray(weights, dtype=float)))
