"""The brute nearest-neighbour scan written plainly: the tests' oracle for
every fast path. It builds each n x n temporary on its own."""

import numpy as np


def two_nearest_brute(pts):
    """Index of each point's nearest neighbour and the squared first and
    second nearest-neighbour distances of an (n, 2) point set."""
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
