"""Pseudo-observations and exact nearest-neighbour distances.

Raw samples are reduced to their column ranks, giving points in the open unit
square; every later stage sees only those ranks. First and second
nearest-neighbour distances come from a brute-force O(n^2) scan below
n = 1024 and from a k-d tree (``scipy.spatial.cKDTree``) at and above it.
Both paths are exact, and the tests pin the tree's distances to the brute
scan's bit for bit. Where a point's two nearest neighbours are equidistant
the two paths may name different neighbours; the cross-validation term that
reads the index is then multiplied by second - first = 0. Resampling at
fixed cutoffs needs only the first distance, for many same-size samples at
once: ``nearest_distances`` scans a batch in chunks and gives the same
distances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .rng import substream

# inputs of this size and larger go to the k-d tree; smaller ones stay on the
# brute scan, which also keeps them clear of the scipy.spatial import
_TREE_MIN_N = 1024
# distance cells one batched brute step holds: the size of a single n = 512
# scan, so batching does not raise the scan's peak memory
_BRUTE_CELLS = 1 << 18


def as_sample(x):
    """Validate and return an (n, 2) float array of observations."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SizeError("expected an (n, 2) array of bivariate observations")
    if arr.shape[0] < 2:
        raise SizeError("need at least 2 observations")
    if not np.all(np.isfinite(arr)):
        raise SizeError("observations must be finite")
    return arr


@dataclass(frozen=True)
class PseudoObs:
    """Rank-transformed sample: points u = r/(n+1) and the integer ranks."""

    points: np.ndarray
    ranks: np.ndarray
    n: int
    tie_warning: bool


def pseudo_observations(sample, jitter_seed=None):
    """Column ranks scaled by 1/(n+1), in input order.

    Ties are ranked stably by input order and flagged via ``tie_warning``.
    Passing ``jitter_seed`` instead breaks ties by adding deterministic noise
    of magnitude 1e-10 times the column range before ranking, for data
    recorded at coarse precision.
    """
    arr = as_sample(sample)
    n = arr.shape[0]
    tie = any(np.unique(arr[:, j]).size < n for j in (0, 1))
    work = arr
    if jitter_seed is not None and tie:
        work = arr.copy()
        for j in (0, 1):
            spread = np.ptp(work[:, j]) or 1.0
            work[:, j] += substream(jitter_seed, "jitter", j).uniform(-1.0, 1.0, n) * 1e-10 * spread
    ranks = column_ranks(work)
    return PseudoObs(points=ranks / (n + 1.0), ranks=ranks, n=n, tie_warning=tie)


def column_ranks(samples):
    """Ranks 1..n of each column of (..., n, 2) samples, ties by input order."""
    order = np.argsort(samples, axis=-2, kind="stable")
    n = order.shape[-2]
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, n + 1)[:, None], axis=-2)
    return ranks


@dataclass(frozen=True)
class TwoNearest:
    """First and second nearest-neighbour distances, plus the first's index.

    ``second[i]`` is the nearest-neighbour distance of point i once ``index[i]``
    is removed, which is all the leave-one-out bookkeeping the cross-validation
    criterion needs.
    """

    index: np.ndarray
    values: np.ndarray
    second: np.ndarray


def _check_points(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise SizeError("expected an (n, 2) array of points")
    if pts.shape[0] < 2:
        raise SizeError("need at least 2 points")
    return pts


def _two_nearest_brute(pts):
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


def _two_nearest_tree(pts):
    # scipy.spatial costs ~0.1 s to import, so only inputs that reach the tree pay it
    from scipy.spatial import cKDTree

    n = pts.shape[0]
    dist, idx = cKDTree(pts).query(pts, k=3)
    # drop the point itself; where coincident copies crowd it out of the three
    # returned, all three are at distance 0 and dropping the first is as good
    drop = (idx == np.arange(n)[:, None]).argmax(axis=1)
    keep = np.arange(3) != drop[:, None]
    # contiguous columns: np.dot rounds a strided view differently
    d1, d2 = np.ascontiguousarray(dist[keep].reshape(n, 2).T)
    return idx[keep].reshape(n, 2)[:, 0], d1, d2


def two_nearest_neighbors(points):
    """Exact first and second nearest-neighbour distances for 2-d points."""
    pts = _check_points(points)
    if pts.shape[0] >= _TREE_MIN_N:
        idx1, d1, d2 = _two_nearest_tree(pts)
        return TwoNearest(index=idx1, values=d1, second=d2)
    idx1, b1, b2 = _two_nearest_brute(pts)
    return TwoNearest(index=idx1, values=np.sqrt(b1), second=np.sqrt(b2))


def nearest_distances(points):
    """Exact nearest-neighbour distances for a batch of same-size point sets.

    points is (m, n, 2); row i of the (m, n) result equals
    ``two_nearest_neighbors(points[i]).values`` bit for bit. Below the tree
    cutoff the brute scan runs over as many sets at once as fit in
    ``_BRUTE_CELLS`` distance cells.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise SizeError("expected an (m, n, 2) array of point sets")
    m, n, _ = pts.shape
    if n < 2:
        raise SizeError("need at least 2 points")
    if n >= _TREE_MIN_N:
        return np.array([two_nearest_neighbors(p).values for p in pts]).reshape(m, n)
    xs = np.ascontiguousarray(pts[..., 0])
    ys = np.ascontiguousarray(pts[..., 1])
    out = np.empty((m, n))
    step = max(1, _BRUTE_CELLS // (n * n))
    diag = np.arange(n)
    for a in range(0, m, step):
        x, y = xs[a : a + step], ys[a : a + step]
        # dx * dx + dy * dy as in the single scan, computed in place
        d2 = x[:, :, None] - x[:, None, :]
        d2 *= d2
        dy = y[:, :, None] - y[:, None, :]
        dy *= dy
        d2 += dy
        d2[:, diag, diag] = np.inf
        out[a : a + step] = np.sqrt(d2.min(axis=2))
    return out
