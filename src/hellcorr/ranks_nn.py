"""Pseudo-observations and exact nearest-neighbour distances.

Raw samples are reduced to their column ranks, giving points in the open unit
square; every later stage sees only those ranks. Nearest-neighbour distances
come from a brute-force O(n^2) scan below n = 1024 and from a k-d tree
(``scipy.spatial.cKDTree``) at and above it; both are exact, and the tests
pin the tree's distances to the brute scan's bit for bit. The tree is the
only stage of the package that loads scipy, so inputs below the cutoff never
import it. The brute scan has one body, over batches of same-size point sets,
and two reductions: ``two_nearest_neighbors`` keeps index, first and second
distance, which cross-validation needs; ``nearest_distances`` keeps the first
distance alone, which is all fixed cutoffs need. Where a point's two nearest
neighbours are equidistant the two paths may name different neighbours; the
cross-validation term that reads the index is then multiplied by
second - first = 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .rng import substream

# inputs of this size and larger go to the k-d tree; smaller ones stay on the
# brute scan and so never import scipy at all. The tree is faster per call
# from about n = 256, but a process pays 0.35-0.45 s (2-core VM) to import
# scipy.spatial once, which a lower cutoff would add to every n >= 256 run
_TREE_MIN_N = 1024
# distance cells one batched brute step holds: the size of a single n = 512
# scan, so batching does not raise the scan's peak memory
_BRUTE_CELLS = 1 << 18


def as_sample(x):
    """Validate and return an (n, 2) float array of observations."""
    return as_samples(np.asarray(x, dtype=float)[None])[0]


def as_samples(x):
    """Validate and return an (m, n, 2) float array of m same-size samples."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SizeError("expected (n, 2) bivariate observations, or an (m, n, 2) batch of them")
    if arr.shape[1] < 2:
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
    if jitter_seed is not None:
        streams = [substream(jitter_seed, "jitter", j) for j in (0, 1)]  # checks the seed, ties or not
        if tie:
            work = arr.copy()
            for j, rng in enumerate(streams):
                spread = np.ptp(work[:, j]) or 1.0
                work[:, j] += rng.uniform(-1.0, 1.0, n) * 1e-10 * spread
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
    criterion needs. A batch axis of the points leads every field.
    """

    index: np.ndarray
    values: np.ndarray
    second: np.ndarray


def _squared_distances(pts):
    """Yield (start, d2) over chunks of (m, n, 2) point sets: d2[s, i, j] is the
    squared distance of points i and j of set start + s, inf on the diagonal.
    Every chunk is written into the same two buffers, which the next overwrites."""
    m, n, _ = pts.shape
    xs = np.ascontiguousarray(pts[..., 0])
    ys = np.ascontiguousarray(pts[..., 1])
    step = max(1, min(m, _BRUTE_CELLS // (n * n)))
    # start the buffer on a 64-byte boundary: at n = 500 an estimate ran about
    # 10% slower with it 16, 32 or 48 bytes past one, wherever malloc put it
    raw = np.empty(2 * step * n * n + 8)
    start = (-raw.ctypes.data % 64) // 8
    buf = raw[start : start + 2 * step * n * n].reshape(2, step, n, n)
    diag = np.arange(n)
    for a in range(0, m, step):
        x, y = xs[a : a + step], ys[a : a + step]
        d2, dy = buf[:, : len(x)]
        # dx * dx + dy * dy
        np.subtract(x[:, :, None], x[:, None, :], out=d2)
        d2 *= d2
        np.subtract(y[:, :, None], y[:, None, :], out=dy)
        dy *= dy
        d2 += dy
        d2[:, diag, diag] = np.inf
        yield a, d2


def _two_nearest_tree(pts):
    # importing scipy.spatial costs 0.35-0.45 s, so only inputs that reach the tree pay it
    from scipy.spatial import cKDTree

    n = pts.shape[0]
    dist, idx = cKDTree(pts).query(pts, k=3)
    # drop the point itself; where coincident copies crowd it out of the three
    # returned, all three are at distance 0 and dropping the first is as good
    drop = (idx == np.arange(n)[:, None]).argmax(axis=1)
    keep = np.arange(3) != drop[:, None]
    d = dist[keep].reshape(n, 2)
    return idx[keep].reshape(n, 2)[:, 0], d[:, 0], d[:, 1]


def two_nearest_neighbors(points):
    """Exact first and second nearest-neighbour distances of (n, 2) or (m, n, 2) points."""
    pts = np.asarray(points, dtype=float)
    sets = as_samples(pts if pts.ndim == 3 else pts[None])
    n = sets.shape[1]
    idx1 = np.empty((len(sets), n), dtype=np.intp)
    d1, d2 = np.empty((2, len(sets), n))
    if n >= _TREE_MIN_N:
        for s, p in enumerate(sets):
            idx1[s], d1[s], d2[s] = _two_nearest_tree(p)
    else:
        for a, sq in _squared_distances(sets):
            rows = slice(a, a + len(sq))
            first = sq.argmin(axis=2)[..., None]
            idx1[rows] = first[..., 0]
            d1[rows] = np.sqrt(np.take_along_axis(sq, first, axis=2)[..., 0])
            np.put_along_axis(sq, first, np.inf, axis=2)
            d2[rows] = np.sqrt(sq.min(axis=2))
    return TwoNearest(*(a.reshape(pts.shape[:-1]) for a in (idx1, d1, d2)))


def nearest_distances(points):
    """Exact nearest-neighbour distances for a batch of same-size point sets.

    points is (m, n, 2); the (m, n) result equals
    ``two_nearest_neighbors(points).values`` bit for bit.
    """
    pts = as_samples(points)
    if pts.shape[1] >= _TREE_MIN_N:
        return two_nearest_neighbors(pts).values
    out = np.empty(pts.shape[:2])
    for a, sq in _squared_distances(pts):
        out[a : a + len(sq)] = np.sqrt(sq.min(axis=2))
    return out
