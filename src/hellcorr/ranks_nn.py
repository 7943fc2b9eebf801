"""Pseudo-observations and exact nearest-neighbour distances.

Raw samples are reduced to their column ranks, giving points in the open unit
square; every later stage sees only those ranks, and ``column_ranks`` ranks
the samples of every estimate, ties by input order. Nearest-neighbour
distances come from a banded scan below n = 1024 and from a k-d tree
(``scipy.spatial.cKDTree``) at and above it; both are exact, and the tests
pin both to a brute-force oracle bit for bit. The tree is the only stage of
the package that loads scipy, so inputs below the cutoff never import it.

The banded scan sorts each set by x and compares each tile of _BAND_ROWS
consecutive x-ranks only with the columns up to _BAND_REACH ranks to either
side of it, for every set of a batch in one numpy call per chunk. Its
squared distances are those of a full scan, dx * dx + dy * dy of the same
operands. The estimator hands the scan (and the tree) each set's rows in
x-rank order, so every set's x column is one row, the coordinates of the
ranks 1..n. The scan sees that in its input, every x column ascending and
equal to the first: it takes its x-order from it instead of sorting, and
builds the band's squared x-gaps and each row's settle gap once per call from
that row. Any other input is sorted, and its x work is done per set.
Rounding is monotone, so no column past a row's band lies nearer than the
x-gap to the first column outside it; a row whose band bound is below that
gap squared is settled, and every other row scans its whole set. The bound is
the band's first distance for ``nearest_distances``, which is all fixed
cutoffs need, and its second for ``two_nearest_neighbors``, which keeps the
first's index and both distances for cross-validation. A small set, where
the band would keep most of the n * n cells, is scanned whole and unsorted.
Where a point's two nearest neighbours are equidistant the paths may name
different neighbours; the cross-validation term that reads the index is then
multiplied by second - first = 0.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeError
from .rng import substream

# inputs of this size and larger go to the k-d tree; smaller ones stay on the
# banded scan and so never import scipy at all. Per sample on beta66 points of
# Gaussian samples (2-core VM, best of 5), band in batches of 20 or one at a
# time against the tree: 0.40 or 0.45 vs 0.42-0.44 ms at n = 512, 0.64-0.77 or
# 0.92 vs 0.63 ms at n = 768, 0.95 or 1.02-1.07 vs 0.89-1.29 ms at n = 1023. A
# lower cutoff would gain little and add the 0.35-0.45 s a process pays to
# import scipy.spatial
_TREE_MIN_N = 1024
# distance cells one step of the full scan holds, where one tile spans each
# set: the size of a single n = 512 scan
_BRUTE_CELLS = 1 << 18
# distance cells one banded step holds, and one step of whole-set rows: one
# n = 500 set. On study-n500 a step of 1 << 18 cells (four sets) ran no
# faster and left peak RSS at 57 MB against 48 MB with this size
_BAND_CELLS = 1 << 16
# the band: tiles of _BAND_ROWS consecutive x-ranks, each compared with the
# columns up to _BAND_REACH ranks to either side. At 16/48 the scan took
# 0.3-0.4x the full scan's time per set at n = 500 and about 0.2x at n = 1023
# (beta66 points of Gaussian and scenario samples, 2-core VM); 24/40, 16/40
# and 32/32 were no faster at n = 500, and a shorter reach leaves more rows to
# a whole-set scan (at 16/48 at most 2.1% at n = 500 and 5.9% at n = 1023).
_BAND_ROWS = 16
_BAND_REACH = 48
# the smallest n the band sorts and tiles. Below it the band would keep more
# than two thirds of the n * n cells, which saves little or less than its sort
# costs (banded, n = 113 took 1.13-1.25x and n = 130 0.97-1.09x the full
# scan's time), so one unsorted tile spans each set
BAND_MIN_N = (3 * (_BAND_ROWS + 2 * _BAND_REACH) + 1) // 2


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
    Passing ``jitter_seed`` instead ranks ties by a seeded row order, for data
    recorded at coarse precision: each column is shuffled by its own
    permutation, ranked, and its ranks written back to the original rows. No
    value is changed, so the ranks depend only on each column's order and the
    seed, distinct values keep their order, and a sample without ties ranks
    as it does without the seed.
    """
    arr = as_sample(sample)
    n = arr.shape[0]
    ranks, tie = column_ranks(arr)
    if jitter_seed is not None:
        streams = [substream(jitter_seed, "jitter", j) for j in (0, 1)]  # checks the seed, ties or not
        if tie:
            perms = np.column_stack([rng.permutation(n) for rng in streams])
            shuffled = column_ranks(np.take_along_axis(arr, perms, axis=0))[0]
            np.put_along_axis(ranks, perms, shuffled, axis=0)
    return PseudoObs(points=ranks / (n + 1.0), ranks=ranks, n=n, tie_warning=bool(tie))


def column_ranks(samples):
    """Ranks 1..n of each column of (..., n, 2) samples, ties by input order,
    and a (...) array that flags the samples with a tie.

    Without ties every sort gives the stable order, and the default sort is
    4-7x faster at n = 5,000-50,000; only the samples with a tie (equal
    neighbours in a sorted column) are sorted again, stably.
    """
    # the last axis, not axis -2: 190 vs 245 us per (341, 12, 2) block (2-core VM)
    cols = np.swapaxes(samples, -1, -2)
    order = np.argsort(cols)
    sorted_cols = np.take_along_axis(cols, order, axis=-1)
    tie = (sorted_cols[..., 1:] == sorted_cols[..., :-1]).any(axis=(-2, -1))
    if tie.any():
        order[tie] = np.argsort(cols[tie], kind="stable")
    ranks = np.empty(np.shape(samples), dtype=np.int64)
    np.put_along_axis(np.swapaxes(ranks, -1, -2), order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks, tie


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


@lru_cache(maxsize=8)
def _band(n):
    """Tiles of the band over an x-sorted n-point set: the rows (T, B) and
    columns (T, C) of each tile, the flat position of each row's own column
    in a set's (T, B, C) distances, and each tile's first column outside the
    band below and above it, -1 where there is none. Below BAND_MIN_N one
    unsorted tile spans the set, the full scan, and below is None."""
    width = _BAND_ROWS + 2 * _BAND_REACH
    if n < BAND_MIN_N:
        r = np.arange(n)[None]
        return r, r, r[0] * (n + 1), None, None
    row0 = np.minimum(np.arange(0, n, _BAND_ROWS), n - _BAND_ROWS)
    col0 = np.clip(row0 - _BAND_REACH, 0, n - width)
    r = row0[:, None] + np.arange(_BAND_ROWS)
    own = np.arange(r.size) * width + (r - col0[:, None]).ravel()
    above = np.where(col0 + width < n, col0 + width, -1)
    return r, col0[:, None] + np.arange(width), own, col0 - 1, above


def _in_rank_frame(x):
    """Whether the x columns (m, n) of a batch are one ascending row, as in
    sets whose rows are in x-rank order: an O(n) and an O(m * n) comparison."""
    return bool((x[0, 1:] >= x[0, :-1]).all() and (x == x[0]).all())


def _x_squared(xr, xc, out):
    """(xr - xc) squared, into out: the x part of a squared distance."""
    np.subtract(xr, xc, out=out)
    out *= out
    return out


def _squared(dx2, yr, yc, out):
    """dx2 + dy * dy of rows yr against columns yc, into out; every squared
    distance of the scan comes from here. dx2, the squared x-gaps from
    ``_x_squared`` with inf at each row's own column, broadcasts against out."""
    np.subtract(yr, yc, out=out)
    out *= out
    out += dx2
    return out


def _reduce(sq, two):
    """Position of the least entry along the last axis of squared distances
    sq, the least and the second least, or None, the least and None unless
    two. Spends sq."""
    if not two:
        return None, sq.min(axis=-1), None
    flat = sq.reshape(-1, sq.shape[-1])
    at = np.arange(len(flat)), flat.argmin(axis=1)
    first = flat[at]
    flat[at] = np.inf
    return (v.reshape(sq.shape[:-1]) for v in (at[1], first, flat.min(axis=1)))


def _nearest_squared(sets, two):
    """The banded scan of (m, n, 2) sets: each point's nearest neighbour's
    index (None unless two) and its squared first and, if two, second
    nearest-neighbour distance, stacked (1 + two, m, n)."""
    m, n, _ = sets.shape
    r, c, own, below, above = _band(n)
    x, y = sets[..., 0], sets[..., 1]
    # a batch in the rank frame is sorted already and shares its x row, so
    # the x work below runs on that one row (xs) and once per call
    frame = below is not None and _in_rank_frame(x)
    order = None
    if below is None or frame:
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    else:
        # not stable: the order of equal x changes no distance, at most which
        # of two equidistant neighbours the index names (4x faster at n = 500)
        order = np.argsort(x, axis=1)
        x, y = (np.take_along_axis(v, order, axis=1) for v in (x, y))
    xs = x[:1] if frame else x
    if below is not None:
        # squared x-gap from each row to the first column outside its tile's
        # band on either side: fl is monotone, so no column past it is nearer
        xr = xs.take(r, axis=1)
        lo = xs.take(below, axis=1)[..., None]
        lo[:, below < 0] = -np.inf
        hi = xs.take(above, axis=1)[..., None]
        hi[:, above < 0] = np.inf
        gap = np.minimum((xr - lo) ** 2, (hi - xr) ** 2)
        settled = np.empty((m, *r.shape), dtype=bool)
    idx1 = np.empty((m, n), dtype=np.intp) if two else None
    d = np.empty((1 + two, m, n))
    cells = own.size * c.shape[1]
    step = max(1, min(m, (_BRUTE_CELLS if below is None else _BAND_CELLS) // cells))
    # start the tile buffer on a 64-byte boundary: at n = 500 an estimate ran
    # about 10% slower with it 16, 32 or 48 bytes past one, wherever malloc put it
    raw = np.empty(2 * step * cells + 8)
    skip = (-raw.ctypes.data % 64) // 8
    buf = raw[skip : skip + 2 * step * cells].reshape(2, step, *r.shape, c.shape[1])
    for a in range(0, m, step):
        k = min(step, m - a)
        xa, ya = xs[a : a + k], y[a : a + k]
        if below is None:  # one tile: its rows and columns are the set
            xr_a = xc_a = xa[:, None]
            yr_a = yc_a = ya[:, None]
        else:
            xr_a, xc_a = xr[a : a + k], xa.take(c, axis=1)
            yr_a, yc_a = ya.take(r, axis=1), ya.take(c, axis=1)
        if a == 0 or not frame:  # in the frame the first chunk's x-gaps serve every chunk
            dx2 = _x_squared(xr_a[..., None], xc_a[:, :, None, :], buf[1, : len(xa)])
            dx2.reshape(len(xa), -1)[:, own] = np.inf
        d2 = _squared(dx2, yr_a[..., None], yc_a[:, :, None, :], buf[0, :k])
        pos, first, second = _reduce(d2, two)
        rows = np.s_[a : a + k, None] if below is None else np.s_[a : a + k, r]
        d[0][rows] = first
        if two:
            d[1][rows] = second
            idx1[rows] = pos + c[:, :1]
        if below is not None:
            # settled: the gap exceeds the band's bound on the row's answer
            gap_a = gap if frame else gap[a : a + k]
            np.greater(gap_a, second if two else first, out=settled[a : a + k])
    if below is None:
        return idx1, d
    # every row the band did not settle scans its whole set, once. The last
    # tile starts at n - _BAND_ROWS, so it shares its first rows with the tile
    # before, and either may have stored its answer: such a row is settled
    # only where both tiles settled it
    shared = r.size - n
    if shared:
        settled[:, -1, :shared] &= settled[:, -2, -shared:]
        settled[:, -2, -shared:] = True
    s_all, t, i = np.nonzero(~settled)
    p_all = r[t, i]
    per = _BAND_CELLS // n
    for b in range(0, len(p_all), per):
        s, p = s_all[b : b + per], p_all[b : b + per]
        sq, dx2 = np.empty((2, len(p), n))
        _x_squared(x[s, p][:, None], x[s], dx2)[np.arange(len(p)), p] = np.inf
        _squared(dx2, y[s, p][:, None], y[s], sq)
        pos, d[0, s, p], second = _reduce(sq, two)
        if two:
            d[1, s, p], idx1[s, p] = second, pos
    if order is None:
        return idx1, d
    # back to input order
    out = np.empty_like(d)
    np.put_along_axis(out, order[None], d, axis=2)
    if two:
        idx = np.empty_like(idx1)
        np.put_along_axis(idx, order, np.take_along_axis(order, idx1, axis=1), axis=1)
        idx1 = idx
    return idx1, out


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
    if n >= _TREE_MIN_N:
        idx1 = np.empty((len(sets), n), dtype=np.intp)
        d1, d2 = np.empty((2, len(sets), n))
        for s, p in enumerate(sets):
            idx1[s], d1[s], d2[s] = _two_nearest_tree(p)
    else:
        idx1, sq = _nearest_squared(sets, True)
        d1, d2 = np.sqrt(sq)
    return TwoNearest(*(a.reshape(pts.shape[:-1]) for a in (idx1, d1, d2)))


def nearest_distances(points):
    """Exact nearest-neighbour distances for a batch of same-size point sets.

    points is (m, n, 2); the (m, n) result equals
    ``two_nearest_neighbors(points).values`` bit for bit.
    """
    pts = as_samples(points)
    if pts.shape[1] >= _TREE_MIN_N:
        return two_nearest_neighbors(pts).values
    return np.sqrt(_nearest_squared(pts, False)[1][0])
