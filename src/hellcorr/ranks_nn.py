"""Pseudo-observations and exact nearest-neighbour distances.

Raw samples are reduced to their column ranks, giving points in the open unit
square; every later stage sees only those ranks, and ``column_ranks`` ranks
the samples of every estimate, ties by input order. Nearest-neighbour
distances come from a banded scan below n = 1024 and from a k-d tree
(``scipy.spatial.cKDTree``) at and above it; both are exact, and the tests
pin both to a brute-force oracle bit for bit. The tree is the only stage of
the package that loads scipy, so inputs below the cutoff never import it.

Both take every set in its rank frame: one non-decreasing row x of n
coordinates that every set shares, the coordinates of the ranks 1..n, and
each set's y coordinates in x-rank order. Below the tree each answer has a
layout of its own. Every squared distance is dx * dx + dy * dy of the same
operands as a full scan's, and d2(i, j) = d2(j, i) bit for bit. Rounding is
monotone, so no point past a row's band lies nearer than the x-gap to the
first rank outside it: a row whose band bound is below that gap squared is
settled, and every other row scans its whole set, through one routine for
both layouts.

``nearest_distances``, which is all fixed cutoffs need, takes the diagonal
band at every n below the tree (0.16-0.76x a whole-set scan's time per batch
of sets at n = 12-167, 2-core VM): it computes d2(i, i + 1 + delta) for
delta < R(n) once per pair, in a delta-major block, and reduces the block,
and a skewed view of it for the pairs below the diagonal, across contiguous
rows. Its bound is the band's first distance. ``two_nearest_neighbors``,
which keeps the first's index and both distances for cross-validation, takes
the tiles, one spanning each set below _BAND_MIN_N: each tile of _BAND_ROWS
consecutive x-ranks is compared with the columns up to _BAND_REACH ranks to
either side of it, so that every row's candidates lie along a last axis,
where an argmin and a second least are one reduction each; its bound is the
band's second distance. On the diagonal layout, a transposed copy of each
row's 2 R(n) candidates reduced the same way took 1.3-1.6x the tiles' time
per set at n = 168-1023 (2-core VM). Where a point's two nearest neighbours
are equidistant the paths may name different neighbours; the cross-validation
term that reads the index is then multiplied by second - first = 0.

Both band layouts and the whole-set scan read their x tables from a cache
per x row, keyed by its bytes: ``_tiles`` holds the squared x-gaps of the
tiles (or of the whole set), inf at each row's own column, and each row's
gap to the first rank outside its tile's band; ``_diagonal`` the diagonal
band's gaps. The tables are read-only, and a call does only y work. Each
sample size has one x row per transform, so an x row comes back on every
call at its n.
"""

import ctypes
import math
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
# set: the size of a single n = 512 scan. Also the float cells of the one
# buffer a tiled or whole-set scan allocates, whatever n and the batch size:
# with a buffer of the step's size glibc trimmed and regrew the heap on every
# 8-set block of a cross-validated null_table(500, 48), which took about 3,300
# minor page faults per call against 0, and about 1.2x the time
_BRUTE_CELLS = 1 << 18
# distance cells one banded step holds: one n = 500 set. On study-n500 a step
# of 1 << 18 cells (four sets) ran no faster and left peak RSS at 57 MB
# against 48 MB with this size
_BAND_CELLS = 1 << 16
# the band: tiles of _BAND_ROWS consecutive x-ranks, each compared with the
# columns up to _BAND_REACH ranks to either side. At 16/48 the scan took
# 0.3-0.4x the full scan's time per set at n = 500 and about 0.2x at n = 1023
# (beta66 points of Gaussian and scenario samples, 2-core VM); 24/40, 16/40
# and 32/32 were no faster at n = 500, and a shorter reach leaves more rows to
# a whole-set scan (at 16/48 at most 2.1% at n = 500 and 5.9% at n = 1023).
_BAND_ROWS = 16
_BAND_REACH = 48
# the smallest n the band tiles. Below it the band would keep more than two
# thirds of the n * n cells, which saves little or nothing (banded with a sort
# per set, n = 113 took 1.13-1.25x and n = 130 0.97-1.09x the full scan's
# time), so one tile spans each set
_BAND_MIN_N = (3 * (_BAND_ROWS + 2 * _BAND_REACH) + 1) // 2
# the diagonal band's reach R(n) = ceil(_DIAGONAL_SCALE * sqrt(n)) ranks to
# either side of each row: 24 at n = 168, 41 at n = 500, 58 at n = 1023. On
# beta66 rank sets it leaves 1.6-1.7% of the rows to a whole-set scan (2.6-2.8%
# at 1.5, 0.8-0.9% at 2.2). At 1.5 and 2.2, null_table(n, 200, cutoffs=(3, 3))
# was no faster at n = 168, 255, 500, 767 or 1023, and 1.5 was about 8%
# slower at n = 1023 (medians of 7, one pinned core of a 2-core VM)
_DIAGONAL_SCALE = 1.8
# float cells of the one buffer a diagonal scan allocates, whatever n and the
# batch size: a chunk's block, at least one set's below the tree, then the
# whole-set rows' temporaries. With a buffer of 1 << 16 cells glibc trimmed
# and regrew the heap on every call: null_table(n, 200, cutoffs=(3, 3)) took
# 1,900-12,500 minor page faults per call at n = 168-1023, against 1-3, and
# 1.2-1.9x the time. 1 << 18 was no faster
_DIAGONAL_CELLS = 1 << 17


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
    if tie.ndim == 0:  # one sample, re-sorted whole: 1.1 us against 3.8 us through a 0-d mask
        if tie:
            order = np.argsort(cols, kind="stable")
    elif tie.any():
        order[tie] = np.argsort(cols[tie], kind="stable")
    ranks = np.empty(np.shape(samples), dtype=np.int64)
    np.put_along_axis(np.swapaxes(ranks, -1, -2), order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks, tie


@dataclass(frozen=True)
class TwoNearest:
    """First and second nearest-neighbour distances, plus the first's index.

    ``second[i]`` is the nearest-neighbour distance of point i once ``index[i]``
    is removed, which is all the leave-one-out bookkeeping the cross-validation
    criterion needs. Each field has the shape of the scan's y: point i of a set
    is (x[i], y[..., i]), and a batch axis leads.
    """

    index: np.ndarray
    values: np.ndarray
    second: np.ndarray


@lru_cache(maxsize=8)
def _band(n):
    """Tiles of the band over n points in x order: the rows (T, B) and
    columns (T, C) of each tile, the flat position of each row's own column
    in the (T, B, C) distances of a set, and each tile's first column outside
    the band below and above it, -1 where there is none. Below _BAND_MIN_N
    one tile spans the set, the full scan, and below is None."""
    width = _BAND_ROWS + 2 * _BAND_REACH
    if n < _BAND_MIN_N:
        r = np.arange(n)[None]
        return r, r, r[0] * (n + 1), None, None
    row0 = np.minimum(np.arange(0, n, _BAND_ROWS), n - _BAND_ROWS)
    col0 = np.clip(row0 - _BAND_REACH, 0, n - width)
    r = row0[:, None] + np.arange(_BAND_ROWS)
    own = np.arange(r.size) * width + (r - col0[:, None]).ravel()
    above = np.where(col0 + width < n, col0 + width, -1)
    return r, col0[:, None] + np.arange(width), own, col0 - 1, above


def _aligned(cells):
    """An empty float buffer of cells cells that starts on a 64-byte boundary."""
    raw = np.empty(cells + 8)
    skip = (-ctypes.addressof(ctypes.c_char.from_buffer(raw)) % 64) // 8  # 0.8 us less than raw.ctypes.data
    return raw[skip : skip + cells]


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


@lru_cache(maxsize=4)
def _tiles(xb):
    """The x tables of the tiled or whole-set scan over the x row whose bytes
    are xb: the (T, B, C) squared x-gaps of each tile's rows to its columns,
    inf at each row's own column, and, from _BAND_MIN_N up, the (T, B) squared
    x-gap of each row to the first column outside its tile's band on either
    side, else None. Read-only: 0.46 MB at n = 500, 0.92 MB at n = 1023."""
    x = np.frombuffer(xb)
    r, c, own, below, above = _band(x.size)
    xr = x.take(r)
    # on a 64-byte boundary, as the tiles it is added to: at n = 500 an
    # estimate ran about 10% slower with the tiles 16, 32 or 48 bytes past one
    dx2 = _aligned(own.size * c.shape[1]).reshape(*r.shape, c.shape[1])
    _x_squared(xr[..., None], x.take(c)[:, None], dx2).reshape(-1)[own] = np.inf
    dx2.flags.writeable = False
    if below is None:
        return dx2, None
    # fl is monotone, so no column past the first outside the band is nearer
    lo = np.where(below < 0, -np.inf, x.take(below))[:, None]
    hi = np.where(above < 0, np.inf, x.take(above))[:, None]
    gap = np.minimum((xr - lo) ** 2, (hi - xr) ** 2)
    gap.flags.writeable = False
    return dx2, gap


def _nearest_squared(x, y):
    """The tiled or whole-set scan of the m sets of points (x[i], y[s, i]),
    x (n,) and y (m, n): each point's nearest neighbour's index and its
    squared first and second nearest-neighbour distances, stacked (2, m, n).
    The x tables come from ``_tiles``; each chunk works on y."""
    m, n = y.shape
    r, c = _band(n)[:2]
    dx2, gap = _tiles(x.tobytes())
    cells = dx2.size
    step = max(1, min(m, (_BRUTE_CELLS if gap is None else _BAND_CELLS) // cells))
    work = _aligned(_BRUTE_CELLS)
    tiles = work[: step * cells].reshape(step, *dx2.shape)
    if gap is not None:
        settled = np.empty((m, *r.shape), dtype=bool)
    idx1 = np.empty((m, n), dtype=np.intp)
    d = np.empty((2, m, n))
    for a in range(0, m, step):
        k = min(step, m - a)
        ya = y[a : a + k]
        yr, yc = ya.take(r, axis=1)[..., None], ya.take(c, axis=1)[:, :, None, :]
        pos, first, second = _reduce(_squared(dx2, yr, yc, tiles[:k]), True)
        d[0][a : a + k, r], d[1][a : a + k, r] = first, second
        idx1[a : a + k, r] = pos + c[:, :1]
        if gap is not None:
            # settled: the gap exceeds the band's second distance
            np.greater(gap, second, out=settled[a : a + k])
    if gap is None:
        return idx1, d
    # every row the band did not settle scans its whole set, once. The last
    # tile starts at n - _BAND_ROWS, so it shares its first rows with the tile
    # before, and either may have stored its answer: such a row is settled
    # only where both tiles settled it
    shared = r.size - n
    if shared:
        settled[:, -1, :shared] &= settled[:, -2, -shared:]
        settled[:, -2, -shared:] = True
    s, t, i = np.nonzero(~settled)
    _scan_rows(x, y, s, r[t, i], d, idx1, work)
    return idx1, d


def _scan_rows(x, y, s_all, p_all, d, idx1, work):
    """Scan the whole set s_all[j] for its row p_all[j], for every j: the
    fallback of both bands for the rows they do not settle. Writes the first
    and, if idx1 is not None, the second distance and the first's index. The
    temporaries of each step come from work, a flat buffer of 3n cells or
    more: the band's own, which its scan no longer needs."""
    n = x.size
    two = idx1 is not None
    per = work.size // (3 * n)
    for b in range(0, len(p_all), per):
        s, p = s_all[b : b + per], p_all[b : b + per]
        sq, gx2, ys = work[: 3 * len(p) * n].reshape(3, len(p), n)
        _x_squared(x[p][:, None], x, gx2)[np.arange(len(p)), p] = np.inf
        _squared(gx2, y[s, p][:, None], np.take(y, s, axis=0, out=ys), sq)
        pos, d[0, s, p], second = _reduce(sq, two)
        if two:
            d[1, s, p], idx1[s, p] = second, pos


def _reach(n):
    """R(n), the reach of the diagonal band over n points; from n = 6 down it is
    n - 1, every pair (R(3) = 4 took 1.6x the time per batch, 2-core VM)."""
    return min(n - 1, math.ceil(_DIAGONAL_SCALE * math.sqrt(n)))


@lru_cache(maxsize=4)
def _diagonal(xb):
    """The diagonal band over the x row whose bytes are xb: its reach R, the
    (R, n) squared x-gaps of each row i to row i + 1 + delta, inf past the
    last row, and the squared x-gap of each row to the ranks i +- (R + 1),
    the nearer one. Read-only."""
    x = np.frombuffer(xb)
    n, reach = x.size, _reach(x.size)
    # x past the last row is inf, so every gap to it is inf too
    ahead = np.lib.stride_tricks.sliding_window_view(np.append(x[1:], np.full(reach, np.inf)), n)
    dx2 = _x_squared(x, ahead, _aligned(reach * n).reshape(reach, n))
    # fl is monotone: no row past i +- (R + 1) lies nearer in x than those two
    far = np.concatenate([np.full(reach + 1, -np.inf), x, np.full(reach + 1, np.inf)])
    gap = np.minimum(_x_squared(x, far[:n], np.empty(n)), _x_squared(far[-n:], x, np.empty(n)))
    dx2.flags.writeable = gap.flags.writeable = False
    return reach, dx2, gap


def _nearest_diagonal(x, y):
    """Squared nearest-neighbour distances, stacked (1, m, n), of the m sets
    of points (x[i], y[s, i]) below the tree: the diagonal band.

    Each chunk computes d2(i, i + 1 + delta) for delta < R once per pair, into
    a contiguous (sets, R, n) block: y less a sliding window of y, squared,
    plus the cached x-gaps, inf past the last row. The forward minimum of row
    i reduces the block over delta. The backward one, over
    d2(i, i - 1 - delta) = d2(i - 1 - delta, i), reduces a skewed read-only
    view of the same block whose rows step n - 1 cells: where
    i - 1 - delta < 0 it reads the inf tail of the row before, and row 0 has
    no backward cells. Both reductions run over whole contiguous rows; on a
    block of rows that are not contiguous with each other numpy's
    elementwise steps took about 4x as long per cell (2-core VM).
    """
    m, n = y.shape
    reach, dx2, gap = _diagonal(x.tobytes())
    step = max(1, min(m, _DIAGONAL_CELLS // (reach * n)))
    work = _aligned(_DIAGONAL_CELLS)
    block = work[: step * reach * n].reshape(step, reach, n)
    st, sr, sc = block.strides
    back = np.ndarray((step, reach, n - 1), buffer=block, strides=(st, sr - sc, sc))
    # y[s, i + 1 + delta], and 0 past the last row, where the x-gap is inf
    ypad = np.zeros((m, n - 1 + reach))
    ypad[:, : n - 1] = y[:, 1:]
    ahead = np.ndarray((m, reach, n), buffer=ypad, strides=(ypad.strides[0], sc, sc))
    # read-only ndarrays over the buffers: 1.4-1.8 against 4.5-4.8 us a view for as_strided
    back.flags.writeable = ahead.flags.writeable = False
    d = np.empty((1, m, n))
    for a in range(0, m, step):
        k = min(step, m - a)
        first = d[0, a : a + k]
        _squared(dx2, y[a : a + k, None], ahead[a : a + k], block[:k]).min(axis=1, out=first)
        np.minimum(first[:, 1:], back[:k].min(axis=1), out=first[:, 1:])
    s, p = (gap <= d[0]).nonzero()  # unsettled: a row past the band may be nearer
    if p.size:
        _scan_rows(x, y, s, p, d, None, work)
    return d


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


def _scan_input(x, y):
    """Validate the shared x row and the y of one set (n,) or a batch (m, n);
    return x and y as float arrays, y with a batch axis."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise SizeError("expected one x row of n coordinates and y of shape (n,) or (m, n)")
    if x.size < 2:
        raise SizeError("need at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SizeError("coordinates must be finite")
    if not (x[1:] >= x[:-1]).all():
        raise SizeError("x must be non-decreasing: each set in x order")
    return x, np.ascontiguousarray(y).reshape(-1, x.size)


def two_nearest_neighbors(x, y):
    """Exact first and second nearest-neighbour distances of the points
    (x[i], y[..., i]): one non-decreasing x row of n coordinates that every
    set shares, and y of one set (n,) or a batch of sets (m, n)."""
    xs, ys = _scan_input(x, y)
    if xs.size >= _TREE_MIN_N:
        idx1 = np.empty(ys.shape, dtype=np.intp)
        d1, d2 = np.empty((2, *ys.shape))
        for s, y_s in enumerate(ys):
            idx1[s], d1[s], d2[s] = _two_nearest_tree(np.column_stack([xs, y_s]))
    else:
        idx1, sq = _nearest_squared(xs, ys)
        d1, d2 = np.sqrt(sq)
    return TwoNearest(*(a.reshape(np.shape(y)) for a in (idx1, d1, d2)))


def nearest_distances(x, y):
    """Exact nearest-neighbour distances of the points (x[i], y[..., i]), in
    the shape of y; they equal ``two_nearest_neighbors(x, y).values`` bit for bit.
    """
    xs, ys = _scan_input(x, y)
    if xs.size >= _TREE_MIN_N:
        return two_nearest_neighbors(xs, y).values
    return np.sqrt(_nearest_diagonal(xs, ys)[0]).reshape(np.shape(y))
