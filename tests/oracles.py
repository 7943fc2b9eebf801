"""Plain reference implementations the tests compare the fast paths with.

Each is written the direct way, one sample at a time, and shares no code
path with the package beyond the Beta(6,6) functions and the error it imports.
The whole-sample coefficient tables are the exception: they build the basis
and its products for the whole sample at once and sum them through the
package's ``tensor_sums``, so that they pin the row steps bit for bit.
"""

import math
from collections import namedtuple
from zlib import crc32

import numpy as np

from hellcorr.basis import design_at, tensor_sums
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


def corner_sums(tables):
    """Exactly rounded sum of each top-left block [:K+1, :L+1] of (..., K, L)
    tables, one fsum over the whole block for every corner."""
    kp, lp = tables.shape[-2:]
    flat = tables.reshape(-1, kp, lp).tolist()
    sums = [
        [math.fsum(v for r in t[: K + 1] for v in r[: L + 1]) for t in flat]
        for K, L in np.ndindex(kp, lp)
    ]
    return np.array(sums).T.reshape(tables.shape)


def seed_sequence_stream(seed, *path):
    """The Generator numpy's own SeedSequence keys for (seed, path), strings
    hashed with crc32 as the package names its substreams."""
    key = tuple(p if isinstance(p, (int, np.integer)) else crc32(str(p).encode()) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def beta_copula(ranks, n_out, rng):
    """n_out draws from the empirical beta copula of (n, 2) ranks: a uniform
    donor per row, then one rng.beta call per coordinate."""
    n = ranks.shape[0]
    rd = ranks[rng.integers(0, n, n_out)]
    x = rng.beta(rd[:, 0], n + 1 - rd[:, 0])
    y = rng.beta(rd[:, 1], n + 1 - rd[:, 1])
    return np.column_stack((x, y))


def stable_ranks(samples):
    """Ranks 1..n of each column of each (n, 2) sample of (..., n, 2)
    samples, ties by input order: one stable argsort per column."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-2]
    ranks = np.empty(samples.shape, dtype=np.int64)
    for idx in np.ndindex(samples.shape[:-2]):
        for j in (0, 1):
            order = np.argsort(samples[idx][:, j], kind="stable")
            ranks[idx][order, j] = np.arange(1, n + 1)
    return ranks


def peano_two_pass(n, d, rng):
    """``gen_peano(n, d, rng)`` at finite depth d, with every ternary digit
    of the cells extracted in a first pass before the digits are accumulated
    in a second."""
    cells = rng.integers(0, 3**d, n)
    res = rng.random(n)
    digits = np.empty((d, n), dtype=np.int64)
    rem = cells
    for pos in range(d - 1, -1, -1):
        digits[pos] = rem % 3
        rem = rem // 3
    x, y = np.zeros(n), np.zeros(n)
    even_sum = np.zeros(n, dtype=np.int64)
    odd_sum = np.zeros(n, dtype=np.int64)
    for pos in range(1, d + 1):
        t = digits[pos - 1]
        if pos % 2 == 1:
            x = x + np.where(even_sum % 2 == 1, 2 - t, t) * 3.0 ** -((pos + 1) // 2)
            odd_sum = odd_sum + t
        else:
            y = y + np.where(odd_sum % 2 == 1, 2 - t, t) * 3.0 ** -(pos // 2)
            even_sum = even_sum + t
    x = x + 3.0 ** -((d + 1) // 2) * np.where(even_sum % 2 == 1, 1.0 - res, res)
    y = y + 3.0 ** -(d // 2) * np.where(odd_sum % 2 == 1, 1.0 - res, res)
    return np.column_stack((x, y))


def whole_sample_cell_tables(points, nn, kmax, lmax, weights=None):
    """The cross-validation coefficient and cross-term tables of points
    (..., n, 2), or of their integer ranks, from whole-sample design tables
    and their products: one ``tensor_sums`` call per term."""
    n = points.shape[-2]
    w = 1.0 if weights is None else np.asarray(weights, dtype=float)
    at = nn.index + np.arange(0, nn.index.size, n).reshape(*nn.index.shape[:-1], 1)
    rw = nn.values * w
    g = (nn.second - nn.values) * w * rw.take(at)
    P = design_at(points[..., 0], kmax)
    Q = design_at(points[..., 1], lmax)
    tf = tensor_sums(rw, P, Q)
    t2 = tensor_sums(rw * rw, P * P, Q * Q)
    near_p = P.reshape(-1, kmax + 1).take(at, axis=0)
    near_q = Q.reshape(-1, lmax + 1).take(at, axis=0)
    t3 = tensor_sums(g, P * near_p, Q * near_q)
    cn = 2.0 * math.sqrt(n - 1.0) / n
    cn1 = 2.0 * math.sqrt(n - 2.0) / (n - 1.0)
    return cn * tf, cn * cn1 * (tf * tf - t2 + t3)


def whole_sample_beta_hat_table(points, nn_values, K, L, weights=None):
    """The fixed-cutoff coefficient table of points (..., n, 2), or of their
    integer ranks, from whole-sample design tables in one ``tensor_sums`` call."""
    rw = np.asarray(nn_values, dtype=float)
    if weights is not None:
        rw = rw * weights
    n = points.shape[-2]
    cn = 2.0 * math.sqrt(n - 1.0) / n
    return cn * tensor_sums(rw, design_at(points[..., 0], K), design_at(points[..., 1], L))
