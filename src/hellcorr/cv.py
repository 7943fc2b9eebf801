"""Cross-validated choice of the basis truncation cutoffs.

The score for a cutoff pair (K, L) is an unbiased risk estimate
A2(K, L) - 2 B(K, L): A2 is the squared norm of the fitted coefficient
table and B estimates the cross term through leave-one-out coefficients,
which reduce to closed form via first and second nearest-neighbour
distances (removing point i changes the distance of i' only when i was
its nearest neighbour, where it becomes the second-nearest distance).

One set of per-cell tables up to (kmax, lmax), for one sample or a batch,
scores every pair; the score of one pair is its entry of that grid. Each
cell is a ``basis.tensor_sums`` entry, which does not depend on the table's
size, and each block total is an exactly rounded sum. So the (K, L) corner
of the coefficient table is the fixed-cutoff table at (K, L), and the
coordinate-swapped problem gives the transposed grid, bit for bit.

The tables, and the fixed-cutoff table of ``estimator.beta_hat_table``, are
built one ``basis.BATCH_POINTS``-row step at a time (``basis._step_sums``):
each step gathers the basis rows of its points, and of their nearest
neighbours, from the per-n rank table, so no whole-sample design table or
product is built. A warm cross-validated estimate at n = 50,000 took a
median of 0 minor page faults (at most 261) against 3,154-5,574 from
whole-sample tables, and its first call raised RSS by 9.4, 14.8 and 20.8 MB
at bounds 5, 12 and 20 against 17.4, 32.8 and 50.8 MB (with the k-d tree's
columns taken uncopied; one pinned core of a 2-core VM).
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import _step_sums
from .errors import ConfigError, SizeError


@dataclass(frozen=True)
class CvResult:
    """Selected cutoff pair, the full score grid and coefficient table beta.

    For a batch, best lists one pair per sample; scores and beta lead with
    the batch axis.
    """

    best: tuple
    scores: np.ndarray
    beta: np.ndarray = field(repr=False)


def _cell_tables(points, nn, kmax, lmax, weights):
    """Per-cell coefficients and cross-term entries; leading batch axes carry through."""
    n = points.shape[-2]
    w = 1.0 if weights is None else np.asarray(weights, dtype=float)
    # flat index of each point's nearest neighbour over the batch, by which each
    # step takes its neighbours' ranks: a flat take of basis rows by such an
    # index took 0.26 against 1.16 ms for two-array advanced indexing at
    # n = 50,000, and 13 against 55 us per 8-set n = 500 block (one pinned
    # core of a 2-core VM)
    at = nn.index + np.arange(0, nn.index.size, n).reshape(*nn.index.shape[:-1], 1)
    rw = nn.values * w
    g = (nn.second - nn.values) * w * rw.take(at)
    tf, t2, t3 = _step_sums(points, rw, kmax, lmax, (g, at))
    cn = 2.0 * math.sqrt(n - 1.0) / n
    cn1 = 2.0 * math.sqrt(n - 2.0) / (n - 1.0)
    return cn * tf, cn * cn1 * (tf * tf - t2 + t3)


def _corner_sums(tables):
    """Exactly rounded sum of each top-left block [:K+1, :L+1] of (..., K, L) tables."""
    sums = []
    for t in tables.reshape(-1, *tables.shape[-2:]).tolist():
        cols = [[] for _ in t[0]]
        for row in t:
            for L, col in enumerate(cols):
                col.extend(row[: L + 1])
                # fsum rounds the exact sum, so the order the entries came in does not matter
                sums.append(math.fsum(col))
    return np.array(sums).reshape(tables.shape)


def admissible(K, L, kmax, lmax):
    """Whether a cutoff pair may be selected by cross-validation.

    Pairs with K + L < 2 are excluded (when the grid extends that far):
    at (0, 0) the normalized statistic degenerates to zero identically,
    and a single extra coefficient yields an unstable one-term ratio, so
    admitting them collapses the estimate on independent data.
    """
    return K + L >= min(2, kmax + lmax)


@lru_cache(maxsize=8)
def cutoff_grid(kmax, lmax):
    """The admissible cutoff pairs up to (kmax, lmax) in order of preference
    (the smaller K + L, then the smaller K), their K and their L as index
    arrays, and the corner masks: [K, L] of the (kmax + 1, lmax + 1,
    kmax + 1, lmax + 1) bools is true on [:K+1, :L+1]. Read-only."""
    pairs = [(K, s - K) for s in range(kmax + lmax + 1) for K in range(min(s, kmax) + 1)]
    pairs = tuple((K, L) for K, L in pairs if L <= lmax and admissible(K, L, kmax, lmax))
    ks, ls = np.array(pairs).T
    K, L, k, l = np.ogrid[: kmax + 1, : lmax + 1, : kmax + 1, : lmax + 1]
    corners = (k <= K) & (l <= L)
    for a in (ks, ls, corners):
        a.flags.writeable = False
    return pairs, ks, ls, corners


def select_cutoffs(points, nn, kmax=5, lmax=5, weights=None):
    """Scan the cutoff grid and pick the admissible minimiser.

    points are the rank points of one sample, (n, 2), or of a batch of
    same-size samples, (m, n, 2), or their integer ranks, which read the basis
    from a per-n table (``basis.design_at``); nn and weights match them. The
    full score grid is computed for every pair up to (kmax, lmax); ties prefer
    the smaller K + L, then the smaller K.
    """
    if kmax < 0 or lmax < 0:
        raise ConfigError("cutoff bounds must be non-negative")
    if points.shape[-2] < 3:
        raise SizeError("cross-validation needs at least 3 observations")
    beta, cross = _cell_tables(points, nn, kmax, lmax, weights)
    scores = _corner_sums(beta * beta) - 2.0 * _corner_sums(cross)
    pairs, ks, ls, _ = cutoff_grid(kmax, lmax)
    picks = np.argmin(scores[..., ks, ls], axis=-1)  # the first minimum: the preferred pair
    best = pairs[picks] if picks.ndim == 0 else [pairs[i] for i in picks]
    return CvResult(best=best, scores=scores, beta=beta)
