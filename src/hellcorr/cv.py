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
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import design_matrix, tensor_sums
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
    # index of each point's nearest neighbour, within its own sample
    a = np.indices(nn.index.shape, sparse=True)[:-1] + (nn.index,)
    rw = nn.values * w
    g = (nn.second - nn.values) * w * rw[a]
    P = design_matrix(points[..., 0], kmax)
    Q = design_matrix(points[..., 1], lmax)
    tf = tensor_sums(rw, P, Q)
    t2 = tensor_sums(rw * rw, P * P, Q * Q)
    # the last use of P and Q: multiplying in place holds peak memory down
    P *= P[a]
    Q *= Q[a]
    t3 = tensor_sums(g, P, Q)
    cn = 2.0 * math.sqrt(n - 1.0) / n
    cn1 = 2.0 * math.sqrt(n - 2.0) / (n - 1.0)
    return cn * tf, cn * cn1 * (tf * tf - t2 + t3)


def _corner_sums(tables):
    """Exactly rounded sum of each top-left block [:K+1, :L+1] of (..., K, L) tables."""
    kp, lp = tables.shape[-2:]
    flat = tables.reshape(-1, kp, lp).tolist()
    sums = [
        [math.fsum(v for r in t[: K + 1] for v in r[: L + 1]) for t in flat]
        for K, L in np.ndindex(kp, lp)
    ]
    return np.array(sums).T.reshape(tables.shape)


def admissible(K, L, kmax, lmax):
    """Whether a cutoff pair may be selected by cross-validation.

    Pairs with K + L < 2 are excluded (when the grid extends that far):
    at (0, 0) the normalized statistic degenerates to zero identically,
    and a single extra coefficient yields an unstable one-term ratio, so
    admitting them collapses the estimate on independent data.
    """
    return K + L >= min(2, kmax + lmax)


def select_cutoffs(points, nn, kmax=5, lmax=5, weights=None):
    """Scan the cutoff grid and pick the admissible minimiser.

    points are the rank points of one sample, (n, 2), or of a batch of
    same-size samples, (m, n, 2); nn and weights match them. The full score
    grid is computed for every pair up to (kmax, lmax); ties prefer the
    smaller K + L, then the smaller K.
    """
    if kmax < 0 or lmax < 0:
        raise ConfigError("cutoff bounds must be non-negative")
    if points.shape[-2] < 3:
        raise SizeError("cross-validation needs at least 3 observations")
    beta, cross = _cell_tables(points, nn, kmax, lmax, weights)
    scores = _corner_sums(beta * beta) - 2.0 * _corner_sums(cross)
    # admissible pairs in order of preference; argmin keeps the first minimum
    pairs = [(K, s - K) for s in range(kmax + lmax + 1) for K in range(min(s, kmax) + 1)]
    pairs = [(K, L) for K, L in pairs if L <= lmax and admissible(K, L, kmax, lmax)]
    ks, ls = np.array(pairs).T
    picks = np.argmin(scores[..., ks, ls], axis=-1)
    best = pairs[picks] if picks.ndim == 0 else [pairs[i] for i in picks]
    return CvResult(best=best, scores=scores, beta=beta)
