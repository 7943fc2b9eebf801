"""Hellinger correlation point estimation.

The raw functional B equals the integral of the square root of the copula
density; it is estimated by a weighted sum of nearest-neighbour distances
between rank points and mapped to the correlation scale through the exact
inverse of the bivariate Gaussian relationship. The plug-in sum is biased
for rough densities, so the default path projects it onto a tensor
Legendre basis and normalizes by the coefficient norm, with the truncation
chosen by cross-validation.

One core serves every estimate: ``estimate`` runs it on one sample and
``estimate_batch`` on a batch of same-size samples, cross-validated or at
fixed cutoffs, with one scan, one coefficient table and one normalization.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import BATCH_POINTS, MAX_DEGREE, _step_sums
from .cv import CvResult, select_cutoffs
from .errors import ConfigError, DegenerateDataError, DomainError, _integer
from .ranks_nn import (
    TwoNearest, as_sample, as_samples, column_ranks, nearest_distances, pseudo_observations,
    two_nearest_neighbors,
)
from .transform import beta66_pdf, beta66_quantile

_TRANSFORMS = ("none", "beta66")


@dataclass(frozen=True)
class EstimateConfig:
    """Estimation settings.

    cutoffs: fixed (K, L) basis truncation, or None to cross-validate.
    kmax, lmax: cross-validation search bounds.
    transform: "beta66" maps ranks through the Beta(6,6) quantile before
    measuring distances (recommended), "none" uses the ranks directly.
    """

    cutoffs: tuple = None
    kmax: int = 5
    lmax: int = 5
    transform: str = "beta66"

    def __post_init__(self):
        if self.transform not in _TRANSFORMS:
            raise ConfigError(f"transform must be one of {_TRANSFORMS}")
        for name in ("kmax", "lmax"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 0, MAX_DEGREE))
        if self.cutoffs is not None:
            try:
                k, l = self.cutoffs
            except (TypeError, ValueError):  # not iterable, or not two items
                raise ConfigError(f"cutoffs must be a pair of integers in [0, {MAX_DEGREE}]") from None
            pair = tuple(_integer(v, "each cutoff", 0, MAX_DEGREE) for v in (k, l))
            object.__setattr__(self, "cutoffs", pair)


@dataclass(frozen=True)
class EstimateResult:
    b_raw: float
    b_normalized: float
    eta: float
    cutoffs: tuple
    transform_used: str
    tie_warning: bool
    raw_mode: bool
    cv: CvResult = field(repr=False)
    config: EstimateConfig = field(repr=False)


def eta_from_B(b):
    """Map the square-root-density integral B to the correlation scale.

    Solves for the absolute Gaussian correlation with the same Hellinger
    distance. The closed form 2 sqrt((s - 1) / (s + 2)) with
    s = sqrt(4 - 3 B^4) is an exact rewrite of the quartic root that stays
    accurate at both ends of [0, 1], where the direct expression cancels.
    Arrays map elementwise; only correctly rounded operations are used, so
    a value maps the same alone or in any array.
    """
    b = np.asarray(b, dtype=float)
    if not np.all((b >= 0.0) & (b <= 1.0)):
        raise DomainError("B must lie in [0, 1]")
    b2 = b * b
    s = np.sqrt(4.0 - 3.0 * (b2 * b2))
    out = 2.0 * np.sqrt(np.maximum(s - 1.0, 0.0) / (s + 2.0))
    return out if out.ndim else float(out)


def gaussian_B(rho):
    """Square-root-density integral of the Gaussian copula."""
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise DomainError("correlation must lie in [-1, 1]")
    r2 = rho * rho
    return (1.0 - r2) ** 0.25 / math.sqrt(1.0 - r2 / 4.0)


def gaussian_H2(rho):
    """Squared Hellinger distance from independence for the Gaussian copula."""
    return 1.0 - gaussian_B(rho)


def pearson(sample):
    """Plain product-moment correlation."""
    arr = as_sample(sample)
    # scaling a column by a power of two is exact; bringing its largest magnitude
    # into [0.5, 1) keeps the means and the dot products from over- or underflowing
    arr = np.ldexp(arr, -np.frexp(np.max(np.abs(arr), axis=0))[1])
    xc = arr[:, 0] - arr[:, 0].mean()
    yc = arr[:, 1] - arr[:, 1].mean()
    den = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if den == 0.0:
        raise DegenerateDataError("a margin has zero variance")
    return float(np.dot(xc, yc)) / den


@lru_cache(maxsize=16)
def _rank_transform_tables(n):
    """Beta(6,6) quantiles and sqrt-densities of the n rank points."""
    tq = beta66_quantile(np.arange(1, n + 1) / (n + 1.0))
    sw = np.sqrt(beta66_pdf(tq))
    tq.flags.writeable = False
    sw.flags.writeable = False
    return tq, sw


def beta_hat_table(points, nn_values, K, L, weights=None):
    """Estimated basis coefficients of the square-root copula density.

    Entry (k, l) pairs the nearest-neighbour sum with the degree-(k, l)
    tensor basis function evaluated at the rank points. Leading batch axes
    of points (..., n, 2) and nn_values (..., n) carry through to the
    (..., K+1, L+1) result (``basis.tensor_sums``). Integer ranks in place of
    the points read the basis from a per-n table (``basis.design_at``).
    """
    pts = np.asarray(points)
    v = np.asarray(nn_values, dtype=float)
    rw = v if weights is None else v * np.asarray(weights, dtype=float)
    n = pts.shape[-2]
    cn = 2.0 * math.sqrt(n - 1.0) / n
    return cn * _step_sums(pts, rw, K, L)[0]


def normalize_b(beta):
    """Ratio of the constant coefficient to the norm of a fixed-cutoff table.

    The ratio estimates B and lands in [0, 1] by construction because the
    constant coefficient is one term of the norm. Leading batch axes of
    beta carry through. Each norm is an exactly rounded sum, which does not
    depend on the order of the table's entries (``CvResult.norm2`` too).
    """
    beta = np.asarray(beta, dtype=float)
    cells = (beta * beta).reshape(-1, beta.shape[-2] * beta.shape[-1]).tolist()
    norm2 = np.array([math.fsum(c) for c in cells]).reshape(beta.shape[:-2])
    out = _over_norm(beta[..., 0, 0], norm2)
    return out if out.ndim else float(out)


def _over_norm(b, norm2):
    """b over the square root of norm2, refusing a zero norm."""
    if np.any(norm2 == 0.0):
        raise DegenerateDataError("all basis coefficients vanish")
    return b / np.sqrt(norm2)


def _rank_coordinates(ranks, transform):
    """The coordinate each rank 1..n takes for the nearest-neighbour
    distances, an (n,) row, and the weight of each point of the ranks."""
    n = ranks.shape[-2]
    if transform == "none":
        return np.arange(1, n + 1) / (n + 1.0), None
    tq, sw = _rank_transform_tables(n)
    return tq, sw[ranks[..., 0] - 1] * sw[ranks[..., 1] - 1]


def _nearest(ranks, coord, two):
    """Nearest-neighbour distances of the points coord[ranks - 1] of m sets,
    in input order: a ``TwoNearest`` if two, else the first distances.

    Each set goes to the scan in its rank frame, its rows in x-rank order
    (the inverse of its x-ranks), where its x coordinates are coord, the one
    row every set shares. Results come back through the order.
    """
    m, n, _ = ranks.shape
    # flat indices over the batch: a flat take of one n = 500 set took 1.5 us
    # against 9.5 us for take_along_axis (2-core VM)
    off = np.arange(0, m * n, n)[:, None]
    at = ranks[..., 0] - 1 + off  # each row's place in the batch's frame
    y = np.empty(m * n)
    y[at] = coord[ranks[..., 1] - 1]  # each row's y at its place
    y = y.reshape(m, n)
    if not two:
        return nearest_distances(coord, y).take(at)
    row = np.empty(m * n, dtype=np.intp)
    row[at.ravel()] = np.arange(m * n)  # the row at each place
    nn = two_nearest_neighbors(coord, y)
    return TwoNearest(row[nn.index.take(at) + off] - off, nn.values.take(at), nn.second.take(at))


def _estimable(samples):
    """Validate m same-size samples (m, n, 2). A constant column is refused:
    its ranks would reflect only the input order or a jitter, not dependence."""
    arr = as_samples(samples)
    # each column is tested along a contiguous row of a column-major copy: 10 against
    # 76 us along the strided axis 1 per (8, 500, 2) block, 52 against 940 us on one
    # n = 50,000 sample (2-core VM)
    cols = arr.transpose(0, 2, 1).copy()
    if (cols == cols[..., :1]).all(axis=-1).any():
        raise DegenerateDataError("a margin is constant, so the sample carries no dependence")
    return arr


def _estimate_core(ranks, cfg):
    """Raw and normalized B, cutoffs and CV result of m samples' ranks (m, n, 2).

    Under cross-validation each sample's norm is the one its selection read
    (``CvResult.norm2``). When (0, 0) is the only pair on offer the raw sum,
    capped at 1, stands in for the normalized one. The nearest-neighbour scan
    gets each sample in its rank frame (``_nearest``): the x-order is the
    inverse of the x-ranks, and the x row the samples share is the
    coordinates of the ranks 1..n.
    """
    coord, wts = _rank_coordinates(ranks, cfg.transform)
    if cfg.cutoffs is None:
        cv = select_cutoffs(ranks, _nearest(ranks, coord, True), cfg.kmax, cfg.lmax, weights=wts)
        cutoffs, beta = cv.best, cv.beta
    else:
        cv = None
        cutoffs = [cfg.cutoffs] * len(ranks)
        beta = beta_hat_table(ranks, _nearest(ranks, coord, False), *cfg.cutoffs, weights=wts)
    braw = beta[:, 0, 0]
    if (cfg.cutoffs or (cfg.kmax, cfg.lmax)) == (0, 0):
        return braw, np.minimum(braw, 1.0), cutoffs, cv
    return braw, normalize_b(beta) if cv is None else _over_norm(braw, cv.norm2), cutoffs, cv


def estimate(sample, config=None, jitter_seed=None):
    """Estimate the Hellinger correlation from a bivariate sample."""
    cfg = config if config is not None else EstimateConfig()
    arr = _estimable(np.asarray(sample, dtype=float)[None])[0]
    pseudo = pseudo_observations(arr, jitter_seed=jitter_seed)
    braw, bnorm, cutoffs, cv = _estimate_core(pseudo.ranks[None], cfg)
    if cv is not None:
        cv = CvResult(best=cv.best[0], scores=cv.scores[0], beta=cv.beta[0], norm2=cv.norm2[0])
    return EstimateResult(
        b_raw=float(braw[0]),
        b_normalized=float(bnorm[0]),
        eta=eta_from_B(float(bnorm[0])),
        cutoffs=cutoffs[0],
        transform_used=cfg.transform,
        tie_warning=pseudo.tie_warning,
        raw_mode=cutoffs[0] == (0, 0),
        cv=cv,
        config=cfg,
    )


def estimate_batch(samples, config=None):
    """Etas of m same-size samples (m, n, 2), from the estimation core.

    Each eta equals ``estimate(samples[i], config).eta`` bit for bit, at the
    same cutoffs, whatever the other samples. Ties are ranked by input
    order, without a warning.
    """
    cfg = config if config is not None else EstimateConfig()
    arr = _estimable(samples)
    # blocks of about BATCH_POINTS observations bound the temporaries of a large batch
    step = max(1, BATCH_POINTS // arr.shape[1])
    blocks = (arr[a : a + step] for a in range(0, len(arr), step))
    parts = [_estimate_core(column_ranks(b)[0], cfg)[1] for b in blocks]
    return eta_from_B(np.concatenate(parts)) if parts else np.empty(0)
