"""Hellinger correlation point estimation.

The raw functional B equals the integral of the square root of the copula
density; it is estimated by a weighted sum of nearest-neighbour distances
between rank points and mapped to the correlation scale through the exact
inverse of the bivariate Gaussian relationship. The plug-in sum is biased
for rough densities, so the default path projects it onto a tensor
Legendre basis and normalizes by the coefficient norm, with the truncation
chosen by cross-validation.

Resampling estimates many same-size samples at fixed cutoffs;
``estimate_batch`` runs them as one batch through the same coefficient
table and normalization that ``estimate`` uses.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import MAX_DEGREE, design_matrix
from .cv import CvResult, select_cutoffs
from .errors import ConfigError, DegenerateDataError, DomainError, SizeError
from .ranks_nn import (
    as_sample,
    column_ranks,
    nearest_distances,
    pseudo_observations,
    two_nearest_neighbors,
)
from .transform import beta66_pdf, beta66_quantile

_TRANSFORMS = ("none", "beta66")
# observations one batched step holds at once: the rows of the basis-product
# table formed per step and the block size of the resampling procedures.
# Their temporaries stay near 1 MB, which keeps peak memory where it was.
BATCH_POINTS = 1 << 12


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
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v <= MAX_DEGREE:
                raise ConfigError(f"{name} must be an integer in [0, {MAX_DEGREE}]")
        if self.cutoffs is not None:
            k, l = self.cutoffs
            if not all(isinstance(v, (int, np.integer)) and 0 <= v <= MAX_DEGREE for v in (k, l)):
                raise ConfigError(f"cutoffs must be integers in [0, {MAX_DEGREE}]")
            object.__setattr__(self, "cutoffs", (int(k), int(l)))


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


def b_hat_raw(nn_values, weights=None, n=None):
    """Plug-in estimate of B from nearest-neighbour distances."""
    v = np.asarray(nn_values, dtype=float)
    n = v.shape[0] if n is None else n
    if n < 2:
        raise SizeError("need at least 2 observations")
    cn = 2.0 * math.sqrt(n - 1.0) / n
    if weights is None:
        return cn * float(np.sum(v))
    return cn * float(np.dot(v, np.asarray(weights, dtype=float)))


def beta_hat_table(points, nn_values, K, L, weights=None):
    """Estimated basis coefficients of the square-root copula density.

    Entry (k, l) pairs the nearest-neighbour sum with the degree-(k, l)
    tensor basis function evaluated at the rank points. Leading batch axes
    of points (..., n, 2) and nn_values (..., n) carry through to the
    (..., K+1, L+1) result.

    Every entry adds its n terms in the same order, in row chunks whose size
    depends on n alone, so an entry does not depend on the other samples of
    a batch or on its place in the table (which keeps column swaps exact).
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(nn_values, dtype=float)
    rw = v if weights is None else v * np.asarray(weights, dtype=float)
    batch, n = pts.shape[:-2], pts.shape[-2]
    pts = pts.reshape(-1, n, 2)
    rw = rw.reshape(-1, n)
    rows = min(n, BATCH_POINTS)
    reps = BATCH_POINTS // rows
    out = np.zeros((pts.shape[0], (K + 1) * (L + 1)))
    for a in range(0, pts.shape[0], reps):
        for i in range(0, n, rows):
            p = pts[a : a + reps, i : i + rows]
            # basis values degree first, so that each entry sums a contiguous row
            P = np.ascontiguousarray(design_matrix(p[..., 0], K).transpose(0, 2, 1))
            Q = np.ascontiguousarray(design_matrix(p[..., 1], L).transpose(0, 2, 1))
            prod = (P[:, :, None, :] * Q[:, None, :, :]).reshape(len(p), -1, p.shape[1])
            out[a : a + reps] += np.einsum("mi,mci->mc", rw[a : a + reps, i : i + rows], prod)
    cn = 2.0 * math.sqrt(n - 1.0) / n
    return (cn * out).reshape(batch + (K + 1, L + 1))


def normalize_b(beta):
    """Ratio of the constant coefficient to the coefficient norm.

    The ratio estimates B and lands in [0, 1] by construction because the
    constant coefficient is one term of the norm. Leading batch axes of
    beta carry through. Each norm is an exactly rounded sum, which does not
    depend on the order of the table's entries.
    """
    beta = np.asarray(beta, dtype=float)
    cells = (beta * beta).reshape(-1, beta.shape[-2] * beta.shape[-1]).tolist()
    total = np.array([math.fsum(c) for c in cells]).reshape(beta.shape[:-2])
    if np.any(total == 0.0):
        raise DegenerateDataError("all basis coefficients vanish")
    out = beta[..., 0, 0] / np.sqrt(total)
    return out if out.ndim else float(out)


def _distance_points(ranks, transform):
    """Points the nearest-neighbour distances are taken between, and weights."""
    n = ranks.shape[-2]
    if transform == "none":
        return ranks / (n + 1.0), None
    tq, sw = _rank_transform_tables(n)
    return tq[ranks - 1], sw[ranks[..., 0] - 1] * sw[ranks[..., 1] - 1]


def _raw_and_normalized(points, nn_values, weights, K, L):
    """Raw and normalized B at cutoffs (K, L); leading batch axes carry through.

    The raw plug-in sum is the table's constant cell. At (0, 0) there is
    nothing to normalize by, and the raw sum, capped at 1, stands in.
    """
    beta = beta_hat_table(points, nn_values, K, L, weights=weights)
    braw = beta[..., 0, 0]
    if (K, L) == (0, 0):
        return braw, np.minimum(braw, 1.0)
    return braw, normalize_b(beta)


def estimate(sample, config=None, jitter_seed=None):
    """Estimate the Hellinger correlation from a bivariate sample."""
    cfg = config if config is not None else EstimateConfig()
    pseudo = pseudo_observations(sample, jitter_seed=jitter_seed)
    dist_pts, wts = _distance_points(pseudo.ranks, cfg.transform)
    nn = two_nearest_neighbors(dist_pts)

    cvres = None
    if cfg.cutoffs is None:
        cvres = select_cutoffs(pseudo, nn, cfg.kmax, cfg.lmax, weights=wts)
        K, L = cvres.best
    else:
        K, L = cfg.cutoffs

    braw, bnorm = _raw_and_normalized(pseudo.points, nn.values, wts, K, L)
    return EstimateResult(
        b_raw=float(braw),
        b_normalized=float(bnorm),
        eta=eta_from_B(bnorm),
        cutoffs=(K, L),
        transform_used=cfg.transform,
        tie_warning=pseudo.tie_warning,
        raw_mode=(K, L) == (0, 0),
        cv=cvres,
        config=cfg,
    )


def estimate_batch(samples, config):
    """Etas of m same-size samples, (m, n, 2), at the config's fixed cutoffs.

    Runs the steps of ``estimate`` on the whole batch: column ranks, the
    shared transform tables, first nearest-neighbour distances, one
    coefficient table and the normalization. Each eta equals
    ``estimate(samples[i], config).eta`` bit for bit and does not depend on
    the other samples in the batch. Ties are ranked by input order, without
    a warning.
    """
    if config is None or config.cutoffs is None:
        raise ConfigError("estimate_batch needs a config with fixed cutoffs")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SizeError("expected an (m, n, 2) array of bivariate samples")
    if arr.shape[1] < 2:
        raise SizeError("need at least 2 observations")
    if not np.all(np.isfinite(arr)):
        raise SizeError("observations must be finite")
    ranks = column_ranks(arr)
    dist_pts, wts = _distance_points(ranks, config.transform)
    nn_values = nearest_distances(dist_pts)
    _, bnorm = _raw_and_normalized(ranks / (arr.shape[1] + 1.0), nn_values, wts, *config.cutoffs)
    return eta_from_B(bnorm)
