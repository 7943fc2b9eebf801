"""Orthonormal shifted Legendre polynomials on [0, 1].

The series machinery expands the square root of the copula density in the
tensor products b_k(u1) b_l(u2), where b_k is the Legendre polynomial of
degree k shifted to [0, 1] and normalized so that its L2 norm is one:
b_k(u) = sqrt(2k+1) P_k(2u - 1). b_0 is identically 1.
"""

from functools import lru_cache

import numpy as np

from .errors import CapabilityError, DomainError

MAX_DEGREE = 20
# observations one batched step holds: the block size of estimate_batch and of the
# resampling procedures, and the rows of a tensor_sums step; temporaries stay near 1 MB
BATCH_POINTS = 1 << 12
# product cells a tensor_sums step holds: at bound 20 and n = 4,096 a call peaked at 5.6 MB
_PRODUCT_CELLS = 1 << 18


def _check_unit(u):
    u = np.asarray(u, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("basis arguments must lie in [0, 1]")
    return u


def design_matrix(u, max_degree):
    """Evaluate b_0..b_max_degree at each u, along a new last axis.

    u of shape (...) gives a (..., max_degree+1) array; a scalar gives
    (1, max_degree+1). Uses the three-term recurrence for P_k, which is
    stable for every degree this module supports; the scaling to orthonormal
    form is applied once at the end.
    """
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    if max_degree > MAX_DEGREE:
        raise CapabilityError(f"basis degree {max_degree} exceeds the supported maximum {MAX_DEGREE}")
    u = _check_unit(np.atleast_1d(u))
    x = 2.0 * u - 1.0
    out = np.empty(u.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree >= 1:
        out[..., 1] = x
    for k in range(1, max_degree):
        out[..., k + 1] = ((2 * k + 1) * x * out[..., k] - k * out[..., k - 1]) / (k + 1)
    return out * np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)


@lru_cache(maxsize=8)
def _rank_table(n, degree):
    """``design_matrix`` at the n rank points r/(n+1), read-only: 2.4 MB at
    n = 50,000 and degree 5."""
    table = design_matrix(np.arange(1, n + 1) / (n + 1.0), degree)
    table.flags.writeable = False
    return table


def design_at(u, degree):
    """``design_matrix`` at u (..., n), where u is float; where u holds integer
    ranks 1..n instead, the rows of a per-n table at the rank points r/(n+1),
    taken by rank: the same values bit for bit, without the recurrence. At
    degree 3, per n = 500 block of 8 samples, the recurrence took 145 us, a
    fancy-index gather 51 us and the take 8 us; at n = 50,000 and degree 5,
    3.9 ms against 0.41 ms for the take (2-core VM).
    """
    u = np.asarray(u)
    if u.dtype.kind not in "iu":
        return design_matrix(u, degree)
    n = u.shape[-1]
    if u.min() < 1 or u.max() > n:
        raise DomainError(f"integer ranks must lie in 1..{n}")
    return _rank_table(n, degree).take(u - 1, axis=0)


def tensor_sums(weights, P, Q):
    """Table sum_i weights[i] P[i, k] Q[i, l] of shape (..., K+1, L+1).

    weights is (..., n), P (..., n, K+1) and Q (..., n, L+1). A step takes up to
    BATCH_POINTS rows of every sample, and the rows k of the table whose products
    fit in _PRODUCT_CELLS cells; ``estimate_batch``'s blocks bound the batch.
    Each entry adds its terms in an order fixed by n alone, so it does not depend
    on the other samples of a batch, the table's size or its place in the table.
    """
    *batch, n, kp = P.shape
    lp = Q.shape[-1]
    w, P, Q = weights.reshape(-1, n), P.reshape(-1, n, kp), Q.reshape(-1, n, lp)
    out = np.zeros((len(w), kp * lp))
    for i in range(0, n, BATCH_POINTS):
        # factor values degree first, so that each entry sums a contiguous row
        p = np.ascontiguousarray(P[:, i : i + BATCH_POINTS].transpose(0, 2, 1))
        q = np.ascontiguousarray(Q[:, i : i + BATCH_POINTS].transpose(0, 2, 1))
        per = max(1, _PRODUCT_CELLS // q.size)  # rows k of the table a step takes
        for k in range(0, kp, per):
            prod = (p[:, k : k + per, None, :] * q[:, None, :, :]).reshape(len(p), -1, q.shape[-1])
            out[:, k * lp : (k + per) * lp] += np.einsum("mi,mci->mc", w[:, i : i + BATCH_POINTS], prod)
    return out.reshape((*batch, kp, lp))

