"""Orthonormal shifted Legendre polynomials on [0, 1].

The series machinery expands the square root of the copula density in the
tensor products b_k(u1) b_l(u2), where b_k is the Legendre polynomial of
degree k shifted to [0, 1] and normalized so that its L2 norm is one:
b_k(u) = sqrt(2k+1) P_k(2u - 1). b_0 is identically 1.
"""

import numpy as np

from .errors import CapabilityError, DomainError

MAX_DEGREE = 20
# observations one batched step holds: the rows of one step of tensor_sums and
# the block size of the resampling procedures; temporaries stay near 1 MB
BATCH_POINTS = 1 << 12


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


def tensor_sums(weights, P, Q):
    """Table sum_i weights[i] P[i, k] Q[i, l] of shape (..., K+1, L+1).

    weights is (..., n), P (..., n, K+1) and Q (..., n, L+1). Each entry adds
    its terms in an order fixed by n alone, so it does not depend on the other
    samples of a batch, the table's size or its place in the table.
    """
    *batch, n, kp = P.shape
    lp = Q.shape[-1]
    w, P, Q = weights.reshape(-1, n), P.reshape(-1, n, kp), Q.reshape(-1, n, lp)
    rows = min(n, BATCH_POINTS)
    reps = BATCH_POINTS // rows
    out = np.zeros((len(w), kp * lp))
    for a in range(0, len(w), reps):
        for i in range(0, n, rows):
            # factor values degree first, so that each entry sums a contiguous row
            p = np.ascontiguousarray(P[a : a + reps, i : i + rows].transpose(0, 2, 1))
            q = np.ascontiguousarray(Q[a : a + reps, i : i + rows].transpose(0, 2, 1))
            prod = (p[:, :, None, :] * q[:, None, :, :]).reshape(len(p), kp * lp, -1)
            out[a : a + reps] += np.einsum("mi,mci->mc", w[a : a + reps, i : i + rows], prod)
    return out.reshape((*batch, kp, lp))

