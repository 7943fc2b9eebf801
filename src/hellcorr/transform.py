"""Margin transform that moves rank points away from the unit-square edges.

Mapping each coordinate through the Beta(6,6) quantile function concentrates
mass near the centre, where nearest-neighbour density estimation behaves
well, and the change of variables is undone by the sqrt-density weights
carried alongside the transformed points.
"""

import numpy as np
from scipy.special import betaincinv

from .errors import DomainError

_A = 6.0
# 1 / Beta(6, 6)
_NORM = 2772.0


def beta66_pdf(t):
    """Density of the Beta(6,6) distribution."""
    t = np.asarray(t, dtype=float)
    out = np.where((t < 0) | (t > 1), 0.0, _NORM * (t * (1.0 - t)) ** 5)
    return out if out.ndim else float(out)


def beta66_quantile(p):
    """Quantile function of Beta(6,6); defined on the open interval only."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("quantile argument must lie strictly between 0 and 1")
    out = betaincinv(_A, _A, p)
    return out if out.ndim else float(out)

