import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_sh_legendre

from hellcorr.basis import MAX_DEGREE, design_matrix
from hellcorr.errors import CapabilityError, DomainError


def test_degree_zero_is_one():
    u = np.linspace(0, 1, 17)
    assert np.all(design_matrix(u, 0) == 1.0)


def test_closed_forms():
    u = np.linspace(0.0, 1.0, 101)
    m = design_matrix(u, 2)
    np.testing.assert_allclose(m[:, 1], np.sqrt(3.0) * (2 * u - 1), atol=1e-14)
    np.testing.assert_allclose(m[:, 2], np.sqrt(5.0) * (6 * u * u - 6 * u + 1), atol=1e-13)


def test_matches_reference_polynomials():
    u = np.linspace(0.0, 1.0, 53)
    m = design_matrix(u, MAX_DEGREE)
    for k in range(MAX_DEGREE + 1):
        ref = np.sqrt(2.0 * k + 1.0) * eval_sh_legendre(k, u)
        np.testing.assert_allclose(m[:, k], ref, atol=1e-10, rtol=1e-10)


def test_orthonormal_under_quadrature():
    # 64-node Gauss-Legendre integrates polynomials up to degree 127 exactly,
    # far beyond the degree-40 products appearing here
    nodes, weights = np.polynomial.legendre.leggauss(64)
    u = (nodes + 1.0) / 2.0
    w = weights / 2.0
    m = design_matrix(u, MAX_DEGREE)
    gram = (m * w[:, None]).T @ m
    np.testing.assert_allclose(gram, np.eye(MAX_DEGREE + 1), atol=1e-12)


def test_domain_checks():
    with pytest.raises(DomainError):
        design_matrix(np.array([-0.01]), 3)
    with pytest.raises(DomainError):
        design_matrix(np.array([1.01]), 3)
    with pytest.raises(DomainError):
        design_matrix(np.array([0.5]), -1)
    with pytest.raises(CapabilityError):
        design_matrix(np.array([0.5]), MAX_DEGREE + 1)


def test_basis_eval_scalar_and_row():
    assert design_matrix(0.3, 0)[0, 0] == 1.0
    assert design_matrix(0.5, 1)[0, 1] == pytest.approx(0.0, abs=1e-15)
    # a scalar gives one row; the tensor values are the outer product of two rows
    p, q = design_matrix(0.3, 2), design_matrix(0.7, 3)
    assert p.shape == (1, 3) and q.shape == (1, 4)
    row = np.outer(p, q)
    assert row.shape == (3, 4)
    b1, b2 = np.sqrt(3.0) * (2 * 0.3 - 1), np.sqrt(5.0) * (6 * 0.49 - 6 * 0.7 + 1)
    assert row[1, 2] == pytest.approx(b1 * b2)


@given(st.floats(0.0, 1.0), st.integers(0, MAX_DEGREE))
def test_bounded_by_sqrt_2k_plus_1(u, k):
    assert abs(design_matrix(u, k)[0, k]) <= np.sqrt(2.0 * k + 1.0) + 1e-9
