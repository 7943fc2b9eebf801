import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import eval_sh_legendre

from hellcorr.basis import _PRODUCT_CELLS, MAX_DEGREE, _rank_table, design_at, design_matrix, tensor_sums
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


def test_rank_rows_equal_the_recurrence_bitwise():
    # integer ranks 1..n read the rows of a read-only per-n table at the rank
    # points r/(n+1); float points go through the recurrence
    rng = np.random.default_rng(3)
    for n, degree in ((2, 0), (12, 5), (500, MAX_DEGREE)):
        ranks = np.stack([rng.permutation(n) + 1 for _ in range(3)])
        points = ranks / (n + 1.0)
        np.testing.assert_array_equal(design_at(ranks, degree), design_matrix(points, degree))
        np.testing.assert_array_equal(design_at(points, degree), design_matrix(points, degree))
        assert not _rank_table(n, degree).flags.writeable
    for bad in ([0, 1, 2], [1, 2, 4]):
        with pytest.raises(DomainError):
            design_at(np.array(bad), 2)


def test_rank_rows_of_a_step_read_the_sample_table():
    # a step's ranks, shorter than the sample, read the table of the sample's
    # n, which still refuses ranks outside 1..n
    step = np.array([[9, 4], [1, 7]])
    np.testing.assert_array_equal(design_at(step, 3, 9), design_matrix(step / 10.0, 3))
    for bad in ([0, 4], [4, 10]):
        with pytest.raises(DomainError):
            design_at(np.array(bad), 3, 9)


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


@pytest.mark.parametrize("m, n", [(1, 4096), (341, 12)])
def test_tensor_sums_at_bound_20_split_the_product(m, n):
    # one step of rows each: the whole (m, 21 * 21, rows) product took 15.9 MB
    # at (1, 4096) and 18.2 MB at (341, 12); split at whole rows k of the
    # table, its temporaries stay near _PRODUCT_CELLS cells, and every entry
    # sums the same terms in the same order as from the whole product
    rng = np.random.default_rng(m)
    w, P, Q = rng.random((m, n)), rng.standard_normal((m, n, 21)), rng.standard_normal((m, n, 21))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = tensor_sums(w, P, Q)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * _PRODUCT_CELLS
    p, q = (np.ascontiguousarray(f.transpose(0, 2, 1)) for f in (P, Q))
    whole = (p[:, :, None, :] * q[:, None, :, :]).reshape(m, 21 * 21, n)
    np.testing.assert_array_equal(got, np.einsum("mi,mci->mc", w, whole).reshape(m, 21, 21))
