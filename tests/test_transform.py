import numpy as np
import pytest
from scipy import integrate, stats

from hellcorr.errors import DomainError
from hellcorr.estimator import _rank_transform_tables
from hellcorr.transform import beta66_pdf, beta66_quantile

REF = stats.beta(6, 6)


def test_pdf_matches_reference():
    t = np.linspace(0, 1, 201)
    np.testing.assert_allclose(beta66_pdf(t), REF.pdf(t), rtol=1e-12, atol=1e-12)


def test_pdf_zero_outside_support():
    assert beta66_pdf(np.array([-0.5, 1.5])).tolist() == [0.0, 0.0]


def test_pdf_integrates_to_one():
    val, _ = integrate.quad(beta66_pdf, 0.0, 1.0)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_quantile_roundtrip():
    p = np.linspace(0.001, 0.999, 97)
    np.testing.assert_allclose(REF.cdf(beta66_quantile(p)), p, atol=1e-10)


def test_quantile_rejects_boundary():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            beta66_quantile(np.array([bad]))


def test_transform_weights_are_root_density_products():
    # the estimator's tables: quantiles of the rank points i / (n + 1) and the
    # square roots of the density there, whose products weight each point
    for n in (3, 50, 501):
        tq, sw = _rank_transform_tables(n)
        np.testing.assert_allclose(tq, beta66_quantile(np.arange(1, n + 1) / (n + 1.0)), atol=1e-12)
        np.testing.assert_array_equal(sw, np.sqrt(beta66_pdf(tq)))


def test_transform_symmetric_about_half():
    # the quantile map preserves the u -> 1-u symmetry of the density
    u = np.linspace(0.05, 0.95, 19)
    q = beta66_quantile(u)
    np.testing.assert_allclose(q + beta66_quantile(1.0 - u), np.ones_like(q), atol=1e-9)
    # so do the tables of the rank points, which lie symmetric about 1/2
    for n in (4, 51, 500):
        tq, sw = _rank_transform_tables(n)
        np.testing.assert_allclose(tq + tq[::-1], np.ones(n), atol=1e-12)
        np.testing.assert_allclose(sw, sw[::-1], rtol=1e-9)
