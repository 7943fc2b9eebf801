from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

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


# rank points r / (n + 1) of the sizes the estimator and the benchmarks use
RANK_SIZES = (2, 12, 500, 5000, 50000)


def ulps_apart(a, b):
    """|a - b| in units of the last place of b."""
    return np.abs(a - b) / np.spacing(np.abs(b))


def test_quantile_tiny_p_is_closed_form_tail():
    # below 1e-100 the tail I_x(6,6) = 462 x^6 (1 + O(x)) fixes x = (p/462)^(1/6)
    # to far better than rounding; Decimal computes that root independently
    ps = np.concatenate([10.0 ** -np.arange(100.0, 324.0), [1e-300, 1e-274, 5e-324]])
    with localcontext() as ctx:
        ctx.prec = 40
        tail = np.array([float((Decimal(p) / 462) ** (Decimal(1) / 6)) for p in ps])
    got = beta66_quantile(ps)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, tail, rtol=1e-14, atol=0.0)


def test_quantile_finite_and_increasing_over_unit_interval():
    # every p in (0, 1) has a finite quantile in (0, 1), increasing with p from
    # the smallest subnormal up to the largest double below 1; betaincinv gives
    # nan at 1e-300 and 1e-274
    low = np.concatenate([[5e-324, 1e-323], 10.0 ** -np.arange(322.0, 1.0, -0.5), [1e-300, 1e-274]])
    ps = np.unique(np.concatenate([low, np.linspace(0.01, 0.99, 981), 1.0 - low[low >= 2.0**-53], [1.0 - 2.0**-53]]))
    q = beta66_quantile(ps)
    assert np.all(np.isfinite(q))
    assert np.all((q > 0.0) & (q < 1.0))
    assert np.all(np.diff(q) > 0.0)


def test_quantile_centre_is_exact():
    assert beta66_quantile(0.5) == 0.5
    assert beta66_quantile(np.array([0.5]))[0] == 0.5


def test_quantile_scalar_returns_python_float():
    for p in (0.5, 0.1, np.float64(0.3), np.array(0.9), 1e-300):
        assert type(beta66_quantile(p)) is float
    assert beta66_quantile(np.array([0.2, 0.4])).shape == (2,)


def test_quantile_within_32_ulps_of_betaincinv():
    # scipy's betaincinv stays the oracle; it is itself up to 24 ulps from the
    # true quantile on these inputs, this kernel at most 2
    ps = [np.random.default_rng(14).random(100_000)]
    ps += [np.arange(1, n + 1) / (n + 1.0) for n in RANK_SIZES]
    for p in ps:
        assert ulps_apart(beta66_quantile(p), special.betaincinv(6.0, 6.0, p)).max() <= 32


@settings(max_examples=300, deadline=None)
@given(
    p=st.floats(min_value=1e-5, max_value=1.0 - 1e-5),
    n=st.sampled_from(RANK_SIZES),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_quantile_within_32_ulps_of_betaincinv_hypothesis(p, n, frac):
    # below 1e-5 betaincinv drifts to about 40 ulps (106 below 1e-200) from the
    # true quantile, so tiny p is checked against the tail and mpmath instead
    r = 1 + int(frac * (n - 1))
    for v in (p, r / (n + 1.0)):
        assert ulps_apart(beta66_quantile(v), special.betaincinv(6.0, 6.0, v)) <= 32


def test_rank_tables_strictly_increasing():
    for n in RANK_SIZES:
        tq, _ = _rank_transform_tables(n)
        assert np.all(np.diff(tq) > 0.0)
        assert 0.0 < tq[0] and tq[-1] < 1.0


def test_quantile_within_2_ulps_of_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):

        def true_quantile(p):
            # Newton on mpmath's own regularized incomplete beta, at 40 digits
            p = mp.mpf(float(p))
            x = mp.mpf(beta66_quantile(float(p)))
            for _ in range(50):
                dx = (mp.betainc(6, 6, 0, x, regularized=True) - p) * mp.beta(6, 6) / (x * (1 - x)) ** 5
                x -= dx
                if abs(dx) < x * mp.mpf(10) ** -35:
                    return x
            raise AssertionError(f"no convergence at p = {float(p)!r}")

        rng = np.random.default_rng(21)
        ps = np.concatenate([
            [5e-324, 1e-300, 1e-274, 1e-100, 1e-10, 1e-3, 0.25, 0.5, 0.75, 1.0 - 2.0**-53],
            rng.random(200),
            rng.uniform(0.3, 0.7, 200),
            10.0 ** rng.uniform(-323.0, -1.0, 50),
            np.arange(1, 13) / 13.0,
        ])
        got = beta66_quantile(ps)
        for p, g in zip(ps, got):
            ref = true_quantile(p)
            assert abs(mp.mpf(float(g)) - ref) <= 2 * np.spacing(float(ref)), p


def test_quantile_rejects_nan():
    for bad in (float("nan"), np.array([0.3, np.nan])):
        with pytest.raises(DomainError):
            beta66_quantile(bad)
