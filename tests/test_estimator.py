import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hellcorr.estimator as estimator_module
from hellcorr.basis import design_matrix
from hellcorr.errors import ConfigError, DegenerateDataError, DomainError, SizeError
from hellcorr.estimator import (
    EstimateConfig,
    beta_hat_table,
    estimate,
    estimate_batch,
    eta_from_B,
    gaussian_B,
    gaussian_H2,
    normalize_b,
    pearson,
)
from hellcorr.generators import gen_gaussian
from hellcorr.ranks_nn import column_ranks, pseudo_observations, two_nearest_neighbors
from oracles import b_hat_raw, transform_points


def oracle_eta(sample, K, L, transform):
    """One fixed-cutoff estimate the unbatched way: per-cell dot products
    for the coefficient table and the scalar eta map."""
    po = pseudo_observations(sample)
    n = po.n
    if transform == "beta66":
        tp = transform_points(po.points)
        dist_pts, w = tp.points, tp.weights
    else:
        dist_pts, w = po.points, np.ones(n)
    rw = two_nearest_neighbors(dist_pts).values * w
    cn = 2.0 * math.sqrt(n - 1.0) / n
    P = design_matrix(po.points[:, 0], K)
    Q = design_matrix(po.points[:, 1], L)
    beta = np.array(
        [[cn * float(np.dot(rw, P[:, k] * Q[:, l])) for l in range(L + 1)] for k in range(K + 1)]
    )
    if (K, L) == (0, 0):
        b = min(beta[0, 0], 1.0)
    else:
        b = beta[0, 0] / math.sqrt(math.fsum((beta * beta).ravel()))
    s = math.sqrt(4.0 - 3.0 * b**4)
    return 2.0 * math.sqrt(max(s - 1.0, 0.0) / (s + 2.0))


class TestScaleMaps:
    def test_endpoints(self):
        assert eta_from_B(1.0) == 0.0
        assert eta_from_B(0.0) == 1.0
        assert gaussian_B(0.0) == 1.0
        assert gaussian_B(1.0) == 0.0
        assert gaussian_H2(0.0) == 0.0

    def test_roundtrip_recovers_absolute_correlation(self):
        for rho in np.linspace(-0.99, 0.99, 67):
            assert eta_from_B(gaussian_B(rho)) == pytest.approx(abs(rho), abs=1e-12)

    def test_monotone_decreasing_in_B(self):
        b = np.linspace(0.0, 1.0, 200)
        eta = np.array([eta_from_B(v) for v in b])
        assert np.all(np.diff(eta) < 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eta_from_B(1.0001)
        with pytest.raises(DomainError):
            eta_from_B(-0.0001)
        with pytest.raises(DomainError):
            gaussian_B(1.5)

    def test_near_one_stability(self):
        # naive root extraction loses half the digits here
        assert eta_from_B(gaussian_B(1e-6)) == pytest.approx(1e-6, abs=1e-10)
        assert eta_from_B(gaussian_B(0.9999)) == pytest.approx(0.9999, abs=1e-12)


class TestCoefficients:
    def test_beta_table_matches_double_loop(self):
        rng = np.random.default_rng(31)
        pts = rng.random((40, 2))
        v = rng.random(40)
        w = rng.random(40) + 0.5
        table = beta_hat_table(pts, v, 3, 4, weights=w)
        cn = 2.0 * math.sqrt(39.0) / 40.0
        for k in range(4):
            for l in range(5):
                ref = cn * sum(
                    v[i] * w[i] * design_matrix(pts[i, 0], k)[0, k]
                    * design_matrix(pts[i, 1], l)[0, l]
                    for i in range(40)
                )
                assert table[k, l] == pytest.approx(ref, abs=1e-12)

    def test_batched_table_matches_per_cell_dots(self):
        # n = 40000 spans several row chunks of the table; distances of the
        # size nearest neighbours have keep the entries of order one
        rng = np.random.default_rng(34)
        for n, m in ((7, 5), (300, 3), (40000, 2)):
            pts = rng.random((m, n, 2))
            v = rng.random((m, n)) / math.sqrt(n)
            w = rng.random((m, n)) + 0.5
            table = beta_hat_table(pts, v, 4, 2, weights=w)
            assert table.shape == (m, 5, 3)
            cn = 2.0 * math.sqrt(n - 1.0) / n
            for i in range(m):
                np.testing.assert_array_equal(table[i], beta_hat_table(pts[i], v[i], 4, 2, weights=w[i]))
                P = design_matrix(pts[i, :, 0], 4)
                Q = design_matrix(pts[i, :, 1], 2)
                ref = cn * (P * (v[i] * w[i])[:, None]).T @ Q
                np.testing.assert_allclose(table[i], ref, rtol=0, atol=1e-12)

    def test_constant_cell_equals_raw_sum(self):
        rng = np.random.default_rng(32)
        pts = rng.random((25, 2))
        v = rng.random(25)
        assert beta_hat_table(pts, v, 0, 0)[0, 0] == pytest.approx(b_hat_raw(v), abs=1e-15)

    def test_normalize_known_matrix(self):
        assert normalize_b(np.array([[3.0, 4.0]])) == pytest.approx(0.6)
        assert normalize_b(np.array([[2.0]])) == 1.0
        with pytest.raises(DegenerateDataError):
            normalize_b(np.zeros((2, 2)))

    def test_b_hat_raw_formula(self):
        v = np.array([0.1, 0.2, 0.3, 0.4])
        assert b_hat_raw(v) == pytest.approx(2.0 * math.sqrt(3.0) / 4.0 * v.sum())
        with pytest.raises(SizeError):
            b_hat_raw(np.array([0.5]))


class TestEstimate:
    def test_result_fields_and_range(self):
        res = estimate(gen_gaussian(400, 0.6, seed=1))
        assert 0.0 <= res.b_normalized <= 1.0
        assert 0.0 <= res.eta <= 1.0
        assert res.transform_used == "beta66"
        assert not res.raw_mode
        assert res.cutoffs == res.cv.best
        assert not res.tie_warning

    def test_invariance_under_monotone_maps(self):
        x = gen_gaussian(300, 0.5, seed=2)
        y = np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3])
        a, b = estimate(x), estimate(y)
        assert a.eta == b.eta
        assert a.b_normalized == b.b_normalized
        assert a.cutoffs == b.cutoffs

    def test_column_swap_symmetry(self):
        x = gen_gaussian(250, 0.7, seed=3)
        a = estimate(x)
        b = estimate(x[:, ::-1])
        assert a.eta == b.eta
        assert a.b_raw == b.b_raw
        assert a.cutoffs == b.cutoffs[::-1]

    def test_fixed_cutoffs_skip_cv(self):
        res = estimate(gen_gaussian(200, 0.4, seed=4), EstimateConfig(cutoffs=(2, 3)))
        assert res.cutoffs == (2, 3)
        assert res.cv is None

    def test_raw_mode_at_zero_cutoffs(self):
        res = estimate(gen_gaussian(200, 0.4, seed=5), EstimateConfig(cutoffs=(0, 0)))
        assert res.raw_mode
        assert res.b_normalized == min(res.b_raw, 1.0)

    def test_transform_none_runs(self):
        res = estimate(gen_gaussian(200, 0.6, seed=6), EstimateConfig(transform="none"))
        assert res.transform_used == "none"
        assert 0.0 <= res.eta <= 1.0

    def test_tie_warning_propagates(self):
        x = gen_gaussian(50, 0.3, seed=7)
        x[0, 0] = x[1, 0]
        assert estimate(x).tie_warning

    def test_constant_margin_refused(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.full(50, 3.0), rng.normal(size=50)])
        for sample in (x, x[:, ::-1]):
            with pytest.raises(DegenerateDataError):
                estimate(sample)
            with pytest.raises(DegenerateDataError):
                estimate(sample, jitter_seed=1)
        batch = rng.normal(size=(4, 50, 2))
        batch[2] = x
        for cfg in (EstimateConfig(), EstimateConfig(cutoffs=(2, 2))):
            with pytest.raises(DegenerateDataError):
                estimate_batch(batch, cfg)
            # the other samples alone still estimate
            assert estimate_batch(batch[[0, 1, 3]], cfg).shape == (3,)

    def test_small_sample_rejected(self):
        with pytest.raises(SizeError):
            estimate(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_independent_data_smaller_than_dependent(self):
        indep = estimate(gen_gaussian(500, 0.0, seed=8)).eta
        dep = estimate(gen_gaussian(500, 0.8, seed=8)).eta
        assert dep > indep


def core_cutoffs(samples, cfg):
    """The cutoffs the shared estimation core uses for each sample of a batch."""
    cfg = cfg if cfg is not None else EstimateConfig()
    return estimator_module._estimate_core(column_ranks(samples), cfg)[2]


class TestEstimateBatch:
    @pytest.mark.parametrize("n", [3, 12, 500, 1023, 1024, 3000])
    def test_matches_per_replicate_oracle(self, n):
        rng = np.random.default_rng(n)
        samples = np.stack([gen_gaussian(n, rho, seed=rng) for rho in (0.0, 0.5, 0.9)])
        for transform in ("beta66", "none"):
            for cut in ((0, 0), (1, 1), (3, 2)):
                got = estimate_batch(samples, EstimateConfig(cutoffs=cut, transform=transform))
                assert got.shape == (3,)
                for x, eta in zip(samples, got):
                    assert eta == pytest.approx(oracle_eta(x, *cut, transform), abs=1e-12)

    def test_independent_of_batch_size(self):
        rng = np.random.default_rng(41)
        for n in (5, 12, 40, 300):
            samples = rng.normal(size=(64, n, 2))
            cfg = EstimateConfig(cutoffs=(3, 2))
            full = estimate_batch(samples, cfg)
            for size in (1, 7, 64):
                parts = [estimate_batch(samples[a : a + size], cfg) for a in range(0, 64, size)]
                np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_equals_single_estimate(self):
        # one coefficient table and normalization serve both entry points
        rng = np.random.default_rng(42)
        for n in (12, 200, 1500):
            samples = rng.normal(size=(4, n, 2))
            for cfg in (EstimateConfig(cutoffs=(2, 3)), EstimateConfig(cutoffs=(0, 0), transform="none")):
                got = estimate_batch(samples, cfg)
                np.testing.assert_array_equal(got, [estimate(x, cfg).eta for x in samples])

    def test_column_swap_swaps_cutoffs(self):
        rng = np.random.default_rng(43)
        for n in (12, 500):
            samples = rng.normal(size=(16, n, 2))
            samples[:, :, 1] += samples[:, :, 0]
            for transform in ("beta66", "none"):
                for K, L in ((3, 1), (0, 4), (5, 2)):
                    a = estimate_batch(samples, EstimateConfig(cutoffs=(K, L), transform=transform))
                    b = estimate_batch(samples[:, :, ::-1], EstimateConfig(cutoffs=(L, K), transform=transform))
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [12, 40, 500])
    def test_cross_validated_batch_equals_single_estimates(self, n):
        rng = np.random.default_rng(46 + n)
        samples = rng.normal(size=(64, n, 2))
        samples[::2, :, 1] += rng.uniform(0.0, 2.0, size=(32, 1)) * samples[::2, :, 0] ** 2
        for cfg in (EstimateConfig(), EstimateConfig(transform="none"), None):
            singles = [estimate(x, cfg) for x in samples]
            for size in (1, 7, 64):
                parts = [samples[a : a + size] for a in range(0, 64, size)]
                got = np.concatenate([estimate_batch(p, cfg) for p in parts])
                np.testing.assert_array_equal(got, [r.eta for r in singles])
                cutoffs = [c for p in parts for c in core_cutoffs(p, cfg)]
                assert cutoffs == [r.cutoffs for r in singles]
            assert len(set(cutoffs)) > 1

    def test_cross_validated_column_swap(self):
        rng = np.random.default_rng(47)
        for n in (12, 300):
            samples = rng.normal(size=(24, n, 2))
            samples[:, :, 1] += rng.uniform(0.0, 2.0, size=(24, 1)) * np.abs(samples[:, :, 0])
            for transform in ("beta66", "none"):
                cfg = EstimateConfig(kmax=4, lmax=3, transform=transform)
                swapped_cfg = EstimateConfig(kmax=3, lmax=4, transform=transform)
                a = estimate_batch(samples, cfg)
                b = estimate_batch(samples[:, :, ::-1], swapped_cfg)
                np.testing.assert_array_equal(a, b)
                picks = core_cutoffs(samples, cfg)
                assert [(L, K) for K, L in picks] == core_cutoffs(samples[:, :, ::-1], swapped_cfg)
                assert len(set(picks)) > 1

    def test_rejects_misshaped_samples(self):
        samples = np.random.default_rng(44).random((3, 10, 2))
        fixed = EstimateConfig(cutoffs=(1, 1))
        with pytest.raises(SizeError):
            estimate_batch(samples[0], fixed)
        with pytest.raises(SizeError):
            estimate_batch(samples[:, :1], fixed)
        bad = samples.copy()
        bad[1, 2, 0] = np.nan
        with pytest.raises(SizeError):
            estimate_batch(bad, fixed)

    def test_coincident_points_raise(self, monkeypatch):
        # rank points are distinct, so the nearest-neighbour step is made to
        # see one replicate whose points all coincide
        def coincide_in_second(points):
            d = real(points)
            d[1] = 0.0
            return d

        real = estimator_module.nearest_distances
        monkeypatch.setattr(estimator_module, "nearest_distances", coincide_in_second)
        samples = np.random.default_rng(45).random((3, 20, 2))
        with pytest.raises(DegenerateDataError):
            estimate_batch(samples, EstimateConfig(cutoffs=(2, 2)))
        # raw mode has nothing to normalize: a zero sum gives B = 0, eta = 1
        assert estimate_batch(samples, EstimateConfig(cutoffs=(0, 0)))[1] == 1.0

    def test_batched_normalization(self):
        tables = np.array([[[3.0, 4.0]], [[2.0, 0.0]]])
        np.testing.assert_array_equal(normalize_b(tables), [0.6, 1.0])
        with pytest.raises(DegenerateDataError):
            normalize_b(np.stack([tables[0], np.zeros((1, 2))]))

    def test_eta_map_on_arrays(self):
        b = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(eta_from_B(b), [eta_from_B(v) for v in b])
        with pytest.raises(DomainError):
            eta_from_B(np.array([0.5, float("nan")]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EstimateConfig(transform="logit")
        with pytest.raises(ConfigError):
            EstimateConfig(kmax=21)
        with pytest.raises(ConfigError):
            EstimateConfig(lmax=-1)
        with pytest.raises(ConfigError):
            EstimateConfig(cutoffs=(1, 21))
        with pytest.raises(ConfigError):
            EstimateConfig(cutoffs=(1.5, 2))

    def test_cutoffs_coerced_to_int_tuple(self):
        cfg = EstimateConfig(cutoffs=(np.int64(2), np.int64(3)))
        assert cfg.cutoffs == (2, 3)
        assert all(type(v) is int for v in cfg.cutoffs)


class TestPearson:
    def test_matches_numpy(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(100, 2))
        assert pearson(x) == pytest.approx(np.corrcoef(x[:, 0], x[:, 1])[0, 1], abs=1e-13)

    def test_zero_variance(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DegenerateDataError):
            pearson(x)

    @pytest.mark.filterwarnings("error")
    def test_extreme_scales(self):
        # the squared sums of 1e200 overflow and those of 1e-200 underflow
        # unless each column is brought to unit scale first; so does the sum
        # behind the mean near the largest float
        x = np.random.default_rng(35).normal(size=(30, 2))
        r = pearson(x)
        assert pearson(x * 2.0**600) == r
        assert pearson(x * 2.0**-600) == r
        for s in (1e200, 1e-200, (1e200, 1e-200), 1e307):
            assert pearson(x * s) == pytest.approx(r, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(10, 60))
def test_eta_always_in_unit_interval(seed, n):
    res = estimate(np.random.default_rng(seed).normal(size=(n, 2)))
    assert 0.0 <= res.eta <= 1.0
    assert 0.0 <= res.b_normalized <= 1.0
