import json
import re

import numpy as np
import pytest

from hellcorr import inference
from hellcorr.errors import (
    CacheMismatchError,
    CapabilityError,
    ConfigError,
    DiagnosticsError,
    DomainError,
    SizeError,
)
from hellcorr.estimator import BATCH_POINTS, EstimateConfig, estimate
from hellcorr.generators import gen_gaussian
from hellcorr.inference import (
    NullTable,
    bootstrap_ci,
    critical_value,
    load_null_table,
    null_table,
    p_value,
    sample_beta_copula,
    save_null_table,
    significance,
)
from hellcorr.ranks_nn import pseudo_observations, two_nearest_neighbors
from hellcorr.rng import substream


def reference_bootstrap(sample, b1, b2, seed, level=0.95):
    """The double bootstrap one replicate at a time, as it ran unbatched."""
    n = sample.shape[0]
    base = estimate(sample)
    fixed = EstimateConfig(cutoffs=base.cutoffs)
    ranks0 = pseudo_observations(sample).ranks

    def inner_se(rk, *path):
        etas = [
            estimate(sample_beta_copula(rk, n, substream(seed, *path, j)), fixed).eta
            for j in range(b2)
        ]
        return float(np.std(etas, ddof=1))

    se0 = inner_se(ranks0, "se0")
    pivots = []
    for b in range(b1):
        rs = sample_beta_copula(ranks0, n, substream(seed, "outer", b))
        se_b = inner_se(pseudo_observations(rs).ranks, "inner", b)
        pivots.append((estimate(rs, fixed).eta - base.eta) / se_b)
    alpha = 1.0 - level
    qlo, qhi = np.quantile(pivots, [alpha / 2.0, 1.0 - alpha / 2.0])
    return base.eta - qhi * se0, base.eta - qlo * se0, se0


def toy_table(draws):
    return NullTable(n=50, draws=np.sort(np.asarray(draws, float)), config=EstimateConfig(), seed=0)


class TestPValue:
    def test_add_one_conventions(self):
        t = toy_table(np.arange(1, 20) / 20.0)  # 19 draws
        assert p_value(2.0, t) == pytest.approx(1 / 20)
        assert p_value(0.0, t) == 1.0
        # counting is >=, so hitting a draw exactly includes it
        assert p_value(19 / 20, t) == pytest.approx(2 / 20)
        assert p_value(18.5 / 20, t) == pytest.approx(2 / 20)

    def test_monotone_in_statistic(self):
        t = toy_table(np.random.default_rng(0).random(200))
        grid = np.linspace(0, 1, 50)
        ps = [p_value(v, t) for v in grid]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestCriticalValue:
    def test_order_statistic(self):
        t = toy_table(np.arange(1, 20) / 20.0)
        # k = ceil(0.95 * 20) = 19 -> largest draw
        assert critical_value(t, 0.05) == 19 / 20
        # k = ceil(0.5 * 20) = 10
        assert critical_value(t, 0.5) == 10 / 20

    def test_rejection_consistency(self):
        t = toy_table(np.random.default_rng(1).random(499))
        crit = critical_value(t, 0.05)
        assert p_value(np.nextafter(crit, 1.0), t) <= 0.05
        assert p_value(crit - 1e-9, t) > 0.05

    def test_domain_errors(self):
        t = toy_table(np.arange(1, 6) / 6.0)
        with pytest.raises(DomainError):
            critical_value(t, 0.05)  # needs k=6 of 5 draws
        with pytest.raises(DomainError):
            critical_value(t, 0.0)
        with pytest.raises(DomainError):
            critical_value(t, 1.0)


class TestBetaCopulaSampling:
    def test_shape_range_determinism(self):
        ranks = pseudo_observations(gen_gaussian(40, 0.5, seed=2)).ranks
        a = sample_beta_copula(ranks, 500, seed=3)
        b = sample_beta_copula(ranks, 500, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (500, 2)
        assert a.min() > 0.0 and a.max() < 1.0

    def test_no_duplicate_rows(self):
        ranks = pseudo_observations(gen_gaussian(30, 0.5, seed=4)).ranks
        x = sample_beta_copula(ranks, 10_000, seed=5)
        assert np.unique(x, axis=0).shape[0] == 10_000

    def test_rank_validation(self):
        with pytest.raises(SizeError):
            sample_beta_copula(np.array([[1, 2, 3]]), 10, seed=0)
        bad = np.array([[0, 1], [1, 2]])
        with pytest.raises(DomainError):
            sample_beta_copula(bad, 10, seed=0)

    def test_row_resampling_breaks_distances_beta_copula_does_not(self):
        # the estimator needs positive nearest-neighbour distances; drawing
        # rows with replacement creates exact duplicates, which is why the
        # resampling layer samples the smoothed copula instead
        pts = pseudo_observations(gen_gaussian(100, 0.5, seed=6)).points
        rows = np.random.default_rng(7).integers(0, 100, 100)
        assert len(np.unique(rows)) < 100
        naive = two_nearest_neighbors(pts[rows])
        assert naive.values.min() == 0.0
        ranks = pseudo_observations(gen_gaussian(100, 0.5, seed=6)).ranks
        smooth = two_nearest_neighbors(sample_beta_copula(ranks, 100, seed=8))
        assert smooth.values.min() > 0.0


class TestNullTable:
    def test_thread_count_does_not_change_draws(self):
        a = null_table(80, 40, seed=9, threads=1)
        b = null_table(80, 40, seed=9, threads=4)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_partial_last_block_and_threads(self):
        n, m = 500, 70
        assert m % (BATCH_POINTS // n) != 0
        fixed = EstimateConfig(cutoffs=(3, 3))
        tables = [null_table(n, m, fixed, seed=29, threads=t) for t in (1, 2, 3)]
        for t in tables[1:]:
            np.testing.assert_array_equal(t.draws, tables[0].draws)
        ref = sorted(estimate(substream(29, "null", i).random((n, 2)), fixed).eta for i in range(m))
        np.testing.assert_allclose(tables[0].draws, ref, rtol=0, atol=1e-12)

    def test_cross_validated_blocks_and_threads(self):
        n, m = 300, 30
        assert m % (BATCH_POINTS // n) != 0
        tables = [null_table(n, m, seed=33, threads=t) for t in (1, 2, 3)]
        for t in tables[1:]:
            np.testing.assert_array_equal(t.draws, tables[0].draws)
        ref = sorted(estimate(substream(33, "null", i).random((n, 2))).eta for i in range(m))
        np.testing.assert_array_equal(tables[0].draws, ref)

    def test_draws_sorted_and_in_range(self):
        t = null_table(60, 30, seed=10)
        assert np.all(np.diff(t.draws) >= 0)
        assert t.draws.min() >= 0.0 and t.draws.max() <= 1.0

    def test_seed_streams_agree_within_monte_carlo_error(self):
        a = null_table(100, 400, seed=11)
        b = null_table(100, 400, seed=12)
        thr = 0.25
        pa = np.mean(a.draws >= thr)
        pb = np.mean(b.draws >= thr)
        se = np.sqrt(pa * (1 - pa) / 400 + pb * (1 - pb) / 400 + 1e-12)
        assert abs(pa - pb) <= max(3 * se, 0.01)

    def test_validation(self):
        with pytest.raises(SizeError):
            null_table(2, 10)
        with pytest.raises(ConfigError):
            null_table(50, 0)
        # 10**18 draws lie past the address space: refused before any is drawn
        with pytest.raises(CapabilityError, match="cannot hold"):
            null_table(12, 10**18)

    @pytest.mark.parametrize("threads", [0, -3, None, 1.5])
    def test_threads_below_one_or_not_integer_refused(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            null_table(12, 10, threads=threads)

    def test_level_holds_on_independent_data(self, nt500):
        crit = critical_value(nt500, 0.05)
        hits = 0
        for r in range(500):
            x = np.random.default_rng(40_000 + r).random((500, 2))
            if estimate(x).eta > crit:
                hits += 1
        assert 0.03 <= hits / 500 <= 0.07


class TestSignificance:
    def test_dependent_data_rejects(self):
        res = significance(gen_gaussian(300, 0.7, seed=13), m=200, seed=14)
        assert res.p <= 0.01
        assert res.estimate.eta > res.critical

    def test_null_conditioned_on_selected_cutoffs(self):
        res = significance(gen_gaussian(200, 0.5, seed=15), m=50, seed=16)
        assert res.table.config.cutoffs == res.estimate.cutoffs

    def test_p_matches_table(self):
        res = significance(gen_gaussian(150, 0.4, seed=17), m=99, seed=18)
        assert res.p == p_value(res.estimate.eta, res.table)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_bad_level_refused_before_any_table(self, monkeypatch, level):
        def must_not_build(*args, **kwargs):
            raise AssertionError("null table built for an invalid level")

        monkeypatch.setattr(inference, "null_table", must_not_build)
        with pytest.raises(DomainError, match="level"):
            significance(gen_gaussian(50, 0.4, seed=19), m=100, level=level)

    def test_small_table_refused_before_any_table(self, monkeypatch, tmp_path):
        # ceil(0.995 * 101) = 101 > 100: no order statistic gives the critical value
        def must_not_build(*args, **kwargs):
            raise AssertionError("null table built for a level it cannot serve")

        monkeypatch.setattr(inference, "null_table", must_not_build)
        cache = tmp_path / "x.json"
        with pytest.raises(DomainError, match="table of 100 draws too small"):
            significance(gen_gaussian(50, 0.4, seed=19), m=100, level=0.995, cache=str(cache))
        assert not cache.exists()


class TestBootstrapCI:
    def test_interval_properties_and_nesting(self):
        x = gen_gaussian(60, 0.6, seed=19)
        wide = bootstrap_ci(x, level=0.95, b1=60, b2=10, seed=20)
        narrow = bootstrap_ci(x, level=0.80, b1=60, b2=10, seed=20)
        for ci in (wide, narrow):
            assert 0.0 <= ci.lower <= ci.upper <= 1.0
            assert ci.dropped == 0
            assert ci.se > 0.0
        assert wide.lower <= narrow.lower
        assert narrow.upper <= wide.upper
        assert wide.eta == estimate(x).eta

    def test_matches_unbatched_reference(self):
        # several blocks of outer replicates, the last one partial
        assert 100 % (BATCH_POINTS // (30 * (1 + 5))) != 0
        x = gen_gaussian(30, 0.6, seed=24)
        ci = bootstrap_ci(x, b1=100, b2=5, seed=25)
        lower, upper, se0 = reference_bootstrap(x, 100, 5, 25)
        assert ci.se == pytest.approx(se0, rel=0, abs=1e-12)
        assert ci.lower == pytest.approx(min(max(lower, 0.0), 1.0), rel=0, abs=1e-12)
        assert ci.upper == pytest.approx(min(max(upper, 0.0), 1.0), rel=0, abs=1e-12)
        base = estimate(x)
        assert (ci.estimate.eta, ci.estimate.b_raw, ci.estimate.cutoffs) == (base.eta, base.b_raw, base.cutoffs)

    def test_deterministic(self):
        x = gen_gaussian(50, 0.5, seed=21)
        a = bootstrap_ci(x, b1=30, b2=8, seed=22)
        b = bootstrap_ci(x, b1=30, b2=8, seed=22)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_validation(self):
        x = gen_gaussian(50, 0.5, seed=23)
        with pytest.raises(SizeError):
            bootstrap_ci(x[:3], b1=10, b2=5)
        with pytest.raises(DomainError):
            bootstrap_ci(x, level=1.5, b1=10, b2=5)
        with pytest.raises(ConfigError):
            bootstrap_ci(x, b1=1, b2=5)
        with pytest.raises(ConfigError):
            bootstrap_ci(x, b1=10, b2=1)

    def test_zero_scale_of_the_original_sample_refused(self, flat_inner_layers):
        flat_inner_layers(5, {"se0"})
        with pytest.raises(DiagnosticsError, match="scale of the original sample is zero"):
            bootstrap_ci(gen_gaussian(30, 0.6, seed=24), b1=20, b2=5, seed=25)

    # up to a tenth of the outer replicates may be dropped, 2 of 20
    @pytest.mark.parametrize("flat", [{7}, {7, 19}])
    def test_zero_scale_replicates_dropped_with_a_warning(self, flat_inner_layers, flat):
        x = gen_gaussian(30, 0.6, seed=24)
        kept = bootstrap_ci(x, b1=20, b2=5, seed=25)
        flat_inner_layers(5, flat)
        with pytest.warns(UserWarning, match=f"dropped {len(flat)} of 20 outer replicates"):
            ci = bootstrap_ci(x, b1=20, b2=5, seed=25)
        assert ci.dropped == len(flat) and kept.dropped == 0
        assert (ci.eta, ci.se) == (kept.eta, kept.se)
        assert 0.0 <= ci.lower <= ci.upper <= 1.0

    def test_more_than_a_tenth_of_replicates_dropped_refused(self, flat_inner_layers):
        flat_inner_layers(5, {0, 7, 19})
        with pytest.warns(UserWarning, match="dropped 3 of 20"):
            with pytest.raises(DiagnosticsError, match="3 of 20 outer replicates had zero"):
                bootstrap_ci(gen_gaussian(30, 0.6, seed=24), b1=20, b2=5, seed=25)


class TestTableCache:
    def test_roundtrip(self, tmp_path):
        t = null_table(50, 20, seed=24)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        back = load_null_table(p, n=50, config=EstimateConfig())
        np.testing.assert_array_equal(back.draws, t.draws)
        assert back.key == t.key
        assert back.config == t.config

    def test_mismatches_rejected(self, tmp_path):
        t = null_table(50, 20, seed=25)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        with pytest.raises(CacheMismatchError):
            load_null_table(p, n=60)
        with pytest.raises(CacheMismatchError):
            load_null_table(p, config=EstimateConfig(cutoffs=(2, 2)))

        doc = json.loads(p.read_text())
        for field, value in [("magic", "something-else"), ("format_version", 99), ("key", "0" * 16)]:
            bad = dict(doc, **{field: value})
            q = tmp_path / f"bad_{field}.json"
            q.write_text(json.dumps(bad))
            with pytest.raises(CacheMismatchError):
                load_null_table(q)

    def test_keys_are_pinned(self):
        # these change only when __version__ changes (here 1.0.0); a change of
        # them otherwise orphans every cached table
        assert null_table(12, 5).key == "c708196b2acedeee"
        assert null_table(12, 5, EstimateConfig(cutoffs=(1, 1))).key == "0523d5f2aa7c3e5a"

    def test_numpy_integer_config_roundtrip(self, tmp_path):
        cfg = EstimateConfig(cutoffs=(np.int64(1), np.int64(1)), kmax=np.int64(3), lmax=np.int32(2))
        t = null_table(12, 5, cfg, seed=31)
        assert t.key == null_table(12, 5, EstimateConfig(cutoffs=(1, 1), kmax=3, lmax=2)).key
        p = tmp_path / "table.json"
        save_null_table(t, p)
        back = load_null_table(p, n=12, config=cfg)
        assert back.config == cfg
        np.testing.assert_array_equal(back.draws, t.draws)

    @pytest.mark.parametrize(
        "kind", ["string", "two_d", "descending", "nan", "above_one", "empty", "strings"]
    )
    def test_malformed_draws_rejected(self, tmp_path, kind):
        p = tmp_path / "table.json"
        save_null_table(null_table(12, 20, seed=32), p)
        doc = json.loads(p.read_text())
        draws = doc["draws"]
        doc["draws"] = {
            "string": "0.5",
            "two_d": [draws[:10], draws[10:]],
            "descending": draws[::-1],
            "nan": [float("nan")] * len(draws),
            "above_one": [5.0] * len(draws),
            "empty": [],
            "strings": [str(v) for v in draws],
        }[kind]
        p.write_text(json.dumps(doc))
        with pytest.raises(CacheMismatchError):
            load_null_table(p)

    @pytest.mark.parametrize("field, value", [("n", "1e999"), ("n", "-1e999"), ("seed", "1e999")])
    def test_overflowing_integer_fields_rejected(self, tmp_path, field, value):
        # JSON reads 1e999 as inf, which int() refuses with OverflowError
        p = tmp_path / "table.json"
        save_null_table(null_table(12, 20, seed=33), p)
        p.write_text(re.sub(rf'"{field}": \d+', f'"{field}": {value}', p.read_text(), count=1))
        with pytest.raises(CacheMismatchError, match="malformed"):
            load_null_table(p)

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch):
        t = null_table(50, 20, seed=27)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        before = p.read_bytes()

        def dump_then_fail(doc, fh):
            fh.write('{"magic": "hellcorr-null-table", "draws": [0.1, ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_null_table(null_table(50, 20, seed=28), p)
        monkeypatch.undo()
        assert p.read_bytes() == before
        np.testing.assert_array_equal(load_null_table(p, n=50).draws, t.draws)
        assert [f.name for f in tmp_path.iterdir()] == ["table.json"]

    def test_unusable_paths_are_config_errors(self, tmp_path):
        t = null_table(50, 20, seed=30)
        with pytest.raises(ConfigError):
            load_null_table(tmp_path)
        with pytest.raises(ConfigError):
            save_null_table(t, tmp_path / "missing" / "table.json")
        assert list(tmp_path.iterdir()) == []

    def test_stale_code_version_rejected(self, tmp_path):
        t = null_table(50, 20, seed=26)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        doc = json.loads(p.read_text())
        doc["n"] = 51  # stored draws no longer match the recorded key
        p.write_text(json.dumps(doc))
        with pytest.raises(CacheMismatchError):
            load_null_table(p)
