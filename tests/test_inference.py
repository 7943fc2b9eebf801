import base64
import io
import json
import re
import struct

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
from hellcorr.estimator import BATCH_POINTS, EstimateConfig, estimate, estimate_batch
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
from hellcorr.inference import _beta_copula
from hellcorr.ranks_nn import column_ranks, pseudo_observations
from hellcorr.rng import _integers, _keys, substream
from oracles import beta_copula, seed_sequence_stream
from points_nn import nn_of_points


def encode_draws(values):
    """Draws as a version-2 null-table file stores them."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def decode_draws(text):
    return np.frombuffer(base64.b64decode(text), "<f8")


def reference_bootstrap(sample, b1, b2, seed, level=0.95):
    """The double bootstrap one replicate at a time, as it ran unbatched, each
    resample drawn by the beta-copula oracle from a SeedSequence-keyed stream."""
    n = sample.shape[0]
    base = estimate(sample)
    fixed = EstimateConfig(cutoffs=base.cutoffs)
    ranks0 = pseudo_observations(sample).ranks

    def inner_se(rk, *path):
        etas = [
            estimate(beta_copula(rk, n, seed_sequence_stream(seed, *path, j)), fixed).eta
            for j in range(b2)
        ]
        return float(np.std(etas, ddof=1))

    se0 = inner_se(ranks0, "se0")
    pivots = []
    for b in range(b1):
        rs = beta_copula(ranks0, n, seed_sequence_stream(seed, "outer", b))
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
        assert p_value(1.0, t) == pytest.approx(1 / 20)
        assert p_value(0.0, t) == 1.0
        # counting is >=, so hitting a draw exactly includes it
        assert p_value(19 / 20, t) == pytest.approx(2 / 20)
        assert p_value(18.5 / 20, t) == pytest.approx(2 / 20)

    @pytest.mark.parametrize("eta", [float("nan"), -0.1, 1.5])
    def test_statistic_outside_unit_interval_refused(self, eta):
        t = toy_table(np.arange(1, 6) / 6.0)
        with pytest.raises(DomainError, match="statistic must lie in"):
            p_value(eta, t)

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
        # NaN and non-whole ranks (scipy's rankdata of a tied sample) are
        # refused before any draw, from a seed or a generator alike
        keys = _keys(0, "inner", np.arange(3))
        for bad in ([[np.nan, 1], [1, 2]], [[1.5, 2], [1.5, 3.5], [3, 1], [4, 3.5]]):
            with pytest.raises(DomainError, match="whole"):
                sample_beta_copula(bad, 2, 0)
            rng = np.random.default_rng(0)
            with pytest.raises(DomainError, match="whole"):
                sample_beta_copula(bad, 2, rng)
            assert rng.random() == np.random.default_rng(0).random()
            with pytest.raises(DomainError, match="whole"):
                _beta_copula(np.asarray(bad), keys, np.empty((3, 2, 2)))
        # whole-valued float ranks draw what their integer ranks draw
        ranks = pseudo_observations(gen_gaussian(20, 0.5, seed=2)).ranks
        np.testing.assert_array_equal(
            sample_beta_copula(ranks.astype(float), 25, seed=4), sample_beta_copula(ranks, 25, seed=4)
        )

    def test_count_and_seed_validation(self):
        ranks = pseudo_observations(gen_gaussian(20, 0.5, seed=2)).ranks
        with pytest.raises(SizeError, match="n_out"):
            sample_beta_copula(ranks, -1, seed=0)
        with pytest.raises(ConfigError, match="seed"):
            sample_beta_copula(ranks, 10, seed=-1)

    @pytest.mark.parametrize("n_out", [10**18, 2**40])
    def test_count_too_large_to_hold_refused(self, n_out):
        ranks = pseudo_observations(gen_gaussian(20, 0.5, seed=2)).ranks
        with pytest.raises(CapabilityError, match=f"cannot hold {n_out} draws"):
            sample_beta_copula(ranks, n_out, 0)

    def test_row_resampling_breaks_distances_beta_copula_does_not(self):
        # the estimator needs positive nearest-neighbour distances; drawing
        # rows with replacement creates exact duplicates, which is why the
        # resampling layer samples the smoothed copula instead
        pts = pseudo_observations(gen_gaussian(100, 0.5, seed=6)).points
        rows = np.random.default_rng(7).integers(0, 100, 100)
        assert len(np.unique(rows)) < 100
        naive = nn_of_points(pts[rows])
        assert naive.values.min() == 0.0
        ranks = pseudo_observations(gen_gaussian(100, 0.5, seed=6)).ranks
        smooth = nn_of_points(sample_beta_copula(ranks, 100, seed=8))
        assert smooth.values.min() > 0.0


class TestBetaCopulaOracle:
    """The samplers against one donor draw and two rng.beta calls per stream."""

    @pytest.mark.parametrize("n", [2, 3, 12, 100])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_sample_matches_oracle(self, n, seed):
        ranks = column_ranks(np.random.default_rng([n, seed]).random((n, 2)))[0]
        for n_out in (0, 1, n, 3 * n + 1):
            np.testing.assert_array_equal(
                sample_beta_copula(ranks, n_out, seed),
                beta_copula(ranks, n_out, seed_sequence_stream(seed, "beta-copula")),
            )
        ours, oracle = np.random.default_rng(5), np.random.default_rng(5)
        np.testing.assert_array_equal(sample_beta_copula(ranks, n, ours), beta_copula(ranks, n, oracle))

    @pytest.mark.parametrize("n", [2, 3, 12, 100])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_block_sampler_matches_oracle(self, n, seed):
        # one rank table per outer replicate, each with its own inner streams
        b, j = np.array([0, 4, 9]), np.arange(5)
        ranks = column_ranks(np.random.default_rng([n, seed]).random((len(b), 1, n, 2)))[0]
        out = np.empty((len(b), len(j), n, 2))
        _beta_copula(ranks, _keys(seed, "inner", b[:, None], j), out)
        for u, bb in enumerate(b):
            for v, jj in enumerate(j):
                ref = beta_copula(ranks[u, 0], n, seed_sequence_stream(seed, "inner", bb, jj))
                np.testing.assert_array_equal(out[u, v], ref)
        shared = np.empty((len(b), n, 2))
        _beta_copula(ranks[0, 0], _keys(seed, "outer", b), shared)
        for u, bb in enumerate(b):
            ref = beta_copula(ranks[0, 0], n, seed_sequence_stream(seed, "outer", bb))
            np.testing.assert_array_equal(shared[u], ref)

    @pytest.mark.parametrize("n", [2, 12])
    def test_streams_flagged_for_redraw_match_oracle(self, n, monkeypatch):
        # every stream drawing its donors with integers: the path a redraw takes
        def all_flagged(keys, n, count):
            donors, redo = _integers(keys, n, count)
            return donors, np.ones_like(redo)

        monkeypatch.setattr(inference, "_integers", all_flagged)
        b, j = np.array([0, 4, 9]), np.arange(5)
        ranks = column_ranks(np.random.default_rng([n, 1]).random((len(b), 1, n, 2)))[0]
        out = np.empty((len(b), len(j), 2 * n + 1, 2))
        _beta_copula(ranks, _keys(1, "inner", b[:, None], j), out)
        for u, bb in enumerate(b):
            for v, jj in enumerate(j):
                ref = beta_copula(ranks[u, 0], 2 * n + 1, seed_sequence_stream(1, "inner", bb, jj))
                np.testing.assert_array_equal(out[u, v], ref)


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
        ref = sorted(estimate(seed_sequence_stream(29, "null", i).random((n, 2)), fixed).eta for i in range(m))
        np.testing.assert_allclose(tables[0].draws, ref, rtol=0, atol=1e-12)

    def test_cross_validated_blocks_and_threads(self):
        n, m = 300, 30
        assert m % (BATCH_POINTS // n) != 0
        tables = [null_table(n, m, seed=33, threads=t) for t in (1, 2, 3)]
        for t in tables[1:]:
            np.testing.assert_array_equal(t.draws, tables[0].draws)
        ref = sorted(estimate(seed_sequence_stream(33, "null", i).random((n, 2))).eta for i in range(m))
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

    @pytest.mark.parametrize("n, m", [(12, 2.5), (12.0, 5), (np.float64(12), 5)])
    def test_non_integer_counts_refused(self, n, m):
        if type(n) is int:
            message = f"m must be a positive integer, got {m!r}"
        else:
            message = f"n must be an integer of at least 3, got {n!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            null_table(n, m)

    def test_negative_seed_refused(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            null_table(12, 5, seed=-1)

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


class TestKeysOncePerProcedure:
    """Each resampling procedure derives its substream keys once, whatever the
    number of replicates, of blocks and of threads."""

    @pytest.fixture
    def key_calls(self, monkeypatch):
        paths = []

        def counted(seed, *path):
            paths.append(path[0])
            return _keys(seed, *path)

        monkeypatch.setattr(inference, "_keys", counted)
        return paths

    # 1, 1, 9 and 9 blocks of 8 sets at n = 500; 15 blocks of 341 at n = 12
    @pytest.mark.parametrize(
        "n, m, threads", [(500, 1, 1), (500, 8, 2), (500, 70, 1), (500, 70, 3), (12, 5000, 2)]
    )
    def test_null_table_keys_once(self, key_calls, n, m, threads):
        null_table(n, m, EstimateConfig(cutoffs=(1, 1)), seed=4, threads=threads)
        assert key_calls == ["null"]

    @pytest.mark.parametrize("b1, b2, threads", [(2, 2, 1), (45, 9, 1), (45, 9, 3), (60, 20, 2)])
    def test_bootstrap_ci_keys_three_times(self, key_calls, b1, b2, threads):
        bootstrap_ci(gen_gaussian(40, 0.5, seed=26), b1=b1, b2=b2, seed=27, threads=threads)
        assert sorted(key_calls) == ["inner", "outer", "se0"]

    def test_keys_that_cannot_be_held_refused_before_any_draw(self, monkeypatch):
        def no_room(seed, *path):
            raise MemoryError("no room for the keys")

        def must_not_estimate(*args):
            raise AssertionError("a block was estimated")

        monkeypatch.setattr(inference, "_keys", no_room)
        monkeypatch.setattr(inference, "estimate_batch", must_not_estimate)
        with pytest.raises(CapabilityError, match="cannot hold .*no room for the keys"):
            null_table(12, 5)
        with pytest.raises(CapabilityError, match="cannot hold .*no room for the keys"):
            bootstrap_ci(gen_gaussian(40, 0.5, seed=26), b1=5, b2=3)


@pytest.mark.parametrize("n", [30, 100])
def test_size_of_the_full_null(n):
    # R uniform samples, each cross-validated as the table's draws are, tested
    # at the add-one p-value; the rejection rates at 5% and 10% lie within 3
    # binomial standard errors of nominal (5.45/10.80% at n = 30, 5.20/10.20% at 100)
    R = 2000
    table = null_table(n, 1000, seed=0)
    x = np.stack([substream(12345, "size", n, r).random((n, 2)) for r in range(R)])
    p = np.array([p_value(eta, table) for eta in estimate_batch(x, EstimateConfig())])
    for alpha in (0.05, 0.10):
        assert abs(np.mean(p <= alpha) - alpha) <= 3 * np.sqrt(alpha * (1 - alpha) / R)


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

    def test_cache_used_reports_load_or_build(self, tmp_path):
        x = gen_gaussian(40, 0.5, seed=20)
        cache = str(tmp_path / "null.json")
        cold = significance(x, m=50, seed=21, cache=cache)
        warm = significance(x, m=50, seed=21, cache=cache)
        assert (cold.cache_used, warm.cache_used) == (False, True)
        np.testing.assert_array_equal(cold.table.draws, warm.table.draws)
        assert significance(x, m=50, seed=21).cache_used is False

    def test_non_integer_table_size_refused(self, tmp_path):
        cache = tmp_path / "null.json"
        with pytest.raises(ConfigError, match=re.escape("m must be a positive integer, got 150.5")):
            significance(gen_gaussian(40, 0.5, seed=20), m=150.5, cache=str(cache))
        assert not cache.exists()

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
        # several blocks of outer replicates, the last one partial; at odd n
        # each resample's donors take an odd count of 32-bit words
        for n in (30, 31):
            assert 100 % (BATCH_POINTS // (n * (1 + 5))) != 0
            x = gen_gaussian(n, 0.6, seed=24)
            ci = bootstrap_ci(x, b1=100, b2=5, seed=25)
            lower, upper, se0 = reference_bootstrap(x, 100, 5, 25)
            assert ci.se == pytest.approx(se0, rel=0, abs=1e-12)
            assert ci.lower == pytest.approx(min(max(lower, 0.0), 1.0), rel=0, abs=1e-12)
            assert ci.upper == pytest.approx(min(max(upper, 0.0), 1.0), rel=0, abs=1e-12)
            base = estimate(x)
            assert (ci.estimate.eta, ci.estimate.b_raw, ci.estimate.cutoffs) == (base.eta, base.b_raw, base.cutoffs)

    def test_thread_count_does_not_change_interval(self):
        # five blocks of outer replicates, the last one partial; each block
        # re-keys a generator of its own, so threads cannot share one
        n, b1, b2 = 40, 45, 9
        per_block = BATCH_POINTS // (n * (1 + b2))
        assert b1 // per_block >= 4 and b1 % per_block != 0
        x = gen_gaussian(n, 0.5, seed=26)
        cis = [bootstrap_ci(x, b1=b1, b2=b2, seed=27, threads=t) for t in (1, 2, 3)]
        fields = [(ci.lower, ci.upper, ci.se, ci.dropped) for ci in cis]
        assert fields[1] == fields[0] and fields[2] == fields[0]

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
        with pytest.raises(ConfigError, match=re.escape("b1 must be an integer of at least 2, got 2.5")):
            bootstrap_ci(x, b1=2.5, b2=5)
        with pytest.raises(ConfigError, match="seed"):
            bootstrap_ci(x, b1=10, b2=5, seed=-1)
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
        "kind",
        [
            "string", "two_d", "descending", "nan", "above_one", "empty", "strings",
            "not_base64", "ragged", "v1_list",
        ],
    )
    def test_malformed_draws_rejected(self, tmp_path, kind):
        p = tmp_path / "table.json"
        save_null_table(null_table(12, 20, seed=32), p)
        doc = json.loads(p.read_text())
        draws = decode_draws(doc["draws"])
        text = doc["draws"]
        doc["draws"] = {
            "string": "0.5",
            "two_d": [encode_draws(draws[:10]), encode_draws(draws[10:])],
            "descending": encode_draws(draws[::-1]),
            "nan": encode_draws([float("nan")] * len(draws)),
            "above_one": encode_draws([5.0] * len(draws)),
            "empty": encode_draws([]),
            "strings": [str(v) for v in draws],
            # a character outside the alphabet, which a decoder that does not
            # validate would drop, leaving the draws intact
            "not_base64": text[:8] + "*" + text[8:],
            "ragged": base64.b64encode(np.asarray(draws, "<f8").tobytes()[:-1]).decode(),
            "v1_list": draws.tolist(),
        }[kind]
        p.write_text(json.dumps(doc))
        with pytest.raises(CacheMismatchError):
            load_null_table(p)

    def test_version_1_file_refused_as_older_format(self, tmp_path):
        t = null_table(12, 20, seed=32)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        doc = json.loads(p.read_text())
        doc.update(format_version=1, draws=t.draws.tolist())
        p.write_text(json.dumps(doc))
        with pytest.raises(CacheMismatchError, match="older null-table cache format .* deleted"):
            load_null_table(p)

    def test_edge_values_roundtrip_bit_for_bit(self, tmp_path):
        half = 0.5
        draws = np.array([0.0, 5e-324, half, np.nextafter(half, 1.0), 1.0])
        t = NullTable(n=12, draws=draws, config=EstimateConfig(), seed=0)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        back = load_null_table(p, n=12)
        assert back.draws.tobytes() == draws.tobytes()
        assert back.draws[1] == np.finfo(float).smallest_subnormal
        assert back.draws[3] - back.draws[2] == np.spacing(half)

    @pytest.mark.parametrize("field, value", [("n", "1e999"), ("n", "-1e999"), ("seed", "1e999")])
    def test_overflowing_integer_fields_rejected(self, tmp_path, field, value):
        # JSON reads 1e999 as inf, which int() refuses with OverflowError
        p = tmp_path / "table.json"
        save_null_table(null_table(12, 20, seed=33), p)
        p.write_text(re.sub(rf'"{field}": \d+', f'"{field}": {value}', p.read_text(), count=1))
        with pytest.raises(CacheMismatchError, match="malformed"):
            load_null_table(p)

    @pytest.mark.parametrize("cutoffs", [[1], [1, 2, 3], 3])
    def test_malformed_cutoffs_rejected(self, tmp_path, cutoffs):
        p = tmp_path / "table.json"
        save_null_table(null_table(12, 20, seed=33), p)
        doc = json.loads(p.read_text())
        doc["config"]["cutoffs"] = cutoffs
        p.write_text(json.dumps(doc))
        with pytest.raises(CacheMismatchError, match="malformed"):
            load_null_table(p)

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch):
        t = null_table(50, 20, seed=27)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        before = p.read_bytes()

        class FullDisk:
            """A file that takes part of a write, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(inference, "open", lambda *a: FullDisk(open(*a)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_null_table(null_table(50, 20, seed=28), p)
        monkeypatch.undo()
        assert p.read_bytes() == before
        np.testing.assert_array_equal(load_null_table(p, n=50).draws, t.draws)
        assert [f.name for f in tmp_path.iterdir()] == ["table.json"]

    def test_written_bytes_are_the_json_document(self, tmp_path):
        t = null_table(12, 50, EstimateConfig(cutoffs=(1, 2)), seed=34)
        p = tmp_path / "table.json"
        save_null_table(t, p)
        doc = {
            "magic": "hellcorr-null-table",
            "format_version": 2,
            "n": 12,
            "seed": 34,
            "config": {"cutoffs": [1, 2], "kmax": 5, "lmax": 5, "transform": "beta66"},
            "key": t.key,
            "draws": base64.b64encode(struct.pack("<50d", *t.draws.tolist())).decode("ascii"),
        }
        assert p.read_bytes() == json.dumps(doc).encode()
        streamed = io.StringIO()
        json.dump(doc, streamed)
        assert streamed.getvalue() == json.dumps(doc)

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
