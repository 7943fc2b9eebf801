import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from hellcorr import ranks_nn
from hellcorr.cv import select_cutoffs
from hellcorr.estimator import EstimateConfig, _nearest, _rank_coordinates, estimate
from hellcorr.errors import SizeError
from hellcorr.generators import gen_gaussian
from hellcorr.ranks_nn import (
    _BAND_CELLS,
    _BAND_MIN_N,
    _BAND_REACH,
    _BAND_ROWS,
    _BRUTE_CELLS,
    _DIAGONAL_CELLS,
    _TREE_MIN_N,
    TwoNearest,
    _band,
    _reach,
    _two_nearest_tree,
    column_ranks,
    nearest_distances,
    pseudo_observations,
    two_nearest_neighbors,
)
from oracles import b_hat_raw, stable_ranks, two_nearest_brute
from points_nn import nn_of_points


def rand_points(rng, n, style):
    if style == "uniform":
        return rng.random((n, 2))
    if style == "gaussian":
        return rng.normal(size=(n, 2))
    if style == "clustered":
        centers = rng.random((8, 2))
        pick = rng.integers(0, 8, n)
        return centers[pick] + 1e-4 * rng.normal(size=(n, 2))
    # duplicates: force repeated coordinates
    base = rng.random((max(n // 3, 1), 2))
    return base[rng.integers(0, len(base), n)]


def rand_sets(rng, n, m, style):
    """m sets in x order: the x row they share (n,) and their y (m, n).
    "duplicates" repeats x values and rounds y, so some points coincide."""
    if style == "uniform":
        x, y = rng.random(n), rng.random((m, n))
    elif style == "gaussian":
        x, y = rng.normal(size=n), rng.normal(size=(m, n))
    elif style == "clustered":
        pick = rng.integers(0, 8, n)
        x = rng.random(8)[pick] + 1e-4 * rng.normal(size=n)
        y = rng.random((m, 8))[:, pick] + 1e-4 * rng.normal(size=(m, n))
    else:
        k = max(n // 3, 1)
        x, y = rng.random(k)[rng.integers(0, k, n)], np.round(rng.random((m, n)), 1)
    order = np.argsort(x)
    return x[order], y[:, order]


def as_points(x, y):
    """The (m, n, 2) points of the sets (x, y)."""
    return np.stack(np.broadcast_arrays(x, y), axis=-1)


def check_sets(x, y):
    """Both scans of the sets (x, y) against the brute oracle, set by set."""
    nn = two_nearest_neighbors(x, y)
    np.testing.assert_array_equal(nearest_distances(x, y), nn.values)
    for i, pts in enumerate(as_points(x, y)):
        assert_matches_brute(pts, nn.index[i], nn.values[i], nn.second[i])
    return nn


def brute(pts):
    """The brute scan as distances: the oracle for every other path."""
    idx1, b1, b2 = two_nearest_brute(pts)
    return idx1, np.sqrt(b1), np.sqrt(b2)


def assert_matches_brute(pts, idx1, d1, d2):
    """Distances equal the oracle's bit for bit; the index names a nearest
    neighbour, the oracle's own wherever the two nearest are not equidistant."""
    ref_idx, ref_d1, ref_d2 = brute(pts)
    np.testing.assert_array_equal(d1, ref_d1)
    np.testing.assert_array_equal(d2, ref_d2)
    clear = ref_d1 < ref_d2
    np.testing.assert_array_equal(idx1[clear], ref_idx[clear])
    assert np.all(idx1 != np.arange(len(pts)))
    dx = pts[:, 0] - pts[idx1, 0]
    dy = pts[:, 1] - pts[idx1, 1]
    np.testing.assert_array_equal(np.sqrt(dx * dx + dy * dy), d1)


class TestPseudoObservations:
    def test_ranks_match_ordinal_ranking(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        po = pseudo_observations(x)
        for j in range(2):
            np.testing.assert_array_equal(po.ranks[:, j], rankdata(x[:, j], method="ordinal"))
        np.testing.assert_allclose(po.points, po.ranks / (po.n + 1.0))
        assert not po.tie_warning

    def test_points_strictly_inside_unit_square(self):
        rng = np.random.default_rng(1)
        po = pseudo_observations(rng.normal(size=(25, 2)))
        assert po.points.min() > 0.0 and po.points.max() < 1.0

    def test_tie_warning_flag(self):
        x = np.array([[1.0, 5.0], [1.0, 6.0], [2.0, 7.0]])
        assert pseudo_observations(x).tie_warning
        y = np.array([[1.0, 5.0], [3.0, 6.0], [2.0, 7.0]])
        assert not pseudo_observations(y).tie_warning

    def test_tie_break_is_stable(self):
        # equal values keep their input order
        x = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
        po = pseudo_observations(x)
        np.testing.assert_array_equal(po.ranks[:, 0], [3, 2, 4, 1])

    def test_jitter_deterministic_and_breaks_ties(self):
        x = np.ones((30, 2))
        x[:, 1] = np.arange(30)
        a = pseudo_observations(x, jitter_seed=9)
        b = pseudo_observations(x, jitter_seed=9)
        c = pseudo_observations(x, jitter_seed=10)
        np.testing.assert_array_equal(a.ranks, b.ranks)
        assert not np.array_equal(a.ranks[:, 0], c.ranks[:, 0])
        assert len(np.unique(a.ranks[:, 0])) == 30

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40),
        st.integers(0, 2**32),
        st.sampled_from([0, 1]),
        st.sampled_from(["offset", "exp", "cube"]),
        st.integers(0, 10**9),
    )
    def test_jittered_ranks_invariant_under_increasing_maps(self, rows, seed, j, kind, offset):
        # quarters, one row repeated so the sample ties; every map is exact or
        # strictly increasing on them in floating point
        x = np.array(rows + rows[:1]) / 4.0
        y = x.copy()
        y[:, j] = {"offset": x[:, j] + offset, "exp": np.exp(x[:, j]), "cube": x[:, j] ** 3}[kind]
        np.testing.assert_array_equal(
            pseudo_observations(y, jitter_seed=seed).ranks, pseudo_observations(x, jitter_seed=seed).ranks
        )

    def test_jitter_keeps_distinct_values_in_order(self):
        x = np.column_stack([np.tile([0.0, 1e-12, 1.0], 10), np.arange(30.0)])
        less = x[:, None, 0] < x[None, :, 0]
        for seed in range(6):
            r = pseudo_observations(x, jitter_seed=seed).ranks[:, 0]
            assert (r[:, None] < r[None, :])[less].all(), f"seed {seed}"

    def test_jitter_breaks_each_columns_ties_on_its_own(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, (50, 2)).astype(float)
        expected = pseudo_observations(x, jitter_seed=4).ranks[:, 0]
        for other in (rng.integers(0, 5, 50), rng.normal(size=50), np.zeros(50)):
            y = np.column_stack([x[:, 0], other])
            np.testing.assert_array_equal(pseudo_observations(y, jitter_seed=4).ranks[:, 0], expected)

    def test_jittered_estimate_ignores_an_offset(self):
        # the README's 200 independent binary pairs: input order reads 0.948
        b = np.random.default_rng(0).integers(0, 2, (200, 2)).astype(float)
        eta = estimate(b, jitter_seed=1).eta
        assert estimate(b + 1e9, jitter_seed=1).eta == eta
        assert eta == pytest.approx(0.1223, abs=5e-5)

    def test_rejects_tiny_or_misshaped_input(self):
        with pytest.raises(SizeError):
            pseudo_observations(np.zeros((1, 2)))
        with pytest.raises(SizeError):
            pseudo_observations(np.zeros((5, 3)))
        with pytest.raises(SizeError):
            pseudo_observations(np.array([[0.0, np.inf], [1.0, 2.0]]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(*2 * [st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6))]),
            min_size=2,
            max_size=40,
        ),
        st.sampled_from([None, 5]),
    )
    def test_tie_warning_equals_unique_oracle(self, rows, jitter_seed):
        # small integers tie often, wide floats rarely; -0.0 ties with 0.0
        x = np.array(rows)
        po = pseudo_observations(x, jitter_seed=jitter_seed)
        assert po.tie_warning == any(np.unique(x[:, j]).size < len(x) for j in (0, 1))
        if jitter_seed is None or not po.tie_warning:
            np.testing.assert_array_equal(po.ranks, stable_ranks(x))

    def test_batched_ranks_equal_per_sample_ranks(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 30, 2))
        x[3, :10] = x[3, 0]  # ties, broken by input order in both
        x[5] = np.round(x[5], 1)
        x[7, :, 1] = 2.0  # a constant column
        ranks, tie = column_ranks(x)
        np.testing.assert_array_equal(tie, [i in (3, 5, 7) for i in range(9)])
        for i in range(9):
            np.testing.assert_array_equal(ranks[i], pseudo_observations(x[i]).ranks)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(2, 30))
    def test_batch_equals_stable_oracle(self, data, m, n):
        # each column is wide floats (rarely tied), small integers, +-0.0 and
        # 1.0, or one value, so a batch mixes tied and tie-free samples
        values = [
            st.floats(-1e6, 1e6),
            st.integers(-3, 3).map(float),
            st.sampled_from([0.0, -0.0, 1.0]),
            st.just(1.5),
        ]
        column = st.sampled_from(values).flatmap(lambda v: st.lists(v, min_size=n, max_size=n))
        x = np.array(data.draw(st.lists(column, min_size=2 * m, max_size=2 * m)))
        x = x.reshape(m, 2, n).swapaxes(1, 2)
        ranks, tie = column_ranks(x)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, stable_ranks(x))
        unique = [any(np.unique(s[:, j]).size < len(s) for j in (0, 1)) for s in x]
        np.testing.assert_array_equal(tie, unique)
        # one (n, 2) sample, whose tie flag is 0-d
        ranks, tie = column_ranks(x[0])
        np.testing.assert_array_equal(ranks, stable_ranks(x[0]))
        assert tie.ndim == 0 and tie == unique[0]


def assert_refuses(scan):
    """The scan's refusals: x not one non-decreasing row, y's last axis not
    n or more than one batch axis, a value not finite, fewer than 2 points."""
    x = np.array([0.1, 0.2, 0.2, 0.3])
    y = np.array([[0.5, 0.4, 0.6, 0.1]])
    scan(x, y)
    scan(x, y[0])
    for bad_x, bad_y in (
        (x[::-1], y),
        (np.array([0.1, 0.3, 0.2, 0.4]), y),
        (x[:, None], y),
        (x, y[:, :3]),
        (x, y.T),
        (x, y[None]),
        (np.array([0.1, np.nan, 0.2, 0.3]), y),
        (x, np.array([0.5, np.inf, 0.6, 0.1])),
        (x[:1], y[:, :1]),
        (x[:0], y[:, :0]),
    ):
        with pytest.raises(SizeError):
            scan(bad_x, bad_y)


class TestNearestDistances:
    def test_equal_the_single_scan_bitwise(self):
        # batches of several sizes: a scan step holds many small sets or one
        # banded n = 600 set, or the batch goes to the tree at n >= 1024; an
        # empty batch gives an empty answer
        rng = np.random.default_rng(15)
        for n, m in ((2, 5), (3, 40), (12, 3000), (200, 9), (300, 0), (600, 3), (1024, 2)):
            for style in ("uniform", "duplicates"):
                x, y = rand_sets(rng, n, m, style)
                got = nearest_distances(x, y)
                assert got.shape == (m, n)
                for i, pts in enumerate(as_points(x, y)):
                    np.testing.assert_array_equal(got[i], brute(pts)[1])

    def test_rejects_misshaped_points(self):
        assert_refuses(nearest_distances)


class TestTwoNearest:
    def test_batch_equals_oracle(self):
        # a scan step holds 1820 sets at n = 12, 9 at n = 167, 3 at n = 168
        # and one from n = 289 on, so these batches cross chunk boundaries
        rng = np.random.default_rng(16)
        for n, m in ((2, 4), (12, 1830), (167, 19), (168, 7), (500, 3), (1023, 3), (1024, 2)):
            for style in ("uniform", "duplicates"):
                nn = check_sets(*rand_sets(rng, n, m, style))
                assert nn.index.shape == nn.values.shape == nn.second.shape == (m, n)

    def test_tree_equals_brute_bitwise(self):
        rng = np.random.default_rng(7)
        for style in ("uniform", "gaussian", "clustered", "duplicates"):
            for n in (50, 300, 1500):
                pts = rand_points(rng, n, style)
                assert_matches_brute(pts, *_two_nearest_tree(pts))

    def test_three_or_more_coincident_points(self):
        # with four or more copies of a point, the tree may return three
        # copies other than the point itself
        rng = np.random.default_rng(13)
        for copies in (3, 4, 5, 9):
            pts = rng.random((1100, 2))
            pts[: 2 * copies] = np.repeat(pts[[0, 1]], copies, axis=0)
            pts = pts[rng.permutation(len(pts))]
            idx1, d1, d2 = _two_nearest_tree(pts)
            assert_matches_brute(pts, idx1, d1, d2)
            assert np.count_nonzero(d2 == 0.0) == 2 * copies

    def test_size_dispatch_matches_brute(self):
        rng = np.random.default_rng(10)
        for n in (100, 1023, 1024, 2000):
            x, y = np.sort(rng.random(n)), rng.random(n)
            pts = np.column_stack([x, y])
            nn = two_nearest_neighbors(x, y)
            assert_matches_brute(pts, nn.index, nn.values, nn.second)
            # reductions round strided and contiguous inputs differently, so
            # equal distances must also give equal plug-in sums
            w = rng.random(n)
            ref = brute(pts)[1]
            assert b_hat_raw(nn.values, w) == b_hat_raw(ref, w)
            assert b_hat_raw(nn.values) == b_hat_raw(ref)

    def test_brute_scan_not_importing_scipy_spatial(self):
        # the k-d tree's import costs ~0.1 s; estimates below the tree
        # cutoff must not pay it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import hellcorr\n"
            "from hellcorr.ranks_nn import two_nearest_neighbors\n"
            "rng = np.random.default_rng(0)\n"
            "hellcorr.estimate(rng.normal(size=(500, 2)))\n"
            "two_nearest_neighbors(np.sort(rng.random(1023)), rng.random(1023))\n"
            "print('scipy.spatial' in sys.modules)\n"
            "two_nearest_neighbors(np.sort(rng.random(1024)), rng.random(1024))\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    @pytest.mark.parametrize("block_scipy", [False, True])
    def test_small_inputs_run_without_scipy(self, block_scipy):
        # below the tree cutoff no stage loads scipy: the Beta(6,6) quantile is
        # numpy-only, so every entry point must run with scipy unimportable
        code = (
            "import sys\n"
            + ("sys.modules['scipy'] = None\n" if block_scipy else "")
            + "import numpy as np\n"
            "import hellcorr\n"
            "from hellcorr import cli\n"
            "rng = np.random.default_rng(0)\n"
            "for n in (12, 500):\n"
            "    assert hellcorr.estimate(rng.normal(size=(n, 2))).cv is not None\n"
            "hellcorr.null_table(12, 50)\n"
            "hellcorr.bootstrap_ci(rng.normal(size=(12, 2)), b1=20, b2=5)\n"
            "assert cli.main(['estimate', '--generator', 'circle', '--n', '12']) == 0\n"
            # a blocked import leaves its None placeholder behind
            "print(sorted(m for m, mod in sys.modules.items() if mod and m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_second_at_least_first(self):
        rng = np.random.default_rng(8)
        nn = two_nearest_neighbors(np.sort(rng.random(200)), rng.random(200))
        assert np.all(nn.second >= nn.values)

    def test_index_points_at_true_neighbor(self):
        rng = np.random.default_rng(9)
        pts = np.column_stack([np.sort(rng.random(80)), rng.random(80)])
        nn = two_nearest_neighbors(pts[:, 0], pts[:, 1])
        dx = pts[:, 0] - pts[nn.index, 0]
        dy = pts[:, 1] - pts[nn.index, 1]
        np.testing.assert_array_equal(np.sqrt(dx * dx + dy * dy), nn.values)
        assert np.all(nn.index != np.arange(80))

    def test_duplicate_points_give_zero_distance(self):
        nn = two_nearest_neighbors([0.2, 0.2, 0.8, 0.9], [0.2, 0.2, 0.1, 0.9])
        assert nn.values[0] == 0.0 and nn.values[1] == 0.0

    def test_n_equals_2_second_is_inf(self):
        nn = two_nearest_neighbors([0.0, 1.0], [0.0, 1.0])
        assert np.isinf(nn.second).all()
        np.testing.assert_allclose(nn.values, np.sqrt(2.0))

    def test_rejects_misshaped_points(self):
        assert_refuses(two_nearest_neighbors)

    def test_equidistant_index_swap_leaves_cv_scores_unchanged(self):
        # n + 1 = 64 makes the rank points dyadic, so equal lattice offsets
        # give exactly equal distances
        po = pseudo_observations(gen_gaussian(63, 0.9, seed=1))
        nn = nn_of_points(po.points)
        d = np.sqrt(((po.points[:, None, :] - po.points[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        swapped = nn.index.copy()
        for i in np.flatnonzero(nn.values == nn.second):
            others = np.flatnonzero(d[i] == nn.values[i])
            swapped[i] = others[others != nn.index[i]][0]
        assert np.count_nonzero(swapped != nn.index) >= 5
        alt = TwoNearest(index=swapped, values=nn.values, second=nn.second)
        weights = np.random.default_rng(14).random(63) + 0.5
        for w in (None, weights):
            a = select_cutoffs(po.points, nn, weights=w)
            b = select_cutoffs(po.points, alt, weights=w)
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.best == b.best


def chunk_sets(n):
    """Sets one step of the tiled or whole-set scan holds at n points."""
    r, c, _, below, _ = _band(n)
    return max(1, (_BRUTE_CELLS if below is None else _BAND_CELLS) // (r.size * c.shape[1]))


def crossing_batch(n):
    """A batch of sets of n points that crosses two chunk boundaries of each
    scan they take: the tiles or the whole-set scan and, from _BAND_MIN_N up,
    the diagonal band."""
    sets = chunk_sets(n)
    if n >= _BAND_MIN_N:
        sets = max(sets, _DIAGONAL_CELLS // (_reach(n) * n))
    return 2 * sets + 1


def unsettled_set(n):
    """x = i/n, y = frac(i * golden ratio) * 1e6: each point's nearest
    neighbour lies far off in y, beyond every band's x-gap."""
    i = np.arange(n)
    return i / n, ((i * (1 + 5**0.5) / 2) % 1.0 * 1e6)[None]


class TestBand:
    """The banded scan below the tree cutoff against the brute oracle."""

    @pytest.mark.parametrize("style", ["uniform", "gaussian", "clustered", "duplicates"])
    def test_sizes_around_the_band_edges(self, style):
        # each batch crosses two chunk boundaries of every scan it takes; the
        # sizes include the first and the last n where the diagonal band's
        # reach R(n) steps up, and the n just below each
        width = _BAND_ROWS + 2 * _BAND_REACH
        edge = _BAND_MIN_N
        assert _band(edge - 1)[3] is None and _band(edge)[3] is not None and width < edge
        steps = [n for n in range(edge + 1, _TREE_MIN_N) if _reach(n) > _reach(n - 1)]
        rng = np.random.default_rng(17)
        for n in (width - 1, width, width + 1, edge - 1, edge, edge + 1, 500, 1023):
            check_sets(*rand_sets(rng, n, crossing_batch(n), style))
        for step in (steps[0], steps[-1]):
            for n in (step - 1, step):
                check_sets(*rand_sets(rng, n, crossing_batch(n), style))

    @pytest.mark.parametrize("n", [255, 511])
    def test_rank_grid_with_equidistant_ties(self, n):
        # n + 1 = 2**k makes the rank points dyadic, so equal lattice offsets
        # give exactly equal distances, as the estimator's transform="none" sees them
        y = []
        for rho in (0.0, 0.7, 0.99):
            po = pseudo_observations(gen_gaussian(n, rho, seed=3))
            y.append(po.points[np.argsort(po.ranks[:, 0]), 1])
        nn = check_sets(np.arange(1, n + 1) / (n + 1.0), np.stack(y))
        assert np.all(np.count_nonzero(nn.values == nn.second, axis=1) >= 3)

    def test_every_row_unsettled(self, monkeypatch):
        # every row falls back to a scan of its whole set
        n = 500
        full_rows = []
        reduce = ranks_nn._reduce

        def spy(sq, two):
            if sq.ndim == 2:
                full_rows.append(len(sq))
            return reduce(sq, two)

        monkeypatch.setattr(ranks_nn, "_reduce", spy)
        check_sets(*unsettled_set(n))
        # one scan per row and call, the rows the last tile shares with the
        # tile before scanned once
        assert sum(full_rows) == 2 * n

    def test_first_distances_take_the_diagonal_band(self, monkeypatch):
        # from _BAND_MIN_N up to the tree, nearest_distances takes the diagonal
        # band and never the tiles; two_nearest_neighbors keeps the tiles
        seen = []
        diagonal, scan = ranks_nn._nearest_diagonal, ranks_nn._nearest_squared

        def spy_diagonal(x, y):
            seen.append(("diagonal", x.size))
            return diagonal(x, y)

        def spy_scan(x, y, two):
            seen.append(("tiles" if _band(x.size)[3] is not None else "whole", x.size, two))
            return scan(x, y, two)

        monkeypatch.setattr(ranks_nn, "_nearest_diagonal", spy_diagonal)
        monkeypatch.setattr(ranks_nn, "_nearest_squared", spy_scan)
        rng = np.random.default_rng(19)
        for n in (12, _BAND_MIN_N - 1, _BAND_MIN_N, 500, _TREE_MIN_N - 1):
            nearest_distances(*rand_sets(rng, n, 3, "uniform"))
        assert seen == [
            ("whole", 12, False),
            ("whole", _BAND_MIN_N - 1, False),
            ("diagonal", _BAND_MIN_N),
            ("diagonal", 500),
            ("diagonal", _TREE_MIN_N - 1),
        ]
        seen.clear()
        two_nearest_neighbors(*rand_sets(rng, 500, 3, "uniform"))
        assert seen == [("tiles", 500, True)]

    @pytest.mark.parametrize("two", [False, True])
    def test_each_unsettled_row_scanned_once(self, monkeypatch, two):
        # on the every-row-unsettled input the last tile shares 12 rows with
        # the tile before (n = 500 is not a multiple of the tile height)
        n = 500
        assert _band(n)[0].size == 512
        rows = []
        squared = ranks_nn._squared

        def spy(dx2, yr, yc, out):
            if out.ndim == 2:  # a whole-set scan, one row of out per point
                rows.append(len(out))
            return squared(dx2, yr, yc, out)

        monkeypatch.setattr(ranks_nn, "_squared", spy)
        (two_nearest_neighbors if two else nearest_distances)(*unsettled_set(n))
        assert sum(rows) == n


class TestXTables:
    """The x tables of the tiles and the whole-set scan, cached per x row."""

    @pytest.mark.parametrize("n", [12, _BAND_MIN_N, 500, _TREE_MIN_N - 1])
    def test_second_estimate_of_an_n_hits_the_cache(self, n):
        first, second = (gen_gaussian(n, 0.5, seed=s) for s in (1, 2))
        estimate(first)
        before = ranks_nn._tiles.cache_info()
        estimate(second)
        after = ranks_nn._tiles.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    @pytest.mark.parametrize("n", [12, _BAND_MIN_N - 1, _BAND_MIN_N, 500])
    def test_cached_tables_are_read_only(self, n):
        x = (np.arange(1, n + 1) / (n + 1.0)).tobytes()
        tables = [t for t in ranks_nn._tiles(x) if t is not None]
        if n >= _BAND_MIN_N:
            tables += ranks_nn._diagonal(x)[1:]
        assert len(tables) == (1 if n < _BAND_MIN_N else 4)
        for t in tables:
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t.reshape(-1)[0] = 0.0

    def test_transforms_take_their_own_entries_and_match_a_cold_process(self):
        # the "none" and Beta(6,6) rows of one n are two entries; estimates
        # that read them warm equal a fresh process's, bit for bit
        n = 500

        def run(transforms):
            for t in transforms:
                res = estimate(gen_gaussian(n, 0.6, seed=4), EstimateConfig(transform=t))
                yield [res.eta, res.b_raw, res.cutoffs, res.cv.scores.tolist(), res.cv.beta.tolist()]

        ranks_nn._tiles.cache_clear()
        warm = list(run(["none", "beta66", "none", "beta66"]))
        info = ranks_nn._tiles.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        assert warm[0] == warm[2] and warm[1] == warm[3] and warm[0] != warm[1]
        code = (
            "import numpy as np\n"
            "from hellcorr import EstimateConfig, estimate, gen_gaussian\n"
            "for t in ('beta66', 'none'):\n"
            f"    res = estimate(gen_gaussian({n}, 0.6, seed=4), EstimateConfig(transform=t))\n"
            "    print(repr([res.eta, res.b_raw, res.cutoffs, res.cv.scores.tolist(), res.cv.beta.tolist()]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [repr(warm[1]), repr(warm[0])]


class TestRankFrame:
    """The estimator's sets in their rank frame against the same points in
    input order, scanned one set at a time, and the brute oracle: at every n
    the scan gets each set's y in x-rank order (one scatter of the x-ranks)
    and the one x row they share, and the results come back through the order."""

    @pytest.mark.parametrize(
        "n, transform",
        [(3, "beta66"), (12, "beta66"), (63, "none"), (100, "beta66"), (167, "beta66"),
         (168, "beta66"), (169, "beta66"), (500, "beta66"), (1023, "beta66"), (255, "none"),
         (511, "none")],
    )
    def test_frame_equals_points_and_brute(self, n, transform):
        # each batch but n = 3's (where one chunk holds 29,127 sets) crosses
        # two chunk boundaries; every other sample is rounded to one decimal
        # and repeats its first row, so it has ties at every n, ranked by
        # input order. At n + 1 = 2**k the "none" rank points are dyadic and
        # tie equidistantly
        rng = np.random.default_rng(n)
        m = crossing_batch(n) if n > 3 else 999
        samples = np.stack([gen_gaussian(n, rho, seed=rng) for rho in np.linspace(0.0, 0.95, m)])
        samples[::2] = np.round(samples[::2], 1)
        samples[::2, 1] = samples[::2, 0]
        ranks, tie = column_ranks(samples)
        assert tie[::2].all()
        coord, _ = _rank_coordinates(ranks, transform)
        pts = coord[ranks - 1]
        got, got_first = _nearest(ranks, coord, True), _nearest(ranks, coord, False)
        ref = nn_of_points(pts)
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(got.values, got_first)
        np.testing.assert_array_equal(got.second, ref.second)
        clear = ref.values < ref.second
        assert transform == "beta66" or not clear.all()
        np.testing.assert_array_equal(got.index[clear], ref.index[clear])
        for i in range(m):
            assert_matches_brute(pts[i], got.index[i], got.values[i], got.second[i])


class TestLeaveOneOut:
    def test_matches_brute_on_reduced_set(self):
        # removing point e changes the nearest-neighbour distance of point i
        # only when e was its nearest neighbour, and then to second[i]: the
        # identity the cross-validation shortcut rests on
        rng = np.random.default_rng(11)
        for n in (60, 1100):
            x, y = np.sort(rng.random(n)), rng.random(n)
            pts = np.column_stack([x, y])
            for nn in (two_nearest_neighbors(x, y), TwoNearest(*_two_nearest_tree(pts))):
                for excl in (0, 17, n - 1):
                    keep = np.arange(n) != excl
                    got = np.where(nn.index == excl, nn.second, nn.values)[keep]
                    np.testing.assert_array_equal(got, brute(pts[keep])[1])


@pytest.mark.parametrize("m, n", [(1, 500), (3, 7), (40, 90)])
def test_distance_buffer_starts_on_a_cache_line(m, n, monkeypatch):
    # a scan over a buffer 16 to 48 bytes past a 64-byte boundary ran about
    # 10% slower; every chunk's tile distances and the squared x-gaps added
    # to them start on one, in the tiles (n = 500) and in the whole-set scan,
    # and so do the diagonal band's block and its x-gaps (n = 500)
    starts = []
    squared = ranks_nn._squared

    def spy(dx2, yr, yc, out):
        if out.ndim >= 3:  # a chunk's tiles or block, not a whole-set row scan
            starts.append((out.ndim, out.ctypes.data % 64, dx2.ctypes.data % 64))
        return squared(dx2, yr, yc, out)

    monkeypatch.setattr(ranks_nn, "_squared", spy)
    rng = np.random.default_rng(n)
    x, y = np.sort(rng.random(n)), rng.random((m, n))
    nearest_distances(x, y)
    two_nearest_neighbors(x, y)
    assert {s[0] for s in starts} == ({3, 4} if n >= _BAND_MIN_N else {4})
    assert {s[1:] for s in starts} == {(0, 0)}
