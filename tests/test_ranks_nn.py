import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import rankdata

from hellcorr.cv import select_cutoffs
from hellcorr.errors import SizeError
from hellcorr.generators import gen_gaussian
from hellcorr.ranks_nn import (
    TwoNearest,
    _two_nearest_tree,
    column_ranks,
    nearest_distances,
    pseudo_observations,
    two_nearest_neighbors,
)
from oracles import b_hat_raw, two_nearest_brute


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

    def test_rejects_tiny_or_misshaped_input(self):
        with pytest.raises(SizeError):
            pseudo_observations(np.zeros((1, 2)))
        with pytest.raises(SizeError):
            pseudo_observations(np.zeros((5, 3)))
        with pytest.raises(SizeError):
            pseudo_observations(np.array([[0.0, np.inf], [1.0, 2.0]]))


    def test_batched_ranks_equal_per_sample_ranks(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 30, 2))
        x[3, :10] = x[3, 0]  # ties, broken by input order in both
        ranks = column_ranks(x)
        for i in range(9):
            np.testing.assert_array_equal(ranks[i], pseudo_observations(x[i]).ranks)


class TestNearestDistances:
    def test_equal_the_single_scan_bitwise(self):
        # batches of several sizes: a brute step holds many small sets, one
        # n = 600 set, or goes to the tree at n >= 1024
        rng = np.random.default_rng(15)
        for n, m in ((2, 5), (3, 40), (12, 3000), (200, 9), (600, 3), (1024, 2)):
            for style in ("uniform", "duplicates"):
                pts = np.stack([rand_points(rng, n, style) for _ in range(m)])
                got = nearest_distances(pts)
                for i in range(m):
                    np.testing.assert_array_equal(got[i], brute(pts[i])[1])

    def test_rejects_misshaped_points(self):
        with pytest.raises(SizeError):
            nearest_distances(np.zeros((3, 1, 2)))
        with pytest.raises(SizeError):
            nearest_distances(np.zeros((5, 2)))


class TestTwoNearest:
    def test_batch_equals_oracle(self):
        # a brute step holds 1820 sets at n = 12, 6 at n = 200 and one from
        # n = 363 on, so these batches cross chunk boundaries
        rng = np.random.default_rng(16)
        for n, m in ((2, 4), (3, 7), (12, 1830), (200, 13), (600, 3), (1023, 2), (1024, 2)):
            for style in ("uniform", "duplicates"):
                pts = np.stack([rand_points(rng, n, style) for _ in range(m)])
                nn = two_nearest_neighbors(pts)
                assert nn.index.shape == nn.values.shape == nn.second.shape == (m, n)
                np.testing.assert_array_equal(nn.values, nearest_distances(pts))
                for i in range(m):
                    assert_matches_brute(pts[i], nn.index[i], nn.values[i], nn.second[i])

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
            pts = rng.random((n, 2))
            nn = two_nearest_neighbors(pts)
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
            "two_nearest_neighbors(rng.random((1023, 2)))\n"
            "print('scipy.spatial' in sys.modules)\n"
            "two_nearest_neighbors(rng.random((1024, 2)))\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_second_at_least_first(self):
        rng = np.random.default_rng(8)
        nn = two_nearest_neighbors(rng.random((200, 2)))
        assert np.all(nn.second >= nn.values)

    def test_index_points_at_true_neighbor(self):
        rng = np.random.default_rng(9)
        pts = rng.random((80, 2))
        nn = two_nearest_neighbors(pts)
        dx = pts[:, 0] - pts[nn.index, 0]
        dy = pts[:, 1] - pts[nn.index, 1]
        np.testing.assert_array_equal(np.sqrt(dx * dx + dy * dy), nn.values)
        assert np.all(nn.index != np.arange(80))

    def test_duplicate_points_give_zero_distance(self):
        pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.9, 0.9], [0.8, 0.1]])
        nn = two_nearest_neighbors(pts)
        assert nn.values[0] == 0.0 and nn.values[1] == 0.0

    def test_n_equals_2_second_is_inf(self):
        nn = two_nearest_neighbors(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert np.isinf(nn.second).all()
        np.testing.assert_allclose(nn.values, np.sqrt(2.0))

    def test_rejects_misshaped_points(self):
        with pytest.raises(SizeError):
            two_nearest_neighbors(np.zeros((1, 2)))
        with pytest.raises(SizeError):
            two_nearest_neighbors(np.zeros((5, 3)))

    def test_equidistant_index_swap_leaves_cv_scores_unchanged(self):
        # n + 1 = 64 makes the rank points dyadic, so equal lattice offsets
        # give exactly equal distances
        po = pseudo_observations(gen_gaussian(63, 0.9, seed=1))
        nn = two_nearest_neighbors(po.points)
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


class TestLeaveOneOut:
    def test_matches_brute_on_reduced_set(self):
        # removing point e changes the nearest-neighbour distance of point i
        # only when e was its nearest neighbour, and then to second[i]: the
        # identity the cross-validation shortcut rests on
        rng = np.random.default_rng(11)
        for n in (60, 1100):
            pts = rng.random((n, 2))
            for nn in (two_nearest_neighbors(pts), TwoNearest(*_two_nearest_tree(pts))):
                for excl in (0, 17, n - 1):
                    keep = np.arange(n) != excl
                    got = np.where(nn.index == excl, nn.second, nn.values)[keep]
                    np.testing.assert_array_equal(got, brute(pts[keep])[1])
