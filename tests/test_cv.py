import math

import numpy as np
import pytest

from hellcorr.basis import design_matrix
from hellcorr.cv import admissible, select_cutoffs
from hellcorr.errors import ConfigError, SizeError
from hellcorr.estimator import beta_hat_table
from hellcorr.generators import gen_gaussian
from hellcorr.ranks_nn import column_ranks, pseudo_observations, two_nearest_neighbors
from oracles import transform_points, two_nearest_brute


def loo_nn_distances(points, excluded):
    """Brute-scan nearest-neighbour distances of the other points once one
    point is removed, in original order."""
    _, b1, _ = two_nearest_brute(np.delete(points, excluded, axis=0))
    return np.sqrt(b1)


def naive_score(basis_points, metric_points, nn, K, L, weights=None):
    """Quadratic-risk score computed the slow way: the cross term re-runs
    the nearest-neighbour search on every reduced point set instead of
    using the first/second-distance shortcut.  Basis functions are always
    evaluated at the rank points; distances live on metric_points."""
    n = basis_points.shape[0]
    w = np.ones(n) if weights is None else weights
    rw = nn.values * w
    cn = 2.0 * math.sqrt(n - 1.0) / n
    cn1 = 2.0 * math.sqrt(n - 2.0) / (n - 1.0)
    P = design_matrix(basis_points[:, 0], K)
    Q = design_matrix(basis_points[:, 1], L)
    loo = []
    for i in range(n):
        r = loo_nn_distances(metric_points, i)
        full = np.empty(n)
        full[np.arange(n) != i] = r
        full[i] = np.nan
        loo.append(full)
    total = 0.0
    for k in range(K + 1):
        for l in range(L + 1):
            c = P[:, k] * Q[:, l]
            beta = cn * float(np.dot(rw, c))
            cross = 0.0
            for i in range(n):
                inner = 0.0
                for j in range(n):
                    if j == i:
                        continue
                    inner += loo[i][j] * w[j] * c[j]
                cross += rw[i] * c[i] * cn1 * inner
            total += beta * beta - 2.0 * cn * cross
    return total


@pytest.mark.parametrize("weighted", [False, True])
def test_score_matches_leave_one_out_oracle(weighted):
    rng = np.random.default_rng(21)
    po = pseudo_observations(rng.normal(size=(10, 2)))
    if weighted:
        tp = transform_points(po.points)
        pts, w = tp.points, tp.weights
    else:
        pts, w = po.points, None
    nn = two_nearest_neighbors(pts)
    for K, L in [(0, 2), (1, 1), (3, 2), (3, 3)]:
        fast = select_cutoffs(po.points, nn, K, L, weights=w).scores[K, L]
        slow = naive_score(po.points, pts, nn, K, L, weights=w)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_grid_scores_equal_per_pair_scores():
    rng = np.random.default_rng(22)
    po = pseudo_observations(rng.normal(size=(60, 2)))
    nn = two_nearest_neighbors(po.points)
    res = select_cutoffs(po.points, nn, kmax=4, lmax=3)
    for K in range(5):
        for L in range(4):
            assert res.scores[K, L] == select_cutoffs(po.points, nn, K, L).scores[K, L]


def test_selection_is_admissible_argmin_with_tie_preference():
    rng = np.random.default_rng(23)
    po = pseudo_observations(rng.normal(size=(80, 2)))
    nn = two_nearest_neighbors(po.points)
    res = select_cutoffs(po.points, nn, kmax=5, lmax=5)
    best, best_score = None, math.inf
    for s in range(11):
        for K in range(min(s, 5) + 1):
            L = s - K
            if L > 5 or not admissible(K, L, 5, 5):
                continue
            if res.scores[K, L] < best_score:
                best, best_score = (K, L), res.scores[K, L]
    assert res.best == best
    assert admissible(*res.best, 5, 5)


def test_admissibility_rule():
    assert not admissible(0, 0, 5, 5)
    assert not admissible(1, 0, 5, 5)
    assert not admissible(0, 1, 5, 5)
    assert admissible(1, 1, 5, 5)
    assert admissible(0, 2, 5, 5)
    # a grid too small to reach the threshold keeps its own corner
    assert admissible(0, 0, 0, 0)
    assert admissible(0, 1, 0, 1)


def test_moderate_dependence_prefers_small_cutoffs():
    picks = []
    for r in range(30):
        sample = gen_gaussian(300, 0.4, seed=1000 + r)
        po = pseudo_observations(sample)
        tp = transform_points(po.points)
        nn = two_nearest_neighbors(tp.points)
        picks.append(select_cutoffs(po.points, nn, weights=tp.weights).best)
    assert picks.count((1, 1)) > len(picks) / 2


def test_argument_validation():
    rng = np.random.default_rng(24)
    po = pseudo_observations(rng.normal(size=(10, 2)))
    nn = two_nearest_neighbors(po.points)
    with pytest.raises(ConfigError):
        select_cutoffs(po.points, nn, kmax=-1)
    with pytest.raises(ConfigError):
        select_cutoffs(po.points, nn, 2, -2)
    with pytest.raises(SizeError):
        select_cutoffs(po.points[:2], nn)


def test_batched_selection_and_table_corners():
    # the (K, L) corner of the CV coefficient table is the fixed-cutoff
    # table at (K, L), for each sample of a batch; n = 5000 sums in two
    # row chunks and goes to the k-d tree
    rng = np.random.default_rng(25)
    for n, m in ((5, 9), (40, 6), (300, 3), (5000, 2)):
        samples = rng.normal(size=(m, n, 2))
        samples[:, :, 1] += np.sin(3.0 * samples[:, :, 0])
        ranks = column_ranks(samples)
        points = ranks / (n + 1.0)
        for weighted in (False, True):
            if weighted:
                tps = [transform_points(p) for p in points]
                pts = np.stack([tp.points for tp in tps])
                w = np.stack([tp.weights for tp in tps])
            else:
                pts, w = points, None
            nn = two_nearest_neighbors(pts)
            res = select_cutoffs(points, nn, kmax=4, lmax=3, weights=w)
            assert res.beta.shape == res.scores.shape == (m, 5, 4)
            for K in range(5):
                for L in range(4):
                    np.testing.assert_array_equal(
                        res.beta[:, : K + 1, : L + 1],
                        beta_hat_table(points, nn.values, K, L, weights=w),
                    )
            for i in range(m):
                one = select_cutoffs(
                    pseudo_observations(samples[i]).points,
                    two_nearest_neighbors(pts[i]),
                    kmax=4,
                    lmax=3,
                    weights=None if w is None else w[i],
                )
                assert one.best == res.best[i]
                np.testing.assert_array_equal(one.scores, res.scores[i])
                np.testing.assert_array_equal(one.beta, res.beta[i])
