import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hellcorr.basis import design_matrix
from hellcorr.cv import _cell_tables, _corner_sums, admissible, cutoff_grid, select_cutoffs
from hellcorr.errors import ConfigError, SizeError
from hellcorr.estimator import beta_hat_table
from hellcorr.generators import gen_gaussian
from hellcorr.ranks_nn import TwoNearest, column_ranks, pseudo_observations
from oracles import (
    corner_sums, transform_points, two_nearest_brute, whole_sample_beta_hat_table, whole_sample_cell_tables,
)
from points_nn import nn_of_points


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
    nn = nn_of_points(pts)
    for K, L in [(0, 2), (1, 1), (3, 2), (3, 3)]:
        fast = select_cutoffs(po.points, nn, K, L, weights=w).scores[K, L]
        slow = naive_score(po.points, pts, nn, K, L, weights=w)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_grid_scores_equal_per_pair_scores():
    rng = np.random.default_rng(22)
    po = pseudo_observations(rng.normal(size=(60, 2)))
    nn = nn_of_points(po.points)
    res = select_cutoffs(po.points, nn, kmax=4, lmax=3)
    for K in range(5):
        for L in range(4):
            assert res.scores[K, L] == select_cutoffs(po.points, nn, K, L).scores[K, L]


def test_selection_is_admissible_argmin_with_tie_preference():
    rng = np.random.default_rng(23)
    po = pseudo_observations(rng.normal(size=(80, 2)))
    nn = nn_of_points(po.points)
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


@pytest.mark.parametrize("kmax, lmax", [(0, 0), (0, 4), (4, 0), (1, 1), (5, 5), (20, 20)])
def test_cutoff_grid_is_the_enumerated_preference_order(kmax, lmax):
    # admissible pairs only; ties prefer the smaller K + L, then the smaller K.
    # The grid is cached per (kmax, lmax), so its arrays are read-only
    pairs, ks, ls, corners = cutoff_grid(kmax, lmax)
    grid = [(K, L) for K in range(kmax + 1) for L in range(lmax + 1)]
    want = sorted((p for p in grid if admissible(*p, kmax, lmax)), key=lambda p: (sum(p), p[0]))
    assert pairs == tuple(want)
    assert (ks.tolist(), ls.tolist()) == ([K for K, _ in want], [L for _, L in want])
    assert corners.shape == (kmax + 1, lmax + 1, kmax + 1, lmax + 1)
    for K, L in grid:
        corner = np.zeros((kmax + 1, lmax + 1), dtype=bool)
        corner[: K + 1, : L + 1] = True
        np.testing.assert_array_equal(corners[K, L], corner)
    assert not any(a.flags.writeable for a in (ks, ls, corners))
    assert cutoff_grid(kmax, lmax) is cutoff_grid(kmax, lmax)


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
        nn = nn_of_points(tp.points)
        picks.append(select_cutoffs(po.points, nn, weights=tp.weights).best)
    assert picks.count((1, 1)) > len(picks) / 2


def test_argument_validation():
    rng = np.random.default_rng(24)
    po = pseudo_observations(rng.normal(size=(10, 2)))
    nn = nn_of_points(po.points)
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
        ranks = column_ranks(samples)[0]
        points = ranks / (n + 1.0)
        for weighted in (False, True):
            if weighted:
                tps = [transform_points(p) for p in points]
                pts = np.stack([tp.points for tp in tps])
                w = np.stack([tp.weights for tp in tps])
            else:
                pts, w = points, None
            nn = nn_of_points(pts)
            res = select_cutoffs(points, nn, kmax=4, lmax=3, weights=w)
            assert res.beta.shape == res.scores.shape == (m, 5, 4)
            # the integer ranks read the basis from a per-n table, bit for bit
            by_rank = select_cutoffs(ranks, nn, kmax=4, lmax=3, weights=w)
            assert by_rank.best == res.best
            np.testing.assert_array_equal(by_rank.scores, res.scores)
            np.testing.assert_array_equal(by_rank.beta, res.beta)
            for K in range(5):
                for L in range(4):
                    table = beta_hat_table(points, nn.values, K, L, weights=w)
                    np.testing.assert_array_equal(res.beta[:, : K + 1, : L + 1], table)
                    np.testing.assert_array_equal(beta_hat_table(ranks, nn.values, K, L, weights=w), table)
            for i in range(m):
                one = select_cutoffs(
                    pseudo_observations(samples[i]).points,
                    nn_of_points(pts[i]),
                    kmax=4,
                    lmax=3,
                    weights=None if w is None else w[i],
                )
                assert one.best == res.best[i]
                np.testing.assert_array_equal(one.scores, res.scores[i])
                np.testing.assert_array_equal(one.beta, res.beta[i])


def dependent_ranks(rng, m, n):
    """Integer ranks (m, n, 2) of m samples with a nonlinear dependence, the
    Beta(6,6) weights of their points and the nearest neighbours on them."""
    samples = rng.normal(size=(m, n, 2))
    samples[:, :, 1] += np.sin(3.0 * samples[:, :, 0])
    ranks = column_ranks(samples)[0]
    tps = [transform_points(r / (n + 1.0)) for r in ranks]
    nn = nn_of_points(np.stack([tp.points for tp in tps]))
    return ranks, np.stack([tp.weights for tp in tps]), nn


@pytest.mark.parametrize("n", [4096, 4097, 8193])
def test_step_tables_equal_the_whole_sample_oracle(n):
    # the tables sum 4,096-row steps: one at n = 4,096, a one-row last step at
    # 4,097 and 8,193; each step gathers its neighbours' basis rows, which
    # may lie in another step, and adds its sums where tensor_sums adds its own
    rng = np.random.default_rng(n)
    ranks, wts, nn = dependent_ranks(rng, 2, n)
    # one sample without a batch axis, then batches of one and of two
    for part in (0, slice(1), slice(2)):
        one = TwoNearest(nn.index[part], nn.values[part], nn.second[part])
        for points in (ranks[part], ranks[part] / (n + 1.0)):
            for w in (None, wts[part]):
                for got, want in zip(
                    _cell_tables(points, one, 5, 4, w), whole_sample_cell_tables(points, one, 5, 4, w)
                ):
                    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                got = beta_hat_table(points, one.values, 3, 2, weights=w)
                want = whole_sample_beta_hat_table(points, one.values, 3, 2, weights=w)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_warm_selection_memory_bounded_at_n_50000():
    # the tables are built one 4,096-row step at a time: a warm select_cutoffs
    # at n = 50,000 and bound 5 peaked at 3.7 MB under tracemalloc, against
    # 14.0 MB when it built whole-sample design tables and their products
    rng = np.random.default_rng(50)
    ranks, wts, nn = dependent_ranks(rng, 1, 50000)
    select_cutoffs(ranks, nn, weights=wts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        select_cutoffs(ranks, nn, weights=wts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


# entries with magnitudes spread over e^-40..e^40, signed zeros, and subnormals
_ENTRY = st.one_of(
    st.builds(lambda s, e: s * math.exp(e), st.floats(-1.0, 1.0), st.floats(-40.0, 40.0)),
    st.sampled_from([0.0, -0.0]),
    st.floats(-(2.0**-1022), 2.0**-1022),
)


@st.composite
def _cv_tables(draw):
    """(..., K+1, L+1) tables, up to 6 x 6 with up to two batch axes; some
    entries cancel another exactly or to the last bit, some tables are all -0.0."""
    batch = draw(st.lists(st.integers(1, 3), max_size=2))
    shape = (*batch, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    size = math.prod(shape)
    if draw(st.integers(0, 9)) == 0:
        return np.full(shape, -0.0)
    flat = draw(st.lists(_ENTRY, min_size=size, max_size=size))
    index = st.integers(0, size - 1)
    pairs = st.tuples(index, index, st.sampled_from([0.0, math.inf, -math.inf]))
    for dst, src, toward in draw(st.lists(pairs, max_size=size)):
        flat[dst] = -flat[src] if toward == 0.0 else math.nextafter(-flat[src], toward)
    return np.array(flat).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(_cv_tables())
@example(np.full((2, 3, 6, 6), -0.0))
@example(np.array([[1e16, 1.0, -1e16], [1.0, -1.0, 5e-324]]))
def test_corner_sums_bit_equal_to_per_corner_oracle(tables):
    got, want = _corner_sums(tables), corner_sums(tables)
    assert got.shape == want.shape == tables.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
