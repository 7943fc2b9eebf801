"""End-to-end acceptance checks.

Each test prints one summary line with the measured quantities so a full
run doubles as a short validation report. Tolerances are fixed; seeds are
pinned so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from hellcorr.cv import select_cutoffs
from hellcorr.datasets import seabirds
from hellcorr.estimator import (
    beta_hat_table,
    estimate,
    eta_from_B,
    gaussian_B,
    pearson,
)
from hellcorr.basis import design_matrix
from hellcorr.generators import gen_gaussian, gen_scenario
from hellcorr.inference import (
    bootstrap_ci,
    critical_value,
    null_table,
    sample_beta_copula,
    significance,
)
from hellcorr.ranks_nn import (
    TwoNearest,
    _two_nearest_tree,
    pseudo_observations,
)
from hellcorr.reproduce import suite_figures, suite_table1
from hellcorr.rng import substream
from oracles import transform_points, two_nearest_brute
from points_nn import nn_of_points


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_01_scale_map_roundtrip(capsys):
    grid = np.linspace(-0.99, 0.99, 99)
    t0 = time.perf_counter()
    errs = [abs(eta_from_B(gaussian_B(r)) - abs(r)) for r in grid]
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    ok = worst <= 1e-10 and elapsed < 1.0
    report(capsys, 1, ok, f"max |roundtrip error| {worst:.2e} (tol 1e-10), {elapsed:.3f}s")


def test_02_gaussian_bias_and_mse(capsys):
    rows = suite_table1("desk", 7, 1)
    parts, ok = [], True
    for row in rows:
        mse_tol = 0.006 if row["rho"] < 0.6 else 0.002
        good = abs(row["bias"]) <= 0.03 and row["mse"] <= mse_tol
        ok = ok and good
        parts.append(
            f"rho={row['rho']}: bias {row['bias']:+.4f} (tol 0.03), "
            f"mse {row['mse']:.5f} (tol {mse_tol})"
        )
    report(capsys, 2, ok, "; ".join(parts))


def test_03_null_critical_values(capsys, nt500, nt5000):
    c500 = critical_value(nt500, 0.05)
    c5000 = critical_value(nt5000, 0.05)
    ok = abs(c500 - 0.146) <= 0.02 and abs(c5000 - 0.047) <= 0.01
    report(
        capsys, 3, ok,
        f"95th pct n=500: {c500:.4f} (0.146 +/- 0.02), n=5000: {c5000:.4f} (0.047 +/- 0.01)",
    )


def test_04_seabirds_case_study(capsys):
    sb = seabirds()
    est = estimate(sb)
    rho = pearson(sb)
    sig = significance(sb, m=2000, seed=11)
    ci = bootstrap_ci(sb, b1=500, b2=50, seed=5)
    ok = (
        abs(est.eta - 0.744) <= 0.02
        and abs(rho - 0.374) <= 0.001
        and abs(sig.p - 0.013) <= 0.006
        and abs(ci.lower - 0.67) <= 0.08
        and ci.upper == 1.0
    )
    report(
        capsys, 4, ok,
        f"eta {est.eta:.4f} (0.744 +/- 0.02), pearson {rho:.4f} (0.374 +/- 0.001), "
        f"p {sig.p:.4f} (0.013 +/- 0.006), ci [{ci.lower:.4f}, {ci.upper:.4f}] "
        f"(lower 0.67 +/- 0.08, upper 1)",
    )


def test_05_scenario_benchmarks(capsys, nt500):
    crit = critical_value(nt500, 0.05)
    out = {}
    for name in ("Circle", "4 clouds", "W"):
        etas = np.array(
            [estimate(gen_scenario(name, 500, substream(17, "acc5", name, r))).eta for r in range(100)]
        )
        out[name] = (float(etas.mean()), float((etas > crit).mean()))
    ok = (
        abs(out["Circle"][0] - 0.839) <= 0.10
        and abs(out["4 clouds"][1] - 0.05) <= 0.03
        and out["W"][0] >= 0.80
    )
    report(
        capsys, 5, ok,
        f"Circle mean {out['Circle'][0]:.3f} (0.839 +/- 0.10), "
        f"4 clouds rejection {out['4 clouds'][1]:.2f} (0.05 +/- 0.03), "
        f"W mean {out['W'][0]:.3f} (>= 0.80)",
    )


def test_06_space_filling_trends(capsys):
    parts, ok = [], True
    for kind in ("peano", "cross"):
        rows = suite_figures(kind, "desk", 13, 1)
        meds = [r["median_eta_n500"] for r in rows]
        ok = ok and all(r["monotone"] for r in rows)
        for r in rows:
            if r["d"] <= 3:
                ok = ok and r["larger_n_increases"] and r["significant_n500"] >= 0.90
        parts.append(
            f"{kind}: medians n=500 " + "/".join(f"{m:.3f}" for m in meds)
            + ", sig(d<=3) " + "/".join(f"{r['significant_n500']:.2f}" for r in rows if r["d"] <= 3)
        )
    parts.append("support families are reconstructions; trends checked, captions not point-matched")
    report(capsys, 6, ok, "; ".join(parts))


def test_07_fast_paths_equal_reference(capsys):
    rng = np.random.default_rng(77)
    worst_nn = worst_second = 0.0
    for case in range(1000):
        n = int(rng.integers(3, 120))
        style = case % 3
        if style == 0:
            pts = rng.random((n, 2))
        elif style == 1:
            pts = rng.normal(size=(n, 2))
        else:
            base = rng.random((max(n // 3, 1), 2))
            pts = base[rng.integers(0, len(base), n)]
        _, b1, b2 = two_nearest_brute(pts)
        _, t1, t2 = _two_nearest_tree(pts)
        worst_nn = max(worst_nn, float(np.max(np.abs(np.sqrt(b1) - t1))))
        worst_second = max(worst_second, float(np.max(np.abs(np.sqrt(b2) - t2))))

    pts = rng.random((30, 2))
    v = rng.random(30)
    w = rng.random(30) + 0.5
    table = beta_hat_table(pts, v, 3, 3, weights=w)
    cn = 2.0 * math.sqrt(29.0) / 30.0
    worst_beta = 0.0
    for k in range(4):
        for l in range(4):
            ref = cn * sum(
                v[i] * w[i] * design_matrix(pts[i, 0], k)[0, k] * design_matrix(pts[i, 1], l)[0, l]
                for i in range(30)
            )
            worst_beta = max(worst_beta, abs(table[k, l] - ref))

    po = pseudo_observations(rng.normal(size=(80, 2)))
    tp = transform_points(po.points)
    nn = nn_of_points(tp.points)
    res = select_cutoffs(po.points, nn, 4, 4, weights=tp.weights)
    worst_cv = max(
        abs(res.scores[K, L] - select_cutoffs(po.points, nn, K, L, weights=tp.weights).scores[K, L])
        for K in range(5)
        for L in range(5)
    )

    # second[i] is the nearest-neighbour distance of point i once index[i]
    # is removed: the identity the cross-validation shortcut relies on
    pts2 = rng.random((70, 2))
    worst_loo = 0.0
    for nn in (nn_of_points(pts2), TwoNearest(*_two_nearest_tree(pts2))):
        for i in range(70):
            j = nn.index[i]
            _, b1, _ = two_nearest_brute(np.delete(pts2, j, axis=0))
            worst_loo = max(worst_loo, abs(nn.second[i] - math.sqrt(b1[i if i < j else i - 1])))

    ok = (
        worst_nn == 0.0 and worst_second == 0.0 and worst_beta <= 1e-12
        and worst_cv <= 1e-10 and worst_loo <= 1e-12
    )
    report(
        capsys, 7, ok,
        f"nn tree vs brute max dev {worst_nn:.1e} (second {worst_second:.1e}) over 1000 inputs, "
        f"coefficients vs double loop {worst_beta:.1e} (tol 1e-12), "
        f"cv grid vs per-pair {worst_cv:.1e} (tol 1e-10), "
        f"second distance vs reduced-set nn {worst_loo:.1e} (tol 1e-12)",
    )


def test_08_invariances(capsys):
    x = gen_gaussian(300, 0.6, seed=88)
    base = estimate(x)
    mapped = estimate(np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3]))
    swapped = estimate(x[:, ::-1])
    mono = base.eta == mapped.eta
    swap = base.eta == swapped.eta

    t1 = null_table(200, 40, seed=31, threads=1)
    t4 = null_table(200, 40, seed=31, threads=4)
    threads_tables = bool(np.array_equal(t1.draws, t4.draws))
    c1 = bootstrap_ci(x[:50], b1=20, b2=5, seed=32, threads=1)
    c3 = bootstrap_ci(x[:50], b1=20, b2=5, seed=32, threads=3)
    threads_ci = (c1.lower, c1.upper) == (c3.lower, c3.upper)

    ok = mono and swap and threads_tables and threads_ci
    report(
        capsys, 8, ok,
        f"monotone-map invariant {mono}, swap symmetric {swap}, "
        f"thread-count invariant: tables {threads_tables}, ci {threads_ci}",
    )


def test_09_consistency_in_n(capsys):
    target = gaussian_B(0.6)
    rmses = []
    for n in (250, 1000, 4000):
        devs = [
            estimate(gen_gaussian(n, 0.6, substream(3, "cons", n, r))).b_normalized - target
            for r in range(100)
        ]
        rmses.append(math.sqrt(sum(d * d for d in devs) / len(devs)))
    ok = rmses[0] > rmses[1] > rmses[2]
    report(
        capsys, 9, ok,
        "rmse of normalized B at n=250/1000/4000: "
        + "/".join(f"{v:.5f}" for v in rmses) + " (strictly decreasing)",
    )


def test_10_beta_copula_sampling(capsys):
    ranks = pseudo_observations(gen_gaussian(50, 0.5, seed=99)).ranks
    draws = sample_beta_copula(ranks, 10_000, seed=100)
    crit = 1.628 / math.sqrt(10_000)  # 1% two-sided Kolmogorov critical value
    ks_x = stats.kstest(draws[:, 0], "uniform").statistic
    ks_y = stats.kstest(draws[:, 1], "uniform").statistic
    big = sample_beta_copula(ranks, 100_000, seed=101)
    dups = 100_000 - np.unique(big, axis=0).shape[0]
    ok = ks_x < crit and ks_y < crit and dups == 0
    report(
        capsys, 10, ok,
        f"margin KS {ks_x:.4f}/{ks_y:.4f} (crit {crit:.4f}), "
        f"duplicate rows in 1e5 draws: {dups}",
    )
