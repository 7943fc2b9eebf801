"""The packaged simulation-study suites and their reference values.

Each suite runs one piece of the paper's simulation study at desk or full
scale and returns rows that each carry one boolean ``pass``:

- table1: bias and MSE of eta on Gaussian samples (n = 500) at two
  correlations, against fixed tolerances;
- table2: mean, sd and rejection rate of eta on the fifteen shape
  scenarios; Circle and W are held near the reference means and the
  independent 4 clouds near the nominal 5% rejection rate;
- figure2, figure3: median eta of the Peano and cross support families by
  depth; the medians must not rise with depth, and for depth 3 and below
  a larger n must raise them.

``run`` wraps one suite's rows in the versioned ``hellcorr/reproduce@1``
document, whose ``all_pass`` holds when every row passes. Every random
draw comes from a substream of the seed, so a run is bit-reproducible and
does not depend on the thread count.
"""

import statistics
from functools import partial

from .estimator import estimate
from .generators import SCENARIOS, gen_cross, gen_gaussian, gen_peano, gen_scenario
from .inference import critical_value, null_table
from .rng import substream
from .version import __version__

# rho -> (bias, MSE) of the paper's Table 1
REF_TABLE1 = {0.4: (0.003, 0.0023), 0.8: (0.009, 0.00051)}
# scenario -> (mean, sd) of eta in the paper's Table 2
REF_TABLE2 = {
    "W": (0.894, 0.007),
    "Diamond": (0.599, 0.050),
    "Parabola": (0.798, 0.057),
    "Two Parabolae": (0.912, 0.014),
    "Circle": (0.839, 0.019),
    "4 clouds": (0.080, 0.067),
    "Cubic": (0.746, 0.040),
    "Sine": (0.920, 0.013),
    "Wedge": (0.755, 0.048),
    "Cross": (0.734, 0.038),
    "Spiral": (0.957, 0.008),
    "Circles": (0.914, 0.012),
    "Heavysine": (0.964, 0.005),
    "Doppler": (0.461, 0.146),
    "5 clouds": (0.136, 0.081),
}


def substream_seed(seed, tag):
    """Stable derived integer seed for nested procedures."""
    return int(substream(seed, tag).integers(0, 2**63))


def suite_table1(scale, seed, threads):
    reps = 200 if scale == "desk" else 1000
    n = 500
    rows = []
    for rho, (ref_bias, ref_mse) in sorted(REF_TABLE1.items()):
        etas = [
            estimate(gen_gaussian(n, rho, substream(seed, "t1", int(rho * 10), r))).eta
            for r in range(reps)
        ]
        bias = statistics.fmean(etas) - rho
        mse = statistics.fmean((e - rho) ** 2 for e in etas)
        tol_mse = 0.006 if rho < 0.6 else 0.002
        rows.append(
            {
                "rho": rho,
                "replicates": reps,
                "bias": bias,
                "mse": mse,
                "reference_bias": ref_bias,
                "reference_mse": ref_mse,
                "pass": bool(abs(bias) <= 0.03 and mse <= tol_mse),
            }
        )
    return rows


def suite_table2(scale, seed, threads):
    reps = 100 if scale == "desk" else 500
    n = 500
    table = null_table(
        n, 1000 if scale == "desk" else 2000, seed=substream_seed(seed, "t2null"), threads=threads
    )
    crit = critical_value(table, 0.05)
    rows = []
    for name in SCENARIOS:
        etas = [
            estimate(gen_scenario(name, n, substream(seed, "t2", name, r))).eta
            for r in range(reps)
        ]
        mean = statistics.fmean(etas)
        sd = statistics.stdev(etas)
        reject = statistics.fmean(1.0 if e > crit else 0.0 for e in etas)
        ref_mean, ref_sd = REF_TABLE2[name]
        if name == "Circle":
            ok = abs(mean - ref_mean) <= 0.10
        elif name == "W":
            ok = mean >= 0.80
        elif name == "4 clouds":
            ok = abs(reject - 0.05) <= 0.03
        else:
            ok = True
        rows.append(
            {
                "scenario": name,
                "replicates": reps,
                "mean_eta": mean,
                "sd_eta": sd,
                "rejection_rate": reject,
                "reference_mean": ref_mean,
                "reference_sd": ref_sd,
                "pass": bool(ok),
            }
        )
    return rows


def suite_figures(kind, scale, seed, threads):
    gen = gen_peano if kind == "peano" else gen_cross
    depths = (1, 2, 3, 4)
    reps = 100 if scale == "desk" else 200
    reps_big = 20 if scale == "desk" else 100
    table = null_table(
        500, 500 if scale == "desk" else 2000, seed=substream_seed(seed, "fignull"), threads=threads
    )
    crit = critical_value(table, 0.05)
    rows = []
    prev_med = None
    for d in depths:
        etas = [
            estimate(gen(500, d, substream(seed, kind, d, r))).eta for r in range(reps)
        ]
        med = statistics.median(etas)
        row = {
            "d": d,
            "replicates": reps,
            "median_eta_n500": med,
            "significant_n500": statistics.fmean(1.0 if e > crit else 0.0 for e in etas),
            "monotone": bool(prev_med is None or med <= prev_med + 1e-12),
        }
        if d <= 3:
            big = [
                estimate(gen(5000, d, substream(seed, kind, "big", d, r))).eta
                for r in range(reps_big)
            ]
            row["median_eta_n5000"] = statistics.median(big)
            row["larger_n_increases"] = bool(row["median_eta_n5000"] > med)
        row["pass"] = row["monotone"] and (d > 3 or row["larger_n_increases"])
        prev_med = med
        rows.append(row)
    return rows


# suite name -> function(scale, seed, threads) returning the suite's rows
SUITES = {
    "table1": suite_table1,
    "table2": suite_table2,
    "figure2": partial(suite_figures, "peano"),
    "figure3": partial(suite_figures, "cross"),
}


def run(suite, scale, seed, threads):
    """Run one suite and return its ``hellcorr/reproduce@1`` document."""
    rows = SUITES[suite](scale, seed, threads)
    return {
        "schema": "hellcorr/reproduce@1",
        "version": __version__,
        "suite": suite,
        "scale": scale,
        "seed": seed,
        "rows": rows,
        "all_pass": all(r["pass"] for r in rows),
    }
