"""Command-line front end.

Subcommands: estimate (point estimate from a file or generator), pvalue
(Monte-Carlo significance with an optional cached null table), ci
(double-bootstrap confidence interval), reproduce (the packaged
simulation-study suites at desk or full scale). Output is versioned JSON
by default, CSV on request; runs are bit-reproducible given --seed.

Exit codes: 0 success, 2 input or configuration error, 3 diagnostics
failure inside a numerical procedure.
"""

import argparse
import io
import json
import os
import statistics
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, DiagnosticsError, HellcorrError, SizeError
from .estimator import EstimateConfig, estimate, pearson
from .generators import GeneratorSpec, SCENARIOS, gen_cross, gen_gaussian, gen_peano, gen_scenario
from .inference import (
    critical_value,
    load_null_table,
    null_table,
    p_value,
    bootstrap_ci,
    save_null_table,
)
from .rng import substream
from .version import __version__

_REF_TABLE1 = {0.4: (0.003, 0.0023), 0.8: (0.009, 0.00051)}
_REF_TABLE2 = {
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


def build_parser():
    p = argparse.ArgumentParser(prog="hellcorr", description="Hellinger correlation estimation")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def data_flags(sp):
        sp.add_argument("--input", help="2-column numeric CSV (comma or whitespace)")
        sp.add_argument("--generator", help='generator spec, e.g. "gaussian:rho=0.5" or "circle"')
        sp.add_argument("--n", type=int, default=500, help="sample size for --generator")
        sp.add_argument("--k", type=int, default=None, help="fixed first cutoff")
        sp.add_argument("--l", type=int, default=None, help="fixed second cutoff")
        sp.add_argument("--kmax", type=int, default=5)
        sp.add_argument("--lmax", type=int, default=5)
        sp.add_argument("--transform", choices=("none", "beta66"), default="beta66")

    def run_flags(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("estimate", help="point estimate")
    data_flags(sp)
    run_flags(sp)

    sp = sub.add_parser("pvalue", help="Monte-Carlo significance test")
    data_flags(sp)
    run_flags(sp)
    sp.add_argument("--m", type=int, default=1000, help="null-table replicates")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--null-cache", help="path for the cached null table")

    sp = sub.add_parser("ci", help="double-bootstrap confidence interval")
    data_flags(sp)
    run_flags(sp)
    sp.add_argument("--b1", type=int, default=1000, help="outer bootstrap replicates")
    sp.add_argument("--b2", type=int, default=100, help="inner bootstrap replicates")
    sp.add_argument("--level", type=float, default=0.95)

    sp = sub.add_parser("reproduce", help="packaged simulation suites")
    sp.add_argument("suite", choices=("table1", "table2", "figure2", "figure3"))
    sp.add_argument("--scale", choices=("desk", "full"), default="desk")
    run_flags(sp)
    return p


def load_table_file(path):
    """Read a 2-column numeric table; first line sniffed for a header."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not a UTF-8 text table: {exc.reason}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path} is empty")
    delim = "," if "," in lines[0] else None
    head = [t for t in lines[0].replace(",", " ").split()]

    def numeric(tok):
        try:
            float(tok)
            return True
        except ValueError:
            return False

    skip = 0 if all(numeric(t) for t in head) else 1
    try:
        arr = np.loadtxt(io.StringIO(text), delimiter=delim, skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if arr.shape[1] != 2:
        raise ConfigError(f"{path}: expected 2 columns, found {arr.shape[1]}")
    return arr


def _get_sample(args):
    if (args.input is None) == (args.generator is None):
        raise ConfigError("provide exactly one of --input or --generator")
    if args.input is not None:
        arr, source = load_table_file(args.input), args.input
    else:
        spec, source = GeneratorSpec.parse(args.generator), args.generator
        if args.n < 3:  # numpy refuses a negative size with a bare ValueError
            raise SizeError(f"need at least 3 observations, got --n {args.n}")
        arr = spec.generate(args.n, args.seed)
    if arr.shape[0] < 3:
        raise SizeError(f"need at least 3 observations, got {arr.shape[0]}")
    return arr, source


def _get_config(args):
    if (args.k is None) != (args.l is None):
        raise ConfigError("--k and --l must be given together")
    cutoffs = None if args.k is None else (args.k, args.l)
    return EstimateConfig(cutoffs=cutoffs, kmax=args.kmax, lmax=args.lmax, transform=args.transform)


def _estimate_doc(args, arr, source, res):
    return {
        "schema": "hellcorr/estimate@1",
        "version": __version__,
        "source": source,
        "n": int(arr.shape[0]),
        "eta": res.eta,
        "b_normalized": res.b_normalized,
        "b_raw": res.b_raw,
        "pearson": pearson(arr),
        "cutoffs": list(res.cutoffs),
        "cutoffs_policy": "fixed" if args.k is not None else "cv",
        "raw_mode": res.raw_mode,
        "transform": res.transform_used,
        "tie_warning": res.tie_warning,
        "kmax": args.kmax,
        "lmax": args.lmax,
        "seed": args.seed,
    }


def cmd_estimate(args):
    arr, source = _get_sample(args)
    res = estimate(arr, _get_config(args))
    return _estimate_doc(args, arr, source, res)


def cmd_pvalue(args):
    arr, source = _get_sample(args)
    res = estimate(arr, _get_config(args))
    fixed = replace(res.config, cutoffs=res.cutoffs)
    if args.null_cache:
        # refuse a cache path that cannot be written before building the table
        cache_dir = os.path.dirname(os.path.abspath(args.null_cache))
        if not os.path.isdir(cache_dir):
            raise ConfigError(f"--null-cache directory {cache_dir} does not exist")
    cache_used = False
    if args.null_cache and os.path.exists(args.null_cache):
        table = load_null_table(args.null_cache, n=arr.shape[0], config=fixed)
        cache_used = True
    else:
        if args.m < 100:
            raise ConfigError("--m must be at least 100 when no cached table is given")
        table = null_table(arr.shape[0], args.m, fixed, seed=args.seed, threads=args.threads)
        if args.null_cache:
            save_null_table(table, args.null_cache)
    doc = _estimate_doc(args, arr, source, res)
    doc.update(
        schema="hellcorr/pvalue@1",
        m=table.m,
        p=p_value(res.eta, table),
        critical=critical_value(table, 1.0 - args.level),
        level=args.level,
        cache=args.null_cache,
        cache_used=cache_used,
    )
    return doc


def cmd_ci(args):
    arr, source = _get_sample(args)
    ci = bootstrap_ci(
        arr,
        level=args.level,
        b1=args.b1,
        b2=args.b2,
        config=_get_config(args),
        seed=args.seed,
        threads=args.threads,
    )
    doc = _estimate_doc(args, arr, source, ci.estimate)
    doc.update(
        schema="hellcorr/ci@1",
        lower=ci.lower,
        upper=ci.upper,
        level=ci.level,
        b1=ci.outer_reps,
        b2=ci.inner_reps,
        dropped=ci.dropped,
        se=ci.se,
    )
    return doc


def _suite_table1(scale, seed, threads):
    reps = 200 if scale == "desk" else 1000
    n = 500
    rows = []
    for rho, (ref_bias, ref_mse) in sorted(_REF_TABLE1.items()):
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


def _suite_table2(scale, seed, threads):
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
        ref_mean, ref_sd = _REF_TABLE2[name]
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


def substream_seed(seed, tag):
    """Stable derived integer seed for nested procedures."""
    return int(substream(seed, tag).integers(0, 2**63))


def _suite_figures(kind, scale, seed, threads):
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
        prev_med = med
        rows.append(row)
    return rows


def cmd_reproduce(args):
    if args.suite == "table1":
        rows = _suite_table1(args.scale, args.seed, args.threads)
    elif args.suite == "table2":
        rows = _suite_table2(args.scale, args.seed, args.threads)
    elif args.suite == "figure2":
        rows = _suite_figures("peano", args.scale, args.seed, args.threads)
    else:
        rows = _suite_figures("cross", args.scale, args.seed, args.threads)
    flags = [r.get("pass", True) and r.get("monotone", True) for r in rows]
    return {
        "schema": "hellcorr/reproduce@1",
        "version": __version__,
        "suite": args.suite,
        "scale": args.scale,
        "seed": args.seed,
        "rows": rows,
        "all_pass": bool(all(flags)),
    }


def _emit(doc, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    rows = doc.get("rows")
    if rows is None:
        for key in sorted(doc):
            out.write(f"{key},{doc[key]}\n")
        return
    keys = sorted({k for r in rows for k in r})
    out.write(",".join(keys) + "\n")
    for r in rows:
        out.write(",".join(str(r.get(k, "")) for k in keys) + "\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "pvalue": cmd_pvalue,
        "ci": cmd_ci,
        "reproduce": cmd_reproduce,
    }
    try:
        doc = handlers[args.command](args)
    except DiagnosticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HellcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.format, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
