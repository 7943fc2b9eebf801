"""Command-line front end: parses arguments, reads input, writes documents.

Each subcommand is one library call: estimate (``estimate``, from a file
or generator), pvalue (``significance``, with --null-cache as its cached
null table), ci (``bootstrap_ci``), reproduce (``reproduce.run``, one of
the simulation-study suites at desk or full scale). Output is versioned
JSON by default, CSV on request; runs are bit-reproducible given --seed.

Exit codes: 0 success, 2 input or configuration error, 3 diagnostics
failure inside a numerical procedure or a reproduce suite whose checks
failed (its document is still printed).
"""

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import reproduce
from .errors import ConfigError, DiagnosticsError, HellcorrError, SizeError
from .estimator import _TRANSFORMS, EstimateConfig, estimate, pearson
from .generators import GeneratorSpec
from .inference import _check_ci_args, _check_significance_args, bootstrap_ci, significance
from .version import __version__


@functools.cache
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
        sp.add_argument("--kmax", type=int, default=EstimateConfig.kmax)
        sp.add_argument("--lmax", type=int, default=EstimateConfig.lmax)
        sp.add_argument("--transform", choices=_TRANSFORMS, default=EstimateConfig.transform)

    def run_flags(sp, threads=True):
        sp.add_argument("--seed", type=int, default=0)
        if threads:  # estimate runs on one thread, so it takes no --threads
            sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("estimate", help="point estimate")
    data_flags(sp)
    run_flags(sp, threads=False)

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
    sp.add_argument("suite", choices=tuple(reproduce.SUITES))
    sp.add_argument("--scale", choices=reproduce.SCALES, default="desk")
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
    # the rows loadtxt reads: comments cut off, blank lines dropped
    lines = [ln.split("#", 1)[0] for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
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
    if skip == len(lines):
        raise ConfigError(f"{path} has no data rows")
    try:
        arr = np.loadtxt(lines[skip:], delimiter=delim, ndmin=2)
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
        if args.n < 3:
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


# each command builds its config and checks its own flags before the sample is read or drawn
def cmd_estimate(args):
    config = _get_config(args)
    arr, source = _get_sample(args)
    return _estimate_doc(args, arr, source, estimate(arr, config))


def cmd_pvalue(args):
    config = _get_config(args)
    if args.m < 100:
        raise ConfigError(f"--m must be at least 100, got {args.m}")
    _check_significance_args(args.m, args.level, args.seed, args.threads)
    arr, source = _get_sample(args)
    cache = args.null_cache or None
    sig = significance(
        arr, args.m, args.level, config, seed=args.seed, threads=args.threads, cache=cache
    )
    doc = _estimate_doc(args, arr, source, sig.estimate)
    doc.update(
        schema="hellcorr/pvalue@1",
        m=sig.table.m,
        p=sig.p,
        critical=sig.critical,
        level=args.level,
        cache=args.null_cache,
        cache_used=sig.cache_used,
    )
    return doc


def cmd_ci(args):
    config = _get_config(args)
    _check_ci_args(args.level, args.b1, args.b2, args.seed, args.threads)
    arr, source = _get_sample(args)
    ci = bootstrap_ci(
        arr, level=args.level, b1=args.b1, b2=args.b2, config=config, seed=args.seed,
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


def cmd_reproduce(args):
    return reproduce.run(args.suite, args.scale, args.seed, args.threads)


def _emit(doc, fmt, out):
    if fmt == "json":
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    # str() keeps None printing as None; the writer quotes fields with commas or quotes
    writer = csv.writer(out, lineterminator="\n")
    rows = doc.get("rows")
    if rows is None:
        writer.writerows((key, str(doc[key])) for key in sorted(doc))
        return
    keys = sorted({k for r in rows for k in r})
    writer.writerow(keys)
    writer.writerows([str(r.get(k, "")) for k in keys] for r in rows)


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
    return 0 if doc.get("all_pass", True) else 3  # only reproduce documents carry all_pass


if __name__ == "__main__":
    sys.exit(main())
