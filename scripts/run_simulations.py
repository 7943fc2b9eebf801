"""Run the packaged simulation suites and collect their reports.

Wraps the CLI reproduce command over the suites of ``hellcorr.reproduce``:
each suite writes one JSON document under results/ and the script exits
non-zero if any suite's checks fail.

Usage: python3 scripts/run_simulations.py [--scale desk|full] [--seed S] [suite ...]
"""

import argparse
import contextlib
import json
import pathlib
import sys

from hellcorr.cli import main as cli_main
from hellcorr.reproduce import SUITES


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("suites", nargs="*", metavar="suite",
                    help=f"any of {', '.join(SUITES)}; default all")
    ap.add_argument("--scale", choices=("desk", "full"), default="desk")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    bad = [s for s in args.suites if s not in SUITES]
    if bad:
        ap.error(f"unknown suite(s): {', '.join(bad)}")
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = []
    for suite in args.suites or SUITES:
        path = outdir / f"{suite}_{args.scale}_seed{args.seed}.json"
        with path.open("w") as fh, contextlib.redirect_stdout(fh):
            code = cli_main(
                ["reproduce", suite, "--scale", args.scale,
                 "--seed", str(args.seed), "--threads", str(args.threads)]
            )
        doc = json.loads(path.read_text())
        status = "ok" if code == 0 and doc.get("all_pass") else "FAILED"
        print(f"{suite:8s} {status}  -> {path}")
        if status != "ok":
            failed.append(suite)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
