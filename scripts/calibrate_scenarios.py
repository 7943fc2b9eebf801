"""Tune the per-scenario noise levels.

Runs every shape scenario at n=500 and prints mean, sd, min, and the
fraction exceeding the n=500 critical value, next to the reference mean
the noise level should land near. Edit hellcorr.generators._NOISE and
rerun until satisfied; the shipped constants were frozen this way.

Usage: python3 scripts/calibrate_scenarios.py [reps] [scenario ...]
"""

import sys

import numpy as np

import hellcorr as hc
from hellcorr.reproduce import REF_TABLE2
from hellcorr.rng import substream

CRIT = 0.152  # n=500 upper-5% point of the independence null (precomputed)


def main():
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    names = sys.argv[2:] or hc.SCENARIOS
    for name in names:
        etas = np.array(
            [hc.estimate(hc.gen_scenario(name, 500, substream(0, "cal", name, r))).eta
             for r in range(reps)]
        )
        ref = REF_TABLE2[hc.generators.canonical_scenario(name)][0]
        print(
            f"{name:15s} mean {etas.mean():.3f}  sd {etas.std(ddof=1):.3f}  "
            f"min {etas.min():.3f}  sig {np.mean(etas > CRIT):.2f}  ref {ref:.3f}"
        )


if __name__ == "__main__":
    main()
