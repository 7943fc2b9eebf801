"""Write perfbench/reference.json: outputs of round 0 of every workload.

    python3 perfbench/make_reference.py

Round 0 uses the fixed reference seed, so these values do not depend on
``--seed``. Regenerate only when a change is meant to alter the estimates,
and say so in the change.
"""

import json
import os
import shutil
import sys

import run
from workloads import REF_SEED, WORKLOADS, Recorder


def main():
    out = {"ref_seed": REF_SEED}
    for name in WORKLOADS:
        wl, _ = run.set_up(name, REF_SEED, None)
        try:
            rec = Recorder()
            wl.round(0, rec)
        finally:
            shutil.rmtree(wl.workdir, ignore_errors=True)
        if rec.failed:
            sys.exit(f"{name}: {rec.failures}")
        out[name] = wl.recorded
        print(f"{name}: {len(wl.recorded)} reference values")
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
