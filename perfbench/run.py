"""hellcorr benchmark: one workload, timed in a closed loop, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hellcorr is imported from ``src/``.
One caller makes each call and waits for its result; only the study-n500
null table uses ``threads=2``. The loop runs whole rounds (see
``workloads.py``) until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics and installs no wrapper.
``--trace 1`` runs round 0 once without wrappers, then wraps every public
function of the layer modules and runs round 0 again and further rounds;
it reports per-layer calls, self times and counts per traced round.
Human-readable lines (machine facts, the workload's named metrics with
sample counts) come first; the last line of stdout is the JSON result.
A full record of each run is written to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2  # fresh processes that repeat the set-up, beside the run's own

from workloads import ALL_CPUS, WORKLOADS, Recorder  # noqa: E402


class BenchError(Exception):
    pass


def import_hellcorr():
    """Import hellcorr from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hellcorr", "__init__.py")):
        raise BenchError(f"no hellcorr sources under {SRC}")
    sys.path.insert(0, SRC)
    import hellcorr

    if os.path.dirname(os.path.dirname(os.path.realpath(hellcorr.__file__))) != os.path.realpath(SRC):
        raise BenchError(f"hellcorr imported from {hellcorr.__file__}, not from {SRC}")
    return hellcorr


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def set_up(name, seed, reference):
    """Import hellcorr, build the inputs and make one warm-up call; timed."""
    t0 = perf_counter()
    hc = import_hellcorr()
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[name](hc, seed, workdir, reference)
    wl.setup()
    return wl, perf_counter() - t0


def setup_probe(name, seed):
    """Set-up time of a fresh process, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def machine_facts():
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail_percentile(n):
    """Highest of p99/p95/p90/p50 that leaves at least 10 samples beyond it."""
    for q in (99, 95, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def percentile(xs, q):
    return statistics.quantiles(xs, n=100)[q - 1] if len(xs) > 1 else xs[0]


def run_rounds(wl, rec, r0, deadline):
    """Run rounds r0, r0+1, ... and return their times.

    At least one round runs; another starts while it would end closer to
    the deadline than stopping now would, judged by the last round's time.
    Each round runs on the next CPU in turn. On a shared machine the cores
    differ in speed for minutes at a time, and a thread left alone stays on
    one core, so without this a whole run would get one core's speed.
    """
    times = []
    r = r0
    try:
        while not times or perf_counter() + times[-1] / 2 < deadline:
            os.sched_setaffinity(0, {ALL_CPUS[r % len(ALL_CPUS)]})
            t = perf_counter()
            wl.round(r, rec)
            times.append(perf_counter() - t)
            r += 1
    finally:
        os.sched_setaffinity(0, ALL_CPUS)
    return times


def end_to_end(rec, setups):
    s = rec.samples
    for kind in ("short", "mid", "long"):
        if not s[kind]:
            raise BenchError(f"no successful {kind} call")
    return {
        "short_ms": (statistics.median(s["short"]) * 1e3, "ms"),
        "short_p90_ms": (percentile(s["short"], 90) * 1e3, "ms"),
        "mid_s": (statistics.median(s["mid"]), "s"),
        "long_s": (statistics.median(s["long"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


# per-layer metrics taken from the tracer: (layer.function, quantity)
TRACED = [
    ("ranks_nn.two_nearest_neighbors", "calls"),
    ("ranks_nn.two_nearest_neighbors", "self_s"),
    ("cv.select_cutoffs", "calls"),
    ("cv.select_cutoffs", "self_s"),
    ("estimator.estimate", "calls"),
    ("estimator.estimate", "self_s"),
    ("estimator.beta_hat_table", "calls"),
    ("estimator.beta_hat_table", "self_s"),
    ("basis.design_matrix", "calls"),
    ("basis.design_matrix", "rows"),
    ("basis.design_matrix", "self_s"),
    ("ranks_nn.pseudo_observations", "calls"),
    ("ranks_nn.pseudo_observations", "self_s"),
    ("rng.substream", "calls"),
    ("rng.substream", "self_s"),
    ("inference.sample_beta_copula", "calls"),
    ("inference.sample_beta_copula", "self_s"),
    ("inference.null_table", "self_s"),
    ("inference.bootstrap_ci", "self_s"),
    ("inference.load_null_table", "calls"),
    ("inference.load_null_table", "self_s"),
    ("inference.save_null_table", "calls"),
    ("inference.save_null_table", "self_s"),
    ("cli.main", "self_s"),
    ("cli.load_table_file", "self_s"),
    ("transform.beta66_quantile", "self_s"),
]
UNITS = {"calls": "count", "rows": "count", "self_s": "s"}


def per_layer(summary, counts, rank_cache, rounds, traced_s, overhead_s):
    """Per-layer metrics, each per traced round except the ratios."""
    from tracer import LAYERS

    m = {}
    for fn, q in TRACED:
        m[f"{fn}.{q}"] = (summary[fn][q] / rounds, UNITS[q])
    m["ranks_nn.two_nearest_neighbors.points"] = (counts.get("nn_points", 0) / rounds, "count")
    m["inference.load_null_table.bytes"] = (counts.get("load_bytes", 0) / rounds, "bytes")
    m["inference.save_null_table.bytes"] = (counts.get("save_bytes", 0) / rounds, "bytes")
    m["estimator.rank_tables.hit_ratio"] = (_ratio(rank_cache[0], rank_cache[0] + rank_cache[1]), "ratio")
    m["inference.ci_dropped_ratio"] = (_ratio(counts.get("ci_dropped", 0), counts.get("ci_outer", 0)), "ratio")
    m["cli.cache_hit_ratio"] = (_ratio(counts.get("cache_hits", 0), counts.get("warm_calls", 0)), "ratio")
    total = 0.0
    for layer in LAYERS:
        s = sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (s / rounds, "s")
        total += s
    m["trace.self_coverage"] = (total / traced_s, "ratio")
    m["trace.round_s"] = (traced_s / rounds, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def report_lines(wl, args, facts, rec, metrics, setups):
    """Human-readable lines: the workload's named metrics with sample counts."""
    lines = [
        f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
        + ("  (timings below include tracing)" if args.trace else ""),
        "machine " + "  ".join(f"{k}={v}" for k, v in facts.items()),
        f"why {wl.why}",
    ]
    for kind in ("short", "mid", "long"):
        xs = rec.samples[kind]
        name, what = wl.roles[kind]
        if not xs:
            lines.append(f"{kind:5s} {name}: no successful call  ({what})")
            continue
        scale, unit = (1e3, "ms") if name.endswith("_ms") else (1.0, "s")
        text = f"median {statistics.median(xs) * scale:.6g} {unit}"
        q = tail_percentile(len(xs))
        if q and q > 50:
            text += f"  p{q} {percentile(xs, q) * scale:.6g} {unit}"
        text += f"  samples {len(xs)}"
        if kind == "short" and wl.name == "study-n500":
            text += f"  ({len(xs) / sum(xs):.6g} estimates/s = study_est_per_s)"
        lines.append(f"{kind:5s} {name}: {text}  ({what})")
    if args.trace:
        from tracer import LAYERS

        per_round = metrics["trace.round_s"][0]
        for layer in sorted(LAYERS, key=lambda x: -metrics[f"{x}.self_s"][0]):
            v = metrics[f"{layer}.self_s"][0]
            lines.append(f"layer {layer}: self {v:.6g} s per round ({100 * v / per_round:.1f}%)")
        lines.append(
            f"trace: round {per_round:.6g} s, self times cover {metrics['trace.self_coverage'][0]:.4f} of it,"
            f" overhead {metrics['trace.overhead_s'][0]:.6g} s on round 0"
        )
    else:
        lines.append(f"setup setup_s: median {statistics.median(setups):.6g} s  samples {len(setups)}")
        lines.append(f"peak_rss_mb: {metrics['peak_rss_mb'][0]:.6g} MB")
    lines.append(f"failed_frac: {_ratio(rec.failed, rec.attempted):.6g}  ({rec.failed} of {rec.attempted} calls)")
    lines += [f"FAILED {f}" for f in rec.failures]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    reference = load_reference()
    wl, setup_main = set_up(args.workload, args.seed, reference)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        return measure(wl, args, setup_main)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def measure(wl, args, setup_main):
    from hellcorr.estimator import _rank_transform_tables

    import tracer

    facts = machine_facts()
    rec = Recorder()
    start = perf_counter()
    deadline = start + args.seconds
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "why": wl.why, "machine": facts}
    if args.trace:
        # round 0 without wrappers, then again with them: the difference is the overhead
        rec0 = Recorder()
        untraced0 = run_rounds(wl, rec0, 0, start)[0]
        info0 = _rank_transform_tables.cache_info()
        tr = tracer.Tracer()
        tr.install()
        try:
            times = run_rounds(wl, rec, 0, deadline)
        finally:
            tr.uninstall()
        info1 = _rank_transform_tables.cache_info()
        summary = tr.summary()
        metrics = per_layer(
            summary, rec.counts, (info1.hits - info0.hits, info1.misses - info0.misses),
            len(times), sum(times), times[0] - untraced0,
        )
        os.makedirs(OUT, exist_ok=True)
        tr.write_spans(os.path.join(OUT, f"spans-{wl.name}.tsv.gz"), start)
        record.update(traced_rounds=len(times), untraced_round0_s=untraced0, spans=tr.span_count,
                      functions=summary, counts=rec.counts)
        rec.merge(rec0)
    else:
        times = run_rounds(wl, rec, 0, deadline)
        leaked = tracer.wrapped_names()
        if leaked:
            raise BenchError(f"untraced run found tracer wrappers: {leaked}")
        # probes after the measured window, so that set-up samples span the run
        setups = [setup_main] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(rec, setups)
        record.update(rounds=len(times), setup_samples=setups, counts=rec.counts)

    lines = report_lines(wl, args, facts, rec, metrics, None if args.trace else setups)
    for line in lines:
        print(line)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result=result, round_times=times, report=lines,
                  samples={k: len(v) for k, v in rec.samples.items()})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
