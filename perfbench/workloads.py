"""The three benchmark workloads and the checks on their outputs.

Every workload runs in rounds. A round is a fixed list of calls of three
kinds: short (many per round), mid and long. Round 0 always uses the
reference seed, and its outputs are compared with ``reference.json``;
later rounds use inputs and Monte-Carlo seeds derived from ``--seed`` and
are checked by invariants that hold for any seed. hellcorr is imported by
``run.py`` and passed in, so that its import is timed as set-up.
"""

import contextlib
import io
import json
import os
import zlib
from time import perf_counter

REF_SEED = 7
ALL_CPUS = sorted(os.sched_getaffinity(0))
ETA_TOL = 1e-9  # absolute tolerance on reference estimates, p-values and bounds


class CheckFailed(Exception):
    pass


def derived_seed(*parts):
    """Stable non-negative integer seed from the workload name, seed and index."""
    return zlib.crc32(":".join(str(p) for p in parts).encode())


class Recorder:
    """Times calls, checks their outputs and counts work done without wrappers."""

    def __init__(self):
        self.samples = {"short": [], "mid": [], "long": []}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, kind, fn, check=None):
        """Time fn(), then check its output; a raise or a failed check is a failed call."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising call is a failed operation
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        dt = perf_counter() - t0
        self.samples[kind].append(dt)
        if check is not None:
            try:
                check(out)
            except CheckFailed as exc:
                self._fail(kind, str(exc))
                return None
        return out

    def merge(self, other):
        """Add another recorder's attempted and failed calls (not its samples)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (other.failures + self.failures)[:20]

    def _fail(self, kind, msg):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {msg}")


def on_all_cpus(fn):
    """Call fn with every CPU allowed, so that a thread pool it starts can use them."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        return fn()
    finally:
        os.sched_setaffinity(0, own)


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _in_unit_interval(eta, what):
    _require(isinstance(eta, float) and 0.0 <= eta <= 1.0, f"{what}: eta {eta!r} outside [0, 1]")


class Workload:
    """Base: reference handling shared by the workloads."""

    name = ""
    why = ""
    roles = {}

    def __init__(self, hc, seed, workdir, reference):
        self.hc = hc
        self.seed = seed
        self.workdir = workdir
        # None while reference.json is being written: expect() then records
        self.reference = None if reference is None else reference[self.name]
        self.recorded = {}

    def expect(self, key, value):
        """Compare with the stored reference value, or record it."""
        if self.reference is None:
            self.recorded[key] = value
            return
        _require(key in self.reference, f"{key}: no reference value")
        want = self.reference[key]
        if isinstance(value, float):
            ok = abs(value - want) <= ETA_TOL
        elif value and isinstance(value[0], float):
            ok = len(value) == len(want) and all(abs(a - b) <= ETA_TOL for a, b in zip(value, want))
        else:  # cutoffs: exact
            ok = value == want
        _require(ok, f"{key}: got {value!r}, reference {want!r}")

    def mc_seed(self, r):
        return REF_SEED if r == 0 else derived_seed(self.name, "mc", self.seed, r)

    def input_seed(self, k):
        return REF_SEED if k == 0 else derived_seed(self.name, "input", self.seed, k)

    def check_estimate(self, key, res, reference):
        _in_unit_interval(res.eta, key)
        if reference:
            self.expect(f"{key}.cutoffs", list(res.cutoffs))
            self.expect(f"{key}.eta", res.eta)


class SeabirdsInference(Workload):
    name = "seabirds-inference"
    why = (
        "paper's worked example (n=12): per-call overhead of resampling and of the CLI; "
        "the null-table cache written (cold pvalue) and read (warm pvalue)"
    )
    roles = {
        "short": ("pvalue_warm_ms", "CLI pvalue --m 2000 reading its --null-cache"),
        "mid": ("pvalue_cold_s", "CLI pvalue --m 2000 building and writing its --null-cache"),
        "long": ("ci_s", "bootstrap_ci(seabirds, b1=200, b2=50)"),
    }
    M = 2000
    BLOCKS = 4  # per round: BLOCKS x (one cold call, then WARM warm calls), then the interval
    WARM = 25
    B1, B2 = 200, 50

    def setup(self):
        sb = self.hc.seabirds()
        self.sample = sb
        self.n = sb.shape[0]
        self.csv = os.path.join(self.workdir, "seabirds.csv")
        with open(self.csv, "w") as fh:
            fh.write("seabirds,fish\n")
            fh.writelines(f"{a!r},{b!r}\n" for a, b in sb.tolist())
        self.cache = os.path.join(self.workdir, "null_n12.json")
        code, _ = self._cli(["estimate", "--input", self.csv])
        _require(code == 0, "warm-up estimate failed")

    def _cli(self, argv):
        from hellcorr import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _pvalue(self, seed):
        code, out = self._cli(
            ["pvalue", "--input", self.csv, "--m", str(self.M), "--null-cache", self.cache, "--seed", str(seed)]
        )
        _require(code == 0, f"pvalue exited {code}")
        return json.loads(out)

    def _check_doc(self, doc, reference):
        _in_unit_interval(doc["eta"], "pvalue")
        self.expect("eta", doc["eta"])
        self.expect("cutoffs", doc["cutoffs"])
        _require(0.0 < doc["p"] <= 1.0, f"p-value {doc['p']} outside (0, 1]")
        if reference:
            self.expect("p", doc["p"])
            self.expect("critical", doc["critical"])

    def _pvalue_block(self, seed, reference, rec):
        """One cold call that builds and writes the cache, then warm calls that read it."""
        n = self.n
        if os.path.exists(self.cache):
            os.remove(self.cache)
        cold = {}

        def check_cold(doc):
            _require(doc["cache_used"] is False, "cold call read a cache")
            self._check_doc(doc, reference)
            cold.update(doc)

        rec.call("mid", lambda: self._pvalue(seed), check_cold)
        rec.add("nn_points", n * (1 + self.M))
        size = os.path.getsize(self.cache) if os.path.exists(self.cache) else 0
        rec.add("save_bytes", size)

        def check_warm(doc):
            _require(doc.get("cache_used") is True, "warm call did not read the cache")
            rec.add("cache_hits", 1)
            a = {k: v for k, v in doc.items() if k != "cache_used"}
            b = {k: v for k, v in cold.items() if k != "cache_used"}
            _require(a == b, "warm JSON differs from cold JSON")

        for _ in range(self.WARM):
            rec.add("warm_calls", 1)
            rec.add("load_bytes", size)
            rec.add("nn_points", n)
            rec.call("short", lambda: self._pvalue(seed), check_warm)

    def round(self, r, rec):
        for b in range(self.BLOCKS):
            self._pvalue_block(self.mc_seed(r * self.BLOCKS + b), r == 0 and b == 0, rec)
        seed = self.mc_seed(r * self.BLOCKS)

        def check_ci(ci):
            _in_unit_interval(ci.eta, "ci")
            self.expect("eta", ci.eta)
            _require(0.0 <= ci.lower <= ci.eta <= ci.upper <= 1.0, f"ci [{ci.lower}, {ci.upper}] misses eta {ci.eta}")
            rec.add("ci_dropped", ci.dropped)
            rec.add("ci_outer", ci.outer_reps)
            if r == 0:
                self.expect("ci_lower", ci.lower)
                self.expect("ci_upper", ci.upper)
                self.expect("ci_se", ci.se)

        rec.call("long", lambda: self.hc.bootstrap_ci(self.sample, b1=self.B1, b2=self.B2, seed=seed), check_ci)
        rec.add("nn_points", self.n * (1 + self.B2 + self.B1 * (1 + self.B2)))


class StudyN500(Workload):
    name = "study-n500"
    why = (
        "simulation-study shape at n=500: CV'd estimates on 25 scenarios, brute-force NN; "
        "null_table(500, 200) at fixed cutoffs with threads=1 and threads=2"
    )
    roles = {
        "short": ("study_est_ms", "CV'd estimate at n=500 over 15 shapes, Gaussian rho 0.4/0.8, Peano and cross depths 1-4"),
        "mid": ("null_n500_t2_s", "null_table(500, 200, cutoffs=(3, 3), threads=2)"),
        "long": ("null_n500_s", "null_table(500, 200, cutoffs=(3, 3), threads=1)"),
    }
    N = 500
    M = 200
    SETS = 4
    CUTOFFS = (3, 3)

    def setup(self):
        hc = self.hc
        self.sets = []
        for k in range(self.SETS):
            s = self.input_seed(k)
            items = [(f"scenario.{name}", hc.gen_scenario(name, self.N, s)) for name in hc.SCENARIOS]
            items += [(f"gaussian.{rho}", hc.gen_gaussian(self.N, rho, s)) for rho in (0.4, 0.8)]
            for d in (1, 2, 3, 4):
                items.append((f"peano.{d}", hc.gen_peano(self.N, d, s)))
                items.append((f"cross.{d}", hc.gen_cross(self.N, d, s)))
            self.sets.append(items)
        self.fixed = hc.EstimateConfig(cutoffs=self.CUTOFFS)
        hc.estimate(self.sets[0][0][1])

    def round(self, r, rec):
        hc = self.hc
        k = r % self.SETS
        for label, x in self.sets[k]:
            rec.add("nn_points", self.N)
            rec.call(
                "short",
                lambda: hc.estimate(x),
                lambda res, label=label: self.check_estimate(label, res, k == 0),
            )
        seed = self.mc_seed(r)
        tables = {}

        def check_table(tab, threads):
            d = tab.draws.tolist()
            _require(len(d) == self.M, "wrong number of null draws")
            _require(all(0.0 <= v <= 1.0 for v in d), "null draw outside [0, 1]")
            _require(d == sorted(d), "null draws not sorted")
            tables[threads] = d
            if 1 in tables and 2 in tables:
                _require(tables[1] == tables[2], "null draws depend on the thread count")
            if r == 0:
                self.expect("null_draws", d)

        for kind, threads in (("mid", 2), ("long", 1)):
            rec.add("nn_points", self.N * self.M)
            rec.call(
                kind,
                lambda: on_all_cpus(lambda: hc.null_table(self.N, self.M, self.fixed, seed=seed, threads=threads)),
                lambda tab, threads=threads: check_table(tab, threads),
            )


class LargeN(Workload):
    name = "large-n"
    why = (
        "n=5000 and n=50000 CV'd estimates: grid NN path and CV tables at scale; "
        "Gaussian (smooth) beside Peano depth 3 (structured support)"
    )
    roles = {
        "short": ("estimate_5k_ms", "CV'd estimate on a Gaussian rho=0.5 sample, n=5000"),
        "mid": ("estimate_50k_gauss_s", "CV'd estimate on a Gaussian rho=0.5 sample, n=50000"),
        "long": ("estimate_50k_peano_s", "CV'd estimate on a Peano depth-3 sample, n=50000"),
    }
    SETS = 3
    # many distinct short inputs, so that the median does not sit between two inputs' costs
    SHORT_INPUTS = 12
    SHORT_REPEAT = 2
    RHO = 0.5

    def setup(self):
        hc = self.hc
        self.sets = []
        for k in range(self.SETS):
            s = self.input_seed(k)
            small = [hc.gen_gaussian(5000, self.RHO, derived_seed(s, j)) for j in range(self.SHORT_INPUTS)]
            self.sets.append(
                {
                    "small": small,
                    "gauss": hc.gen_gaussian(50000, self.RHO, s),
                    "peano": hc.gen_peano(50000, 3, s),
                }
            )
        # one warm-up call per sample size fills the rank-table cache for both
        hc.estimate(self.sets[0]["small"][0])
        hc.estimate(self.sets[0]["gauss"])

    def round(self, r, rec):
        hc = self.hc
        k = r % self.SETS
        ref = k == 0
        inputs = self.sets[k]
        for _ in range(self.SHORT_REPEAT):
            for j, x in enumerate(inputs["small"]):
                rec.add("nn_points", x.shape[0])
                rec.call("short", lambda: hc.estimate(x), lambda res, j=j: self.check_estimate(f"n5000.{j}", res, ref))
        for kind, key in (("mid", "gauss"), ("long", "peano")):
            x = inputs[key]
            rec.add("nn_points", x.shape[0])
            rec.call(kind, lambda: hc.estimate(x), lambda res, key=key: self.check_estimate(f"n50000.{key}", res, ref))


WORKLOADS = {w.name: w for w in (SeabirdsInference, StudyN500, LargeN)}
