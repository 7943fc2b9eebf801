"""Monte-Carlo significance and double-bootstrap confidence intervals.

Null tables hold the sampling distribution of the estimate under
independence for a fixed sample size, built from seeded uniform draws, and
give add-one Monte-Carlo p-values. Confidence intervals resample from the
empirical beta copula, whose continuous margins cannot produce duplicated
points (plain with-replacement pair resampling does, which zeroes
nearest-neighbour distances and wrecks the estimate), and studentize with
an inner bootstrap layer.

Both procedures estimate many same-size samples, so they split their
replicates into blocks and estimate each block with one ``estimate_batch``
call, whether the cutoffs are fixed or cross-validated. A block holds
about ``BATCH_POINTS`` observations; its size depends on the sample size
(and the inner layer size b2) alone, never on the thread count. Every
replicate still draws from its own RNG substream, and a batched estimate
does not depend on the other samples of its batch, so the results do not
depend on the blocks or on the thread count. ``threads`` maps the blocks
over a thread pool; the nearest-neighbour scans release the interpreter
lock, so threads pay at larger n and cost a little at very small n.
"""

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import CacheMismatchError, ConfigError, DiagnosticsError, DomainError, SizeError
from .estimator import BATCH_POINTS, EstimateConfig, EstimateResult, estimate, estimate_batch
from .ranks_nn import as_sample, column_ranks
from .rng import substream
from .version import __version__

_MAGIC = "hellcorr-null-table"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NullTable:
    """Sorted draws of the estimate on independent data of size n."""

    n: int
    draws: np.ndarray
    config: EstimateConfig
    seed: int

    @property
    def m(self):
        return self.draws.shape[0]

    @property
    def key(self):
        return table_key(self.n, self.config)


@dataclass(frozen=True)
class BootstrapCI:
    lower: float
    upper: float
    level: float
    outer_reps: int
    inner_reps: int
    dropped: int
    eta: float
    se: float
    estimate: EstimateResult = field(repr=False)


@dataclass(frozen=True)
class SignificanceResult:
    estimate: object
    p: float
    critical: float
    table: NullTable = field(repr=False)


def _config_echo(config):
    d = asdict(config)
    if d["cutoffs"] is not None:
        d["cutoffs"] = list(d["cutoffs"])
    return d


def table_key(n, config):
    """Cache key tying a table to its sample size, pipeline, and code."""
    doc = {"n": int(n), "config": _config_echo(config), "code": __version__}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _blocks(count, size):
    """Consecutive index ranges of at most size that cover range(count)."""
    return [range(a, min(a + size, count)) for a in range(0, count, size)]


def _map_maybe_parallel(fn, items, threads):
    if threads is not None and threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, items))
    return [fn(item) for item in items]


def null_table(n, m, config=None, seed=0, threads=1):
    """Distribution of the estimate over m independent uniform samples.

    Each replicate runs the full estimation pipeline, with its own RNG
    substream so the result does not depend on the thread count. Each block
    of replicates is one batched estimate, cross-validated or not.
    """
    if n < 3:
        raise SizeError("null table needs n >= 3")
    if m < 1:
        raise ConfigError("need at least one replicate")
    cfg = config if config is not None else EstimateConfig()

    def block(idx):
        samples = np.empty((len(idx), n, 2))
        for k, i in enumerate(idx):
            substream(seed, "null", i).random(out=samples[k])
        return estimate_batch(samples, cfg)

    parts = _map_maybe_parallel(block, _blocks(m, max(1, BATCH_POINTS // n)), threads)
    draws = np.sort(np.concatenate(parts))
    draws.flags.writeable = False
    return NullTable(n=int(n), draws=draws, config=cfg, seed=int(seed))


def p_value(eta_hat, table):
    """Add-one Monte-Carlo p-value (1 + #{draws >= eta_hat}) / (m + 1)."""
    count = table.m - int(np.searchsorted(table.draws, eta_hat, side="left"))
    return (1 + count) / (table.m + 1)


def critical_value(table, alpha=0.05):
    """Upper-alpha critical value: order statistic ceil((1-alpha)(m+1))."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    k = math.ceil((1.0 - alpha) * (table.m + 1))
    if k > table.m:
        raise DomainError(f"table of {table.m} draws too small for alpha={alpha}")
    return float(table.draws[k - 1])


def sample_beta_copula(ranks, n_out, seed):
    """Draw from the empirical beta copula of a ranked sample.

    Each row picks a donor observation uniformly, then draws coordinate k
    from Beta(r_k, n+1-r_k) with r_k the donor's rank. Margins are exactly
    uniform and continuous, so output rows are almost surely distinct.
    """
    r = np.asarray(ranks)
    n = r.shape[0]
    if r.ndim != 2 or r.shape[1] != 2 or n < 2:
        raise SizeError("ranks must be an (n, 2) array with n >= 2")
    if r.min() < 1 or r.max() > n:
        raise DomainError("ranks must lie in 1..n")
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "beta-copula")
    donors = rng.integers(0, n, int(n_out))
    rd = r[donors]
    x = rng.beta(rd[:, 0], n + 1 - rd[:, 0])
    y = rng.beta(rd[:, 1], n + 1 - rd[:, 1])
    return np.column_stack((x, y))


def bootstrap_ci(sample, level=0.95, b1=1000, b2=100, config=None, seed=0, threads=1):
    """Double-bootstrap studentized confidence interval for the estimate.

    Outer resamples give pivots t_b = (eta*_b - eta_hat) / se*_b with each
    se*_b from an inner resampling layer; the scale of eta_hat itself comes
    from one extra inner layer on the original sample. Resampled estimates
    reuse the cutoffs selected on the observed data, so the interval
    reflects estimation noise at the chosen truncation rather than
    selection jitter. The interval is clipped to [0, 1].
    """
    arr = as_sample(sample)
    n = arr.shape[0]
    if n < 4:
        raise SizeError("bootstrap needs n >= 4")
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    if b1 < 2 or b2 < 2:
        raise ConfigError("need at least 2 replicates in each layer")
    cfg = config if config is not None else EstimateConfig()
    base = estimate(arr, cfg)
    fixed = replace(cfg, cutoffs=base.cutoffs)
    ranks0 = column_ranks(arr)

    def draw_layer(out, rk, *path):
        for j in range(len(out)):
            out[j] = sample_beta_copula(rk, n, substream(seed, *path, j))

    def scale(etas):
        return float(np.std(etas, ddof=1))

    layer0 = np.empty((b2, n, 2))
    draw_layer(layer0, ranks0, "se0")
    se0 = scale(estimate_batch(layer0, fixed))
    if se0 == 0.0:
        raise DiagnosticsError("inner resampling scale of the original sample is zero")

    def block(bs):
        # each outer resample, then its inner layer, all estimated in one batch
        samples = np.empty((len(bs), 1 + b2, n, 2))
        for k, b in enumerate(bs):
            samples[k, 0] = sample_beta_copula(ranks0, n, substream(seed, "outer", b))
        for k, (b, rk) in enumerate(zip(bs, column_ranks(samples[:, 0]))):
            draw_layer(samples[k, 1:], rk, "inner", b)
        etas = estimate_batch(samples.reshape(-1, n, 2), fixed).reshape(len(bs), 1 + b2)
        return [(e[0], scale(e[1:])) for e in etas]

    per_block = max(1, BATCH_POINTS // (n * (1 + b2)))
    pairs = [p for part in _map_maybe_parallel(block, _blocks(b1, per_block), threads) for p in part]
    pivots = [(eta_b - base.eta) / se_b for eta_b, se_b in pairs if se_b > 0.0]
    dropped = b1 - len(pivots)
    if dropped > 0:
        warnings.warn(f"dropped {dropped} of {b1} outer replicates with zero inner scale")
    if dropped > 0.1 * b1:
        raise DiagnosticsError(f"{dropped} of {b1} outer replicates had zero inner scale")
    alpha = 1.0 - level
    qlo, qhi = np.quantile(pivots, [alpha / 2.0, 1.0 - alpha / 2.0])
    lower = min(max(base.eta - qhi * se0, 0.0), 1.0)
    upper = min(max(base.eta - qlo * se0, 0.0), 1.0)
    return BootstrapCI(
        lower=float(lower),
        upper=float(upper),
        level=level,
        outer_reps=b1,
        inner_reps=b2,
        dropped=dropped,
        eta=base.eta,
        se=se0,
        estimate=base,
    )


def significance(sample, m=1000, level=0.95, config=None, seed=0, threads=1):
    """Estimate, then test against a same-size independence null table.

    The null draws are estimated at the cutoffs selected on the observed
    data, conditioning the reference distribution on the chosen truncation.
    """
    arr = as_sample(sample)
    cfg = config if config is not None else EstimateConfig()
    base = estimate(arr, cfg)
    fixed = replace(cfg, cutoffs=base.cutoffs)
    table = null_table(arr.shape[0], m, fixed, seed=seed, threads=threads)
    return SignificanceResult(
        estimate=base,
        p=p_value(base.eta, table),
        critical=critical_value(table, 1.0 - level),
        table=table,
    )


def save_null_table(table, path):
    """Write a null table as a versioned JSON artifact.

    The document goes to a temporary file in the target's directory, which
    then replaces the target, so a failed write leaves any previous table
    intact.
    """
    doc = {
        "magic": _MAGIC,
        "format_version": _FORMAT_VERSION,
        "n": table.n,
        "seed": table.seed,
        "config": _config_echo(table.config),
        "key": table.key,
        "draws": [float(v) for v in table.draws],
    }
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        try:
            fh = open(tmp, "x")
        except OSError as exc:
            raise ConfigError(f"cannot write a null table at {path}: {exc.strerror}") from None
        with fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _config_from_echo(echo):
    cut = echo.get("cutoffs")
    return EstimateConfig(
        cutoffs=None if cut is None else (int(cut[0]), int(cut[1])),
        kmax=int(echo["kmax"]),
        lmax=int(echo["lmax"]),
        transform=echo["transform"],
    )


def load_null_table(path, n=None, config=None):
    """Load a cached null table, refusing any mismatched artifact.

    When n or config are given, the stored table must match them; the
    stored key must also match the current code version, so tables built
    by a different version are rejected rather than silently reused.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:  # a directory, a missing or an unreadable file
        raise ConfigError(f"cannot read a null table at {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or text encoding
        raise CacheMismatchError(f"{path} is not valid JSON: {exc}") from None
    if (
        not isinstance(doc, dict)
        or doc.get("magic") != _MAGIC
        or doc.get("format_version") != _FORMAT_VERSION
    ):
        raise CacheMismatchError(f"{path} is not a recognized null-table artifact")
    try:
        cfg = _config_from_echo(doc["config"])
        table = NullTable(
            n=int(doc["n"]),
            draws=np.asarray(doc["draws"]),
            config=cfg,
            seed=int(doc["seed"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CacheMismatchError(f"{path} is a malformed null-table artifact: {exc!r}") from None
    if doc.get("key") != table.key:
        raise CacheMismatchError("cached table was built by a different code version")
    if n is not None and table.n != int(n):
        raise CacheMismatchError(f"cached table is for n={table.n}, need n={n}")
    if config is not None and _config_echo(config) != _config_echo(cfg):
        raise CacheMismatchError("cached table was built with a different configuration")
    return table
