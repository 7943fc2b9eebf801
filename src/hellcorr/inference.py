"""Monte-Carlo significance and double-bootstrap confidence intervals.

Null tables hold the sampling distribution of the estimate under
independence for a fixed sample size, built from seeded uniform draws, and
give add-one Monte-Carlo p-values. Confidence intervals resample from the
empirical beta copula, whose continuous margins cannot produce duplicated
points (plain with-replacement pair resampling does, which zeroes
nearest-neighbour distances and wrecks the estimate), and studentize with
an inner bootstrap layer. The CLI's ``pvalue`` and ``ci`` commands are one
call each, to ``significance`` and ``bootstrap_ci``.

Both procedures estimate many same-size samples through one private
driver, ``_replicate_etas``: a ``draw`` callback writes each replicate (one
null sample, or one outer resample with its inner layer) from its own RNG
substreams, and the driver splits the replicates into blocks of about
``BATCH_POINTS`` observations, sized from the sample size and the number of
samples per replicate alone, never from the thread count. Each block is one
``estimate_batch`` call, whether the cutoffs are fixed or cross-validated,
and a batched estimate does not depend on the other samples of its batch,
so the results do not depend on the blocks or on the thread count.
``threads`` maps the blocks over a thread pool; the nearest-neighbour scans
release the interpreter lock, so threads pay at larger n and cost a little
at very small n.
"""

import hashlib
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    CacheMismatchError,
    CapabilityError,
    ConfigError,
    DiagnosticsError,
    DomainError,
    SizeError,
)
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
        """Cache key tying the table to its sample size, pipeline, and code."""
        doc = {"n": int(self.n), "config": asdict(self.config), "code": __version__}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


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


def _replicate_etas(count, size, n, draw, cfg, threads):
    """Etas of count replicates, each of size samples of n points: (count, size).

    ``draw(i, out)`` writes replicate i into out, a (size, n, 2) array. Each
    block of replicates is one batched estimate, written into the result in place.
    """
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ConfigError(f"threads must be an integer of at least 1, got {threads!r}")
    try:
        etas = np.empty((count, size))
    except (MemoryError, ValueError) as exc:  # refused before any draw, not part way
        raise CapabilityError(f"cannot hold {count} x {size} estimates: {exc}") from None
    per_block = max(1, BATCH_POINTS // (n * size))

    def block(start):
        stop = min(start + per_block, count)
        samples = np.empty((stop - start, size, n, 2))
        for k in range(stop - start):
            draw(start + k, samples[k])
        etas[start:stop] = estimate_batch(samples.reshape(-1, n, 2), cfg).reshape(-1, size)

    starts = range(0, count, per_block)
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(block, starts))  # reading every result re-raises a block's error
    else:
        for start in starts:
            block(start)
    return etas


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

    def draw(i, out):
        substream(seed, "null", i).random(out=out[0])

    draws = np.sort(_replicate_etas(m, 1, n, draw, cfg, threads)[:, 0])
    draws.flags.writeable = False
    return NullTable(n=int(n), draws=draws, config=cfg, seed=int(seed))


def p_value(eta_hat, table):
    """Add-one Monte-Carlo p-value (1 + #{draws >= eta_hat}) / (m + 1)."""
    count = table.m - int(np.searchsorted(table.draws, eta_hat, side="left"))
    return (1 + count) / (table.m + 1)


def _order_statistic(m, alpha):
    """Rank ceil((1-alpha)(m+1)) of the upper-alpha critical value among m draws."""
    k = math.ceil((1.0 - alpha) * (m + 1))
    if k > m:
        raise DomainError(f"table of {m} draws too small for alpha={alpha}")
    return k


def critical_value(table, alpha=0.05):
    """Upper-alpha critical value: order statistic ceil((1-alpha)(m+1))."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    return float(table.draws[_order_statistic(table.m, alpha) - 1])


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

    layer0 = _replicate_etas(1, b2, n, lambda _, out: draw_layer(out, ranks0, "se0"), fixed, threads)
    se0 = float(np.std(layer0[0], ddof=1))
    if se0 == 0.0:
        raise DiagnosticsError("inner resampling scale of the original sample is zero")

    def draw(b, out):
        out[0] = sample_beta_copula(ranks0, n, substream(seed, "outer", b))
        draw_layer(out[1:], column_ranks(out[0]), "inner", b)

    etas = _replicate_etas(b1, 1 + b2, n, draw, fixed, threads)
    se = np.std(etas[:, 1:], axis=1, ddof=1)
    pivots = (etas[se > 0.0, 0] - base.eta) / se[se > 0.0]
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


def significance(sample, m=1000, level=0.95, config=None, seed=0, threads=1, cache=None):
    """Estimate, then test against a same-size independence null table.

    The null draws are estimated at the cutoffs selected on the observed
    data, conditioning the reference distribution on the chosen truncation.
    ``cache`` names a null-table file: an existing one is loaded and must match
    n, the fixed cutoffs, m and seed, otherwise the table is built and saved
    there. The CLI's ``pvalue`` is this one call, with ``cache`` from
    ``--null-cache``. Both the level and the table size are checked first.
    """
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    _order_statistic(m, 1.0 - level)
    arr = as_sample(sample)
    cfg = config if config is not None else EstimateConfig()
    base = estimate(arr, cfg)
    fixed = replace(cfg, cutoffs=base.cutoffs)
    if cache is not None and os.path.exists(cache):
        table = load_null_table(cache, n=arr.shape[0], config=fixed)
        if (table.m, table.seed) != (m, seed):
            msg = f"cached table has m={table.m}, seed={table.seed}; need m={m}, seed={seed}"
            raise CacheMismatchError(msg)
    else:
        if cache is not None:
            # refuse a cache path that cannot be written before building the table
            cache_dir = os.path.dirname(os.path.abspath(cache))
            if not os.path.isdir(cache_dir):
                raise ConfigError(f"null-table cache directory {cache_dir} does not exist")
        table = null_table(arr.shape[0], m, fixed, seed=seed, threads=threads)
        if cache is not None:
            save_null_table(table, cache)
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
        "config": asdict(table.config),
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
        table = NullTable(
            n=int(doc["n"]),
            draws=np.asarray(doc["draws"]),
            config=EstimateConfig(**doc["config"]),
            seed=int(doc["seed"]),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CacheMismatchError(f"{path} is a malformed null-table artifact: {exc!r}") from None
    d = table.draws
    if (
        d.ndim != 1
        or d.size == 0
        or d.dtype.kind != "f"
        or not np.all((d >= 0.0) & (d <= 1.0))  # also refuses NaN
        or np.any(d[1:] < d[:-1])
    ):
        raise CacheMismatchError(f"{path} does not hold a non-empty sorted list of draws in [0, 1]")
    if doc.get("key") != table.key:
        raise CacheMismatchError("cached table was built by a different code version")
    if n is not None and table.n != int(n):
        raise CacheMismatchError(f"cached table is for n={table.n}, need n={n}")
    if config is not None and config != table.config:
        raise CacheMismatchError("cached table was built with a different configuration")
    return table
