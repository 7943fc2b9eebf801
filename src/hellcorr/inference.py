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
routine, ``_replicate_etas``, which splits the replicates (one null sample,
or one outer resample with its inner layer) into blocks of about
``BATCH_POINTS`` observations, sized from the sample size and the number of
samples per replicate alone, never from the thread count. The keys of
every RNG substream a procedure draws from are derived once, in one call
per path (``null``; ``se0``, ``outer`` and the ``(b, j)`` grid of
``inner``), before any draw, where an impossible count is refused with the
estimates' table; they take 16 bytes a sample. A ``draw`` callback fills a
whole block from its slice of the keys, re-keying one generator through
them (see ``rng``), so every replicate still draws from its own substream.
``_beta_copula`` computes the donor rows of a whole block of resamples
from their streams' first raw outputs at once, then re-keys each stream,
reads past those outputs and makes one ``standard_gamma`` call per
resample: bit for bit the draws of ``integers`` and then
``standard_gamma``, at 13 against 21 us a resample of n = 12 (one core of
a 2-core VM). Each block is one ``estimate_batch``
call, whether the cutoffs are fixed or cross-validated, and a batched
estimate does not depend on the other samples of its batch, so the
results do not depend on the blocks or on the thread count.
``threads`` maps the blocks over a thread pool. The nearest-neighbour scans
and most numpy steps release the interpreter lock, but a block's Python
work and the resample draws hold it: at n = 500 and fixed cutoffs two
threads ran a null table 0.9 to 1.2 times as fast as one, and at very
small n they cost a little (README).
"""

import base64
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
    _integer,
)
from .estimator import BATCH_POINTS, EstimateConfig, EstimateResult, estimate, estimate_batch
from .ranks_nn import as_sample, column_ranks
from .rng import _integers, _keys, _streams
from .version import __version__

_MAGIC = "hellcorr-null-table"
_FORMAT_VERSION = 2


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
    cache_used: bool
    table: NullTable = field(repr=False)


def _check_ci_args(level, b1, b2, seed, threads):
    """``bootstrap_ci``'s level, counts, seed and threads, checked; all but level as ints.

    The CLI's ``ci`` runs these checks too, before it reads the sample.
    """
    b1, b2 = _integer(b1, "b1", 2), _integer(b2, "b2", 2)
    seed, threads = _integer(seed, "seed", 0), _integer(threads, "threads", 1)
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    return b1, b2, seed, threads


def _check_significance_args(m, level, seed, threads):
    """``significance``'s m, level, seed and threads, checked; m, seed and threads as ints.

    The CLI's ``pvalue`` runs these checks too, before it reads the sample.
    """
    m = _integer(m, "m", 1)
    seed, threads = _integer(seed, "seed", 0), _integer(threads, "threads", 1)
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    _order_statistic(m, 1.0 - level)
    return m, seed, threads


def _replicate_etas(count, size, n, keys, draw, cfg, threads):
    """Etas of count replicates, each of size samples of n points: (count, size).

    ``keys()`` derives the procedure's substream keys once, a list of arrays
    whose leading axis is the replicate. ``draw(*block_keys, out)`` writes a
    block of replicates into out, a (block, size, n, 2) array, from those
    arrays' rows of the block. Each block of replicates is one batched
    estimate, written into the result in place. The callers have checked
    every argument.
    """
    try:  # the estimates and keys, 24 bytes a sample: refused before any draw, not part way
        etas = np.empty((count, size))
        keys = keys()
    except (MemoryError, ValueError) as exc:
        raise CapabilityError(f"cannot hold {count} x {size} estimates: {exc}") from None
    per_block = max(1, BATCH_POINTS // (n * size))

    def block(start):
        stop = min(start + per_block, count)
        samples = np.empty((stop - start, size, n, 2))
        draw(*(k[start:stop] for k in keys), samples)
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
    n, m = _integer(n, "n", 3, error=SizeError), _integer(m, "m", 1)
    seed, threads = _integer(seed, "seed", 0), _integer(threads, "threads", 1)
    cfg = config if config is not None else EstimateConfig()

    def keys():
        return [_keys(seed, "null", np.arange(m))]

    def draw(block_keys, out):
        for rng, sample in zip(_streams(block_keys), out):
            rng.random(out=sample[0])

    draws = np.sort(_replicate_etas(m, 1, n, keys, draw, cfg, threads)[:, 0])
    draws.flags.writeable = False
    return NullTable(n=n, draws=draws, config=cfg, seed=seed)


def p_value(eta_hat, table):
    """Add-one Monte-Carlo p-value (1 + #{draws >= eta_hat}) / (m + 1)."""
    if not 0.0 <= eta_hat <= 1.0:  # NaN fails the comparison too
        raise DomainError(f"statistic must lie in [0, 1], got {eta_hat!r}")
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


def _copula_ranks(ranks, ndim):
    """ranks checked as one (n, 2) table or a stack of ndim dimensions, and n."""
    r = np.asarray(ranks)
    if r.ndim not in (2, ndim) or r.shape[-1] != 2 or r.shape[-2] < 2:
        raise SizeError("ranks must be an (n, 2) array with n >= 2")
    n = r.shape[-2]
    # integer ranks are whole; NaN fails the comparison
    whole = np.issubdtype(r.dtype, np.integer) or np.all(np.floor(r) == r)
    if not whole or r.min() < 1 or r.max() > n:
        raise DomainError("ranks must be whole numbers in 1..n")
    return r, n


def _gamma_shapes(rows, n):
    """Gamma shapes of donor ranks, (..., m, 2) to (..., 2, m, 2): (r, n+1-r) for each coordinate."""
    shapes = np.empty(rows.shape[:-2] + (2, rows.shape[-2], 2))
    shapes[..., 0] = np.swapaxes(rows, -1, -2)
    np.subtract(n + 1, shapes[..., 0], out=shapes[..., 1])
    return shapes


def _beta_ratio(gammas, out):
    """Beta(r, n+1-r) = Ga / (Ga + Gb) of (..., 2, m, 2) gammas, into (..., m, 2) out."""
    ga, gb = gammas[..., 0], gammas[..., 1]
    out[...] = np.swapaxes(ga / (ga + gb), -1, -2)


def _beta_copula(ranks, keys, out):
    """Fill out, (..., n_out, 2), with draws from the empirical beta copula of ranks.

    ``ranks`` is one (n, 2) table or a stack of tables broadcasting against
    out's leading shape, and ``keys`` (``_keys``) gives each leading index of
    out its stream. A stream draws what ``integers`` and then one
    ``standard_gamma`` over the interleaved (r, n+1-r) shapes of its donors'
    ranks r would draw: n_out donors, then both coordinates of every row.
    Beta(r, n+1-r) is Ga / (Ga + Gb), taken once for the whole block. Numpy's
    ``beta`` draws exactly these two gammas whenever a shape exceeds 1, and
    here the two sum to n + 1 >= 3, so the draws equal those of ``rng.beta``.

    The donors are computed, not drawn: ``_integers`` reads the block's
    streams' first outputs in one pass and maps their words to donors as
    ``integers`` would, and all their shapes are taken at once. Each stream
    is then re-keyed and reads past its donors' ceil(n_out / 2) outputs for
    its gammas. ``integers`` would leave the high half of the last output
    buffered after an odd count, but ``standard_gamma`` reads whole 64-bit
    outputs only, so that half never matters. A stream with a word numpy
    would redraw draws its donors with ``integers``.
    """
    r, n = _copula_ranks(ranks, out.ndim)
    lead, n_out = out.shape[:-2], out.shape[-2]
    keys = np.reshape(keys, (-1, 2))
    # each stream's table among r's (n, 2) tables
    table = np.broadcast_to(np.arange(math.prod(r.shape[:-2])).reshape(r.shape[:-2]), lead).ravel()
    tables = r.reshape(-1, n, 2)
    donors, redo = _integers(keys, n, n_out)
    shapes = _gamma_shapes(tables.reshape(-1, 2)[table[:, None] * n + donors], n)
    gammas = np.empty_like(shapes)
    kept, used = np.flatnonzero(~redo), (n_out + 1) // 2
    for i, rng in zip(kept, _streams(keys[kept])):
        rng.bit_generator.random_raw(used)  # the donors' outputs
        rng.standard_gamma(shapes[i], out=gammas[i])
    for i, rng in zip(np.flatnonzero(redo), _streams(keys[redo])):
        rows = tables[table[i]][rng.integers(0, n, n_out)]
        rng.standard_gamma(_gamma_shapes(rows, n), out=gammas[i])
    _beta_ratio(gammas.reshape(lead + gammas.shape[1:]), out)


def sample_beta_copula(ranks, n_out, seed):
    """Draw from the empirical beta copula of a ranked sample.

    Each row picks a donor observation uniformly, then draws coordinate k
    from Beta(r_k, n+1-r_k) with r_k the donor's rank. Margins are exactly
    uniform and continuous, so output rows are almost surely distinct.
    A numpy ``Generator`` in place of the seed is drawn from directly: its
    donors with ``integers``, then its gammas.
    """
    n_out = _integer(n_out, "n_out", 0, error=SizeError)
    try:  # refused before any draw, not part way
        out = np.empty((n_out, 2))
    except (MemoryError, ValueError) as exc:
        raise CapabilityError(f"cannot hold {n_out} draws: {exc}") from None
    if not isinstance(seed, np.random.Generator):
        _beta_copula(ranks, _keys(seed, "beta-copula"), out)
        return out
    r, n = _copula_ranks(ranks, 2)
    _beta_ratio(seed.standard_gamma(_gamma_shapes(r[seed.integers(0, n, n_out)], n)), out)
    return out


def bootstrap_ci(sample, level=0.95, b1=1000, b2=100, config=None, seed=0, threads=1):
    """Double-bootstrap studentized confidence interval for the estimate.

    Outer resamples give pivots t_b = (eta*_b - eta_hat) / se*_b with each
    se*_b from an inner resampling layer; the scale of eta_hat itself comes
    from one extra inner layer on the original sample. Resampled estimates
    reuse the cutoffs selected on the observed data, so the interval
    reflects estimation noise at the chosen truncation rather than
    selection jitter. The interval is clipped to [0, 1].
    """
    b1, b2, seed, threads = _check_ci_args(level, b1, b2, seed, threads)
    arr = as_sample(sample)
    n = arr.shape[0]
    if n < 4:
        raise SizeError("bootstrap needs n >= 4")
    cfg = config if config is not None else EstimateConfig()
    base = estimate(arr, cfg)
    fixed = replace(cfg, cutoffs=base.cutoffs)
    ranks0 = column_ranks(arr)[0]

    def keys0():  # the one replicate's b2 streams
        return [_keys(seed, "se0", np.arange(b2))[None]]

    def draw0(block_keys, out):
        _beta_copula(ranks0, block_keys, out)

    layer0 = _replicate_etas(1, b2, n, keys0, draw0, fixed, threads)
    se0 = float(np.std(layer0[0], ddof=1))
    if se0 == 0.0:
        raise DiagnosticsError("inner resampling scale of the original sample is zero")

    def keys():  # each outer replicate b's stream and its inner (b, j) grid
        b = np.arange(b1)
        return [_keys(seed, "outer", b), _keys(seed, "inner", b[:, None], np.arange(b2))]

    def draw(outer, inner, out):
        _beta_copula(ranks0, outer, out[:, 0])
        _beta_copula(column_ranks(out[:, :1])[0], inner, out[:, 1:])

    etas = _replicate_etas(b1, 1 + b2, n, keys, draw, fixed, threads)
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
    there; ``cache_used`` in the result says which of the two happened. The
    CLI's ``pvalue`` is this one call, with ``cache`` from ``--null-cache``.
    Every argument is checked first, before the estimate and the cache.
    """
    m, seed, threads = _check_significance_args(m, level, seed, threads)
    arr = as_sample(sample)
    cfg = config if config is not None else EstimateConfig()
    base = estimate(arr, cfg)
    fixed = replace(cfg, cutoffs=base.cutoffs)
    cache_used = cache is not None and os.path.exists(cache)
    if cache_used:
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
        cache_used=cache_used,
        table=table,
    )


def save_null_table(table, path):
    """Write a null table as a versioned JSON artifact.

    The draws are one string, the base64 of their little-endian float64
    bytes, so they round-trip bit for bit and are written and read without
    formatting or parsing a float. The document goes to a temporary file in
    the target's directory, which then replaces the target, so a failed
    write leaves any previous table intact.
    """
    doc = {
        "magic": _MAGIC,
        "format_version": _FORMAT_VERSION,
        "n": table.n,
        "seed": table.seed,
        "config": asdict(table.config),
        "key": table.key,
        "draws": base64.b64encode(table.draws.astype("<f8").tobytes()).decode("ascii"),
    }
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        try:
            fh = open(tmp, "x")
        except OSError as exc:
            raise ConfigError(f"cannot write a null table at {path}: {exc.strerror}") from None
        with fh:
            # json.dumps runs the C encoder; json.dump streams through the
            # pure-Python one to the same bytes. For 2,000 draws as one base64
            # string they take 50 vs 57 us (as a list of floats, 1.2 vs 2.0 ms)
            fh.write(json.dumps(doc))
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
    if not isinstance(doc, dict) or doc.get("magic") != _MAGIC:
        raise CacheMismatchError(f"{path} is not a recognized null-table artifact")
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        if type(version) is int and 1 <= version < _FORMAT_VERSION:
            msg = (
                f"{path} was written in an older null-table cache format (version {version})"
                " and should be deleted; the next call then rebuilds it"
            )
            raise CacheMismatchError(msg)
        raise CacheMismatchError(f"{path} is not a recognized null-table artifact")
    try:
        # draws that are not a base64 string raise TypeError or binascii.Error,
        # a ValueError, and so does a byte count that is not whole float64s
        table = NullTable(
            n=int(doc["n"]),
            draws=np.frombuffer(base64.b64decode(doc["draws"], validate=True), "<f8"),
            config=EstimateConfig(**doc["config"]),
            seed=int(doc["seed"]),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CacheMismatchError(f"{path} is a malformed null-table artifact: {exc!r}") from None
    d = table.draws  # one-dimensional float64 by construction
    if (
        d.size == 0
        or not np.all((d >= 0.0) & (d <= 1.0))  # also refuses NaN
        or np.any(d[1:] < d[:-1])
    ):
        raise CacheMismatchError(f"{path} does not hold a non-empty sorted array of draws in [0, 1]")
    if doc.get("key") != table.key:
        raise CacheMismatchError("cached table was built by a different code version")
    if n is not None and table.n != int(n):
        raise CacheMismatchError(f"cached table is for n={table.n}, need n={n}")
    if config is not None and config != table.config:
        raise CacheMismatchError("cached table was built with a different configuration")
    return table
