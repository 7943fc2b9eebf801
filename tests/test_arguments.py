"""Every public entry checks its integer arguments before any work.

One row per entry and argument. A bool, a float or NaN raises ConfigError;
a negative integer, or one above the argument's documented upper bound,
raises the class the argument documents. Either way the estimation core is
never reached, no file is written, and an existing null-table cache keeps
its bytes. Numpy integers are accepted wherever Python integers are.
"""

import math

import numpy as np
import pytest

from hellcorr import cli, estimator, reproduce
from hellcorr.datasets import seabirds
from hellcorr.errors import ConfigError, DomainError, SizeError
from hellcorr.estimator import EstimateConfig
from hellcorr.generators import gen_block_copula, gen_cross, gen_gaussian, gen_peano, gen_scenario
from hellcorr.inference import bootstrap_ci, null_table, sample_beta_copula, significance
from hellcorr.rng import substream

RANKS = np.array([[1, 2], [2, 3], [3, 1], [4, 4]])


def _significance(cache, **kwargs):
    return significance(seabirds(), **{"m": 100, "seed": 1, "cache": cache, **kwargs})


def _bootstrap(**kwargs):
    return bootstrap_ci(seabirds(), **{"b1": 5, "b2": 3, **kwargs})


def _suite(scale, seed, threads):
    return [{"pass": True}]


# (entry, argument) -> (call with that argument set to v, a valid value, error
# class of an out-of-range integer, documented upper bound or None); every other
# argument is valid, and significance is also passed the cache path
ARGUMENTS = {
    ("null_table", "n"): (lambda v, c: null_table(v, 5), 12, SizeError, None),
    ("null_table", "m"): (lambda v, c: null_table(12, v), 5, ConfigError, None),
    ("null_table", "seed"): (lambda v, c: null_table(12, 5, seed=v), 0, ConfigError, None),
    ("null_table", "threads"): (lambda v, c: null_table(12, 5, threads=v), 2, ConfigError, None),
    ("significance", "m"): (lambda v, c: _significance(c, m=v), 100, ConfigError, None),
    ("significance", "seed"): (lambda v, c: _significance(c, seed=v), 1, ConfigError, None),
    ("significance", "threads"): (lambda v, c: _significance(c, threads=v), 2, ConfigError, None),
    ("bootstrap_ci", "b1"): (lambda v, c: _bootstrap(b1=v), 5, ConfigError, None),
    ("bootstrap_ci", "b2"): (lambda v, c: _bootstrap(b2=v), 3, ConfigError, None),
    ("bootstrap_ci", "seed"): (lambda v, c: _bootstrap(seed=v), 0, ConfigError, None),
    ("bootstrap_ci", "threads"): (lambda v, c: _bootstrap(threads=v), 2, ConfigError, None),
    ("sample_beta_copula", "n_out"): (lambda v, c: sample_beta_copula(RANKS, v, 0), 10, SizeError, None),
    ("gen_gaussian", "n"): (lambda v, c: gen_gaussian(v, 0.5, 0), 10, SizeError, None),
    ("gen_scenario", "n"): (lambda v, c: gen_scenario("Circle", v, 0), 10, SizeError, None),
    ("gen_peano", "n"): (lambda v, c: gen_peano(v, 3, 0), 10, SizeError, None),
    ("gen_peano", "d"): (lambda v, c: gen_peano(10, v, 0), 3, ConfigError, 8),
    ("gen_cross", "n"): (lambda v, c: gen_cross(v, 3, 0), 10, SizeError, None),
    ("gen_cross", "d"): (lambda v, c: gen_cross(10, v, 0), 3, ConfigError, 6),
    ("gen_block_copula", "n"): (lambda v, c: gen_block_copula(v, 0.5, 2, 0), 10, SizeError, None),
    ("gen_block_copula", "m"): (lambda v, c: gen_block_copula(10, 0.5, v, 0), 2, DomainError, None),
    ("EstimateConfig", "kmax"): (lambda v, c: EstimateConfig(kmax=v), 3, ConfigError, 20),
    ("EstimateConfig", "lmax"): (lambda v, c: EstimateConfig(lmax=v), 3, ConfigError, 20),
    ("EstimateConfig", "cutoffs"): (lambda v, c: EstimateConfig(cutoffs=(2, v)), 3, ConfigError, 20),
    ("substream", "seed"): (lambda v, c: substream(v, "t"), 0, ConfigError, None),
    ("reproduce.run", "seed"): (lambda v, c: reproduce.run("table1", "desk", v, 1), 0, ConfigError, None),
    ("reproduce.run", "threads"): (lambda v, c: reproduce.run("table1", "desk", 0, v), 2, ConfigError, None),
}

# class of bad value -> (value, or a function of the upper bound; True: the argument's own error)
BAD = {
    "negative": (-1, True),
    "float": (2.5, False),
    "whole-float": (5.0, False),
    "bool": (True, False),
    "nan": (math.nan, False),
    "too-large": (lambda hi: hi + 1, True),
}

CASES = [
    pytest.param(entry, kind, cache, id=f"{entry[0]}-{entry[1]}-{kind}" + (f"-{cache}" if cache else ""))
    for entry, (_, _, _, hi) in ARGUMENTS.items()
    for kind in BAD
    if kind != "too-large" or hi is not None
    for cache in (("none", "absent", "existing") if entry[0] == "significance" else (None,))
]


@pytest.fixture(scope="module")
def cache_bytes(tmp_path_factory):
    """A valid null-table cache for the seabirds sample at m=100, seed=1."""
    path = tmp_path_factory.mktemp("cache") / "null.json"
    _significance(str(path))
    return path.read_bytes()


def _unreachable(*args, **kwargs):
    raise AssertionError("an argument check let the call reach the estimation core")


@pytest.mark.parametrize("entry, kind, cache", CASES)
def test_bad_integer_refused_before_any_work(monkeypatch, tmp_path, cache_bytes, entry, kind, cache):
    call, _, range_error, hi = ARGUMENTS[entry]
    value, is_range = BAD[kind]
    value = value(hi) if callable(value) else value
    path = tmp_path / "null.json"
    if cache == "existing":
        path.write_bytes(cache_bytes)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(estimator, "_estimate_core", _unreachable)
    before = sorted(tmp_path.iterdir())
    # the error classes are siblings, so a cache mismatch does not pass for any of them
    with pytest.raises(range_error if is_range else ConfigError) as err:
        call(value, None if cache in (None, "none") else str(path))
    assert str(err.value).endswith(f", got {value!r}")  # the argument's own check, not a later one
    assert sorted(tmp_path.iterdir()) == before
    if cache == "existing":
        assert path.read_bytes() == cache_bytes


@pytest.mark.parametrize("entry", list(ARGUMENTS), ids=[f"{e}-{a}" for e, a in ARGUMENTS])
def test_numpy_integers_accepted(monkeypatch, tmp_path, entry):
    call, good, _, _ = ARGUMENTS[entry]
    monkeypatch.setitem(reproduce.SUITES, "table1", _suite)
    for value in (good, np.int64(good), np.uint16(good)):
        call(value, str(tmp_path / f"null-{type(value).__name__}.json"))


# each command refuses its counts and seed before it reads or draws the
# sample: a 3,000,000-point draw, or an input file that is never opened
CLI_REFUSALS = {
    "ci-b1": (["ci", "--b1", "1", "--generator", "gaussian:rho=0.5", "--n", "3000000"], "b1"),
    "ci-b2": (["ci", "--b2", "1", "--generator", "gaussian:rho=0.5", "--n", "3000000"], "b2"),
    "ci-seed": (["ci", "--seed", "-1", "--input", "never-read.csv"], "seed"),
    "pvalue-seed": (["pvalue", "--seed", "-1", "--input", "never-read.csv"], "seed"),
}


@pytest.mark.parametrize("argv, name", CLI_REFUSALS.values(), ids=list(CLI_REFUSALS))
def test_cli_refuses_before_the_sample(monkeypatch, capsys, argv, name):
    monkeypatch.setattr(cli, "_get_sample", _unreachable)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")
