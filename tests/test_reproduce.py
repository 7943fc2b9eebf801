"""Suite verdicts: every row carries one boolean pass, and all_pass reads only it.

Each test fakes the generators, ``estimate`` and ``null_table`` inside
``hellcorr.reproduce``: a fake sample is one row naming what it was drawn
from, and the fake estimate looks its eta up, so a whole desk suite runs in
well under a second.
"""

import types

import numpy as np
import pytest

from hellcorr import reproduce
from hellcorr.errors import ConfigError
from hellcorr.estimator import EstimateConfig
from hellcorr.generators import SCENARIOS
from hellcorr.inference import NullTable


def fake_suite(monkeypatch, eta):
    """Make every estimate in a suite eta(*what the sample was drawn from)."""
    monkeypatch.setattr(reproduce, "estimate", lambda x: types.SimpleNamespace(eta=eta(*x[0])))

    def null_table(n, m, seed, threads):
        # the 5% critical value is about 0.48
        return NullTable(n=n, draws=np.linspace(0.0, 0.5, m), config=EstimateConfig(), seed=seed)

    monkeypatch.setattr(reproduce, "null_table", null_table)


# depth -> median eta at n = 500 and at n = 5000 (none at depth 4)
RISING = {1: (0.6, 0.7), 2: (0.5, 0.6), 3: (0.4, 0.5), 4: (0.3, None)}


@pytest.mark.parametrize("suite", ["figure2", "figure3"])
@pytest.mark.parametrize(
    "medians, failing",
    [
        (RISING, []),
        ({**RISING, 2: (0.5, 0.5)}, [2]),  # a larger n does not raise the median
        ({**RISING, 3: (0.4, 0.3)}, [3]),
        ({**RISING, 4: (0.45, None)}, [4]),  # the median rises with depth
        ({**RISING, 2: (0.65, 0.7)}, [2]),
    ],
    ids=["pass", "n5000-flat-d2", "n5000-falls-d3", "rises-at-d4", "rises-at-d2"],
)
def test_figure_rows_pass_on_the_depth_and_larger_n_rules(monkeypatch, suite, medians, failing):
    monkeypatch.setattr(reproduce, "gen_peano", lambda n, d, rng: np.array([[n, d]]))
    monkeypatch.setattr(reproduce, "gen_cross", lambda n, d, rng: np.array([[n, d]]))
    fake_suite(monkeypatch, lambda n, d: medians[d][int(n > 500)])
    doc = reproduce.run(suite, "desk", 7, 1)
    rows = doc["rows"]
    assert [r["d"] for r in rows] == [1, 2, 3, 4]
    assert all(type(r["pass"]) is bool for r in rows)
    assert [r["d"] for r in rows if not r["pass"]] == failing
    assert doc["all_pass"] is (failing == [])
    for r in rows:
        assert r["pass"] == (r["monotone"] and (r["d"] > 3 or r["larger_n_increases"]))
    assert "larger_n_increases" not in rows[3]


def table2_eta(name, r):
    """Circle and W near their reference means; 4 clouds rejects 5 of 100."""
    if name == "4 clouds":
        return 0.9 if r < 5 else 0.1
    return {"Circle": 0.839, "W": 0.9}.get(name, 0.3)


@pytest.mark.parametrize(
    "broken, eta",
    [
        (None, table2_eta),
        ("Circle", lambda name, r: 0.7 if name == "Circle" else table2_eta(name, r)),
        ("W", lambda name, r: 0.79 if name == "W" else table2_eta(name, r)),
        ("4 clouds", lambda name, r: 0.9 if name == "4 clouds" and r < 9 else table2_eta(name, r)),
    ],
)
def test_table2_rows_pass_on_their_scenario_checks(monkeypatch, broken, eta):
    drawn = {}

    def gen_scenario(name, n, rng):
        drawn[name] = drawn.get(name, -1) + 1
        return np.array([[name, drawn[name]]], dtype=object)

    monkeypatch.setattr(reproduce, "gen_scenario", gen_scenario)
    fake_suite(monkeypatch, eta)
    doc = reproduce.run("table2", "desk", 7, 1)
    rows = doc["rows"]
    assert tuple(r["scenario"] for r in rows) == SCENARIOS
    assert all(type(r["pass"]) is bool for r in rows)
    assert [r["scenario"] for r in rows if not r["pass"]] == ([] if broken is None else [broken])
    assert doc["all_pass"] is (broken is None)


@pytest.mark.parametrize("suite, scale", [("table9", "desk"), ("table1", "Desk"), ("table1", None)])
def test_unknown_suite_or_scale_refused_before_any_suite_runs(monkeypatch, suite, scale):
    def must_not_run(scale, seed, threads):
        raise AssertionError("a suite ran for an unknown suite or scale")

    for name in reproduce.SUITES:
        monkeypatch.setitem(reproduce.SUITES, name, must_not_run)
    with pytest.raises(ConfigError, match=f"got {suite!r} and {scale!r}"):
        reproduce.run(suite, scale, 0, 1)
