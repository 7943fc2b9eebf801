"""Seeded outputs pinned to stored values.

Each float is stored as ``float.hex`` and compared within a relative 1e-12,
since numpy's SIMD sums may round differently across CPUs and versions;
cutoffs compare exactly. Every cross-validated input here has its best and
runner-up scores more than 1e-9 apart, so no rounding can swap its pair. A
change that moves any of these outputs on purpose re-records them and says
so.
"""

import math

import numpy as np
import pytest

import hellcorr as hc
from hellcorr.cv import cutoff_grid

REL = 1e-12
MARGIN = 1e-9

# (sample, cutoffs, b_raw, b_normalized, eta) of default-config estimates
ESTIMATES = {
    "seabirds": (
        lambda: hc.seabirds(),
        (1, 1),
        ["0x1.038b294c2e3fcp+0", "0x1.c229b6dce386ap-1", "0x1.7e3c6b01d8aefp-1"],
    ),
    "gaussian n=500": (
        lambda: hc.gen_gaussian(500, 0.4, 7),
        (1, 1),
        ["0x1.0866ce37c711ap+0", "0x1.f426e702dc0f6p-1", "0x1.9b64895764cd2p-2"],
    ),
    "peano n=2000": (
        lambda: hc.gen_peano(2000, 2, 5),
        (5, 5),
        ["0x1.15e39d8328087p-3", "0x1.59882adc8b638p-1", "0x1.de7428a04ab10p-1"],
    ),
}

BATCH_ETAS = [
    "0x1.1ba40cd92b31ap-1", "0x1.6d6fa69eb2ec7p-1", "0x1.455d7549d74f4p-1", "0x1.1ab8dbe7f99b3p-2",
    "0x1.342c137c50dd9p-1", "0x1.5a9bf0b2a74c2p-1", "0x1.f80e92f5855a5p-3", "0x1.4190838080cb8p-1",
]

# draws[[0, 39, 199, 359, 379, 399]] of the sorted table
NULL_ORDER = [0, 39, 199, 359, 379, 399]
NULL_DRAWS = [
    "0x1.2ccfb8d09977bp-5", "0x1.7c68fdb4ed683p-3", "0x1.704cead33d743p-2",
    "0x1.348e631beb222p-1", "0x1.5f45da07f7cd4p-1", "0x1.9f4eb44ac5d19p-1",
]

# lower, upper, eta, se
CI = ["0x1.5a8bbb04434bfp-1", "0x1.0000000000000p+0", "0x1.7e3c6b01d8aefp-1", "0x1.d65481486730bp-4"]
# the same at odd n, where each resample's donors take an odd count of 32-bit words
CI_ODD = ["0x1.935b54fad019fp-3", "0x1.a4b4f76ac3a4cp-1", "0x1.8fc882cf0b8dfp-2", "0x1.5daa511dfa387p-3"]


def assert_pinned(got, want):
    for g, w in zip(got, want, strict=True):
        assert math.isclose(float(g), float.fromhex(w), rel_tol=REL, abs_tol=0.0), (float(g).hex(), w)


def margin(result):
    """Distance between the best and the runner-up admissible CV score."""
    cfg = result.config
    scores = sorted(result.cv.scores[p] for p in cutoff_grid(cfg.kmax, cfg.lmax)[0])
    return scores[1] - scores[0]


@pytest.mark.parametrize("name", ESTIMATES)
def test_estimate(name):
    draw, cutoffs, values = ESTIMATES[name]
    r = hc.estimate(draw())
    assert margin(r) > MARGIN
    assert r.cutoffs == cutoffs
    assert_pinned((r.b_raw, r.b_normalized, r.eta), values)


def test_estimate_batch():
    samples = np.stack([hc.gen_gaussian(30, 0.5, 40 + i) for i in range(8)])
    assert all(margin(hc.estimate(s)) > MARGIN for s in samples)
    assert_pinned(hc.estimate_batch(samples, hc.EstimateConfig()), BATCH_ETAS)


def test_null_table_order_statistics():
    table = hc.null_table(12, 400, hc.EstimateConfig(cutoffs=(1, 1)), seed=11)
    assert_pinned(table.draws[NULL_ORDER], NULL_DRAWS)


def test_bootstrap_ci():
    ci = hc.bootstrap_ci(hc.seabirds(), b1=20, b2=10, seed=3)
    assert (ci.dropped, ci.estimate.cutoffs) == (0, (1, 1))
    assert_pinned((ci.lower, ci.upper, ci.eta, ci.se), CI)


def test_bootstrap_ci_odd_n():
    x = hc.gen_gaussian(13, 0.6, 24)
    assert margin(hc.estimate(x)) > MARGIN
    ci = hc.bootstrap_ci(x, b1=40, b2=5, seed=25)
    assert (ci.dropped, ci.estimate.cutoffs) == (0, (2, 0))
    assert_pinned((ci.lower, ci.upper, ci.eta, ci.se), CI_ODD)
