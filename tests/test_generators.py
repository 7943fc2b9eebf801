import math

import numpy as np
import pytest
from scipy import stats

from hellcorr.errors import CapabilityError, ConfigError, DomainError
from hellcorr.generators import (
    SCENARIOS,
    GeneratorSpec,
    block_copula_mi,
    canonical_scenario,
    gen_block_copula,
    gen_cross,
    gen_gaussian,
    gen_peano,
    gen_scenario,
)
from hellcorr.rng import substream
from oracles import peano_two_pass


def ks_uniform(x):
    return stats.kstest(x, "uniform").pvalue


class TestGaussian:
    def test_correlation_recovered(self):
        x = gen_gaussian(100_000, 0.8, seed=1)
        assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] == pytest.approx(0.8, abs=0.01)

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_gaussian(50, 0.3, seed=5), gen_gaussian(50, 0.3, seed=5))
        assert not np.array_equal(gen_gaussian(50, 0.3, seed=5), gen_gaussian(50, 0.3, seed=6))

    def test_rho_domain(self):
        for bad in (1.0, -1.0, 1.2):
            with pytest.raises(DomainError):
                gen_gaussian(10, bad, seed=0)


class TestScenarios:
    def test_catalogue(self):
        assert len(SCENARIOS) == 15
        for name in SCENARIOS:
            pts = gen_scenario(name, 200, seed=2)
            assert pts.shape == (200, 2)
            assert np.isfinite(pts).all()

    def test_name_resolution(self):
        assert canonical_scenario("two_parabolae") == "Two Parabolae"
        assert canonical_scenario("TWO PARABOLAS") == "Two Parabolae"
        assert canonical_scenario("4clouds") == "4 clouds"
        assert canonical_scenario(" circle ") == "Circle"
        with pytest.raises(ConfigError):
            canonical_scenario("pentagon")

    def test_four_clouds_coordinates_independent(self):
        x = gen_scenario("4 clouds", 20_000, seed=3)
        assert abs(np.corrcoef(x[:, 0], x[:, 1])[0, 1]) < 0.02

    def test_deterministic_per_name(self):
        a = gen_scenario("Sine", 100, seed=4)
        b = gen_scenario("sine", 100, seed=4)
        np.testing.assert_array_equal(a, b)


class TestPeano:
    def test_margins_uniform(self):
        for d in (1, 2, 3, 5, 8):
            pts = gen_peano(4000, d, seed=20 + d)
            assert ks_uniform(pts[:, 0]) > 0.01, f"x margin at depth {d}"
            assert ks_uniform(pts[:, 1]) > 0.01, f"y margin at depth {d}"

    def test_points_lie_on_depth_d_support(self):
        for d in range(1, 9):
            pts = gen_peano(3000, d, seed=6)
            rx = np.mod(pts[:, 0] * 3.0 ** ((d + 1) // 2), 1.0)
            ry = np.mod(pts[:, 1] * 3.0 ** (d // 2), 1.0)
            err = np.minimum(np.abs(ry - rx), np.abs(ry - (1.0 - rx)))
            assert err.max() <= 1e-12, f"depth {d}"

    def test_depth_one_is_three_stroke_zigzag(self):
        pts = gen_peano(2000, 1, seed=7)
        # y == 3x on [0,1/3), 2-3x on [1/3,2/3), 3x-2 above
        x, y = pts[:, 0], pts[:, 1]
        seg = np.minimum((x * 3).astype(int), 2)
        expect = np.where(seg == 0, 3 * x, np.where(seg == 1, 2 - 3 * x, 3 * x - 2))
        np.testing.assert_allclose(y, expect, atol=1e-12)

    def test_equals_two_pass_oracle(self):
        for d in range(1, 9):
            for seed in range(5):
                np.testing.assert_array_equal(
                    gen_peano(1000, d, seed), peano_two_pass(1000, d, substream(seed, "peano"))
                )

    def test_infinite_depth_is_independent(self):
        pts = gen_peano(5000, math.inf, seed=8)
        assert ks_uniform(pts[:, 0]) > 0.01
        assert abs(np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]) < 0.05

    def test_depth_validation(self):
        for bad in (0, 9, 2.5, -1):
            with pytest.raises(ConfigError):
                gen_peano(10, bad, seed=0)


class TestCross:
    def test_margins_uniform(self):
        for d in (1, 2, 4, 6):
            pts = gen_cross(4000, d, seed=50 + d)
            assert ks_uniform(pts[:, 0]) > 0.01, f"x margin at depth {d}"
            assert ks_uniform(pts[:, 1]) > 0.01, f"y margin at depth {d}"

    def test_points_lie_on_depth_d_support(self):
        for d in range(1, 7):
            pts = gen_cross(3000, d, seed=9)
            rx = np.mod(pts[:, 0] * 2.0 ** (d // 2), 1.0)
            ry = np.mod(pts[:, 1] * 2.0 ** ((d - 1) // 2), 1.0)
            err = np.minimum(np.abs(ry - rx), np.abs(ry - (1.0 - rx)))
            assert err.max() <= 1e-12, f"depth {d}"

    def test_depth_one_is_two_diagonals(self):
        pts = gen_cross(1000, 1, seed=10)
        err = np.minimum(np.abs(pts[:, 1] - pts[:, 0]), np.abs(pts[:, 1] - (1 - pts[:, 0])))
        assert err.max() <= 1e-15
        # both diagonals actually appear
        assert (np.abs(pts[:, 1] - pts[:, 0]) < 1e-12).mean() == pytest.approx(0.5, abs=0.1)

    def test_depth_validation(self):
        for bad in (0, 7, 1.5):
            with pytest.raises(ConfigError):
                gen_cross(10, bad, seed=0)


class TestBlockCopula:
    def test_margins_uniform(self):
        pts = gen_block_copula(6000, 0.5, 2, seed=11)
        assert ks_uniform(pts[:, 0]) > 0.01
        assert ks_uniform(pts[:, 1]) > 0.01

    def test_block_structure(self):
        a, m = 0.6, 3
        pts = gen_block_copula(20_000, a, m, seed=12)
        upper = pts[:, 0] >= 1.0 - a
        # upper-corner mass is binomial(n, a); 5 sigma band
        assert abs(upper.mean() - a) < 5 * math.sqrt(a * (1 - a) / 20_000)
        side = a / m
        ix = np.floor((pts[upper, 0] - (1 - a)) / side)
        iy = np.floor((pts[upper, 1] - (1 - a)) / side)
        np.testing.assert_array_equal(ix, iy)
        lower = ~upper
        assert pts[lower].max() < 1.0 - a

    def test_mutual_information_values(self):
        assert block_copula_mi(0.5, 1) == pytest.approx(0.6931471805599453, abs=1e-15)
        assert block_copula_mi(0.5, 2) == pytest.approx(1.0397207708399179, abs=1e-15)
        # MI grows without bound in m at fixed a
        assert block_copula_mi(0.5, 64) > block_copula_mi(0.5, 8) > block_copula_mi(0.5, 2)

    def test_parameter_checks(self):
        with pytest.raises(DomainError):
            gen_block_copula(10, 0.0, 2, seed=0)
        with pytest.raises(DomainError):
            gen_block_copula(10, 1.0, 2, seed=0)
        with pytest.raises(DomainError):
            gen_block_copula(10, 0.5, 0, seed=0)
        with pytest.raises(DomainError):
            block_copula_mi(1.2, 2)


class TestPointCount:
    # 10**18 points lie past the address space, so numpy refuses them before allocating
    @pytest.mark.parametrize(
        "draw",
        [
            lambda: gen_gaussian(10**18, 0.5, 0),
            lambda: gen_peano(10**18, 3, 0),
            lambda: gen_scenario("W", 10**18, 0),
        ],
        ids=["gaussian", "peano", "scenario"],
    )
    def test_count_too_large_to_hold_is_a_capability_error(self, draw):
        with pytest.raises(CapabilityError, match=f"cannot draw {10**18} points"):
            draw()

    def test_family_checks_raise_unchanged(self):
        # the guard passes the family's own refusals through as they are
        for draw, error in [
            (lambda: gen_gaussian(10**18, 2.0, 0), DomainError),
            (lambda: gen_peano(10**18, 9, 0), ConfigError),
            (lambda: gen_block_copula(n=10**18, a=0.5, m=0, seed=0), DomainError),
        ]:
            with pytest.raises(error) as exc:
                draw()
            assert type(exc.value) is error


# spec text -> the direct gen_* call it must reproduce bit for bit, one or more per family
_DISPATCH = [
    ("gaussian:rho=0.4", lambda n, seed: gen_gaussian(n, 0.4, seed)),
    ("scenario:name=Doppler", lambda n, seed: gen_scenario("Doppler", n, seed)),
    ("4clouds", lambda n, seed: gen_scenario("4 clouds", n, seed)),
    ("peano:d=inf", lambda n, seed: gen_peano(n, math.inf, seed)),
    ("peano:d=3", lambda n, seed: gen_peano(n, 3, seed)),
    ("cross:d=2", lambda n, seed: gen_cross(n, 2, seed)),
    ("cross:d=inf", lambda n, seed: gen_cross(n, math.inf, seed)),
    ("block:a=0.5", lambda n, seed: gen_block_copula(n, 0.5, 1, seed)),
    ("block:a=0.3,m=4", lambda n, seed: gen_block_copula(n, 0.3, 4, seed)),
]


class TestGeneratorSpec:
    def test_parse_forms(self):
        assert GeneratorSpec.parse("gaussian:rho=0.5").kind == "gaussian"
        assert GeneratorSpec.parse("peano:d=3").params["d"] == "3"
        assert GeneratorSpec.parse("block_copula:a=0.5,m=4").kind == "block"
        assert GeneratorSpec.parse("circle").params["name"] == "Circle"
        assert GeneratorSpec.parse("scenario:name=Doppler").params["name"] == "Doppler"

    @pytest.mark.parametrize("text, direct", _DISPATCH, ids=[text for text, _ in _DISPATCH])
    def test_generate_dispatch(self, text, direct):
        np.testing.assert_array_equal(GeneratorSpec.parse(text).generate(30, 13), direct(30, 13))

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            GeneratorSpec.parse("gaussian:rho")
        with pytest.raises(ConfigError):
            GeneratorSpec.parse("hexagon")
        with pytest.raises(ConfigError):
            GeneratorSpec.parse("gaussian:rho=abc").generate(10, 0)
        with pytest.raises(ConfigError):
            GeneratorSpec.parse("peano:").generate(10, 0)
        # unknown key, repeated key, trailing comma: the message names what the family takes
        with pytest.raises(ConfigError, match="block takes a, m"):
            GeneratorSpec.parse("block:a=0.5,nm=4")
        with pytest.raises(ConfigError, match="gaussian takes rho"):
            GeneratorSpec.parse("gaussian:rho=0.5,rho=0.9")
        with pytest.raises(ConfigError, match="gaussian takes rho"):
            GeneratorSpec.parse("gaussian:rho=0.5,")

