"""Seeded synthetic-data generators for the simulation studies.

Four families: correlated Gaussian pairs, fifteen noisy-shape scenarios,
uniform draws on depth-d Peano curve approximants, and uniform draws on a
bisection expanding cross. The fractal families have exactly uniform
margins at every depth while their supports carry zero product measure,
which makes them hard cases for any dependence measure. A block copula
family with closed-form mutual information rounds things out.

The shape scenarios are reconstructions: the noise levels below were tuned
so the resulting estimates land near the reference values at n = 500, and
comparisons against those values should use loose tolerances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .rng import substream

# scenario -> Gaussian noise level, tuned against the n=500 reference runs, in
# the order of the paper's Table 2 (Wedge adds no noise)
_NOISE = {
    "W": 0.10,
    "Diamond": 0.06,
    "Parabola": 0.25,
    "Two Parabolae": 0.12,
    "Circle": 0.14,
    "4 clouds": 0.25,
    "Cubic": 2.4,
    "Sine": 0.10,
    "Wedge": 0.0,
    "Cross": 0.25,
    "Spiral": 0.004,
    "Circles": 0.005,
    "Heavysine": 0.08,
    "Doppler": 0.22,
    "5 clouds": 0.50,
}
SCENARIOS = tuple(_NOISE)

_PEANO_MAX_D = 8
_CROSS_MAX_D = 6


def _rng_for(seed, tag):
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(seed, tag)


def canonical_scenario(name):
    """Resolve a scenario name, case- and punctuation-insensitively."""
    key = str(name).strip().lower().replace("_", " ").replace("-", " ")
    key = " ".join(key.split())
    for disp in SCENARIOS:
        if key == disp.lower():
            return disp
    aliases = {"4clouds": "4 clouds", "5clouds": "5 clouds", "two parabolas": "Two Parabolae"}
    if key in aliases:
        return aliases[key]
    raise ConfigError(f"unknown scenario {name!r}")


def gen_gaussian(n, rho, seed):
    """Bivariate Gaussian sample with correlation rho."""
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie strictly inside (-1, 1)")
    rng = _rng_for(seed, "gaussian")
    z = rng.standard_normal((n, 2))
    out = np.empty((n, 2))
    out[:, 0] = z[:, 0]
    out[:, 1] = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
    return out


def _scenario_points(name, n, rng):
    s = _NOISE[name]
    if name == "W":
        x = rng.uniform(-1.0, 1.0, n)
        y = 4.0 * (x * x - 0.5) ** 2 + rng.normal(0.0, s, n)
    elif name == "Diamond":
        u = rng.uniform(-1.0, 1.0, n)
        v = rng.uniform(-1.0, 1.0, n)
        x = (u + v) / 2.0 + rng.normal(0.0, s, n)
        y = (u - v) / 2.0 + rng.normal(0.0, s, n)
    elif name == "Parabola":
        x = rng.uniform(-1.0, 1.0, n)
        y = x * x + rng.normal(0.0, s, n)
    elif name == "Two Parabolae":
        x = rng.uniform(-1.0, 1.0, n)
        sign = rng.integers(0, 2, n) * 2 - 1
        y = sign * (x * x + rng.normal(0.0, s, n))
    elif name == "Circle":
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        x = np.cos(th) + rng.normal(0.0, s, n)
        y = np.sin(th) + rng.normal(0.0, s, n)
    elif name == "4 clouds":
        # both cluster labels drawn independently: independent by construction
        cx = rng.integers(0, 2, n) * 2.0 - 1.0
        cy = rng.integers(0, 2, n) * 2.0 - 1.0
        x = cx + rng.normal(0.0, s, n)
        y = cy + rng.normal(0.0, s, n)
    elif name == "Cubic":
        x = rng.uniform(0.0, 1.0, n)
        c = x - 1.0 / 3.0
        y = 128.0 * c ** 3 - 48.0 * c ** 2 - 12.0 * c + rng.normal(0.0, s, n)
    elif name == "Sine":
        x = rng.uniform(0.0, 1.0, n)
        y = np.sin(4.0 * np.pi * x) + rng.normal(0.0, s, n)
    elif name == "Wedge":
        x = rng.uniform(0.0, 1.0, n)
        y = x * rng.uniform(0.0, 1.0, n)
    elif name == "Cross":
        x = rng.uniform(-1.0, 1.0, n)
        sign = rng.integers(0, 2, n) * 2 - 1
        y = sign * x + rng.normal(0.0, s, n)
    elif name == "Spiral":
        th = rng.uniform(0.0, 3.0 * np.pi, n)
        r = th / (3.0 * np.pi)
        x = r * np.cos(th) + rng.normal(0.0, s, n)
        y = r * np.sin(th) + rng.normal(0.0, s, n)
    elif name == "Circles":
        r = np.where(rng.integers(0, 2, n) == 1, 1.0, 0.25)
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        x = r * np.cos(th) + rng.normal(0.0, s, n)
        y = r * np.sin(th) + rng.normal(0.0, s, n)
    elif name == "Heavysine":
        x = rng.uniform(0.0, 1.0, n)
        y = 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)
        y = y + rng.normal(0.0, s, n)
    elif name == "Doppler":
        x = rng.uniform(0.0, 1.0, n)
        y = np.sqrt(x * (1.0 - x)) * np.sin(2.1 * np.pi / (x + 0.05))
        y = y + rng.normal(0.0, s, n)
    elif name == "5 clouds":
        # joint cluster label: the five clouds sit on dependent positions
        k = rng.integers(0, 5, n)
        cx = np.array([-1.0, 1.0, -1.0, 1.0, 0.0])[k]
        cy = np.array([-1.0, 1.0, 1.0, -1.0, 0.0])[k]
        x = cx + rng.normal(0.0, s, n)
        y = cy + rng.normal(0.0, s, n)
    return np.column_stack((x, y))


def gen_scenario(name, n, seed):
    """Sample one of the fifteen reference shape scenarios."""
    disp = canonical_scenario(name)
    rng = _rng_for(seed, f"scenario-{disp}")
    return _scenario_points(disp, n, rng)


def _check_depth(d, dmax):
    if d == math.inf:
        return math.inf
    if isinstance(d, (int, np.integer)) and 1 <= d <= dmax:
        return int(d)
    raise ConfigError(f"depth must be an integer in [1, {dmax}] or inf")


def gen_peano(n, d, seed):
    """Uniform sample on the resolution-d Peano curve approximant.

    The curve parameter is refined one ternary digit per resolution step,
    so the support has 3^d pieces: at d=1 the classic three-stroke zigzag,
    at even d a 3^(d/2) square grid of diagonal chords. The digit
    construction complements each output digit according to the parity of
    the other coordinate's preceding digits, which keeps both coordinate
    maps measure-preserving, so the margins are exactly uniform at every
    resolution; the leftover parameter mass traces the diagonal of the
    current piece in the direction those parities dictate. d=inf
    degenerates to independent uniforms.
    """
    d = _check_depth(d, _PEANO_MAX_D)
    rng = _rng_for(seed, "peano")
    if d == math.inf:
        return rng.random((n, 2))
    cells = rng.integers(0, 3 ** d, n)
    res = rng.random(n)
    digits = np.empty((d, n), dtype=np.int64)
    rem = cells
    for pos in range(d - 1, -1, -1):
        digits[pos] = rem % 3
        rem = rem // 3
    x = np.zeros(n)
    y = np.zeros(n)
    even_sum = np.zeros(n, dtype=np.int64)
    odd_sum = np.zeros(n, dtype=np.int64)
    dx = (d + 1) // 2
    dy = d // 2
    for pos in range(1, d + 1):
        t = digits[pos - 1]
        if pos % 2 == 1:
            a = np.where(even_sum % 2 == 1, 2 - t, t)
            x = x + a * 3.0 ** -((pos + 1) // 2)
            odd_sum = odd_sum + t
        else:
            b = np.where(odd_sum % 2 == 1, 2 - t, t)
            y = y + b * 3.0 ** -(pos // 2)
            even_sum = even_sum + t
    x = x + 3.0 ** -dx * np.where(even_sum % 2 == 1, 1.0 - res, res)
    y = y + 3.0 ** -dy * np.where(odd_sum % 2 == 1, 1.0 - res, res)
    return np.column_stack((x, y))


def gen_cross(n, d, seed):
    """Uniform sample on the resolution-d bisection expanding cross.

    One bisection per resolution step, alternating axes: the support at
    resolution d is a grid of 2^(d-1) congruent rectangles, each carrying
    both of its diagonals. A draw picks a rectangle uniformly, one
    diagonal at random, and a uniform position along it. Margins are
    exactly uniform at every resolution, the support has zero area, and
    refining resolutions approach independence.
    """
    d = _check_depth(d, _CROSS_MAX_D)
    rng = _rng_for(seed, "cross")
    if d == math.inf:
        return rng.random((n, 2))
    mx = 2 ** (d // 2)
    my = 2 ** ((d - 1) // 2)
    i = rng.integers(0, mx, n)
    j = rng.integers(0, my, n)
    up = rng.integers(0, 2, n) == 1
    res = rng.random(n)
    x = (i + res) / mx
    y = (j + np.where(up, res, 1.0 - res)) / my
    return np.column_stack((x, y))


def _check_block(a, m):
    if not 0.0 < a < 1.0:
        raise DomainError("a must lie strictly inside (0, 1)")
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise DomainError("m must be a positive integer")


def gen_block_copula(n, a, m, seed):
    """Sample the block copula with lower uniform square and m diagonal blocks.

    With probability 1-a the point is uniform on [0, 1-a)^2; otherwise one
    of m diagonal sub-squares of side a/m in the upper corner is picked
    uniformly and the point is uniform inside it. Margins are uniform for
    every (a, m).
    """
    _check_block(a, m)
    rng = _rng_for(seed, "block")
    in_block = rng.random(n) < a
    nu = rng.integers(0, m, n)
    uv = rng.random((n, 2))
    side = a / m
    lo = 1.0 - a + nu * side
    return np.where(in_block[:, None], lo[:, None] + side * uv, (1.0 - a) * uv)


def block_copula_mi(a, m):
    """Mutual information of the block copula, in nats."""
    _check_block(a, m)
    return -(1.0 - a) * math.log(1.0 - a) - a * math.log(a) + a * math.log(m)


def _depth(text):
    return math.inf if text.lower() in ("inf", "infinity") else int(text)


# kind -> (gen_* function, {parameter: (parser, default)}); default None: required
_FAMILIES = {
    "gaussian": (gen_gaussian, {"rho": (float, None)}),
    "scenario": (gen_scenario, {"name": (canonical_scenario, None)}),
    "peano": (gen_peano, {"d": (_depth, None)}),
    "cross": (gen_cross, {"d": (_depth, None)}),
    "block": (gen_block_copula, {"a": (float, None), "m": (int, 1)}),
}
_ALIASES = {"block_copula": "block"}


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed generator request: a family plus its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, text):
        """Parse "kind:key=value,..." or a bare scenario name.

        Examples: "gaussian:rho=0.5", "peano:d=3", "cross:d=inf",
        "block:a=0.5,m=4", "scenario:name=Circle", "circle".
        """
        head, _, tail = str(text).partition(":")
        kind = _ALIASES.get(head.strip().lower(), head.strip().lower())
        if kind not in _FAMILIES:
            return cls(kind="scenario", params={"name": canonical_scenario(text)})
        takes = _FAMILIES[kind][1]
        params = {}
        for item in tail.split(",") if tail.strip() else ():
            key, eq, val = item.partition("=")
            key = key.strip().lower()
            if not eq or key not in takes.keys() - params.keys():
                what = ", ".join(takes)
                raise ConfigError(f"bad {kind} parameter {item!r}: {kind} takes {what}, each once")
            params[key] = val.strip()
        if kind == "scenario":
            params["name"] = canonical_scenario(params.get("name", ""))
        return cls(kind=kind, params=params)

    def generate(self, n, seed):
        """Draw n points from the described generator."""
        if self.kind not in _FAMILIES:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        fn, takes = _FAMILIES[self.kind]
        args = {}
        for key, (conv, default) in takes.items():
            if key not in self.params and default is None:
                raise ConfigError(f"generator {self.kind} needs parameter {key!r}")
            val = self.params.get(key, default)
            try:
                args[key] = conv(val) if isinstance(val, str) else val
            except ValueError:
                raise ConfigError(f"bad value {val!r} for parameter {key!r}") from None
        return fn(n=n, seed=seed, **args)
