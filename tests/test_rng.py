import numpy as np
import pytest

from hellcorr.errors import ConfigError
from hellcorr.rng import substream


def test_same_path_same_stream():
    a = substream(42, "fit", 3).random(8)
    b = substream(42, "fit", 3).random(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    base = substream(42).random(8)
    assert not np.array_equal(base, substream(43).random(8))
    assert not np.array_equal(substream(42, "a").random(8), substream(42, "b").random(8))
    assert not np.array_equal(substream(42, 1).random(8), substream(42, 2).random(8))
    assert not np.array_equal(substream(42, "x", 1).random(8), substream(42, 1, "x").random(8))


def test_mixed_path_components():
    # strings and ints may be freely combined, order matters
    v = substream(0, "outer", 5, "inner", 2).random(4)
    assert v.shape == (4,)
    np.testing.assert_array_equal(v, substream(0, "outer", 5, "inner", 2).random(4))


def test_returns_independent_generator_objects():
    g1 = substream(7, "t")
    g2 = substream(7, "t")
    g1.random(100)
    np.testing.assert_array_equal(g1.random(4), substream(7, "t").random(104)[100:])
    assert isinstance(g2, np.random.Generator)


@pytest.mark.parametrize("seed", [-1, 1.5, np.int64(-2), "3", None])
def test_seed_not_a_non_negative_integer_refused(seed):
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        substream(seed, "t")


def test_numpy_integer_seed_is_the_same_stream():
    for seed in (np.int64(5), np.uint32(5)):
        np.testing.assert_array_equal(substream(seed, "t").random(4), substream(5, "t").random(4))
