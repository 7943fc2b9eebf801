import tracemalloc

import numpy as np
import pytest

from hellcorr.errors import CapabilityError, ConfigError
from hellcorr.rng import _integers, _keys, _streams, substream
from oracles import seed_sequence_stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**70 + 5, np.uint32(5)]
# strings, ints of one, two and three 32-bit words, and the empty path
PATHS = [(), ("t",), ("null", 3), ("outer", 5, "inner", 2), (2**32,), (2**40 + 3, "x", 2**64 + 1), (0,)]


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


def _oracle_key(seed, *path):
    return seed_sequence_stream(seed, *path).bit_generator.state["state"]["key"]


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
@pytest.mark.parametrize("path", PATHS, ids=repr)
def test_keys_and_substream_match_seed_sequence(seed, path):
    np.testing.assert_array_equal(_keys(seed, *path), _oracle_key(seed, *path))
    ours, oracle = substream(seed, *path), seed_sequence_stream(seed, *path)
    np.testing.assert_array_equal(ours.random(9), oracle.random(9))
    np.testing.assert_array_equal(ours.integers(0, 7, 5), oracle.integers(0, 7, 5))


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_index_vectors_match_seed_sequence(seed):
    idx = np.array([0, 1, 2, 7, 2**32 - 1])
    oracle = [_oracle_key(seed, "null", i) for i in idx]
    np.testing.assert_array_equal(_keys(seed, "null", idx), oracle)
    b, j = np.array([0, 3, 2**31]), np.arange(4)
    grid = _keys(seed, "inner", b[:, None], j)
    assert grid.shape == (3, 4, 2)
    np.testing.assert_array_equal(grid, [[_oracle_key(seed, "inner", x, y) for y in j] for x in b])
    # a fixed component after the index array, and a path that is only the array
    np.testing.assert_array_equal(_keys(seed, idx, "tail")[1], _oracle_key(seed, 1, "tail"))
    np.testing.assert_array_equal(_keys(seed, idx)[0], _oracle_key(seed, 0))


def test_streams_are_rekeyed_from_a_clean_state():
    # an odd count of 32-bit draws leaves half a 64-bit word buffered; the
    # next stream must not see it
    idx = np.arange(4)
    for i, rng in zip(idx, _streams(_keys(9, "blk", idx)), strict=True):
        oracle = seed_sequence_stream(9, "blk", i)
        np.testing.assert_array_equal(rng.integers(0, 5, 3), oracle.integers(0, 5, 3))
        shapes = [2.0, 7.5, 0.5]
        np.testing.assert_array_equal(rng.standard_gamma(shapes), oracle.standard_gamma(shapes))


@pytest.mark.parametrize("n", [2, 3, 12, 100])
@pytest.mark.parametrize("count", [1, 2, 11, 12, 100, 101])
def test_integers_match_generator(n, count):
    keys = _keys(17, "donors", np.arange(8))
    donors, redo = _integers(keys, n, count)
    assert donors.shape == (8, count) and not redo.any()
    for key, row in zip(keys, donors, strict=True):
        oracle = np.random.Generator(np.random.Philox(key=key)).integers(0, n, count)
        np.testing.assert_array_equal(row, oracle)


# numpy redraws about half of all words at n = 2**31 + 1 and a quarter at
# 3 * 2**30; a redraw takes further words, which the stream's state counts
@pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_integers_flag_every_redraw(n, count):
    keys = _keys(19, "redraw", np.arange(64))
    donors, redo = _integers(keys, n, count)
    assert redo.any() and not redo.all()
    for key, row, flagged in zip(keys, donors, redo, strict=True):
        rng = np.random.Generator(np.random.Philox(key=key))
        oracle = rng.integers(0, n, count)
        state = rng.bit_generator.state
        drawn = 2 * (4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]) - state["has_uint32"]
        assert flagged == (drawn > count)
        if not flagged:
            np.testing.assert_array_equal(row, oracle)


# 301 words span several Philox blocks: the donors of 3n + 1 rows at n = 100
@pytest.mark.parametrize("words", [*range(10), 301])
def test_streams_resume_where_integers_leaves_them(words):
    # read past the outputs its first words take, a stream draws the gammas
    # integers leaves it to draw; the high half integers keeps buffered after
    # an odd count is not read, as standard_gamma reads whole 64-bit outputs
    keys = _keys(5, "resume", np.arange(3))
    shapes = [1.0, 2.0, 7.5, 12.0, 0.5]
    for key, rng in zip(keys, _streams(keys), strict=True):
        oracle = np.random.Generator(np.random.Philox(key=key))
        oracle.integers(0, 12, words)
        rng.bit_generator.random_raw((words + 1) // 2)
        np.testing.assert_array_equal(rng.standard_gamma(shapes), oracle.standard_gamma(shapes))


def test_keys_peak_memory_stays_near_the_keys():
    # the (b, j) grid of a 1,000 x 1,000 double bootstrap: 16 MB of keys
    b = np.arange(1000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        keys = _keys(0, "inner", b[:, None], b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert keys.shape == (1000, 1000, 2)
    assert peak <= 3 * keys.nbytes


@pytest.mark.parametrize("idx", [np.array([0, 2**32]), np.array([2**40])], ids=["2**32", "2**40"])
def test_index_of_two_words_refused(idx):
    with pytest.raises(CapabilityError, match="below 2"):
        _keys(0, "null", idx)


@pytest.mark.parametrize("path", [(-1,), ("t", np.int64(-3)), ("t", np.array([0, -1]))], ids=repr)
def test_negative_path_integer_refused(path):
    with pytest.raises(ConfigError, match="non-negative"):
        _keys(0, *path)
    with pytest.raises(ConfigError, match="non-negative"):
        substream(0, *path)
