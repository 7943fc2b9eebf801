"""Deterministic random-number streams.

Every randomized routine in the package draws from a named substream: the
Philox stream that numpy's ``SeedSequence(seed, spawn_key=path)`` keys, so
replicate ``i`` sees the same stream no matter how many worker threads run
or in which order replicates are scheduled. Every seed reaches numpy
through ``_keys``, which checks it.

``_keys`` computes those keys with numpy's own hashing, without building a
SeedSequence: the seed's 32-bit words, padded to a pool of 4, are hashed
into the pool, each further word (the path's) is mixed into every pool
word, and the pool is hashed into the two 64-bit key words. A path
component may be an array of indices below 2**32, one word per stream:
the words before it are mixed once, as Python ints, and the rest
elementwise in uint32 arithmetic, so all the streams of a resampling
procedure are keyed by a few numpy calls, made once per procedure: 71 us
for 200 streams, 0.39 ms for 10,000 (2-core VM). The two key words are
written into the result in place, so keying a grid peaks at about 2.5
times the 16 bytes a key it keeps. A stream is its key with the Philox
counter at zero: ``substream`` builds a Philox from its one key, and
``_streams`` re-keys one ``Philox``/``Generator`` pair in place, through
the public ``state`` setter, with each key of a block's slice of those
keys instead of building a generator per stream. ``_raw``, ``_integers``
and ``_streams(keys, raw, words)`` compute a block's ``integers`` draws
from its streams' raw outputs at once and resume each stream after them.
A key-built Philox has no ``seed_seq``, so ``Generator.spawn`` on a
returned stream is unsupported; nothing spawns.
"""

from zlib import crc32

import numpy as np

from .errors import CapabilityError, ConfigError, _integer

_MASK = 0xFFFFFFFF
_POOL = 4
# numpy's SeedSequence hash constants, under numpy's names
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value):
    """The little-endian 32-bit words numpy splits a non-negative int into (0 is one word)."""
    words = [value & _MASK]
    while value > _MASK:
        value >>= 32
        words.append(value & _MASK)
    return words


def _hashmix(w, h, mult):
    """Hash a word under hash constant h; returns the hashed word and the next constant."""
    h2 = (h * mult) & _MASK
    w = ((w ^ h) * h2) & _MASK
    return w ^ (w >> 16), h2


def _mix(x, y):
    r = (((_MIX_MULT_L * x) & _MASK) - ((_MIX_MULT_R * y) & _MASK)) & _MASK
    return r ^ (r >> 16)


def _component(p):
    """Words of one path component: an int's own words, a string's crc32, an index array."""
    if isinstance(p, np.ndarray):  # one word per stream, so each index must fit in one
        if np.any(p < 0):
            raise ConfigError("stream indices must be non-negative")
        if np.any(p > _MASK):
            raise CapabilityError(f"stream indices must lie below 2**32, got up to {p.max()}")
        return [p.astype(np.uint32)]
    if not isinstance(p, (int, np.integer)):
        return [crc32(str(p).encode())]
    if p < 0:
        raise ConfigError(f"stream path integers must be non-negative, got {p}")
    return _words(int(p))


def _keys(seed, *path):
    """Philox keys of ``SeedSequence(seed, spawn_key=path)``: (..., 2) uint64.

    Path components may be ints, strings (hashed with crc32, so stream
    identity does not depend on Python's randomized hash) or integer index
    arrays, which broadcast against each other into the leading shape.
    """
    words = _words(_integer(seed, "seed", 0))
    words += [0] * (_POOL - len(words))
    words += [w for p in path for w in _component(p)]
    h, pool = _INIT_A, []
    for w in words[:_POOL]:
        w, h = _hashmix(w, h, _MULT_A)
        pool.append(w)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                w, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], w)
    for w in words[_POOL:]:
        for dst in range(_POOL):
            v, h = _hashmix(w, h, _MULT_A)
            pool[dst] = _mix(pool[dst], v)
    # state words 2i and 2i+1 are key word i's low and high halves, written in
    # place; each pool word is dropped once hashed, so the peak stays near the keys
    keys = np.empty(np.broadcast_shapes(*map(np.shape, pool)) + (2,), np.uint64)
    h = _INIT_B
    for i in range(_POOL):
        w, h = _hashmix(pool[i], h, _MULT_B)
        pool[i] = None
        if i % 2 == 0:
            low = w
        else:
            keys[..., i // 2] = w
            keys[..., i // 2] <<= np.uint64(32)
            keys[..., i // 2] |= low
    return keys


def _raw(keys, words):
    """The first outputs of each key's stream that hold its first ``words`` 32-bit words.

    ``keys`` is a (..., 2) array of ``_keys``, taken in C order. A 64-bit
    output holds two words, and Philox makes its outputs in blocks of 4, so
    the result is (S, 4 * ceil(words / 8)) uint64: whole blocks, as
    ``_streams`` needs them. One Philox is re-keyed in place and read with
    ``random_raw``.
    """
    count = 4 * -(-words // 8)
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    keys = np.reshape(keys, (-1, 2))
    rows = []
    for key in keys.tolist():
        state["state"]["key"] = key
        bitgen.state = state
        rows.append(bitgen.random_raw(count))
    return np.array(rows, np.uint64).reshape(len(keys), count)


def _integers(raw, n, count):
    """What ``integers(0, n, count)`` draws from streams whose first outputs are raw.

    For n <= 2**32, numpy maps each 32-bit word w of the stream, the
    low half of each output first, to (w * n) >> 32 (Lemire's method), and
    redraws a word whose low 32 bits of w * n lie below (2**32 - n) % n.
    Returns the (S, count) integers the first count words map to, and a
    boolean (S,) set for each stream on which numpy would redraw one of
    them, so that its draws differ from these.
    """
    used = (count + 1) // 2
    words = np.empty((len(raw), used, 2), np.uint64)
    np.bitwise_and(raw[:, :used], np.uint64(_MASK), out=words[..., 0])
    np.right_shift(raw[:, :used], np.uint64(32), out=words[..., 1])
    scaled = words.reshape(len(raw), -1)[:, :count] * np.uint64(n)
    redo = np.any((scaled & np.uint64(_MASK)) < (2**32 - n) % n, axis=1)
    return (scaled >> np.uint64(32)).astype(np.intp), redo


def _streams(keys, raw=None, words=0):
    """Yield the Generator of each key of a (..., 2) array of ``_keys``, in C order.

    One Philox is re-keyed in place, through the public ``state`` setter,
    so the generator yielded for a key draws from that key's stream only
    until the next is taken. Each stream starts at its first output, unless
    ``words`` is given: then it starts in the state ``integers`` leaves it
    in once it has drawn that many 32-bit words without a redraw, two to an
    output, low half first. That state (counter, buffer of 4 outputs, high
    half) is read off the key's row of ``raw``, from ``_raw(keys, words)``.
    """
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    rng = np.random.Generator(bitgen)
    keys = np.reshape(keys, (-1, 2)).tolist()
    if words == 0:
        for key in keys:
            state["state"]["key"] = key
            bitgen.state = state
            yield rng
        return
    used = (words + 1) // 2  # outputs the words take
    block = -(-used // 4)  # the counter of the block that holds the last of them
    state["state"]["counter"] = [block, 0, 0, 0]
    state["buffer_pos"] = used - 4 * (block - 1)
    state["has_uint32"] = words % 2
    buffers = raw[:, 4 * (block - 1) : 4 * block].tolist()
    halves = (raw[:, used - 1] >> np.uint64(32)).tolist()  # buffered, or left behind once read
    for key, buffer, half in zip(keys, buffers, halves, strict=True):
        state["state"]["key"] = key
        state["buffer"] = buffer
        state["uinteger"] = half
        bitgen.state = state
        yield rng


def substream(seed, *path):
    """Return a Generator for the substream identified by ``path``.

    ``seed`` must be a non-negative integer (numpy integers included).
    Path components may be non-negative ints or short strings; strings are
    hashed with crc32 so stream identity does not depend on Python's
    randomized hash.
    """
    return np.random.Generator(np.random.Philox(key=_keys(seed, *path)))
