"""Deterministic random-number streams.

Every randomized routine in the package draws from a named substream derived
from (seed, path) via ``SeedSequence.spawn_key``, so replicate ``i`` sees the
same stream no matter how many worker threads run or in which order replicates
are scheduled. Philox is counter-based, which keeps independent streams cheap.
Every seed reaches numpy through ``substream``, which checks it.
"""

from zlib import crc32

import numpy as np

from .errors import _integer


def substream(seed, *path):
    """Return a Generator for the substream identified by ``path``.

    ``seed`` must be a non-negative integer (numpy integers included).
    Path components may be ints or short strings; strings are hashed with
    crc32 so stream identity does not depend on Python's randomized hash.
    """
    seed = _integer(seed, "seed", 0)
    key = tuple(
        p if isinstance(p, (int, np.integer)) else crc32(str(p).encode())
        for p in path
    )
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
