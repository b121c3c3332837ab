"""Counter-based random streams for reproducible, worker-independent sampling.

Every Monte-Carlo loop in this package is partitioned into fixed-size chunks.
Chunk ``k`` draws all of its randomness from ``substream(seed, tag, k)`` and
partial results are merged pairwise in chunk order, so an estimate depends
only on ``(seed, n)`` and never on how many workers ran the chunks.
"""

import numpy as np

# Quadruples (or points, or triples) per chunk in all MC estimators.
CHUNK = 4096

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x):
    # splitmix64 finalizer; plain Python ints to avoid numpy overflow pitfalls
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def substream(seed, *path):
    """Independent Philox generator keyed by ``(seed, *path)``.

    The mapping is a pure function of its arguments, so any chunk of any
    study can be regenerated in isolation.  Philox is counter-based; streams
    with distinct keys are independent.
    """
    acc = _GAMMA
    for part in path:
        acc = _mix64((acc + (int(part) & _MASK) + _GAMMA) & _MASK)
    key = np.array([int(seed) & _MASK, acc], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_sizes(n, chunk=CHUNK):
    """Sizes of the successive chunks covering ``n`` samples."""
    n = int(n)
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    return sizes
