"""Counter-based random streams and the ordered block driver.

Every Monte-Carlo and rejection loop in this package reads its blocks from
``blocks``, and block ``k`` draws all of its randomness from its own
``substream(seed, tag, ..., k)`` (Salmon et al., SC 2011), so a result
depends only on the seed and the request, never on the worker count.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geom import integer_in

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
    with distinct keys are independent.  A seed that is not an integer
    raises InputError.
    """
    seed = integer_in(seed, "seed", -math.inf)
    acc = _GAMMA
    for part in path:
        acc = _mix64((acc + (int(part) & _MASK) + _GAMMA) & _MASK)
    key = np.array([seed & _MASK, acc], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def blocks(work, count, threads=1):
    """Yield ``work(0), work(1), ..., work(count - 1)`` in block order.

    With ``threads > 1`` the blocks run in waves of ``threads`` on a thread
    pool.  The reader may stop at any block; what it read is then what the
    serial loop yields, and at most ``threads - 1`` further blocks ran for
    nothing.
    """
    if integer_in(threads, "threads", 1) == 1:
        yield from map(work, range(count))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, count, threads):
            yield from pool.map(work, range(start, min(start + threads, count)))
