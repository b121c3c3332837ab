"""The exhaustive direction search that ``analysis.beta_number`` replaced.

``beta_number`` is the former function, whose ``step`` scored every
direction against every patch point (``_max_abs_dot`` over all of ``dirs``)
and kept the lowest-index minimum if it beat the running best.
``beta_search`` is that body from ``rel = pts - x`` on, so that a point set
can be searched without a surface; ``step`` is its former local step.
``tests/test_analysis.py`` pins ``beta`` and ``best_normal`` of the pruned
search to these, bit for bit.
"""

import numpy as np

from menger_surf import geom
from menger_surf.analysis import BetaReport, _max_abs_dot, patch_samples
from menger_surf.geom import instance_of, integer_in
from menger_surf.surface import SurfaceOracle


def step(dirs, rel, best):  # the (direction, value) best, or a better one of dirs
    vals = _max_abs_dot(dirs, rel)
    i = int(np.argmin(vals))
    return (dirs[i], float(vals[i])) if vals[i] < best[1] else best


def beta_search(rel, grid_level):
    """The (direction, value) of the former search over the patch ``rel``."""
    # the small-residual plane normal is an excellent candidate and makes
    # exactly flat patches come out at machine zero
    _, _, vt = np.linalg.svd(rel, full_matrices=False)
    best = step(vt[-1:], rel, (None, np.inf))

    # levels are cumulative (each adds its grid and a refinement around the
    # running best), so a finer grid_level can only lower the reported value
    for k in range(grid_level + 1):
        best = step(np.stack(geom.fibonacci_columns(2.0, 500 * 4**k), axis=-1),
                    rel, best)
        spacing = 2.0 / np.sqrt(500 * 4**k)
        best = step(geom.cap_fibonacci(best[0] / np.linalg.norm(best[0]),
                                       2.0 * spacing, 600), rel, best)
    return best


def beta_number(oracle, x, r, n_patch=4000, grid_level=1, seed=0):
    instance_of(oracle, SurfaceOracle, "oracle")
    x = oracle.point_on_surface(x, "x")
    grid_level = integer_in(grid_level, "grid_level", 0, 6)
    pts = patch_samples(oracle, x, r, n_patch, seed)
    if len(pts) == 0:
        raise ValueError("empty patch")
    best = beta_search(pts - x, grid_level)
    return BetaReport(x, float(r), float(best[1] / r), best[0], grid_level)
