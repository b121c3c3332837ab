"""The cone growth that the good-tetrahedron search replaced, kept as an oracle.

``grow_cone`` is the former ``_grow_cone``, whose coarse pass cast its rays
over the whole band from t_lo to twice the diameter past it in one call.
The search now casts that pass in growing distance shells;
``tests/test_goodtetra.py`` pins its ``(rho, hits)`` against this one bit for
bit.
"""

import numpy as np

from menger_surf import geom
from menger_surf.goodtetra import BISECTION_TOL, PHI0, _double_cone_dirs


def grow_cone(oracle, x0, v, t_lo, params):
    t_hi = 2.0 * oracle.diameter + t_lo
    n_cap = params.ray_count // 4
    n_rim = params.ray_count // 4
    coarse = _double_cone_dirs(v, PHI0, 128, 64)
    cts = oracle.band_min_hits(x0, coarse, t_lo, t_hi)
    if np.isfinite(cts).any():
        t_hi = float(np.min(cts)) * (1.0 + 4.0 * params.hit_tolerance)
    dirs = _double_cone_dirs(v, PHI0, n_cap, n_rim)
    ts = oracle.band_min_hits(x0, dirs, t_lo, t_hi)
    if not np.isfinite(ts).any():
        raise RuntimeError("cone growth found no surface hit")
    all_dirs = [dirs, coarse]
    all_ts = [ts, cts]

    best = int(np.argmin(ts))
    rho = float(ts[best])
    best_dir = dirs[best]
    spacing = np.sqrt(2.0 * np.pi * (1.0 - np.cos(PHI0)) / max(n_cap, 1))
    radius = 2.0 * spacing
    for _ in range(24):
        local = geom.cap_fibonacci(best_dir, radius, 256)
        local = local[np.abs(local @ v) >= np.cos(PHI0) - 1e-12]
        if len(local) == 0:
            break
        lts = oracle.band_min_hits(x0, local, t_lo, t_hi)
        all_dirs.append(local)
        all_ts.append(lts)
        lbest = int(np.argmin(lts))
        if np.isfinite(lts[lbest]) and lts[lbest] < rho:
            improvement = (rho - lts[lbest]) / rho
            rho = float(lts[lbest])
            best_dir = local[lbest]
            if improvement < BISECTION_TOL:
                break
        else:
            radius *= 0.5
            if radius < BISECTION_TOL:
                break

    dirs = np.concatenate(all_dirs)
    ts = np.concatenate(all_ts)
    on_sphere = np.isfinite(ts) & (ts <= rho * (1.0 + params.hit_tolerance))
    hits = x0[None] + ts[on_sphere, None] * dirs[on_sphere]
    return rho, hits
