"""Good-tetrahedron search steps that were since rewritten, kept as oracles.

``grow_cone`` is the former ``_grow_cone``, whose coarse pass cast its rays
over the whole band from t_lo to twice the diameter past it in one call.
The search now casts that pass in growing distance shells;
``tests/test_goodtetra.py`` pins its ``(rho, hits)`` against this one bit for
bit.

``classify`` and ``case_antipodal`` are the former ``_classify`` and
``_case_antipodal``: the first picked its central and its antipodal hit by
two argmax calls and formed the unit lid direction of every hit, the second
scanned 64 rotations and then bisected in a second loop.  The test module
pins the label, the hits, the axis and the second vertex of the search's
versions against these bit for bit.
"""

import numpy as np

from menger_surf import geom
from menger_surf.goodtetra import (BISECTION_TOL, PHI0, _double_cone_dirs,
                                   _hit_frame, _rotation)


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


def classify(hits, x0, v, rho, params):
    """Case label plus the relevant hit(s), in local surface coordinates."""
    y = hits - x0[None]
    ynorm = np.linalg.norm(y, axis=1)
    yhat = y / ynorm[:, None]
    axial = np.abs(yhat @ v)

    slack = params.hit_tolerance
    central = axial >= np.cos(0.75 * PHI0 + slack)
    if central.any():
        pick = int(np.argmax(np.where(central, axial, -np.inf)))
        return "central", (y[pick],)

    # projected directions through the central projection onto the lid plane:
    # antipodal hits identify, so flip by the sign of the axial component
    sign = np.where(yhat @ v >= 0.0, 1.0, -1.0)
    w = y - np.outer(y @ v, v)
    wnorm = np.linalg.norm(w, axis=1)
    ok = wnorm > 1e-12 * rho
    wdir = np.zeros_like(w)
    wdir[ok] = (sign[ok, None] * w[ok]) / wnorm[ok, None]

    idx = np.nonzero(ok)[0]
    if len(idx) > 512:
        idx = idx[np.linspace(0, len(idx) - 1, 512).astype(int)]
    if len(idx) >= 2:
        sub = wdir[idx]
        gram = np.clip(sub @ sub.T, -1.0, 1.0)
        ang = np.arccos(gram)
        i, j = np.unravel_index(int(np.argmax(ang)), ang.shape)
        if ang[i, j] >= np.pi / 3.0:
            return "wide", (y[idx[i]], y[idx[j]])

    pick = int(np.argmax(axial))
    return "antipodal", (y[pick],)


def case_antipodal(oracle, x0, v, rho, y1, params):
    """Antipodal hits: rotate the outer conical cap away from the hit.

    Returns (axis, x2, label) when subcase (a) or (b) stops the iteration,
    or (rotated_axis, None, None) when the search must continue (subcase
    (c)); the axis is rotated away from the hit's side, as seen from the cone
    half that contains the hit.
    """
    v, _, vu, _ = _hit_frame(y1, v, 1e-12 * rho)
    w = -vu  # u x v, the axis that turns v away from the hit

    n_scan = 64
    band_lo = 0.5 * rho * (1.0 - params.hit_tolerance)
    band_hi = rho * (1.0 + params.hit_tolerance)
    cos_old = np.cos(PHI0 + 2.0 * params.hit_tolerance)

    def new_point(s):
        axis = _rotation(w, s * PHI0) @ v
        dirs = _double_cone_dirs(axis, PHI0, 512, 192)
        ts = oracle.band_min_hits(x0, dirs, band_lo, band_hi)
        okm = np.isfinite(ts)
        if not okm.any():
            return None
        pts = x0[None] + ts[okm, None] * dirs[okm]
        y = pts - x0[None]
        yhat = y / np.linalg.norm(y, axis=1)[:, None]
        fresh = np.abs(yhat @ v) < cos_old
        if not fresh.any():
            return None
        cand = np.nonzero(fresh)[0]
        return pts[cand[0]]

    s_grid = np.linspace(0.0, 0.5, n_scan + 1)[1:]
    hit_pt, s_hit, s_empty = None, None, 0.0
    for s in s_grid:
        pt = new_point(s)
        if pt is not None:
            hit_pt, s_hit = pt, s
            break
        s_empty = s

    if hit_pt is not None:
        # bisect toward the earliest rotation that still sees a new point
        lo, hi, pt_hi = s_empty, s_hit, hit_pt
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            pt = new_point(mid)
            if pt is not None:
                hi, pt_hi = mid, pt
            else:
                lo = mid
        return v, pt_hi, "antipodal_3a"

    # subcase (b): forward annulus of the half-rotated cone
    v_star = _rotation(w, 0.5 * PHI0) @ v
    v_star /= np.linalg.norm(v_star)
    dirs = _double_cone_dirs(v_star, PHI0, 1024, 256)
    ts = oracle.band_min_hits(x0, dirs, rho * (1.0 + params.hit_tolerance),
                              2.0 * rho * (1.0 - 1e-6))
    okm = np.isfinite(ts)
    if okm.any():
        pick = int(np.argmin(np.where(okm, ts, np.inf)))
        return v, x0 + ts[pick] * dirs[pick], "antipodal_3b"

    return v_star, None, None  # subcase (c): caller continues with this axis
