"""The analytic ray queries that the one-root-path versions replaced, kept as
oracles.

``segment_roots`` is the former ``Torus._segment_roots``, the per-ray solver
that ``Torus._ray_roots`` once left the rays with a negligible leading
coefficient to: ``np.roots`` on the quartic from its first coefficient above
1e-14 times the largest.  ``solve_quadratic_batch`` is the former
``_solve_quadratic_batch``, which returned its roots as two arrays, and
``sphere_ray_hits`` and ``capsule_ray_hits`` are the former
``Sphere.ray_hits`` and ``Capsule.ray_hits`` bodies, each with its own
sphere quadratic.  ``self`` is renamed ``surf`` throughout.  The backings
must give the same roots and (ray, t) pairs bit for bit
(``tests/test_rays.py``), so the dot products of whole vectors here are
the backings' row-wise ``einsum`` and every square is x * x.
"""

import numpy as np

from menger_surf.surface.analytic import _hits


def _dot(u, w):
    return np.einsum("...i,...i->...", u, w)


def segment_roots(surf, a, d):
    # (|p|^2 + R^2 - r^2)^2 = 4 R^2 (px^2 + py^2) as a quartic in t
    q = np.array([_dot(a, a) + surf.R**2 - surf.r**2, 2.0 * _dot(a, d),
                  _dot(d, d)])
    w = np.array([a[0] * a[0] + a[1] * a[1],
                  2.0 * (a[0] * d[0] + a[1] * d[1]),
                  d[0] * d[0] + d[1] * d[1]])
    poly = np.convolve(q, q)
    poly[:3] -= 4.0 * surf.R**2 * w
    # highest-degree first for np.roots
    coeffs = poly[::-1]
    lead = np.max(np.abs(coeffs)) + 1e-300
    nz = np.nonzero(np.abs(coeffs) > 1e-14 * lead)[0]
    if len(nz) == 0 or len(coeffs) - nz[0] <= 1:
        return np.empty(0)
    roots = np.roots(coeffs[nz[0]:])
    real = roots[np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))].real
    return surf._polish(a, np.tile(d, (len(real), 1)), real)


def solve_quadratic_batch(A, B, C):
    """Stable roots of A t^2 + B t + C = 0, vectorized.

    Returns (t1, t2, valid) with t1 <= t2; linear equations fill both slots
    with the single root; no real root -> valid False.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    lin = np.abs(A) < 1e-300
    disc = B * B - 4.0 * A * C
    valid = (disc >= 0.0) & ~lin
    sq = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
    q = -0.5 * (B + np.where(B >= 0.0, sq, -sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(valid, q / np.where(A == 0.0, 1.0, A), np.inf)
        r2 = np.where(valid & (np.abs(q) > 0.0), C / np.where(q == 0.0, 1.0, q), r1)
        tlin = np.where(np.abs(B) > 0.0, -C / np.where(B == 0.0, 1.0, B), np.inf)
    r1 = np.where(lin, tlin, r1)
    r2 = np.where(lin, tlin, r2)
    valid = valid | (lin & np.isfinite(r1))
    t1 = np.minimum(r1, r2)
    t2 = np.maximum(r1, r2)
    return t1, t2, valid


def sphere_ray_hits(surf, origins, dirs, tmin, tmax):
    o = np.asarray(origins, dtype=float) - surf.center
    dirs = np.asarray(dirs, dtype=float)
    t1, t2, valid = solve_quadratic_batch(
        _dot(dirs, dirs), _dot(2.0 * dirs, o), _dot(o, o) - surf.radius**2)
    return _hits(np.stack([t1, t2], axis=1), valid[:, None], tmin, tmax)


def capsule_ray_hits(surf, origins, dirs, tmin, tmax):
    o = np.asarray(origins, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    cands = np.full((len(dirs), 6), np.inf)
    # wall
    A = dirs[:, 0] * dirs[:, 0] + dirs[:, 1] * dirs[:, 1]
    B = 2.0 * (o[..., 0] * dirs[:, 0] + o[..., 1] * dirs[:, 1])
    C = o[..., 0] * o[..., 0] + o[..., 1] * o[..., 1] - surf.radius**2
    t1, t2, valid = solve_quadratic_batch(A, B, C)
    for col, t in ((0, t1), (1, t2)):
        tf = np.where(np.isfinite(t), t, 0.0)
        z = o[..., 2] + tf * dirs[:, 2]
        ok = valid & np.isfinite(t) & (np.abs(z) <= surf.half)
        cands[:, col] = np.where(ok, t, np.inf)
    # caps
    for col, sign in ((2, 1.0), (4, -1.0)):
        cz = sign * surf.half
        oz = o.copy()
        oz[..., 2] -= cz
        A = _dot(dirs, dirs)
        B = _dot(2.0 * dirs, oz)
        C = _dot(oz, oz) - surf.radius**2
        t1, t2, valid = solve_quadratic_batch(A, B, C)
        for dcol, t in ((0, t1), (1, t2)):
            tf = np.where(np.isfinite(t), t, 0.0)
            z = o[..., 2] + tf * dirs[:, 2]
            ok = valid & np.isfinite(t) & (sign * (z - cz) >= -1e-12)
            cands[:, col + dcol] = np.where(ok, t, np.inf)
    return _hits(cands, np.isfinite(cands), tmin, tmax)
