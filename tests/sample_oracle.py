"""The samplers that the shared draw cores replaced, kept as oracles.

Each function is the former ``sample(rng, n, ball)`` body of one backing,
with ``self`` renamed ``surf``.  They stack whole (n, 3) arrays, gather the
(n, 3, 3) face corners, look faces up by ``np.searchsorted`` and test every
proposal of a rejection block.  The backings' ``sample`` and
``sample_points`` must return their rows bit for bit and leave the generator
in the same state (``tests/test_sampling.py``).
"""

import numpy as np

from menger_surf import geom
from menger_surf.surface import TriMesh
from menger_surf.surface.analytic import Capsule, SaddlePatch, Sphere, Torus


def sphere(surf, rng, n, ball=None):
    # Archimedes: z uniform on [-rho, rho] is area-uniform
    z = rng.random(n) * 2.0 - 1.0
    phi = rng.random(n) * 2.0 * np.pi
    if ball is not None:
        x, reach = geom.ball_reach(ball, surf.diameter)
        keep = np.abs(surf.center[2] + surf.radius * z - x[2]) <= reach
        z, phi = z[keep], phi[keep]
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    w = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    return surf.center + surf.radius * w, -w


def torus(surf, rng, n, ball=None):
    # minor angle by rejection with weight (R + r cos v)/(R + r): exact
    # area measure r (R + r cos v) du dv
    v = np.empty(0)
    while len(v) < n:
        prop = rng.random(4096) * 2.0 * np.pi
        acc = rng.random(4096) <= (surf.R + surf.r * np.cos(prop)) / (surf.R + surf.r)
        v = np.concatenate([v, prop[acc]])
    v = v[:n]
    u = rng.random(n) * 2.0 * np.pi
    if ball is not None:
        # |p - x| >= 2 sqrt(rho_p rho_x) sin(|u - u_x| / 2), rho_p >= R - r
        x, reach = geom.ball_reach(ball, surf.diameter)
        chord = 2.0 * np.sqrt((surf.R - surf.r) * np.hypot(x[0], x[1]))
        if reach < chord:
            # | |u - (u_x + pi)| - pi | is the wrapped angle from u to u_x
            off = np.abs(np.abs(u - (np.arctan2(x[1], x[0]) + np.pi)) - np.pi)
            keep = off <= 2.0 * np.arcsin(reach / chord) + 1e-9
            u, v = u[keep], v[keep]
    cu, su = np.cos(u), np.sin(u)
    cv, sv = np.cos(v), np.sin(v)
    pts = np.stack([(surf.R + surf.r * cv) * cu,
                    (surf.R + surf.r * cv) * su,
                    surf.r * sv], axis=-1)
    outward = np.stack([cv * cu, cv * su, sv], axis=-1)
    return pts, -outward


def saddle(surf, rng, n, ball=None):
    wmax = np.sqrt(1.0 + 2.0 * surf.L**2)
    xy = np.empty((0, 2))
    while len(xy) < n:
        prop = (rng.random((4096, 2)) * 2.0 - 1.0) * surf.L
        w = np.sqrt(1.0 + prop[:, 0]**2 + prop[:, 1]**2) / wmax
        acc = rng.random(4096) <= w
        xy = np.concatenate([xy, prop[acc]])
    xy = xy[:n]
    if ball is not None:
        c, reach = geom.ball_reach(ball, surf.diameter)
        xy = xy[np.all(np.abs(xy - c[:2]) <= reach, axis=1)]
    x, y = xy[:, 0], xy[:, 1]
    pts = np.stack([x, y, x * y], axis=-1)
    nrm = np.sqrt(1.0 + x**2 + y**2)
    normals = np.stack([-y / nrm, -x / nrm, 1.0 / nrm], axis=-1)
    return pts, normals


def capsule(surf, rng, n, ball=None):
    u = rng.random(n) * surf.total_area
    phi = rng.random(n) * 2.0 * np.pi
    h = rng.random(n)
    cyl = u < surf.cyl_area
    if ball is not None:
        x, reach = geom.ball_reach(ball, surf.diameter)
        top = np.where(u < surf.cyl_area + surf.cap_area / 2.0, 1.0, -1.0)
        z = np.where(cyl, (h - 0.5) * surf.length, top * (surf.half + surf.radius * h))
        keep = np.abs(z - x[2]) <= reach
        u, phi, h, cyl = u[keep], phi[keep], h[keep], cyl[keep]
    pts = np.empty((len(u), 3))
    normals = np.empty((len(u), 3))
    c, s = np.cos(phi), np.sin(phi)
    # cylinder wall
    z = (h[cyl] - 0.5) * surf.length
    pts[cyl] = np.stack([surf.radius * c[cyl], surf.radius * s[cyl], z], axis=-1)
    normals[cyl] = np.stack([-c[cyl], -s[cyl], np.zeros(int(cyl.sum()))], axis=-1)
    # end caps: split the remaining area evenly, hemisphere z-uniform
    cap = ~cyl
    top = u[cap] < surf.cyl_area + surf.cap_area / 2.0
    zc = h[cap]  # uniform in [0, 1] -> hemisphere by Archimedes
    sc = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
    w = np.stack([sc * c[cap], sc * s[cap], np.where(top, zc, -zc)], axis=-1)
    centers = np.zeros((int(cap.sum()), 3))
    centers[:, 2] = np.where(top, surf.half, -surf.half)
    pts[cap] = centers + surf.radius * w
    normals[cap] = -w
    return pts, normals


def mesh(surf, rng, n, ball=None):
    u = rng.random(n) * surf.total_area
    fi = np.minimum(np.searchsorted(surf.cum_areas, u), len(surf.faces) - 1)
    r1 = rng.random(n)
    r2 = rng.random(n)
    if ball is not None:
        c, reach = geom.ball_reach(ball, surf.diameter)
        keep = (surf.box_distances(c)[0] <= reach)[fi]
        fi, r1, r2 = fi[keep], r1[keep], r2[keep]
    r1 = np.sqrt(r1)
    tri = surf._tri[fi]
    pts = ((1.0 - r1)[:, None] * tri[:, 0]
           + (r1 * (1.0 - r2))[:, None] * tri[:, 1]
           + (r1 * r2)[:, None] * tri[:, 2])
    return pts, surf.face_normals[fi].copy()


ORACLES = {Sphere: sphere, Torus: torus, SaddlePatch: saddle,
           Capsule: capsule, TriMesh: mesh}


def sample(surf, rng, n, ball=None):
    """The former ``surf.sample(rng, n, ball)`` of any backing."""
    return ORACLES[type(surf)](surf, rng, n, ball)
