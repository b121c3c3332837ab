"""The samplers that the shared draw cores replaced, kept as oracles.

Each function is the former whole-surface ``sample(rng, n)`` body of one
backing, with ``self`` renamed ``surf``.  They stack whole (n, 3) arrays,
gather the (n, 3, 3) face corners, look faces up by ``np.searchsorted`` and
test every proposal of a rejection block.  The sphere's, the torus's, the
saddle's and the mesh's ``sample`` and ``sample_points`` without a ball must
return their rows bit for bit and leave the generator in the same state
(``tests/test_sampling.py``).  The capsule now draws its whole surface as
its full z band, with other draws, so ``capsule`` (wall or cap by area, then
a height) is a reference in distribution only.

``patch`` is the reference for the samplers with a ball: the whole-surface
sample, culled by the exact ball test.  The local samplers must match it in
distribution on the patch.
"""

import numpy as np

from menger_surf.surface import TriMesh
from menger_surf.surface.analytic import Capsule, SaddlePatch, Sphere, Torus


def sphere(surf, rng, n):
    # Archimedes: z uniform on [-rho, rho] is area-uniform
    z = rng.random(n) * 2.0 - 1.0
    phi = rng.random(n) * 2.0 * np.pi
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    w = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    return surf.center + surf.radius * w, -w


def torus(surf, rng, n):
    # minor angle by rejection with weight (R + r cos v)/(R + r): exact
    # area measure r (R + r cos v) du dv
    v = np.empty(0)
    while len(v) < n:
        prop = rng.random(4096) * 2.0 * np.pi
        acc = rng.random(4096) <= (surf.R + surf.r * np.cos(prop)) / (surf.R + surf.r)
        v = np.concatenate([v, prop[acc]])
    v = v[:n]
    u = rng.random(n) * 2.0 * np.pi
    cu, su = np.cos(u), np.sin(u)
    cv, sv = np.cos(v), np.sin(v)
    pts = np.stack([(surf.R + surf.r * cv) * cu,
                    (surf.R + surf.r * cv) * su,
                    surf.r * sv], axis=-1)
    outward = np.stack([cv * cu, cv * su, sv], axis=-1)
    return pts, -outward


def saddle(surf, rng, n):
    wmax = np.sqrt(1.0 + 2.0 * surf.L**2)
    xy = np.empty((0, 2))
    while len(xy) < n:
        prop = (rng.random((4096, 2)) * 2.0 - 1.0) * surf.L
        w = np.sqrt(1.0 + prop[:, 0]**2 + prop[:, 1]**2) / wmax
        acc = rng.random(4096) <= w
        xy = np.concatenate([xy, prop[acc]])
    xy = xy[:n]
    x, y = xy[:, 0], xy[:, 1]
    pts = np.stack([x, y, x * y], axis=-1)
    nrm = np.sqrt(1.0 + x**2 + y**2)
    normals = np.stack([-y / nrm, -x / nrm, 1.0 / nrm], axis=-1)
    return pts, normals


def capsule(surf, rng, n):
    u = rng.random(n) * surf.total_area
    phi = rng.random(n) * 2.0 * np.pi
    h = rng.random(n)
    cyl = u < surf.cyl_area
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


def mesh(surf, rng, n):
    u = rng.random(n) * surf.total_area
    fi = np.minimum(np.searchsorted(surf.cum_areas, u), len(surf.faces) - 1)
    r1 = rng.random(n)
    r2 = rng.random(n)
    r1 = np.sqrt(r1)
    tri = surf._tri[fi]
    pts = ((1.0 - r1)[:, None] * tri[:, 0]
           + (r1 * (1.0 - r2))[:, None] * tri[:, 1]
           + (r1 * r2)[:, None] * tri[:, 2])
    return pts, surf.face_normals[fi].copy()


ORACLES = {Sphere: sphere, Torus: torus, SaddlePatch: saddle,
           Capsule: capsule, TriMesh: mesh}


def sample(surf, rng, n):
    """The former ``surf.sample(rng, n)`` of any backing."""
    return ORACLES[type(surf)](surf, rng, n)


def patch(surf, rng, n, ball):
    """The points of n whole-surface draws that lie in the ball (center,
    radius), by the exact test of the patch callers."""
    pts = sample(surf, rng, n)[0]
    d = pts - ball[0]
    return pts[np.einsum("ij,ij->i", d, d) <= ball[1] ** 2]
