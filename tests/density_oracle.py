"""The face classification that ``analysis.density_quotient`` replaced.

``density_quotient`` is the former function, which ran the exact
point-triangle distance on every face of the tessellation and on every child
of each quadrisection; ``_classify_tris`` and ``_quadrisect`` are its former
helpers.  ``tests/test_analysis.py`` pins every ``DensityReport`` of the
public function to it, field for field.
"""

import numpy as np

from menger_surf import geom
from menger_surf.analysis import DensityReport
from menger_surf.geom import finite_in, integer_in
from menger_surf.surface.trimesh import _point_tri_sqdist


def density_quotient(oracle, x, radius, depth=8):
    """Area of the patch inside B(x, radius) over radius^2.

    Faces fully inside the ball count exactly; straddling faces are
    quadrisected ``depth`` times (at most 10: each step doubles the
    straddling faces), and surviving leaves count half their area when their
    centroid is inside.  The reported error bound is
    (initially straddling area) * 2^-depth.
    """
    x = oracle.point_on_surface(x, "x")
    finite_in(radius, "radius", 0)
    depth = integer_in(depth, "depth", 0, 10)
    mesh = oracle.tessellate()
    tri = mesh.vertices[mesh.faces]

    area_in = 0.0
    inside, straddle = _classify_tris(tri, x, radius)
    area_in += geom.tri_areas(tri[inside]).sum()
    straddle_area0 = float(geom.tri_areas(tri[straddle]).sum())
    work = tri[straddle]
    for _ in range(depth):
        if len(work) == 0:
            break
        work = _quadrisect(work)
        inside, straddle = _classify_tris(work, x, radius)
        area_in += geom.tri_areas(work[inside]).sum()
        work = work[straddle]
    if len(work):
        centroids = work.mean(axis=1)
        d = centroids - x
        in_c = np.einsum("ij,ij->i", d, d) <= radius * radius
        area_in += 0.5 * geom.tri_areas(work[in_c]).sum()

    quotient = float(area_in) / radius**2
    return DensityReport(x, float(radius), float(area_in), quotient,
                         quotient >= np.pi / 2.0,
                         straddle_area0 * 2.0 ** (-depth))


def _classify_tris(tri, x, radius):
    """Masks (fully inside ball, straddling) for a (m,3,3) stack."""
    if len(tri) == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, empty
    d = tri - x[None, None, :]
    vert_in = np.einsum("mvj,mvj->mv", d, d) <= radius * radius
    inside = vert_in.all(axis=1)
    touching = np.sqrt(_point_tri_sqdist(x, tri)) <= radius
    straddle = touching & ~inside
    return inside, straddle


def _quadrisect(tri):
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    return np.concatenate([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1)])
