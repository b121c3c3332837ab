"""Oracles for the tetrahedron kernel and the integrands.

``geom`` and ``integrand`` evaluate the same formulas on coordinate columns
in chunks, with a sorting network for the canonical vertex order.  Most
functions here are the formulation that column kernel replaced: stable
``lexsort`` canonicalisation, ``np.cross`` and ``einsum`` on whole (n, 3)
arrays and a ``sum`` over the stacked face norms.  The column kernel must
agree with them bit for bit (``tests/test_kernel.py``).  The last three are
independent routes to the same quantities, which the tests compare within
tolerances: the circumcentre by a linear solve, and the menger integrand in
its cross-product form.
"""

import itertools

import numpy as np

from menger_surf import geom, integrand

_TET_PAIRS = list(itertools.combinations(range(4), 2))


def canonical_points(P):
    order = np.lexsort((P[:, :, 2], P[:, :, 1], P[:, :, 0]), axis=-1)
    return np.take_along_axis(P, order[:, :, None], axis=1)


def _edge_vectors(P):
    return P[:, 1] - P[:, 0], P[:, 2] - P[:, 0], P[:, 3] - P[:, 0]


def _norm(v):
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def tetra_quantities(P):
    P = np.asarray(P, dtype=float)
    z1, z2, z3 = _edge_vectors(P)
    c12 = np.cross(z1, z2)
    c23 = np.cross(z2, z3)
    c13 = np.cross(z1, z3)
    c_far = np.cross(z2 - z1, z3 - z2)

    triple = np.einsum("...i,...i->...", z3, c12)
    volume = np.abs(triple) / 6.0

    face_crosses = np.stack([_norm(c12), _norm(c23), _norm(c13), _norm(c_far)], axis=-1)
    total_area = 0.5 * face_crosses.sum(axis=-1)
    max_face = 0.5 * face_crosses.max(axis=-1)

    diam = np.zeros(len(P))
    for i, j in _TET_PAIRS:
        np.maximum(diam, _norm(P[:, i] - P[:, j]), out=diam)

    with np.errstate(divide="ignore", invalid="ignore"):
        min_height = np.where(max_face > 0.0, 3.0 * volume / max_face, 0.0)
    coplanar = min_height <= geom.TET_COPLANARITY_REL * diam
    return volume, total_area, diam, min_height, coplanar


def circumsphere_radius_batch(P):
    P = np.asarray(P, dtype=float)
    z1, z2, z3 = _edge_vectors(P)
    num = np.abs(np.einsum("...i,...i->...", z3, np.cross(z1, z2)))
    mix = (np.einsum("...i,...i->...", z1, z1)[..., None] * np.cross(z2, z3)
           + np.einsum("...i,...i->...", z2, z2)[..., None] * np.cross(z3, z1)
           + np.einsum("...i,...i->...", z3, z3)[..., None] * np.cross(z1, z2))
    den = _norm(mix)
    coplanar = tetra_quantities(P)[4]
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(num > 0.0, den / (2.0 * num), np.inf)
    return radius, coplanar


def eval_batch(spec, P):
    """The integrand on a (n, 4, 3) stack, through the oracle kernel."""
    P = np.asarray(P, dtype=float)
    n = len(P)
    out = np.zeros(n)
    if spec.kind == "circumsphere":
        radius, coplanar = circumsphere_radius_batch(canonical_points(P))
        ok = ~coplanar & np.isfinite(radius) & (radius > 0.0)
        out[ok] = 1.0 / radius[ok]
        return out
    if spec.kind == "leger":
        base = canonical_points(P[:, :3])
        x, y, z, xi = base[:, 0], base[:, 1], base[:, 2], P[:, 3]
        cross = np.cross(y - x, z - x)
        ncross = np.linalg.norm(cross, axis=1)
        edges = np.stack([np.linalg.norm(y - x, axis=1),
                          np.linalg.norm(z - x, axis=1),
                          np.linalg.norm(z - y, axis=1)], axis=-1)
        longest = edges.max(axis=-1)
        base_ok = 0.5 * ncross >= geom.TRI_DEGENERACY_REL * longest**2
        base_ok &= longest > 0.0
        da = np.linalg.norm(xi - x, axis=1)
        db = np.linalg.norm(xi - y, axis=1)
        dc = np.linalg.norm(xi - z, axis=1)
        m = integrand._mean_batch(spec.mean, da, db, dc)
        ok = base_ok & (m > 0.0)
        dist = np.abs(np.einsum("ij,ij->i", xi[ok] - x[ok], cross[ok])) / ncross[ok]
        out[ok] = dist / m[ok] ** spec.alpha
        return out
    volume, area, diam, hmin, coplanar = tetra_quantities(canonical_points(P))
    ok = ~coplanar
    if spec.kind == "menger":
        out[ok] = volume[ok] / (area[ok] * diam[ok] ** 2)
    else:
        out[ok] = hmin[ok] / diam[ok] ** (2.0 + spec.s)
    return out


def circumsphere_center(T):
    """Circumcenter by the equidistance linear system (independent route).

    Solves 2 (x_i - x_0) . c = |x_i|^2 - |x_0|^2; used to cross-check the
    closed-form radius.
    """
    T = geom.as_tetra(T)
    A = 2.0 * (T[1:] - T[0])
    b = np.einsum("ij,ij->i", T[1:], T[1:]) - T[0] @ T[0]
    det = np.linalg.det(A)
    scale = np.max(np.abs(A)) ** 3 + 1e-300
    if abs(det) < 1e-14 * scale:
        raise ValueError("coplanar")
    return np.linalg.solve(A, b)


def circumsphere_radius_solve(T):
    """Radius from the equidistant-center solve (oracle for the formula)."""
    T = geom.as_tetra(T)
    return float(np.linalg.norm(circumsphere_center(T) - T[0]))


def menger_cross_form_batch(P):
    """The cross-product form of the menger integrand on a (n,4,3) stack.

    (1/3) |z3.(z1 x z2)| / ((|z1 x z2| + |z2 x z3| + |z1 x z3| +
    |(z2-z1) x (z3-z2)|) diam^2), an algebraically identical route to the
    V/(A diam^2) definition, kept separate as a cross-check.
    """
    # row-major, so that its einsum and norm sums keep their order
    P = np.ascontiguousarray(
        integrand._canonical_points(np.asarray(P, dtype=float)))
    z1 = P[:, 1] - P[:, 0]
    z2 = P[:, 2] - P[:, 0]
    z3 = P[:, 3] - P[:, 0]
    c12 = np.cross(z1, z2)
    num = np.abs(np.einsum("ij,ij->i", z3, c12))
    csum = (np.linalg.norm(c12, axis=1)
            + np.linalg.norm(np.cross(z2, z3), axis=1)
            + np.linalg.norm(np.cross(z1, z3), axis=1)
            + np.linalg.norm(np.cross(z2 - z1, z3 - z2), axis=1))
    _, _, diam, _, coplanar = geom.tetra_quantities(P)
    out = np.zeros(len(P))
    ok = ~coplanar & (csum > 0.0)
    out[ok] = num[ok] / (3.0 * csum[ok] * diam[ok] ** 2)
    return out
