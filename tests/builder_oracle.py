"""The builders that the shared geometric helpers replaced, kept as oracles.

``fibonacci_directions`` is the former whole-sphere direction grid of
``analysis.beta_number``, and ``cap_fibonacci`` the former body of
``geom.cap_fibonacci``; both now rotate or stack the columns of
``geom.fibonacci_columns``.  The three face functions are the former
Python loops of ``shapes.graph_mesh``, ``shapes.torus_mesh`` and
``shapes.capsule_mesh``, which now triangulate their grids with
``shapes._grid_faces``.  ``icosphere_arrays`` is the former per-face
subdivision loop of ``shapes._icosphere_arrays`` and ``capsule_vertices``
the former vertex code of ``shapes.capsule_mesh``, whose revolved profile
was built from tuple lists; both are now array code.  Every array must come back with the same values, order
and dtype (``tests/test_builders.py``), down to the sign of zero.
"""

import numpy as np

from menger_surf import geom
from menger_surf.surface.shapes import _ICO_FACES, _ICO_VERTS


def fibonacci_directions(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def cap_fibonacci(v, phi, n):
    e1, e2 = geom.orthobasis(v)
    i = np.arange(n)
    z = 1.0 - (1.0 - np.cos(phi)) * (i + 0.5) / n
    psi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return (z[:, None] * v[None]
            + (s * np.cos(psi))[:, None] * e1[None]
            + (s * np.sin(psi))[:, None] * e2[None])


def graph_faces(n):
    faces = []
    for i in range(n):
        for j in range(n):
            v00 = i * (n + 1) + j
            v01 = v00 + 1
            v10 = v00 + (n + 1)
            v11 = v10 + 1
            faces += [(v00, v10, v11), (v00, v11, v01)]
    return np.asarray(faces, dtype=np.int64)


def torus_faces(nu, nv):
    faces = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            a2 = i * nv + (j + 1) % nv
            b2 = ((i + 1) % nu) * nv + (j + 1) % nv
            faces += [(a, b, b2), (a, b2, a2)]
    return np.asarray(faces, dtype=np.int64)


def capsule_faces(m, n_around):
    """The faces of a capsule of m vertex rings of n_around vertices each
    between its south pole (vertex 0) and its north pole (the last)."""
    si, ni = 0, 1 + m * n_around

    def rv(i, k):
        return 1 + i * n_around + (k % n_around)

    faces = []
    for k in range(n_around):  # south fan
        faces.append((si, rv(0, k + 1), rv(0, k)))
    for i in range(m - 1):
        for k in range(n_around):
            a, b = rv(i, k), rv(i, k + 1)
            c, d = rv(i + 1, k), rv(i + 1, k + 1)
            faces += [(a, b, d), (a, d, c)]
    for k in range(n_around):  # north fan
        faces.append((ni, rv(m - 1, k), rv(m - 1, k + 1)))
    return np.asarray(faces, dtype=np.int64)


def icosphere_arrays(subdivisions):
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)


def capsule_vertices(length, radius, n_profile, n_around):
    half = length / 2.0
    # profile from the -z pole to the +z pole: cap arc, wall, cap arc
    ang = np.linspace(-np.pi / 2, 0.0, n_profile // 2, endpoint=False)
    bottom = [(radius * np.cos(t), -half + radius * np.sin(t)) for t in ang]
    wall = [(radius, z) for z in np.linspace(-half, half, max(2, n_profile // 4))]
    ang = np.linspace(0.0, np.pi / 2, n_profile // 2 + 1)[1:]
    top = [(radius * np.cos(t), half + radius * np.sin(t)) for t in ang]
    profile = bottom + wall + top  # (rho, z); first rho=0 is the -z pole seed

    rho = np.array([p[0] for p in profile])
    zz = np.array([p[1] for p in profile])
    inner = (rho > 1e-12)
    rho, zz = rho[inner], zz[inner]

    phis = np.arange(n_around) * (2.0 * np.pi / n_around)
    ring_verts = np.stack([np.outer(rho, np.cos(phis)).ravel(),
                           np.outer(rho, np.sin(phis)).ravel(),
                           np.repeat(zz, n_around)], axis=-1)
    south = np.array([[0.0, 0.0, -half - radius]])
    north = np.array([[0.0, 0.0, half + radius]])
    return np.concatenate([south, ring_verts, north])
