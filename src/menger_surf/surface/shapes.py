"""Procedural test meshes: icospheres, parametric grids, capsules."""

import numpy as np

from .trimesh import TriMesh

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
    [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
    [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
], dtype=float)

_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


def _unit_rows(v):
    """Rows of v over their norms, with np.linalg.norm's bits on each row."""
    return v / np.sqrt(v[:, None] @ v[:, :, None])[:, 0]


def _icosphere_arrays(subdivisions):
    """Vertices (on the unit sphere) and faces of the icosahedron subdivided
    ``subdivisions`` times: face (a, b, c) becomes (a, ab, ca), (b, bc, ab),
    (c, ca, bc) and (ab, bc, ca), the midpoints projected to the sphere and
    numbered by first appearance along the edges ab, bc, ca of each face."""
    verts, faces = _unit_rows(_ICO_VERTS), _ICO_FACES.copy()
    for _ in range(subdivisions):
        ends = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, edge = np.unique(ends[:, 0] * len(verts) + ends[:, 1],
                                   return_index=True, return_inverse=True)
        order = np.argsort(first)  # unique edges by first appearance
        i, j = ends[first[order]].T
        mid = (len(verts) + np.argsort(order))[edge].reshape(-1, 3)
        verts = np.concatenate([verts, _unit_rows(verts[i] + verts[j])])
        (a, b, c), (ab, bc, ca) = faces.T, mid.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=-1).reshape(-1, 3)
    return verts, faces


def icosphere(subdivisions, radius=1.0):
    """Geodesic sphere: icosahedron subdivided and projected to the sphere."""
    verts, faces = _icosphere_arrays(subdivisions)
    return TriMesh(radius * verts, faces)


def ellipsoid(a, b, c, subdivisions=3):
    """Icosphere stretched to half-axes (a, b, c)."""
    verts, faces = _icosphere_arrays(subdivisions)
    return TriMesh(verts * np.array([a, b, c]), faces)


def _grid_faces(ids, mirror=False):
    """Two triangles per cell of an (a+1, b+1) array of vertex ids, cells in
    row order: (v00, v10, v11) and (v00, v11, v01) with v_ij the corner
    ids[row + i, col + j], or with v01 and v10 swapped when mirrored."""
    v00, v01, v10, v11 = ids[:-1, :-1], ids[:-1, 1:], ids[1:, :-1], ids[1:, 1:]
    if mirror:
        v01, v10 = v10, v01
    return np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)


def graph_mesh(fn, extent, n=64):
    """Triangulated graph of z = fn(x, y) over [-extent, extent]^2."""
    xs = np.linspace(-extent, extent, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = fn(X, Y)
    verts = np.stack([X.ravel(), Y.ravel(), np.asarray(Z).ravel()], axis=-1)
    ids = np.arange((n + 1) ** 2, dtype=np.int64).reshape(n + 1, n + 1)
    return TriMesh(verts, _grid_faces(ids))


def flat_patch(extent, n=32):
    """Flat square patch in the z = 0 plane (open mesh, no interior)."""
    return graph_mesh(lambda x, y: np.zeros_like(x), extent, n)


def torus_mesh(R, r, nu=192, nv=96):
    u = np.arange(nu) * (2.0 * np.pi / nu)
    v = np.arange(nv) * (2.0 * np.pi / nv)
    U, V = np.meshgrid(u, v, indexing="ij")
    verts = np.stack([(R + r * np.cos(V)) * np.cos(U),
                      (R + r * np.cos(V)) * np.sin(U),
                      r * np.sin(V)], axis=-1).reshape(-1, 3)
    ids = np.arange(nu * nv, dtype=np.int64).reshape(nu, nv)
    return TriMesh(verts, _grid_faces(np.pad(ids, ((0, 1), (0, 1)), mode="wrap")))


def capsule_mesh(length, radius, n_profile=64, n_around=128):
    """Capsule about the z axis as a revolved profile (watertight)."""
    half = length / 2.0
    # profile from the -z pole to the +z pole: cap arc, wall, cap arc
    bottom = np.linspace(-np.pi / 2, 0.0, n_profile // 2, endpoint=False)
    wall = np.linspace(-half, half, max(2, n_profile // 4))
    top = np.linspace(0.0, np.pi / 2, n_profile // 2 + 1)[1:]
    rho = np.concatenate([radius * np.cos(bottom), np.full(len(wall), radius, float),
                          radius * np.cos(top)])
    zz = np.concatenate([-half + radius * np.sin(bottom), wall,
                         half + radius * np.sin(top)])
    inner = (rho > 1e-12)  # the poles' rows
    rho, zz = rho[inner], zz[inner]
    m = len(rho)

    phis = np.arange(n_around) * (2.0 * np.pi / n_around)
    ring_verts = np.stack([np.outer(rho, np.cos(phis)).ravel(),
                           np.outer(rho, np.sin(phis)).ravel(),
                           np.repeat(zz, n_around)], axis=-1)
    south = np.array([[0.0, 0.0, -half - radius]])
    north = np.array([[0.0, 0.0, half + radius]])
    verts = np.concatenate([south, ring_verts, north])
    # ring i, azimuth k: vertex 1 + i n_around + k, the first azimuth repeated
    rings = np.pad(1 + np.arange(m * n_around, dtype=np.int64).reshape(m, n_around),
                   ((0, 0), (0, 1)), mode="wrap")
    fan = np.zeros(n_around, dtype=np.int64)
    faces = np.concatenate([
        np.stack([fan, rings[0, 1:], rings[0, :-1]], axis=-1),  # south fan
        _grid_faces(rings, mirror=True),
        np.stack([fan + len(verts) - 1, rings[-1, :-1], rings[-1, 1:]], axis=-1)])
    return TriMesh(verts, faces)
