"""The orientation vote that the signed volume replaced, kept as an oracle.

``winding_points_outward`` is the former ``TriMesh._orient_inward`` decision:
25 probe points, each a little way off a face centroid along the face's
winding normal, vote by the parity of three fixed rays (the former
``TriMesh._inside_all``), and the winding normals point outward when at most
half of the probes lie inside.  The mesh now flips its normals by the sign of
its enclosed volume instead (``tests/test_surface.py`` checks that both
choose the same on the builder meshes, reversed, moved and scaled).
"""

import numpy as np

from menger_surf.surface.trimesh import _PARITY_DIRS


def inside_all(mesh, points):
    """``mesh.inside`` for each row of points, from one batch of parity rays."""
    n = len(points)
    ray, t = mesh.ray_hits(np.repeat(points, 3, axis=0),
                           np.tile(_PARITY_DIRS, (n, 1)), 0.0, np.inf)
    parity = np.bincount(ray[t > 0.0], minlength=3 * n) % 2
    return parity.reshape(n, 3).sum(axis=1) >= 2


def winding_points_outward(mesh):
    """Whether the parity vote finds the winding normals of a watertight mesh
    pointing outward, the case in which the mesh flips its stored normals."""
    cross = mesh._kernel_arrays[0]
    winding = cross / np.linalg.norm(cross, axis=1)[:, None]
    m = len(mesh.faces)
    probe = np.linspace(0, m - 1, num=min(25, m), dtype=int)
    eps = 1e-4 * mesh.mean_edge
    points = mesh._tri[probe].mean(axis=1) + eps * winding[probe]
    votes = np.count_nonzero(inside_all(mesh, points))
    return votes <= len(probe) // 2
